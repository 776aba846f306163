#include "runtime/tuple_repr.h"

#include <cstring>

namespace aldsp::runtime {

using xml::AtomicType;
using xml::AtomicValue;
using xml::Sequence;
using xml::Token;
using xml::TokenKind;
using xml::TokenVector;

const char* TupleReprName(TupleRepr r) {
  switch (r) {
    case TupleRepr::kStream:
      return "stream";
    case TupleRepr::kSingleToken:
      return "single-token";
    case TupleRepr::kArray:
      return "array";
  }
  return "?";
}

namespace {

// ----- Compact binary token encoding ------------------------------------
// The stream and single-token representations store tokens as packed
// bytes (the in-memory analogue of the wire-level token stream of [11]),
// which is what gives them their low memory footprint; field access pays
// for sequential decoding (Fig. 4's tradeoff).

enum : char {
  kOpBeginTuple = 'B',
  kOpFieldSep = 'F',
  kOpEndTuple = 'E',
  kOpStartElement = '<',
  kOpEndElement = '>',
  kOpAttribute = 'A',
  kOpAtom = 'T',
};

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutBytes(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const AtomicValue& v) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case AtomicType::kInteger: {
      int64_t n = v.AsInteger();
      out->append(reinterpret_cast<const char*>(&n), 8);
      break;
    }
    case AtomicType::kDateTime: {
      int64_t n = v.AsDateTime();
      out->append(reinterpret_cast<const char*>(&n), 8);
      break;
    }
    case AtomicType::kDecimal:
    case AtomicType::kDouble: {
      double d = v.AsDouble();
      out->append(reinterpret_cast<const char*>(&d), 8);
      break;
    }
    case AtomicType::kBoolean:
      out->push_back(v.AsBoolean() ? 1 : 0);
      break;
    case AtomicType::kString:
    case AtomicType::kUntyped:
      PutBytes(out, v.AsString());
      break;
  }
}

class ByteReader {
 public:
  ByteReader(const std::string& bytes, size_t pos) : bytes_(bytes), pos_(pos) {}

  bool AtEnd() const { return pos_ >= bytes_.size(); }
  size_t pos() const { return pos_; }
  char PeekOp() const { return bytes_[pos_]; }
  char TakeOp() { return bytes_[pos_++]; }

  uint32_t TakeU32() {
    uint32_t v;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  std::string TakeBytes() {
    uint32_t n = TakeU32();
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  AtomicValue TakeValue() {
    AtomicType type = static_cast<AtomicType>(bytes_[pos_++]);
    switch (type) {
      case AtomicType::kInteger:
      case AtomicType::kDateTime: {
        int64_t n;
        std::memcpy(&n, bytes_.data() + pos_, 8);
        pos_ += 8;
        return type == AtomicType::kInteger ? AtomicValue::Integer(n)
                                            : AtomicValue::DateTime(n);
      }
      case AtomicType::kDecimal:
      case AtomicType::kDouble: {
        double d;
        std::memcpy(&d, bytes_.data() + pos_, 8);
        pos_ += 8;
        return type == AtomicType::kDecimal ? AtomicValue::Decimal(d)
                                            : AtomicValue::Double(d);
      }
      case AtomicType::kBoolean:
        return AtomicValue::Boolean(bytes_[pos_++] != 0);
      case AtomicType::kString:
        return AtomicValue::String(TakeBytes());
      case AtomicType::kUntyped:
        return AtomicValue::Untyped(TakeBytes());
    }
    return AtomicValue();
  }

  // Decodes exactly one token (op already known to be present).
  Token TakeToken() {
    char op = TakeOp();
    switch (op) {
      case kOpBeginTuple:
        return Token::BeginTuple();
      case kOpFieldSep:
        return Token::FieldSeparator();
      case kOpEndTuple:
        return Token::EndTuple();
      case kOpStartElement:
        return Token::StartElement(TakeBytes());
      case kOpEndElement:
        return Token::EndElement(TakeBytes());
      case kOpAttribute: {
        std::string name = TakeBytes();
        return Token::Attribute(std::move(name), TakeValue());
      }
      case kOpAtom:
      default:
        return Token::Atom(TakeValue());
    }
  }

 private:
  const std::string& bytes_;
  size_t pos_;
};

void EncodeToken(const Token& t, std::string* out) {
  switch (t.kind) {
    case TokenKind::kBeginTuple:
      out->push_back(kOpBeginTuple);
      break;
    case TokenKind::kFieldSeparator:
      out->push_back(kOpFieldSep);
      break;
    case TokenKind::kEndTuple:
      out->push_back(kOpEndTuple);
      break;
    case TokenKind::kStartElement:
      out->push_back(kOpStartElement);
      PutBytes(out, t.name);
      break;
    case TokenKind::kEndElement:
      out->push_back(kOpEndElement);
      PutBytes(out, t.name);
      break;
    case TokenKind::kAttribute:
      out->push_back(kOpAttribute);
      PutBytes(out, t.name);
      PutValue(out, t.value);
      break;
    case TokenKind::kAtom:
      out->push_back(kOpAtom);
      PutValue(out, t.value);
      break;
    default:
      break;  // documents never enter tuple buffers
  }
}

// Encodes a framed tuple.
void EncodeFields(const std::vector<Sequence>& fields, std::string* out) {
  out->push_back(kOpBeginTuple);
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out->push_back(kOpFieldSep);
    TokenVector tokens;
    xml::SequenceToTokens(fields[i], &tokens);
    for (const Token& t : tokens) EncodeToken(t, out);
  }
  out->push_back(kOpEndTuple);
}

// Scans a framed tuple starting at `pos` (a BeginTuple op) and decodes
// field `field` — skipping earlier fields token by token, the stream
// representation's access cost.
Result<Sequence> DecodeField(const std::string& bytes, size_t pos,
                             size_t field) {
  ByteReader reader(bytes, pos);
  if (reader.AtEnd() || reader.PeekOp() != kOpBeginTuple) {
    return Status::Internal("corrupt tuple frame");
  }
  reader.TakeOp();
  size_t current = 0;
  int depth = 0;
  TokenVector out;
  while (!reader.AtEnd()) {
    char op = reader.PeekOp();
    if (depth == 0 && op == kOpFieldSep) {
      reader.TakeOp();
      if (current == field) return xml::TokensToSequence(out);
      ++current;
      continue;
    }
    if (depth == 0 && op == kOpEndTuple) {
      if (current == field) return xml::TokensToSequence(out);
      return Status::InvalidArgument("tuple field index out of range");
    }
    Token t = reader.TakeToken();
    if (t.kind == TokenKind::kStartElement) ++depth;
    if (t.kind == TokenKind::kEndElement) --depth;
    if (current == field) out.push_back(std::move(t));
  }
  return Status::Internal("unterminated tuple frame");
}

}  // namespace

struct TupleBuffer::BoxedTupleBytes {
  std::string bytes;
};

TupleBuffer::TupleBuffer(TupleRepr repr, size_t field_count)
    : repr_(repr), field_count_(field_count) {}

TupleBuffer::~TupleBuffer() = default;

void TupleBuffer::Append(const std::vector<Sequence>& fields) {
  switch (repr_) {
    case TupleRepr::kStream:
      tuple_offsets_.push_back(stream_bytes_.size());
      EncodeFields(fields, &stream_bytes_);
      break;
    case TupleRepr::kSingleToken: {
      auto boxed = std::make_shared<BoxedTupleBytes>();
      EncodeFields(fields, &boxed->bytes);
      boxed_.push_back(std::move(boxed));
      break;
    }
    case TupleRepr::kArray:
      for (const auto& f : fields) array_.push_back(f);
      break;
  }
  ++tuple_count_;
}

Result<Sequence> TupleBuffer::GetField(size_t row, size_t field) const {
  if (row >= tuple_count_ || field >= field_count_) {
    return Status::InvalidArgument("tuple buffer index out of range");
  }
  switch (repr_) {
    case TupleRepr::kStream:
      return DecodeField(stream_bytes_, tuple_offsets_[row], field);
    case TupleRepr::kSingleToken:
      return DecodeField(boxed_[row]->bytes, 0, field);
    case TupleRepr::kArray:
      return array_[row * field_count_ + field];
  }
  return Status::Internal("unhandled tuple representation");
}

Result<std::vector<Sequence>> TupleBuffer::GetTuple(size_t row) const {
  std::vector<Sequence> out;
  out.reserve(field_count_);
  for (size_t f = 0; f < field_count_; ++f) {
    ALDSP_ASSIGN_OR_RETURN(Sequence s, GetField(row, f));
    out.push_back(std::move(s));
  }
  return out;
}

size_t TupleBuffer::MemoryBytes() const {
  size_t total = sizeof(TupleBuffer);
  switch (repr_) {
    case TupleRepr::kStream:
      total += stream_bytes_.capacity();
      total += tuple_offsets_.capacity() * sizeof(size_t);
      break;
    case TupleRepr::kSingleToken:
      for (const auto& b : boxed_) {
        total += sizeof(BoxedTupleBytes) + sizeof(std::shared_ptr<void>);
        total += b->bytes.capacity();
      }
      break;
    case TupleRepr::kArray:
      for (const auto& s : array_) total += xml::SequenceMemoryBytes(s);
      total += array_.capacity() * sizeof(Sequence);
      break;
  }
  return total;
}

}  // namespace aldsp::runtime
