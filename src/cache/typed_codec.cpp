#include "cache/typed_codec.h"

#include "common/string_util.h"
#include "xml/token.h"

namespace aldsp::cache {

using xml::AtomicType;
using xml::AtomicValue;
using xml::Token;
using xml::TokenKind;
using xml::TokenVector;

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1] == 'n' ? '\n' : s[i + 1];
      ++i;
    } else {
      out += s[i];
    }
  }
  return out;
}

const char* TypeTag(AtomicType t) {
  switch (t) {
    case AtomicType::kString:
      return "str";
    case AtomicType::kInteger:
      return "int";
    case AtomicType::kDecimal:
      return "dec";
    case AtomicType::kDouble:
      return "dbl";
    case AtomicType::kBoolean:
      return "bool";
    case AtomicType::kDateTime:
      return "dt";
    case AtomicType::kUntyped:
      return "untyped";
  }
  return "untyped";
}

Result<AtomicType> TypeFromTag(const std::string& tag) {
  if (tag == "str") return AtomicType::kString;
  if (tag == "int") return AtomicType::kInteger;
  if (tag == "dec") return AtomicType::kDecimal;
  if (tag == "dbl") return AtomicType::kDouble;
  if (tag == "bool") return AtomicType::kBoolean;
  if (tag == "dt") return AtomicType::kDateTime;
  if (tag == "untyped") return AtomicType::kUntyped;
  return Status::InvalidArgument("unknown type tag: " + tag);
}

Result<AtomicValue> ValueFrom(AtomicType type, const std::string& lexical) {
  if (type == AtomicType::kString) return AtomicValue::String(lexical);
  if (type == AtomicType::kUntyped) return AtomicValue::Untyped(lexical);
  return AtomicValue::Untyped(lexical).CastTo(type);
}

}  // namespace

std::string EncodeTypedSequence(const xml::Sequence& seq) {
  TokenVector tokens;
  xml::SequenceToTokens(seq, &tokens);
  std::string out;
  for (const Token& t : tokens) {
    switch (t.kind) {
      case TokenKind::kStartElement:
        out += "SE " + Escape(t.name) + "\n";
        break;
      case TokenKind::kEndElement:
        out += "EE " + Escape(t.name) + "\n";
        break;
      case TokenKind::kAttribute:
        out += "AT " + Escape(t.name) + " " + TypeTag(t.value.type()) + " " +
               Escape(t.value.Lexical()) + "\n";
        break;
      case TokenKind::kAtom:
        out += std::string("TX ") + TypeTag(t.value.type()) + " " +
               Escape(t.value.Lexical()) + "\n";
        break;
      default:
        break;  // documents/tuple framing never appear in cached results
    }
  }
  return out;
}

Result<xml::Sequence> DecodeTypedSequence(std::string_view encoded) {
  TokenVector tokens;
  for (const std::string& line : Split(encoded, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> parts = Split(line, ' ');
    const std::string& kind = parts[0];
    if (kind == "SE" && parts.size() == 2) {
      tokens.push_back(Token::StartElement(Unescape(parts[1])));
    } else if (kind == "EE" && parts.size() == 2) {
      tokens.push_back(Token::EndElement(Unescape(parts[1])));
    } else if (kind == "AT" && parts.size() >= 4) {
      ALDSP_ASSIGN_OR_RETURN(AtomicType type, TypeFromTag(parts[2]));
      std::string lexical = Join(
          std::vector<std::string>(parts.begin() + 3, parts.end()), " ");
      ALDSP_ASSIGN_OR_RETURN(AtomicValue v, ValueFrom(type, Unescape(lexical)));
      tokens.push_back(Token::Attribute(Unescape(parts[1]), std::move(v)));
    } else if (kind == "TX" && parts.size() >= 2) {
      ALDSP_ASSIGN_OR_RETURN(AtomicType type, TypeFromTag(parts[1]));
      std::string lexical =
          parts.size() > 2
              ? Join(std::vector<std::string>(parts.begin() + 2, parts.end()),
                     " ")
              : "";
      ALDSP_ASSIGN_OR_RETURN(AtomicValue v, ValueFrom(type, Unescape(lexical)));
      tokens.push_back(Token::Atom(std::move(v)));
    } else {
      return Status::InvalidArgument("malformed typed-codec line: " + line);
    }
  }
  return xml::TokensToSequence(tokens);
}

}  // namespace aldsp::cache
