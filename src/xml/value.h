#ifndef ALDSP_XML_VALUE_H_
#define ALDSP_XML_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace aldsp::xml {

/// Atomic types of the XQuery Data Model subset supported by the platform.
/// kUntyped corresponds to xs:untypedAtomic (data whose type annotation was
/// lost); ALDSP's structural typing keeps data typed end-to-end, so untyped
/// values appear only at the edges (e.g. unvalidated file input).
enum class AtomicType : uint8_t {
  kString = 0,
  kInteger,   // xs:integer / SQL INTEGER, BIGINT
  kDecimal,   // xs:decimal / SQL DECIMAL (stored as double in this repo)
  kDouble,    // xs:double / SQL DOUBLE
  kBoolean,   // xs:boolean
  kDateTime,  // xs:dateTime (stored as seconds since 1970-01-01T00:00:00Z)
  kUntyped,
};

const char* AtomicTypeName(AtomicType t);

/// Whether values of type `from` may be promoted to `to` for comparison or
/// arithmetic (numeric promotion ladder integer -> decimal -> double).
bool IsNumeric(AtomicType t);

/// A single typed atomic value, 16 bytes (DESIGN.md "Atomic values"): a
/// type byte, a length byte and 14 payload bytes. Integers, doubles,
/// booleans and dateTimes live in the payload, and so does a string of up
/// to kInlineCapacity bytes; a longer string lives in one heap block the
/// value owns, which a copy copies.
class AtomicValue {
 public:
  static constexpr size_t kInlineCapacity = 14;

  /// The empty xs:untypedAtomic.
  AtomicValue() { rep_.chars = Chars{AtomicType::kUntyped, 0, {}}; }
  AtomicValue(const AtomicValue& other) : rep_(other.rep_) {
    if (on_heap()) rep_.word.heap = CopyOut(other.AsString());
  }
  /// A moved-from string is empty; other values keep theirs.
  AtomicValue(AtomicValue&& other) noexcept : rep_(other.rep_) {
    other.Disown();
  }
  AtomicValue& operator=(const AtomicValue& other) {
    if (this != &other) *this = AtomicValue(other);
    return *this;
  }
  AtomicValue& operator=(AtomicValue&& other) noexcept {
    if (this != &other) {
      Release();
      rep_ = other.rep_;
      other.Disown();
    }
    return *this;
  }
  ~AtomicValue() { Release(); }

  static AtomicValue String(std::string_view v);
  static AtomicValue Untyped(std::string_view v);
  static AtomicValue Integer(int64_t v);
  static AtomicValue Decimal(double v);
  static AtomicValue Double(double v);
  static AtomicValue Boolean(bool v);
  /// Seconds since the Unix epoch, matching the paper's int2date example.
  static AtomicValue DateTime(int64_t epoch_seconds);

  // Every member of the union starts with the type and the length byte,
  // so both may be read through either member.
  AtomicType type() const { return rep_.chars.type; }

  bool is_string() const {
    return type() == AtomicType::kString || type() == AtomicType::kUntyped;
  }
  bool is_numeric() const { return IsNumeric(type()); }

  /// Accessors; caller must check type() first. The view lives as long as
  /// the value is neither changed nor destroyed.
  std::string_view AsString() const {
    return on_heap() ? std::string_view(rep_.word.heap, rep_.word.length)
                     : std::string_view(rep_.chars.bytes, rep_.chars.size);
  }
  int64_t AsInteger() const { return rep_.word.integer; }
  double AsDouble() const { return rep_.word.real; }
  bool AsBoolean() const { return rep_.word.boolean; }
  int64_t AsDateTime() const { return rep_.word.integer; }

  /// Numeric value widened to double (integer/decimal/double only).
  double NumericAsDouble() const;

  /// XML-serialization lexical form ("42", "true",
  /// "2006-09-12T00:00:00Z", ...).
  std::string Lexical() const;

  /// Casts to another atomic type following (a subset of) XQuery cast rules.
  Result<AtomicValue> CastTo(AtomicType target) const;

  /// Value equality with numeric promotion; values of incomparable types
  /// are unequal.
  bool Equals(const AtomicValue& other) const;

  /// Three-way comparison for order-comparable values: <0, 0, >0.
  /// Returns an error for incomparable types (e.g. string vs integer).
  Result<int> Compare(const AtomicValue& other) const;

  /// Bytes held outside the value: an out-of-line string's block, else 0.
  /// Memory accounting charges these on top of the slot the value sits in.
  size_t HeapBytes() const { return on_heap() ? rep_.word.length : 0; }

 private:
  // The length byte of a string whose bytes are out of line.
  static constexpr uint8_t kOnHeap = 0xff;

  // A string of up to kInlineCapacity bytes.
  struct Chars {
    AtomicType type;
    uint8_t size;
    char bytes[kInlineCapacity];
  };
  // Any other value: a number, a boolean, or an out-of-line string.
  struct Word {
    AtomicType type;
    uint8_t size;  // kOnHeap for an out-of-line string, else 0
    uint32_t length;
    union {
      int64_t integer;
      double real;
      bool boolean;
      char* heap;
    };
  };
  union Rep {
    Chars chars;
    Word word;
  };

  static Word WordOf(AtomicType type) {
    Word w{};
    w.type = type;
    return w;
  }
  explicit AtomicValue(const Word& word) { rep_.word = word; }

  bool on_heap() const { return rep_.chars.size == kOnHeap; }
  /// A string of `type` holding a copy of `v`.
  static AtomicValue OfString(AtomicType type, std::string_view v);
  /// A new heap block holding `v`'s bytes, from the allocator
  /// std::string uses, so allocation counters see it the same way.
  static char* CopyOut(std::string_view v);
  /// Frees an out-of-line string; the representation is left as it was.
  void Release() {
    if (on_heap()) {
      std::allocator<char>().deallocate(rep_.word.heap, rep_.word.length);
    }
  }
  /// After this value's representation was moved elsewhere: an
  /// out-of-line string becomes the empty string, as it no longer owns
  /// its block.
  void Disown() {
    if (on_heap()) rep_.chars = Chars{type(), 0, {}};
  }

  Rep rep_;
};

static_assert(sizeof(AtomicValue) == 16, "AtomicValue is 16 bytes");

bool operator==(const AtomicValue& a, const AtomicValue& b);

/// A nullable atomic value: one cell of a relational row. NULLs are
/// modeled explicitly here and become *missing elements* when rows cross
/// into XML (paper §4.4: "NULLs are modeled as missing column elements, so
/// the rows can be 'ragged'").
struct Cell {
  bool is_null = true;
  AtomicValue value;

  static Cell Null() { return {}; }
  static Cell Of(AtomicValue v) { return {false, std::move(v)}; }
  static Cell Int(int64_t v) { return Of(AtomicValue::Integer(v)); }
  static Cell Str(std::string_view v) { return Of(AtomicValue::String(v)); }
  static Cell Dbl(double v) { return Of(AtomicValue::Double(v)); }
  static Cell Bool(bool v) { return Of(AtomicValue::Boolean(v)); }
  static Cell Ts(int64_t epoch_seconds) {
    return Of(AtomicValue::DateTime(epoch_seconds));
  }

  std::string ToString() const { return is_null ? "NULL" : value.Lexical(); }
};

/// Out-of-line bytes of a string: none while it fits its inline buffer.
size_t HeapBytes(const std::string& s);

/// Formats epoch seconds as an xs:dateTime lexical value (UTC).
std::string FormatDateTime(int64_t epoch_seconds);
/// Parses an xs:dateTime lexical value ("2006-09-12T10:30:00" with optional
/// trailing "Z") to epoch seconds.
Result<int64_t> ParseDateTime(const std::string& lexical);

}  // namespace aldsp::xml

#endif  // ALDSP_XML_VALUE_H_
