#ifndef ALDSP_XML_VALUE_H_
#define ALDSP_XML_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace aldsp::xml {

/// Atomic types of the XQuery Data Model subset supported by the platform.
/// kUntyped corresponds to xs:untypedAtomic (data whose type annotation was
/// lost); ALDSP's structural typing keeps data typed end-to-end, so untyped
/// values appear only at the edges (e.g. unvalidated file input).
enum class AtomicType {
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

/// A single typed atomic value.
class AtomicValue {
 public:
  AtomicValue() : type_(AtomicType::kUntyped), repr_(std::string()) {}

  static AtomicValue String(std::string v);
  static AtomicValue Untyped(std::string v);
  static AtomicValue Integer(int64_t v);
  static AtomicValue Decimal(double v);
  static AtomicValue Double(double v);
  static AtomicValue Boolean(bool v);
  /// Seconds since the Unix epoch, matching the paper's int2date example.
  static AtomicValue DateTime(int64_t epoch_seconds);

  AtomicType type() const { return type_; }

  bool is_string() const {
    return type_ == AtomicType::kString || type_ == AtomicType::kUntyped;
  }
  bool is_numeric() const { return IsNumeric(type_); }

  /// Accessors; caller must check type() first.
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  int64_t AsInteger() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  bool AsBoolean() const { return std::get<bool>(repr_); }
  int64_t AsDateTime() const { return std::get<int64_t>(repr_); }

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

  /// Approximate heap footprint in bytes, used by memory accounting in the
  /// runtime (tuple representation and group-by benchmarks).
  size_t MemoryBytes() const;

 private:
  AtomicValue(AtomicType type, std::variant<std::string, int64_t, double, bool> repr)
      : type_(type), repr_(std::move(repr)) {}

  AtomicType type_;
  std::variant<std::string, int64_t, double, bool> repr_;
};

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
  static Cell Str(std::string v) {
    return Of(AtomicValue::String(std::move(v)));
  }
  static Cell Dbl(double v) { return Of(AtomicValue::Double(v)); }
  static Cell Bool(bool v) { return Of(AtomicValue::Boolean(v)); }
  static Cell Ts(int64_t epoch_seconds) {
    return Of(AtomicValue::DateTime(epoch_seconds));
  }

  std::string ToString() const { return is_null ? "NULL" : value.Lexical(); }
};

/// Formats epoch seconds as an xs:dateTime lexical value (UTC).
std::string FormatDateTime(int64_t epoch_seconds);
/// Parses an xs:dateTime lexical value ("2006-09-12T10:30:00" with optional
/// trailing "Z") to epoch seconds.
Result<int64_t> ParseDateTime(const std::string& lexical);

}  // namespace aldsp::xml

#endif  // ALDSP_XML_VALUE_H_
