#include "xml/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace aldsp::xml {

const char* AtomicTypeName(AtomicType t) {
  switch (t) {
    case AtomicType::kString:
      return "xs:string";
    case AtomicType::kInteger:
      return "xs:integer";
    case AtomicType::kDecimal:
      return "xs:decimal";
    case AtomicType::kDouble:
      return "xs:double";
    case AtomicType::kBoolean:
      return "xs:boolean";
    case AtomicType::kDateTime:
      return "xs:dateTime";
    case AtomicType::kUntyped:
      return "xs:untypedAtomic";
  }
  return "unknown";
}

bool IsNumeric(AtomicType t) {
  return t == AtomicType::kInteger || t == AtomicType::kDecimal ||
         t == AtomicType::kDouble;
}

AtomicValue AtomicValue::OfString(AtomicType type, std::string_view v) {
  if (v.size() <= kInlineCapacity) {
    AtomicValue out;
    out.rep_.chars = Chars{type, static_cast<uint8_t>(v.size()), {}};
    if (!v.empty()) std::memcpy(out.rep_.chars.bytes, v.data(), v.size());
    return out;
  }
  if (v.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("atomic string value of 4 GiB or more");
  }
  Word w = WordOf(type);
  w.size = kOnHeap;
  w.length = static_cast<uint32_t>(v.size());
  w.heap = CopyOut(v);
  return AtomicValue(w);
}

char* AtomicValue::CopyOut(std::string_view v) {
  char* block = std::allocator<char>().allocate(v.size());
  std::memcpy(block, v.data(), v.size());
  return block;
}

AtomicValue AtomicValue::String(std::string_view v) {
  return OfString(AtomicType::kString, v);
}
AtomicValue AtomicValue::Untyped(std::string_view v) {
  return OfString(AtomicType::kUntyped, v);
}
AtomicValue AtomicValue::Integer(int64_t v) {
  Word w = WordOf(AtomicType::kInteger);
  w.integer = v;
  return AtomicValue(w);
}
AtomicValue AtomicValue::Decimal(double v) {
  Word w = WordOf(AtomicType::kDecimal);
  w.real = v;
  return AtomicValue(w);
}
AtomicValue AtomicValue::Double(double v) {
  Word w = WordOf(AtomicType::kDouble);
  w.real = v;
  return AtomicValue(w);
}
AtomicValue AtomicValue::Boolean(bool v) {
  Word w = WordOf(AtomicType::kBoolean);
  w.boolean = v;
  return AtomicValue(w);
}
AtomicValue AtomicValue::DateTime(int64_t epoch_seconds) {
  Word w = WordOf(AtomicType::kDateTime);
  w.integer = epoch_seconds;
  return AtomicValue(w);
}

double AtomicValue::NumericAsDouble() const {
  if (type() == AtomicType::kInteger) return static_cast<double>(AsInteger());
  return AsDouble();
}

namespace {

std::string FormatDouble(double v) {
  // Render integral doubles without a fractional tail, else shortest
  // round-trip-ish representation.
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Days in month, ignoring leap seconds; proleptic Gregorian.
bool IsLeapYear(int y) {
  return (y % 4 == 0 && y % 100 != 0) || (y % 400 == 0);
}

int DaysInMonth(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

std::string AtomicValue::Lexical() const {
  switch (type()) {
    case AtomicType::kString:
    case AtomicType::kUntyped:
      return std::string(AsString());
    case AtomicType::kInteger:
      return std::to_string(AsInteger());
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return FormatDouble(AsDouble());
    case AtomicType::kBoolean:
      return AsBoolean() ? "true" : "false";
    case AtomicType::kDateTime:
      return FormatDateTime(AsDateTime());
  }
  return "";
}

Result<AtomicValue> AtomicValue::CastTo(AtomicType target) const {
  const AtomicType type = this->type();
  if (target == type) return *this;
  switch (target) {
    case AtomicType::kString:
      return AtomicValue::String(Lexical());
    case AtomicType::kUntyped:
      return AtomicValue::Untyped(Lexical());
    case AtomicType::kInteger: {
      if (is_numeric()) return AtomicValue::Integer(static_cast<int64_t>(NumericAsDouble()));
      if (type == AtomicType::kBoolean) return AtomicValue::Integer(AsBoolean() ? 1 : 0);
      if (type == AtomicType::kDateTime) return AtomicValue::Integer(AsDateTime());
      if (is_string()) {
        errno = 0;
        char* end = nullptr;
        const std::string s(AsString());
        long long v = std::strtoll(s.c_str(), &end, 10);
        if (end == s.c_str() || (end && *end != '\0') || errno != 0) {
          return Status::RuntimeError("cannot cast '" + s + "' to xs:integer");
        }
        return AtomicValue::Integer(v);
      }
      break;
    }
    case AtomicType::kDecimal:
    case AtomicType::kDouble: {
      double v;
      if (is_numeric()) {
        v = NumericAsDouble();
      } else if (type == AtomicType::kBoolean) {
        v = AsBoolean() ? 1.0 : 0.0;
      } else if (is_string()) {
        errno = 0;
        char* end = nullptr;
        const std::string s(AsString());
        v = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || (end && *end != '\0') || errno != 0) {
          return Status::RuntimeError("cannot cast '" + s + "' to " +
                                      AtomicTypeName(target));
        }
      } else {
        break;
      }
      return target == AtomicType::kDecimal ? AtomicValue::Decimal(v)
                                            : AtomicValue::Double(v);
    }
    case AtomicType::kBoolean: {
      if (is_numeric()) return AtomicValue::Boolean(NumericAsDouble() != 0.0);
      if (is_string()) {
        const std::string_view s = AsString();
        if (s == "true" || s == "1") return AtomicValue::Boolean(true);
        if (s == "false" || s == "0") return AtomicValue::Boolean(false);
        return Status::RuntimeError("cannot cast '" + std::string(s) +
                                    "' to xs:boolean");
      }
      break;
    }
    case AtomicType::kDateTime: {
      if (type == AtomicType::kInteger) return AtomicValue::DateTime(AsInteger());
      if (is_string()) {
        ALDSP_ASSIGN_OR_RETURN(int64_t secs,
                               ParseDateTime(std::string(AsString())));
        return AtomicValue::DateTime(secs);
      }
      break;
    }
  }
  return Status::RuntimeError(std::string("unsupported cast from ") +
                              AtomicTypeName(type) + " to " +
                              AtomicTypeName(target));
}

bool AtomicValue::Equals(const AtomicValue& other) const {
  auto cmp = Compare(other);
  return cmp.ok() && cmp.value() == 0;
}

Result<int> AtomicValue::Compare(const AtomicValue& other) const {
  // Numeric promotion across integer/decimal/double.
  if (is_numeric() && other.is_numeric()) {
    if (type() == AtomicType::kInteger && other.type() == AtomicType::kInteger) {
      int64_t a = AsInteger();
      int64_t b = other.AsInteger();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = NumericAsDouble();
    double b = other.NumericAsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (type() == AtomicType::kBoolean && other.type() == AtomicType::kBoolean) {
    int a = AsBoolean() ? 1 : 0;
    int b = other.AsBoolean() ? 1 : 0;
    return a - b;
  }
  if (type() == AtomicType::kDateTime && other.type() == AtomicType::kDateTime) {
    int64_t a = AsDateTime();
    int64_t b = other.AsDateTime();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Untyped data compares through string form against strings (handled
  // above); everything else is a dynamic error per XQuery semantics.
  return Status::RuntimeError(std::string("cannot compare ") +
                              AtomicTypeName(type()) + " with " +
                              AtomicTypeName(other.type()));
}

size_t HeapBytes(const std::string& s) {
  static const size_t inline_capacity = std::string().capacity();
  return s.capacity() > inline_capacity ? s.capacity() + 1 : 0;
}

bool operator==(const AtomicValue& a, const AtomicValue& b) {
  return a.Equals(b);
}

std::string FormatDateTime(int64_t epoch_seconds) {
  // Convert epoch seconds to UTC broken-down time without <ctime> to keep
  // behaviour deterministic across platforms.
  int64_t days = epoch_seconds / 86400;
  int64_t rem = epoch_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  int year = 1970;
  while (true) {
    int ydays = IsLeapYear(year) ? 366 : 365;
    if (days >= ydays) {
      days -= ydays;
      ++year;
    } else if (days < 0) {
      --year;
      days += IsLeapYear(year) ? 366 : 365;
    } else {
      break;
    }
  }
  int month = 1;
  while (days >= DaysInMonth(year, month)) {
    days -= DaysInMonth(year, month);
    ++month;
  }
  int day = static_cast<int>(days) + 1;
  int hh = static_cast<int>(rem / 3600);
  int mm = static_cast<int>((rem % 3600) / 60);
  int ss = static_cast<int>(rem % 60);
  // Room for six fields of the widest int ("-2147483648"), their
  // separators and the terminator, so no value can truncate.
  char buf[6 * 11 + 6 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ", year,
                month, day, hh, mm, ss);
  return buf;
}

Result<int64_t> ParseDateTime(const std::string& lexical) {
  int year, month, day, hh, mm, ss;
  int n = std::sscanf(lexical.c_str(), "%d-%d-%dT%d:%d:%d", &year, &month,
                      &day, &hh, &mm, &ss);
  if (n != 6 || month < 1 || month > 12 || day < 1 ||
      day > DaysInMonth(year, month) || hh < 0 || hh > 23 || mm < 0 ||
      mm > 59 || ss < 0 || ss > 60) {
    return Status::RuntimeError("invalid xs:dateTime literal: " + lexical);
  }
  int64_t days = 0;
  if (year >= 1970) {
    for (int y = 1970; y < year; ++y) days += IsLeapYear(y) ? 366 : 365;
  } else {
    for (int y = year; y < 1970; ++y) days -= IsLeapYear(y) ? 366 : 365;
  }
  for (int m = 1; m < month; ++m) days += DaysInMonth(year, m);
  days += day - 1;
  return days * 86400 + hh * 3600 + mm * 60 + ss;
}

}  // namespace aldsp::xml
