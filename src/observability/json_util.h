#ifndef ALDSP_OBSERVABILITY_JSON_UTIL_H_
#define ALDSP_OBSERVABILITY_JSON_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aldsp::observability {

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string* out, std::string_view s);

/// An ordered snapshot document: the one field list an observability
/// plane builds from its typed snapshot, and from which RenderJson,
/// RenderJsonLines and RenderText derive every export of that plane.
/// Members keep insertion order, so a plane's field list reads top to
/// bottom in the order its JSON prints.
class SnapshotDoc {
 public:
  enum class Kind {
    kInt,
    kQuoted,   // a pre-formatted token between quotes, unescaped
    kReal,     // fixed decimals
    kBool,
    kString,   // escaped on output
    kRawJson,  // embedded verbatim; `null` when empty
    // Containers, last so is_container() is one comparison.
    kObject,   // fields: nested objects flatten in text
    kList,
    kKeyed,    // an object keyed by data: one text line per key
  };

  static SnapshotDoc Int(int64_t v) { return {Kind::kInt, v}; }
  /// A uint64 as a quoted decimal: fingerprints overflow JSON doubles.
  static SnapshotDoc Fingerprint(uint64_t v) {
    return Quoted(std::to_string(v));
  }
  static SnapshotDoc Quoted(std::string token) {
    return {Kind::kQuoted, 0, 0, std::move(token)};
  }
  static SnapshotDoc Real(double v, int digits) {
    return {Kind::kReal, digits, v};
  }
  static SnapshotDoc Bool(bool v) { return {Kind::kBool, v ? 1 : 0}; }
  static SnapshotDoc String(std::string v) {
    return {Kind::kString, 0, 0, std::move(v)};
  }
  static SnapshotDoc RawJson(std::string json) {
    return {Kind::kRawJson, 0, 0, std::move(json)};
  }
  /// Containers. `title` opens the text rendering of a document root.
  static SnapshotDoc Object(std::string title = "") {
    return {Kind::kObject, 0, 0, std::move(title)};
  }
  static SnapshotDoc List(std::string title = "") {
    return {Kind::kList, 0, 0, std::move(title)};
  }
  static SnapshotDoc Keyed(std::string title = "") {
    return {Kind::kKeyed, 0, 0, std::move(title)};
  }

  /// Appends a member to an object or keyed object; on a temporary the
  /// chain yields the temporary, so a builder can return it.
  SnapshotDoc& Add(std::string name, SnapshotDoc value) &;
  SnapshotDoc&& Add(std::string name, SnapshotDoc value) && {
    return std::move(Add(std::move(name), std::move(value)));
  }
  /// Appends an element to a list and returns the element, so a field
  /// list can fill it in place.
  SnapshotDoc& Push(SnapshotDoc value);

  Kind kind() const { return kind_; }
  bool is_container() const { return kind_ >= Kind::kObject; }
  /// The string, quoted token or embedded JSON of a scalar; the title of
  /// a container.
  const std::string& text() const { return text_; }
  size_t size() const { return values_.size(); }
  /// Member name ("" for a list element) and value of child `i`.
  const std::string& name(size_t i) const { return names_[i]; }
  const SnapshotDoc& value(size_t i) const { return values_[i]; }
  /// The member called `name`, or an empty list when there is none.
  const SnapshotDoc& Member(std::string_view name) const;

 private:
  SnapshotDoc(Kind kind, int64_t i, double real = 0, std::string text = "")
      : kind_(kind), int_(i), real_(real), text_(std::move(text)) {}

  Kind kind_;
  int64_t int_;  // integer, bool, or the real's digits
  double real_;
  std::string text_;
  std::vector<std::string> names_;
  std::vector<SnapshotDoc> values_;

  friend void AppendJson(std::string* out, const SnapshotDoc& doc);
};

/// Compact JSON, no whitespace.
std::string RenderJson(const SnapshotDoc& doc);
void AppendJson(std::string* out, const SnapshotDoc& doc);

/// JSON Lines: each element of `list` as compact JSON on its own line.
std::string RenderJsonLines(const SnapshotDoc& list);

/// Text rendering. Line 1 is the root's title followed by its scalars as
/// `name=value`; fields of a nested object print as `parent.name=value`.
/// Each list element (`[i]`) and each keyed member (its key) opens its
/// own line, indented two spaces per level. A value prints as its JSON,
/// except that a string or embedded JSON holding a newline prints as a
/// block under its line: `name:`, then its lines indented one level
/// deeper.
std::string RenderText(const SnapshotDoc& doc);

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_JSON_UTIL_H_
