#ifndef ALDSP_OBSERVABILITY_INTERNED_H_
#define ALDSP_OBSERVABILITY_INTERNED_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

// The shared strings retained observability records point at instead of
// owning a copy: a statement's text, the tenant names and the sets of
// source names. A record is then a fixed-size struct, and its fields
// still compare and print like the strings they stand for.

namespace aldsp::observability {

/// FNV-1a 64-bit hash of `text`.
uint64_t Fnv1a(std::string_view text);

/// String comparison and printing for a handle with a `view()`, so a
/// record field reads in tests and callers like the string it replaced.
template <typename Handle>
struct ComparesAsString {
  template <typename S, typename = std::enable_if_t<
                            std::is_convertible_v<const S&, std::string_view>>>
  friend bool operator==(const Handle& h, const S& s) {
    return h.view() == std::string_view(s);
  }
  friend std::ostream& operator<<(std::ostream& os, const Handle& h) {
    return os << h.view();
  }
};

/// An immutable, reference-counted string with its FNV-1a hash, both
/// taken once when it is built. A plan's text is built when Prepare
/// compiles or rebinds it; every record of its executions holds the one
/// copy and keeps it alive after the plan is evicted.
class SharedText : public ComparesAsString<SharedText> {
 public:
  SharedText() = default;
  SharedText(std::string text);  // NOLINT(runtime/explicit)
  SharedText(const char* text)    // NOLINT(runtime/explicit)
      : SharedText(std::string(text)) {}

  const std::string& str() const { return body_ ? body_->text : Empty(); }
  operator const std::string&() const { return str(); }
  std::string_view view() const { return str(); }
  /// The first `n` characters, or the whole text when it is shorter.
  std::string_view head(size_t n) const { return view().substr(0, n); }
  bool empty() const { return str().empty(); }
  uint64_t hash() const;

  friend bool operator==(const SharedText& a, const SharedText& b) {
    return a.body_ == b.body_ || a.str() == b.str();
  }
  friend bool operator!=(const SharedText& a, const SharedText& b) {
    return !(a == b);
  }

 private:
  struct Body {
    std::string text;
    uint64_t hash;
  };
  static const std::string& Empty();

  std::shared_ptr<const Body> body_;
};

/// Per-tenant metric series, each named "tenant.<label>.<suffix>".
enum class TenantMetric {
  kQueries,
  kErrors,
  kCancels,
  kSheds,
  kWallMicros,
  kSourceWaitMicros,
  kSourceRoundtrips,
  kRows,
  kPeakBytes,
  kInFlight,
  kPeakInFlight,
  kAdmitted,
  kAdmissionQueued,
  kAdmissionShed,
  kCount,
};

/// A tenant (a principal's user name), interned: the first handle naming
/// it builds its entry and its metric keys once, and the entry is never
/// freed, so a handle is one pointer that outlives every record holding
/// it. Entries grow with the distinct user names seen, as the per-tenant
/// metric series already do.
class Tenant : public ComparesAsString<Tenant> {
 public:
  Tenant() : entry_(Intern({})) {}  // anonymous
  Tenant(const std::string& name)    // NOLINT(runtime/explicit)
      : entry_(Intern(name)) {}
  Tenant(const char* name)  // NOLINT(runtime/explicit)
      : entry_(Intern(name)) {}

  /// The user name; "" is anonymous.
  const std::string& name() const { return entry_->name; }
  operator const std::string&() const { return name(); }
  std::string_view view() const { return name(); }
  /// The name, or "(anonymous)".
  const std::string& label() const { return entry_->label; }
  const std::string& metric(TenantMetric m) const {
    return entry_->metrics[static_cast<size_t>(m)];
  }

  friend bool operator==(Tenant a, Tenant b) { return a.entry_ == b.entry_; }
  friend bool operator!=(Tenant a, Tenant b) { return a.entry_ != b.entry_; }

 private:
  struct Entry {
    std::string name;
    std::string label;
    std::string metrics[static_cast<size_t>(TenantMetric::kCount)];
  };
  static const Entry* Intern(std::string_view name);

  const Entry* entry_;
};

/// A sorted, duplicate-free set of source names, interned like Tenant:
/// executions touching the same sources share one never-freed list.
class SourceSet {
 public:
  SourceSet() = default;  // no sources
  SourceSet(std::vector<std::string> names);  // NOLINT(runtime/explicit)
  SourceSet(std::initializer_list<std::string> names)
      : SourceSet(std::vector<std::string>(names)) {}
  /// From names already sorted and unique; copies them only the first
  /// time the set is seen.
  explicit SourceSet(const std::set<std::string>& names);

  const std::vector<std::string>& names() const {
    return names_ != nullptr ? *names_ : Empty();
  }
  size_t size() const { return names().size(); }
  const std::string& operator[](size_t i) const { return names()[i]; }
  auto begin() const { return names().begin(); }
  auto end() const { return names().end(); }

 private:
  static const std::vector<std::string>& Empty();

  const std::vector<std::string>* names_ = nullptr;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_INTERNED_H_
