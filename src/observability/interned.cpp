#include "observability/interned.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <set>
#include <unordered_map>

namespace aldsp::observability {

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

SharedText::SharedText(std::string text) {
  const uint64_t hash = Fnv1a(text);
  body_ = std::make_shared<const Body>(Body{std::move(text), hash});
}

uint64_t SharedText::hash() const {
  static const uint64_t kEmptyHash = Fnv1a({});
  return body_ ? body_->hash : kEmptyHash;
}

const std::string& SharedText::Empty() {
  static const std::string* empty = new std::string();
  return *empty;
}

namespace {

constexpr const char* kTenantMetricSuffixes[] = {
    "queries",          "errors",         "cancels",
    "sheds",            "wall_micros",    "source_wait_micros",
    "source_roundtrips", "rows",          "peak_bytes",
    "in_flight",        "peak_in_flight", "admitted",
    "admission_queued", "admission_shed",
};
static_assert(std::size(kTenantMetricSuffixes) ==
              static_cast<size_t>(TenantMetric::kCount));

}  // namespace

const Tenant::Entry* Tenant::Intern(std::string_view name) {
  auto build = [](std::string_view n) {
    auto* e = new Entry;
    e->name = std::string(n);
    e->label = n.empty() ? "(anonymous)" : e->name;
    for (size_t m = 0; m < std::size(kTenantMetricSuffixes); ++m) {
      e->metrics[m] = "tenant." + e->label + "." + kTenantMetricSuffixes[m];
    }
    return e;
  };
  static const Entry* const anonymous = build({});
  if (name.empty()) return anonymous;
  // Never freed: handles are plain pointers into this table.
  static std::mutex mu;
  static auto* table = new std::unordered_map<std::string, const Entry*>();
  std::lock_guard<std::mutex> lock(mu);
  const Entry*& entry = (*table)[std::string(name)];
  if (entry == nullptr) entry = build(name);
  return entry;
}

namespace {

// Orders name lists, and finds one by any sorted range of names.
struct NamesLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

struct SourceSets {
  std::mutex mu;
  std::set<std::vector<std::string>, NamesLess> sets;
};

// Never freed: handles are plain pointers into its sets.
SourceSets& Interned() {
  static auto* interned = new SourceSets();
  return *interned;
}

}  // namespace

SourceSet::SourceSet(std::vector<std::string> names) {
  if (names.empty()) return;
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  SourceSets& interned = Interned();
  std::lock_guard<std::mutex> lock(interned.mu);
  names_ = &*interned.sets.insert(std::move(names)).first;
}

SourceSet::SourceSet(const std::set<std::string>& names) {
  if (names.empty()) return;
  SourceSets& interned = Interned();
  std::lock_guard<std::mutex> lock(interned.mu);
  auto it = interned.sets.find(names);
  if (it == interned.sets.end()) {
    it = interned.sets.emplace(names.begin(), names.end()).first;
  }
  names_ = &*it;
}

const std::vector<std::string>& SourceSet::Empty() {
  static const auto* empty = new std::vector<std::string>();
  return *empty;
}

}  // namespace aldsp::observability
