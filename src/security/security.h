#ifndef ALDSP_SECURITY_SECURITY_H_
#define ALDSP_SECURITY_SECURITY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "observability/bounded_ring.h"
#include "observability/interned.h"
#include "xml/item.h"

namespace aldsp::security {

/// An authenticated caller with roles (the WebLogic security framework
/// substitute).
struct Principal {
  std::string user;
  std::set<std::string> roles;

  bool HasAnyRole(const std::set<std::string>& required) const {
    for (const auto& r : required) {
      if (roles.count(r) > 0) return true;
    }
    return false;
  }
};

/// What to do when an unauthorized caller would see a protected subtree
/// (paper §7): silently remove it, or substitute an administratively
/// specified replacement value.
enum class RedactionAction { kRemove, kReplace };

/// A labeled security resource: an element subtree of a data service's
/// shape, identified by its slash path of element names from the result
/// item's root ("PROFILE/RATING").
struct ElementPolicy {
  std::string resource_path;
  std::set<std::string> allowed_roles;
  RedactionAction action = RedactionAction::kRemove;
  xml::AtomicValue replacement;
};

/// Function-level access control: who is allowed to call what.
struct FunctionAcl {
  std::string function;
  std::set<std::string> allowed_roles;
};

/// Auditing security service (paper §7): records security decisions and
/// operational events for administrative monitoring. Retains the newest
/// `capacity` events; older ones are evicted but still counted. An event
/// owns no string: its category is a string literal, its user an interned
/// tenant, and its detail a shared text — built once per policy or
/// function for the frequent redactions and denials.
class AuditLog {
 public:
  struct Event {
    int64_t seq = 0;            // stamped on Record, increasing
    std::string_view category;  // "access-denied", "redaction", "query", ...
    observability::Tenant user;
    observability::SharedText detail;
  };

  explicit AuditLog(size_t capacity = 1024) : ring_(capacity) {}

  /// Records an event. `category` must be a string literal (or outlive
  /// the log): the event keeps a view of it.
  void Record(const char* category, observability::Tenant user,
              observability::SharedText detail);
  /// The retained events, oldest first.
  std::vector<Event> Events() const;
  std::vector<Event> EventsInCategory(const std::string& category) const;
  /// Retained events.
  size_t size() const;
  /// Every event ever recorded, evicted or not.
  int64_t total_recorded() const { return ring_.total_appended(); }
  void Clear() { ring_.Clear(); }

 private:
  observability::BoundedRing<Event> ring_;
};

/// A policy as AccessControl holds it: with the detail every audit event
/// it causes shares ("function F", "resource P"), built once when the
/// policy is added.
template <typename Policy>
struct AuditedPolicy {
  Policy policy;
  observability::SharedText audit_detail;
};

/// The fine-grained access control service. Fine-grained filtering is
/// applied at a late stage of query processing — after the function
/// cache — so plans and cached results stay shareable across users
/// (paper §7).
class AccessControl {
 public:
  void AddFunctionAcl(FunctionAcl acl);
  void AddElementPolicy(ElementPolicy policy);

  /// Checks that the principal may call every listed function.
  Status CheckFunctionAccess(const Principal& principal,
                             const std::vector<std::string>& functions,
                             AuditLog* audit = nullptr) const;

  /// Applies element policies to a result, producing a redacted copy.
  /// Matching subtrees are removed or replaced per policy. When
  /// `redactions` is non-null it receives the number of subtrees the
  /// policies removed or replaced (the execution audit's security-denial
  /// count).
  xml::Sequence FilterResult(const Principal& principal,
                             const xml::Sequence& result,
                             AuditLog* audit = nullptr,
                             int64_t* redactions = nullptr) const;

  /// FilterResult for one item: the redacted copy, or nullopt when the
  /// policies remove the item entirely. Streamed results filter each
  /// item this way before the sink sees it.
  std::optional<xml::Item> FilterItem(const Principal& principal,
                                      const xml::Item& item,
                                      AuditLog* audit = nullptr,
                                      int64_t* redactions = nullptr) const;

  bool has_element_policies() const { return !element_policies_.empty(); }

 private:
  std::vector<AuditedPolicy<FunctionAcl>> function_acls_;
  std::vector<AuditedPolicy<ElementPolicy>> element_policies_;
};

}  // namespace aldsp::security

#endif  // ALDSP_SECURITY_SECURITY_H_
