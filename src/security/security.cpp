#include "security/security.h"

#include "xml/node.h"

namespace aldsp::security {

using xml::NodeKind;
using xml::NodePtr;
using xml::XNode;

void AuditLog::Record(const char* category, observability::Tenant user,
                      observability::SharedText detail) {
  ring_.Append({0, category, user, std::move(detail)});
}

std::vector<AuditLog::Event> AuditLog::Events() const {
  return ring_.Records();
}

std::vector<AuditLog::Event> AuditLog::EventsInCategory(
    const std::string& category) const {
  std::vector<Event> out;
  for (auto& e : ring_.Records()) {
    if (e.category == category) out.push_back(std::move(e));
  }
  return out;
}

size_t AuditLog::size() const { return ring_.size(); }

void AccessControl::AddFunctionAcl(FunctionAcl acl) {
  std::string detail = "function " + acl.function;
  function_acls_.push_back({std::move(acl), std::move(detail)});
}

void AccessControl::AddElementPolicy(ElementPolicy policy) {
  std::string detail = "resource " + policy.resource_path;
  element_policies_.push_back({std::move(policy), std::move(detail)});
}

Status AccessControl::CheckFunctionAccess(
    const Principal& principal, const std::vector<std::string>& functions,
    AuditLog* audit) const {
  for (const auto& fn : functions) {
    for (const auto& [acl, audit_detail] : function_acls_) {
      if (acl.function != fn) continue;
      if (!principal.HasAnyRole(acl.allowed_roles)) {
        if (audit != nullptr) {
          audit->Record("access-denied", principal.user, audit_detail);
        }
        return Status::SecurityError("user " + principal.user +
                                     " may not call " + fn);
      }
    }
  }
  return Status::OK();
}

namespace {

using Policies = std::vector<AuditedPolicy<ElementPolicy>>;

// True when some policy on the subtree rooted at `root` (an item's root
// element name) denies `principal`: only then can RedactNode change the
// item.
bool MayRedact(const Policies& policies, const std::string& root,
               const Principal& principal) {
  for (const auto& audited : policies) {
    const ElementPolicy& p = audited.policy;
    const std::string& path = p.resource_path;
    const bool under_root =
        path.compare(0, root.size(), root) == 0 &&
        (path.size() == root.size() || path[root.size()] == '/');
    if (under_root && !principal.HasAnyRole(p.allowed_roles)) return true;
  }
  return false;
}

// True when some policy names a path strictly below `path`.
bool GovernsBelow(const Policies& policies, const std::string& path) {
  for (const auto& audited : policies) {
    const ElementPolicy& p = audited.policy;
    if (p.resource_path.size() > path.size() &&
        p.resource_path.compare(0, path.size(), path) == 0 &&
        p.resource_path[path.size()] == '/') {
      return true;
    }
  }
  return false;
}

// Applies policies to `node` (whose path from the item root is `path`),
// returning false if the node should be removed entirely.
bool RedactNode(const NodePtr& node, const std::string& path,
                const Policies& policies, const Principal& principal,
                AuditLog* audit, int64_t* redactions) {
  for (const auto& [p, audit_detail] : policies) {
    if (p.resource_path != path) continue;
    if (principal.HasAnyRole(p.allowed_roles)) continue;
    if (audit != nullptr) {
      audit->Record("redaction", principal.user, audit_detail);
    }
    if (redactions != nullptr) ++*redactions;
    if (p.action == RedactionAction::kRemove) return false;
    node->SetChildren({XNode::Text(p.replacement)});
    return true;
  }
  // Recurse into children, unless no policy reaches below this node (so
  // a flat row nobody governs keeps its cells and builds no children).
  if (!GovernsBelow(policies, path)) return true;
  for (size_t i = node->children().size(); i > 0; --i) {
    const NodePtr& child = node->children()[i - 1];
    if (child->kind() != NodeKind::kElement) continue;
    std::string child_path =
        path + "/" + xml::LocalName(child->name());
    if (!RedactNode(child, child_path, policies, principal, audit,
                    redactions)) {
      node->RemoveChildAt(i - 1);
    }
  }
  return true;
}

}  // namespace

std::optional<xml::Item> AccessControl::FilterItem(const Principal& principal,
                                                  const xml::Item& item,
                                                  AuditLog* audit,
                                                  int64_t* redactions) const {
  if (element_policies_.empty() || !item.is_node() ||
      item.node()->kind() != NodeKind::kElement) {
    return item;
  }
  std::string root_path = xml::LocalName(item.node()->name());
  // Nothing this principal may not see: the item itself, uncopied.
  if (!MayRedact(element_policies_, root_path, principal)) return item;
  NodePtr copy = item.node()->Clone();
  if (!RedactNode(copy, root_path, element_policies_, principal, audit,
                  redactions)) {
    return std::nullopt;
  }
  return xml::Item(std::move(copy));
}

xml::Sequence AccessControl::FilterResult(const Principal& principal,
                                          const xml::Sequence& result,
                                          AuditLog* audit,
                                          int64_t* redactions) const {
  if (element_policies_.empty()) return result;
  xml::Sequence out;
  out.reserve(result.size());
  for (const auto& item : result) {
    std::optional<xml::Item> kept =
        FilterItem(principal, item, audit, redactions);
    if (kept.has_value()) out.push_back(std::move(*kept));
  }
  return out;
}

}  // namespace aldsp::security
