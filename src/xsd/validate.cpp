#include "xsd/validate.h"

namespace aldsp::xsd {

using xml::AtomicType;
using xml::AtomicValue;
using xml::NodeKind;
using xml::NodePtr;
using xml::XNode;

namespace {

Result<NodePtr> ValidateElement(const XNode& node, const TypePtr& type) {
  if (node.kind() != NodeKind::kElement) {
    return Status::RuntimeError("expected an element for type " +
                                type->ToString());
  }
  if (!xml::NameMatches(node.name(), type->name())) {
    return Status::RuntimeError("element <" + node.name() +
                                "> does not match expected <" + type->name() +
                                ">");
  }
  // Attributes.
  std::vector<NodePtr> attributes;
  for (const auto& decl : type->attributes()) {
    NodePtr attr = node.AttributeNamed(decl.name);
    if (attr == nullptr) {
      if (!decl.type.allows_empty()) {
        return Status::RuntimeError("missing required attribute @" + decl.name +
                                    " on <" + node.name() + ">");
      }
      continue;
    }
    AtomicType target = AtomizedType(decl.type);
    ALDSP_ASSIGN_OR_RETURN(AtomicValue typed, attr->value().CastTo(target));
    attributes.push_back(XNode::Attribute(attr->name(), std::move(typed)));
  }
  if (type->has_simple_content()) {
    ALDSP_ASSIGN_OR_RETURN(AtomicValue typed,
                           node.TypedValue().CastTo(type->atomic_type()));
    // Simple content without attributes is a leaf.
    if (attributes.empty()) {
      return XNode::TypedElement(node.name(), std::move(typed));
    }
    NodePtr out = XNode::Element(node.name());
    for (NodePtr& attr : attributes) out->AddAttribute(std::move(attr));
    out->AddChild(XNode::Text(std::move(typed)));
    return out;
  }
  NodePtr out = XNode::Element(node.name());
  for (NodePtr& attr : attributes) out->AddAttribute(std::move(attr));
  if (type->has_any_content()) {
    for (const auto& c : node.children()) out->AddChild(c->Clone());
    return out;
  }
  // Complex content: validate each declared particle in declaration order;
  // undeclared child elements are rejected (strict validation).
  for (const auto& field : type->fields()) {
    auto matches = node.ChildrenNamed(field.name);
    if (matches.empty() && !field.type.allows_empty()) {
      return Status::RuntimeError("missing required element <" + field.name +
                                  "> in <" + node.name() + ">");
    }
    if (matches.size() > 1 && !field.type.allows_many()) {
      return Status::RuntimeError("too many <" + field.name + "> in <" +
                                  node.name() + ">");
    }
    for (const auto& child : matches) {
      if (field.type.item && field.type.item->kind() == XType::Kind::kElement) {
        ALDSP_ASSIGN_OR_RETURN(NodePtr typed,
                               ValidateElement(*child, field.type.item));
        out->AddChild(std::move(typed));
      } else {
        out->AddChild(child->Clone());
      }
    }
  }
  for (const auto& child : node.children()) {
    if (child->kind() == NodeKind::kElement &&
        type->FindField(child->name()) == nullptr) {
      return Status::RuntimeError("undeclared element <" + child->name() +
                                  "> in <" + node.name() + ">");
    }
  }
  return out;
}

}  // namespace

Result<NodePtr> ValidateAndType(const XNode& node, const TypePtr& type) {
  if (!type || type->kind() != XType::Kind::kElement) {
    return Status::InvalidArgument("ValidateAndType requires an element type");
  }
  if (node.kind() == NodeKind::kDocument) {
    for (const auto& c : node.children()) {
      if (c->kind() == NodeKind::kElement) return ValidateElement(*c, type);
    }
    return Status::RuntimeError("document has no root element");
  }
  return ValidateElement(node, type);
}

Status CheckAgainst(const XNode& node, const TypePtr& type) {
  ALDSP_ASSIGN_OR_RETURN(NodePtr typed, ValidateAndType(node, type));
  (void)typed;
  return Status::OK();
}

TypePtr InferNodeType(const XNode& node) {
  switch (node.kind()) {
    case NodeKind::kText:
      return XType::Atomic(node.value().type());
    case NodeKind::kAttribute:
      return XType::AttributeType(node.name(), node.value().type());
    case NodeKind::kDocument:
      return XType::AnyNode();
    case NodeKind::kElement: {
      if (node.children().size() == 1 &&
          node.children()[0]->kind() == NodeKind::kText) {
        return XType::SimpleElement(node.name(),
                                    node.children()[0]->value().type());
      }
      std::vector<ElementField> fields;
      for (const auto& c : node.children()) {
        if (c->kind() != NodeKind::kElement) continue;
        TypePtr ct = InferNodeType(*c);
        // Merge repeated names to a starred particle.
        bool merged = false;
        for (auto& f : fields) {
          if (xml::NameMatches(f.name, c->name())) {
            f.type.occurrence = Occurrence::kStar;
            merged = true;
            break;
          }
        }
        if (!merged) fields.push_back({c->name(), One(ct)});
      }
      std::vector<ElementField> attrs;
      for (const auto& a : node.attributes()) {
        attrs.push_back({a->name(), One(XType::AttributeType(
                                        a->name(), a->value().type()))});
      }
      if (fields.empty() && node.children().empty()) {
        return XType::ComplexElement(node.name(), {}, std::move(attrs));
      }
      return XType::ComplexElement(node.name(), std::move(fields),
                                   std::move(attrs));
    }
  }
  return XType::AnyItem();
}

}  // namespace aldsp::xsd
