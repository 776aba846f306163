#include "xml/node.h"

#include <mutex>
#include <string_view>

namespace aldsp::xml {

namespace {

thread_local std::atomic<int64_t>* tls_row_materializations = nullptr;

}  // namespace

/// The flat form's storage, allocated with the node and its control block.
class XNode::RowNode final : public XNode {
 public:
  RowNode(std::shared_ptr<const RowSchema> schema, std::vector<Cell> cells)
      : XNode(Key{}, NodeKind::kElement),
        schema_(std::move(schema)),
        cells_(std::move(cells)) {}

  std::shared_ptr<const RowSchema> schema_;
  std::vector<Cell> cells_;
  std::once_flag build_once_;
};

NodePtr XNode::Document() {
  return std::make_shared<XNode>(Key{}, NodeKind::kDocument);
}

NodePtr XNode::Element(std::string name) {
  NodePtr n = std::make_shared<XNode>(Key{}, NodeKind::kElement);
  n->name_ = std::move(name);
  return n;
}

NodePtr XNode::Attribute(std::string name, AtomicValue value) {
  NodePtr n = std::make_shared<XNode>(Key{}, NodeKind::kAttribute);
  n->name_ = std::move(name);
  n->value_ = std::move(value);
  return n;
}

NodePtr XNode::Text(AtomicValue value) {
  NodePtr n = std::make_shared<XNode>(Key{}, NodeKind::kText);
  n->value_ = std::move(value);
  return n;
}

NodePtr XNode::TypedElement(std::string name, AtomicValue value) {
  NodePtr e = Element(std::move(name));
  e->AddChild(Text(std::move(value)));
  return e;
}

NodePtr XNode::Row(std::shared_ptr<const RowSchema> schema,
                   std::vector<Cell> cells) {
  auto n = std::make_shared<RowNode>(std::move(schema), std::move(cells));
  n->row_ = true;
  n->name_ = n->schema_->row_name;
  return n;
}

const RowSchema& XNode::row_schema() const {
  return *static_cast<const RowNode*>(this)->schema_;
}

const std::vector<Cell>& XNode::row_cells() const {
  return static_cast<const RowNode*>(this)->cells_;
}

void XNode::BuildRowChildren() const {
  auto* row = const_cast<RowNode*>(static_cast<const RowNode*>(this));
  std::call_once(row->build_once_, [row] {
    row->ForEachRowCell([row](const std::string& name, const AtomicValue& v) {
      NodePtr child = TypedElement(name, v);
      child->parent_ = row;
      row->children_.push_back(std::move(child));
    });
    if (tls_row_materializations != nullptr) {
      tls_row_materializations->fetch_add(1, std::memory_order_relaxed);
    }
    row->row_built_.store(true, std::memory_order_release);
  });
}

void XNode::AddAttribute(NodePtr attr) {
  attr->parent_ = this;
  attributes_.push_back(std::move(attr));
}

void XNode::AddChild(NodePtr child) {
  if (flat()) BuildRowChildren();
  child->parent_ = this;
  children_.push_back(std::move(child));
}

void XNode::SetChildren(std::vector<NodePtr> children) {
  if (flat()) BuildRowChildren();
  children_ = std::move(children);
  for (auto& c : children_) c->parent_ = this;
}

void XNode::RemoveChildAt(size_t index) {
  if (flat()) BuildRowChildren();
  if (index < children_.size()) {
    children_[index]->parent_ = nullptr;
    children_.erase(children_.begin() + static_cast<ptrdiff_t>(index));
  }
}

std::vector<NodePtr> XNode::ChildrenNamed(const std::string& name) const {
  std::vector<NodePtr> out;
  for (const auto& c : children()) {
    if (c->kind() == NodeKind::kElement && NameMatches(c->name(), name)) {
      out.push_back(c);
    }
  }
  return out;
}

NodePtr XNode::FirstChildNamed(const std::string& name) const {
  for (const auto& c : children()) {
    if (c->kind() == NodeKind::kElement && NameMatches(c->name(), name)) {
      return c;
    }
  }
  return nullptr;
}

NodePtr XNode::AttributeNamed(const std::string& name) const {
  for (const auto& a : attributes_) {
    if (NameMatches(a->name(), name)) return a;
  }
  return nullptr;
}

std::string XNode::StringValue() const {
  switch (kind_) {
    case NodeKind::kText:
    case NodeKind::kAttribute:
      return value_.Lexical();
    case NodeKind::kElement:
    case NodeKind::kDocument: {
      std::string out;
      if (flat()) {
        ForEachRowCell([&out](const std::string&, const AtomicValue& v) {
          out += v.Lexical();
        });
        return out;
      }
      for (const auto& c : children_) out += c->StringValue();
      return out;
    }
  }
  return "";
}

AtomicValue XNode::TypedValue() const {
  if (kind_ == NodeKind::kText || kind_ == NodeKind::kAttribute) return value_;
  // A row's children are elements, so it never has a single text child.
  if (kind_ == NodeKind::kElement && !flat() && children_.size() == 1 &&
      children_[0]->kind() == NodeKind::kText) {
    return children_[0]->value();
  }
  return AtomicValue::Untyped(StringValue());
}

NodePtr XNode::Clone() const {
  if (flat()) {
    const auto* row = static_cast<const RowNode*>(this);
    return Row(row->schema_, row->cells_);
  }
  NodePtr n = std::make_shared<XNode>(Key{}, kind_);
  n->name_ = name_;
  n->value_ = value_;
  for (const auto& a : attributes_) n->AddAttribute(a->Clone());
  for (const auto& c : children_) n->AddChild(c->Clone());
  return n;
}

bool XNode::DeepEquals(const XNode& other) const {
  if (kind_ != other.kind_ || name_ != other.name_) return false;
  if ((kind_ == NodeKind::kText || kind_ == NodeKind::kAttribute) &&
      !(value_ == other.value_)) {
    return false;
  }
  const std::vector<NodePtr>& mine = children();
  const std::vector<NodePtr>& theirs = other.children();
  if (attributes_.size() != other.attributes_.size() ||
      mine.size() != theirs.size()) {
    return false;
  }
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (!attributes_[i]->DeepEquals(*other.attributes_[i])) return false;
  }
  for (size_t i = 0; i < mine.size(); ++i) {
    if (!mine[i]->DeepEquals(*theirs[i])) return false;
  }
  return true;
}

size_t XNode::MemoryBytes() const {
  size_t total = sizeof(XNode) + name_.capacity() + value_.MemoryBytes();
  if (row_) {
    const std::vector<Cell>& cells = row_cells();
    total += sizeof(RowNode) - sizeof(XNode) + cells.capacity() * sizeof(Cell);
    for (const Cell& c : cells) {
      total += c.value.MemoryBytes() - sizeof(AtomicValue);
    }
    if (flat()) return total;
  }
  for (const auto& a : attributes_) total += a->MemoryBytes();
  for (const auto& c : children_) total += c->MemoryBytes();
  return total;
}

std::atomic<int64_t>* SetThreadRowMaterializationCounter(
    std::atomic<int64_t>* counter) {
  std::atomic<int64_t>* previous = tls_row_materializations;
  tls_row_materializations = counter;
  return previous;
}

namespace {

std::string_view LocalPart(std::string_view name) {
  size_t pos = name.find(':');
  return pos == std::string_view::npos ? name : name.substr(pos + 1);
}

}  // namespace

std::string LocalName(const std::string& name) {
  size_t pos = name.find(':');
  return pos == std::string::npos ? name : name.substr(pos + 1);
}

bool NameMatches(const std::string& node_name, const std::string& test) {
  if (node_name == test) return true;
  return LocalPart(node_name) == LocalPart(test);
}

}  // namespace aldsp::xml
