#include "xml/node.h"

#include <cassert>
#include <string_view>

namespace aldsp::xml {

namespace {

thread_local std::atomic<int64_t>* tls_row_materializations = nullptr;

// What a kind without the field reads. Never destroyed, so nodes stay
// readable while other statics are torn down at exit.
const std::string& NoName() {
  static const std::string* const none = new std::string();
  return *none;
}
const AtomicValue& NoValue() {
  static const AtomicValue* const none = new AtomicValue();
  return *none;
}
const std::vector<NodePtr>& NoNodes() {
  static const std::vector<NodePtr>* const none = new std::vector<NodePtr>();
  return *none;
}

// std::make_shared puts the node after its control block: a vtable
// pointer and the use and weak counts.
constexpr size_t kControlBlockBytes = sizeof(void*) + 2 * sizeof(int);

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

// ----- Layouts -------------------------------------------------------------

struct XNode::Content {
  std::vector<NodePtr> attributes;
  std::vector<NodePtr> children;

  size_t MemoryBytes() const {
    size_t total = VectorBytes(attributes) + VectorBytes(children);
    for (const auto& a : attributes) total += a->MemoryBytes();
    for (const auto& c : children) total += c->MemoryBytes();
    return total;
  }
};

/// A document or an element in tree form.
class XNode::ParentNode final : public XNode {
 public:
  ParentNode(NodeKind kind, std::string name)
      : XNode(kind, Layout::kParent), name_(std::move(name)) {}

  std::string name_;
  Content content_;
};

class XNode::TextNode final : public XNode {
 public:
  explicit TextNode(AtomicValue value)
      : XNode(NodeKind::kText, Layout::kText), value_(std::move(value)) {}

  AtomicValue value_;
};

class XNode::AttributeNode final : public XNode {
 public:
  AttributeNode(std::string name, AtomicValue value)
      : XNode(NodeKind::kAttribute, Layout::kAttribute),
        name_(std::move(name)),
        value_(std::move(value)) {}

  std::string name_;
  AtomicValue value_;
};

/// An element in a compact form: its content, once Build() made it.
class XNode::BuiltNode : public XNode {
 public:
  explicit BuiltNode(Layout layout) : XNode(NodeKind::kElement, layout) {}

  std::unique_ptr<Content> content_;
};

class XNode::LeafNode final : public BuiltNode {
 public:
  LeafNode(std::string name, AtomicValue value)
      : BuiltNode(Layout::kLeaf),
        name_(std::move(name)),
        value_(std::move(value)) {}

  std::string name_;
  AtomicValue value_;
};

/// The row's name is its schema's.
class XNode::RowNode final : public BuiltNode {
 public:
  RowNode(std::shared_ptr<const RowSchema> schema, std::vector<Cell> cells)
      : BuiltNode(Layout::kRow),
        schema_(std::move(schema)),
        cells_(std::move(cells)) {}

  std::shared_ptr<const RowSchema> schema_;
  std::vector<Cell> cells_;
};

// ----- Factories -----------------------------------------------------------

NodePtr XNode::Document() {
  return std::make_shared<ParentNode>(NodeKind::kDocument, std::string());
}

NodePtr XNode::Element(std::string name) {
  return std::make_shared<ParentNode>(NodeKind::kElement, std::move(name));
}

NodePtr XNode::Attribute(std::string name, AtomicValue value) {
  return std::make_shared<AttributeNode>(std::move(name), std::move(value));
}

NodePtr XNode::Text(AtomicValue value) {
  return std::make_shared<TextNode>(std::move(value));
}

NodePtr XNode::TypedElement(std::string name, AtomicValue value) {
  return std::make_shared<LeafNode>(std::move(name), std::move(value));
}

NodePtr XNode::Row(std::shared_ptr<const RowSchema> schema,
                   std::vector<Cell> cells) {
  return std::make_shared<RowNode>(std::move(schema), std::move(cells));
}

// ----- Fields --------------------------------------------------------------

const std::string& XNode::name() const {
  switch (layout_) {
    case Layout::kText:
      break;
    case Layout::kAttribute:
      return as<AttributeNode>().name_;
    case Layout::kParent:
      return as<ParentNode>().name_;
    case Layout::kLeaf:
      return as<LeafNode>().name_;
    case Layout::kRow:
      return as<RowNode>().schema_->row_name;
  }
  return NoName();
}

const AtomicValue& XNode::value() const {
  switch (layout_) {
    case Layout::kText:
      return as<TextNode>().value_;
    case Layout::kAttribute:
      return as<AttributeNode>().value_;
    default:
      return NoValue();
  }
}

void XNode::set_value(AtomicValue v) {
  switch (layout_) {
    case Layout::kText:
      static_cast<TextNode*>(this)->value_ = std::move(v);
      break;
    case Layout::kAttribute:
      static_cast<AttributeNode*>(this)->value_ = std::move(v);
      break;
    default:
      assert(false && "set_value on a node without a value");
  }
}

const std::vector<NodePtr>& XNode::attributes() const {
  // A compact element has none until a mutator builds it.
  if (layout_ == Layout::kParent) return as<ParentNode>().content_.attributes;
  if ((layout_ == Layout::kLeaf || layout_ == Layout::kRow) &&
      built_.load(std::memory_order_acquire)) {
    return as<BuiltNode>().content_->attributes;
  }
  return NoNodes();
}

const std::vector<NodePtr>& XNode::children() const {
  const Content* c = content();
  return c != nullptr ? c->children : NoNodes();
}

const AtomicValue& XNode::leaf_value() const {
  return as<LeafNode>().value_;
}

const RowSchema& XNode::row_schema() const { return *as<RowNode>().schema_; }

const std::vector<Cell>& XNode::row_cells() const {
  return as<RowNode>().cells_;
}

const XNode::Content* XNode::content() const {
  switch (layout_) {
    case Layout::kParent:
      return &as<ParentNode>().content_;
    case Layout::kLeaf:
    case Layout::kRow:
      if (!built_.load(std::memory_order_acquire)) Build();
      return as<BuiltNode>().content_.get();
    default:
      return nullptr;
  }
}

void XNode::Build() const {
  std::call_once(build_once_, [this] {
    auto* self = const_cast<XNode*>(this);
    auto content = std::make_unique<Content>();
    if (layout_ == Layout::kLeaf) {
      // The leaf keeps its value: a reader that saw leaf() may still
      // be reading it.
      NodePtr text = Text(leaf_value());
      text->parent_ = self;
      content->children.push_back(std::move(text));
    } else {
      content->children.reserve(row_cells().size());
      ForEachRowCell([&](const std::string& name, const AtomicValue& v) {
        NodePtr child = TypedElement(name, v);
        child->parent_ = self;
        content->children.push_back(std::move(child));
      });
      if (tls_row_materializations != nullptr) {
        tls_row_materializations->fetch_add(1, std::memory_order_relaxed);
      }
    }
    static_cast<BuiltNode*>(self)->content_ = std::move(content);
    built_.store(true, std::memory_order_release);
  });
}

// ----- Mutators ------------------------------------------------------------
// Text and attribute nodes have no content; the mutators leave them as
// they are.

void XNode::AddAttribute(NodePtr attr) {
  Content* c = mutable_content();
  if (c == nullptr) return;
  attr->parent_ = this;
  c->attributes.push_back(std::move(attr));
}

void XNode::AddChild(NodePtr child) {
  Content* c = mutable_content();
  if (c == nullptr) return;
  child->parent_ = this;
  c->children.push_back(std::move(child));
}

void XNode::SetChildren(std::vector<NodePtr> children) {
  Content* c = mutable_content();
  if (c == nullptr) return;
  c->children = std::move(children);
  for (auto& child : c->children) child->parent_ = this;
}

void XNode::RemoveChildAt(size_t index) {
  Content* c = mutable_content();
  if (c == nullptr || index >= c->children.size()) return;
  c->children[index]->parent_ = nullptr;
  c->children.erase(c->children.begin() + static_cast<ptrdiff_t>(index));
}

// ----- Reads ---------------------------------------------------------------

std::vector<NodePtr> XNode::ChildrenNamed(const std::string& name) const {
  std::vector<NodePtr> out;
  if (leaf()) return out;  // its one child is text
  for (const auto& c : children()) {
    if (c->kind() == NodeKind::kElement && NameMatches(c->name(), name)) {
      out.push_back(c);
    }
  }
  return out;
}

NodePtr XNode::FirstChildNamed(const std::string& name) const {
  if (leaf()) return nullptr;
  for (const auto& c : children()) {
    if (c->kind() == NodeKind::kElement && NameMatches(c->name(), name)) {
      return c;
    }
  }
  return nullptr;
}

NodePtr XNode::AttributeNamed(const std::string& name) const {
  for (const auto& a : attributes()) {
    if (NameMatches(a->name(), name)) return a;
  }
  return nullptr;
}

std::string XNode::StringValue() const {
  if (layout_ == Layout::kText || layout_ == Layout::kAttribute) {
    return value().Lexical();
  }
  if (leaf()) return leaf_value().Lexical();
  std::string out;
  if (flat()) {
    ForEachRowCell([&out](const std::string&, const AtomicValue& v) {
      out += v.Lexical();
    });
    return out;
  }
  for (const auto& c : children()) out += c->StringValue();
  return out;
}

AtomicValue XNode::TypedValue() const {
  if (layout_ == Layout::kText || layout_ == Layout::kAttribute) {
    return value();
  }
  if (leaf()) return leaf_value();
  // A row's children are elements, so it never has a single text child.
  if (kind_ == NodeKind::kElement && !flat()) {
    const std::vector<NodePtr>& children = this->children();
    if (children.size() == 1 && children[0]->kind() == NodeKind::kText) {
      return children[0]->value();
    }
  }
  return AtomicValue::Untyped(StringValue());
}

NodePtr XNode::Clone() const {
  switch (layout_) {
    case Layout::kText:
      return Text(value());
    case Layout::kAttribute:
      return Attribute(name(), value());
    default:
      break;
  }
  if (leaf()) return TypedElement(name(), leaf_value());
  if (flat()) {
    const RowNode& row = as<RowNode>();
    return Row(row.schema_, row.cells_);
  }
  const std::vector<NodePtr>& attributes = this->attributes();
  const std::vector<NodePtr>& children = this->children();
  if (kind_ == NodeKind::kElement && attributes.empty() &&
      children.size() == 1 && children[0]->kind() == NodeKind::kText) {
    return TypedElement(name(), children[0]->value());
  }
  auto n = std::make_shared<ParentNode>(kind_, name());
  n->content_.attributes.reserve(attributes.size());
  for (const auto& a : attributes) n->AddAttribute(a->Clone());
  n->content_.children.reserve(children.size());
  for (const auto& c : children) n->AddChild(c->Clone());
  return n;
}

namespace {

// The value of `node`'s one text child when that is all it holds.
const AtomicValue* SoleText(const XNode& node) {
  if (node.leaf()) return &node.leaf_value();
  if (node.flat() || !node.attributes().empty()) return nullptr;
  const std::vector<NodePtr>& children = node.children();
  if (children.size() != 1 || children[0]->kind() != NodeKind::kText) {
    return nullptr;
  }
  return &children[0]->value();
}

}  // namespace

bool XNode::DeepEquals(const XNode& other) const {
  if (kind_ != other.kind_ || name() != other.name()) return false;
  if (layout_ == Layout::kText || layout_ == Layout::kAttribute) {
    return value() == other.value();
  }
  // A leaf equals the element with one equal text child it stands for.
  if (leaf() || other.leaf()) {
    const AtomicValue* mine = SoleText(*this);
    const AtomicValue* theirs = SoleText(other);
    return mine != nullptr && theirs != nullptr && *mine == *theirs;
  }
  const std::vector<NodePtr>& mine = children();
  const std::vector<NodePtr>& theirs = other.children();
  const std::vector<NodePtr>& my_attributes = attributes();
  const std::vector<NodePtr>& their_attributes = other.attributes();
  if (my_attributes.size() != their_attributes.size() ||
      mine.size() != theirs.size()) {
    return false;
  }
  for (size_t i = 0; i < my_attributes.size(); ++i) {
    if (!my_attributes[i]->DeepEquals(*their_attributes[i])) return false;
  }
  for (size_t i = 0; i < mine.size(); ++i) {
    if (!mine[i]->DeepEquals(*theirs[i])) return false;
  }
  return true;
}

size_t XNode::MemoryBytes() const {
  size_t total = kControlBlockBytes;
  switch (layout_) {
    case Layout::kText:
      return total + sizeof(TextNode) + value().HeapBytes();
    case Layout::kAttribute:
      return total + sizeof(AttributeNode) + HeapBytes(name()) +
             value().HeapBytes();
    case Layout::kParent:
      return total + sizeof(ParentNode) + HeapBytes(name()) +
             as<ParentNode>().content_.MemoryBytes();
    case Layout::kLeaf:
      total += sizeof(LeafNode) + HeapBytes(name()) + leaf_value().HeapBytes();
      break;
    case Layout::kRow:
      total += sizeof(RowNode) + VectorBytes(row_cells());
      for (const Cell& c : row_cells()) total += c.value.HeapBytes();
      break;
  }
  if (built_.load(std::memory_order_acquire)) {
    total += sizeof(Content) + as<BuiltNode>().content_->MemoryBytes();
  }
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
