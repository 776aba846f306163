#ifndef ALDSP_XML_NODE_H_
#define ALDSP_XML_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xml/value.h"

namespace aldsp::xml {

class XNode;
using NodePtr = std::shared_ptr<XNode>;

enum class NodeKind : uint8_t { kDocument, kElement, kAttribute, kText };

/// What every row of one relational result shares: the row element's name
/// and the element name of each column, in cell order. A cell's type
/// annotation is its value's own type, as on a typed text child.
struct RowSchema {
  std::string row_name;
  std::vector<std::string> column_names;
};

/// A node of the XQuery Data Model tree. Element content is a sequence of
/// child nodes; typed element content (the norm in ALDSP, where data enters
/// already typed from sources) is represented as a single text child whose
/// value carries the runtime type annotation (paper §3.1: runtime type
/// annotations on content survive element construction).
///
/// Each kind of node stores only its own fields (DESIGN.md "Node
/// layouts"): a text node its value, an attribute its name and value, an
/// element or document its name, attributes and children. Accessors for a
/// field a node does not have return shared empty values.
///
/// Two element forms keep their content compact until something needs
/// child nodes (paper §5.1 keeps data as a flat typed token stream):
///  - a *leaf* (`TypedElement`, and element constructors whose content is
///    only atomic values) holds its typed value in place of the one text
///    child it stands for;
///  - a *flat row* holds a schema shared by its result and the row's cells,
///    where `<COL>value</COL>` children are implied by the non-NULL cells.
/// Reads that only need the value or the cells -- atomized child steps
/// (AppendChildData in xml/item.h), serialization, StringValue,
/// TypedValue, MemoryBytes and Clone -- use them directly. Anything that
/// needs child nodes (children(), DeepEquals on a row, the mutators) builds
/// them once, under a once-flag because cached and exchanged nodes are
/// read from several threads; from then on the node is an ordinary element
/// whose children have it as parent(), and every read uses the children.
class XNode {
 public:
  static NodePtr Document();
  /// Element with (possibly prefixed) name such as "tns:PROFILE".
  static NodePtr Element(std::string name);
  static NodePtr Attribute(std::string name, AtomicValue value);
  static NodePtr Text(AtomicValue value);

  /// <name>typed-value</name>, as a leaf.
  static NodePtr TypedElement(std::string name, AtomicValue value);

  /// A row element in flat form over `cells` (one per schema column; NULL
  /// cells are missing child elements).
  static NodePtr Row(std::shared_ptr<const RowSchema> schema,
                     std::vector<Cell> cells);

  XNode(const XNode&) = delete;
  XNode& operator=(const XNode&) = delete;

  NodeKind kind() const { return kind_; }
  const std::string& name() const;
  /// Atomic value of a text or attribute node.
  const AtomicValue& value() const;
  /// Text and attribute nodes only.
  void set_value(AtomicValue v);

  const std::vector<NodePtr>& attributes() const;
  /// Child nodes; a leaf or flat row builds them here on first use.
  const std::vector<NodePtr>& children() const;
  XNode* parent() const { return parent_; }

  /// True for a leaf that has not built its text child: its content is
  /// leaf_value().
  bool leaf() const { return compact(Layout::kLeaf); }
  /// Leaves only (leaf() or built): the value the element holds.
  const AtomicValue& leaf_value() const;

  /// True for a row node that has not built its children: its content is
  /// row_schema() and row_cells().
  bool flat() const { return compact(Layout::kRow); }
  /// Flat rows only (flat() or built): the shared schema and the cells.
  const RowSchema& row_schema() const;
  const std::vector<Cell>& row_cells() const;
  /// Flat rows only: calls fn(column name, value) for each child element
  /// the cells imply, in order (NULL cells imply none).
  template <typename Fn>
  void ForEachRowCell(Fn&& fn) const {
    const std::vector<std::string>& columns = row_schema().column_names;
    const std::vector<Cell>& cells = row_cells();
    for (size_t i = 0; i < cells.size() && i < columns.size(); ++i) {
      if (!cells[i].is_null) fn(columns[i], cells[i].value);
    }
  }

  void AddAttribute(NodePtr attr);
  void AddChild(NodePtr child);
  /// Replaces all children (used by update machinery).
  void SetChildren(std::vector<NodePtr> children);
  void RemoveChildAt(size_t index);

  /// All child elements named `name` (no-namespace match also accepts a
  /// prefixed name whose local part matches).
  std::vector<NodePtr> ChildrenNamed(const std::string& name) const;
  /// First child element named `name`, or nullptr.
  NodePtr FirstChildNamed(const std::string& name) const;
  /// Attribute node named `name`, or nullptr.
  NodePtr AttributeNamed(const std::string& name) const;

  /// String value per XDM: concatenation of descendant text.
  std::string StringValue() const;
  /// Typed value: the single typed text child if present, else the string
  /// value as xs:untypedAtomic.
  AtomicValue TypedValue() const;

  /// Deep copy (detached from any parent). A flat row copies its cells;
  /// an element whose content is one text child copies as a leaf.
  NodePtr Clone() const;

  /// Structural deep equality (names, attributes, typed values).
  bool DeepEquals(const XNode& other) const;

  /// Heap footprint of the subtree in bytes: each node's own allocation
  /// (with its shared-pointer control block) and the out-of-line storage
  /// of its strings and vectors; a flat row's cells, a leaf's value and,
  /// once built, their child nodes.
  size_t MemoryBytes() const;

 private:
  // Nodes are made by the factories above, each as one allocation of its
  // layout class (node.cpp) and the shared-pointer control block.
  enum class Layout : uint8_t { kText, kAttribute, kParent, kLeaf, kRow };
  XNode(NodeKind kind, Layout layout) : kind_(kind), layout_(layout) {}

  struct Content;
  class ParentNode;
  class TextNode;
  class AttributeNode;
  class BuiltNode;
  class LeafNode;
  class RowNode;

  template <typename T>
  const T& as() const {
    return static_cast<const T&>(*this);
  }
  bool compact(Layout layout) const {
    return layout_ == layout && !built_.load(std::memory_order_acquire);
  }
  /// The node's attributes and children: nullptr for text and attribute
  /// nodes; a leaf or row builds its content first.
  const Content* content() const;
  Content* mutable_content() { return const_cast<Content*>(content()); }
  /// Builds a leaf's text child or a flat row's child elements, once.
  void Build() const;

  NodeKind kind_;
  Layout layout_;
  // Leaves and rows: true once their content is built. It and the
  // once-flag sit in the padding before parent_.
  mutable std::atomic<bool> built_{false};
  mutable std::once_flag build_once_;
  XNode* parent_ = nullptr;
};

/// Installs the counter that row materializations (a flat row building its
/// child nodes) on the calling thread are charged to; a query installs its
/// own while it runs on the thread. Returns the previous counter so a scope
/// can restore it.
std::atomic<int64_t>* SetThreadRowMaterializationCounter(
    std::atomic<int64_t>* counter);

/// Local part of a possibly prefixed name ("tns:PROFILE" -> "PROFILE").
std::string LocalName(const std::string& name);
/// True if names match, comparing local parts when either side has a prefix.
bool NameMatches(const std::string& node_name, const std::string& test);

}  // namespace aldsp::xml

#endif  // ALDSP_XML_NODE_H_
