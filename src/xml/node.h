#ifndef ALDSP_XML_NODE_H_
#define ALDSP_XML_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "xml/value.h"

namespace aldsp::xml {

class XNode;
using NodePtr = std::shared_ptr<XNode>;

enum class NodeKind { kDocument, kElement, kAttribute, kText };

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
/// A relational row is one node in *flat form* (paper §5.1 keeps relational
/// data as a flat typed token stream): an element holding a schema shared by
/// its result and the row's cells, where `<COL>value</COL>` children are
/// implied by the non-NULL cells. Reads that only need the cell values --
/// atomized child steps (AppendChildData in xml/item.h), serialization,
/// StringValue, TypedValue, MemoryBytes and Clone -- use the cells.
/// Anything that needs child nodes (children(), the child lookups,
/// DeepEquals, mutators) builds them once, under a once-flag because cached
/// and exchanged rows are read from several threads; from then on the node
/// is an ordinary element whose children have the row as parent(), and
/// every read uses the children.
class XNode {
  struct Key {
    explicit Key() = default;
  };

 public:
  static NodePtr Document();
  /// Element with (possibly prefixed) name such as "tns:PROFILE".
  static NodePtr Element(std::string name);
  static NodePtr Attribute(std::string name, AtomicValue value);
  static NodePtr Text(AtomicValue value);

  /// Convenience: <name>typed-value</name>.
  static NodePtr TypedElement(std::string name, AtomicValue value);

  /// A row element in flat form over `cells` (one per schema column; NULL
  /// cells are missing child elements).
  static NodePtr Row(std::shared_ptr<const RowSchema> schema,
                     std::vector<Cell> cells);

  /// Nodes are made by the factories above (the key keeps the constructor
  /// theirs while letting one allocation hold node and control block).
  XNode(Key, NodeKind kind) : kind_(kind) {}
  XNode(const XNode&) = delete;
  XNode& operator=(const XNode&) = delete;

  NodeKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  /// Atomic value of a text or attribute node.
  const AtomicValue& value() const { return value_; }
  void set_value(AtomicValue v) { value_ = std::move(v); }

  const std::vector<NodePtr>& attributes() const { return attributes_; }
  /// Child nodes; a flat row builds them here on first use.
  const std::vector<NodePtr>& children() const {
    if (flat()) BuildRowChildren();
    return children_;
  }
  XNode* parent() const { return parent_; }

  /// True for a row node that has not built its children: its content is
  /// row_schema() and row_cells().
  bool flat() const {
    return row_ && !row_built_.load(std::memory_order_acquire);
  }
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

  /// Deep copy (detached from any parent). A flat row copies its cells.
  NodePtr Clone() const;

  /// Structural deep equality (names, attributes, typed values).
  bool DeepEquals(const XNode& other) const;

  /// Approximate heap footprint of the subtree in bytes: for a row, the
  /// node, its cells and, once built, its children.
  size_t MemoryBytes() const;

 private:
  class RowNode;

  /// Builds a flat row's child elements from its cells, once.
  void BuildRowChildren() const;

  NodeKind kind_;
  // Set on row nodes (which are RowNode objects); row_built_ turns true
  // once children_ holds the row's child elements. Both sit in the
  // padding after kind_.
  bool row_ = false;
  mutable std::atomic<bool> row_built_{false};
  std::string name_;
  AtomicValue value_;
  std::vector<NodePtr> attributes_;
  mutable std::vector<NodePtr> children_;
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
