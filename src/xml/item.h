#ifndef ALDSP_XML_ITEM_H_
#define ALDSP_XML_ITEM_H_

#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "xml/node.h"
#include "xml/value.h"

namespace aldsp::xml {

/// An XDM item: an atomic value or a node.
class Item {
 public:
  Item() : repr_(AtomicValue()) {}
  Item(AtomicValue v) : repr_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Item(NodePtr n) : repr_(std::move(n)) {}      // NOLINT(runtime/explicit)

  bool is_atomic() const { return std::holds_alternative<AtomicValue>(repr_); }
  bool is_node() const { return !is_atomic(); }

  const AtomicValue& atomic() const { return std::get<AtomicValue>(repr_); }
  const NodePtr& node() const { return std::get<NodePtr>(repr_); }
  /// Moves the atomic value out, leaving the item a moved-from value.
  AtomicValue TakeAtomic() { return std::move(std::get<AtomicValue>(repr_)); }

  /// XQuery atomization (fn:data on one item).
  AtomicValue Atomize() const {
    return is_atomic() ? atomic() : node()->TypedValue();
  }

  std::string StringValue() const {
    return is_atomic() ? atomic().Lexical() : node()->StringValue();
  }

  /// Bytes the item holds outside its own slot: an out-of-line string,
  /// or the node's subtree.
  size_t HeapBytes() const {
    return is_atomic() ? atomic().HeapBytes() : node()->MemoryBytes();
  }

 private:
  std::variant<AtomicValue, NodePtr> repr_;
};

/// An XDM sequence: a flat list of items (sequences never nest).
using Sequence = std::vector<Item>;

/// fn:data over a sequence.
Sequence Atomize(const Sequence& seq);

/// fn:data($node/name): appends the typed value of each child element of
/// `node` named `name` to `out`. A flat row reads its cells, and neither it
/// nor a leaf builds child nodes.
void AppendChildData(const XNode& node, const std::string& name,
                     Sequence* out);

/// XQuery effective boolean value. Errors on a sequence whose first item is
/// an atomic value but which has length > 1, per the spec.
Result<bool> EffectiveBooleanValue(const Sequence& seq);

/// Singleton helpers.
inline Sequence SingletonSequence(Item item) { return Sequence{std::move(item)}; }
inline Sequence EmptySequence() { return {}; }

/// Concatenates b onto a.
void AppendSequence(Sequence& a, const Sequence& b);

/// Deep equality of two sequences (used heavily by the property tests that
/// compare pushed-down vs mid-tier execution).
bool SequenceDeepEquals(const Sequence& a, const Sequence& b);

/// Total memory footprint of a sequence: the vector, its slots and what
/// each item holds outside its slot.
size_t SequenceMemoryBytes(const Sequence& seq);

}  // namespace aldsp::xml

#endif  // ALDSP_XML_ITEM_H_
