#include "xml/item.h"

namespace aldsp::xml {

Sequence Atomize(const Sequence& seq) {
  Sequence out;
  out.reserve(seq.size());
  for (const auto& item : seq) out.emplace_back(item.Atomize());
  return out;
}

void AppendChildData(const XNode& node, const std::string& name,
                     Sequence* out) {
  if (node.leaf()) return;  // its one child is text
  if (node.flat()) {
    node.ForEachRowCell([&](const std::string& column, const AtomicValue& v) {
      if (NameMatches(column, name)) out->emplace_back(v);
    });
    return;
  }
  for (const auto& c : node.children()) {
    if (c->kind() == NodeKind::kElement && NameMatches(c->name(), name)) {
      out->emplace_back(c->TypedValue());
    }
  }
}

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.front();
  if (first.is_node()) return true;
  if (seq.size() > 1) {
    return Status::RuntimeError(
        "effective boolean value of a multi-item atomic sequence");
  }
  const AtomicValue& v = first.atomic();
  switch (v.type()) {
    case AtomicType::kBoolean:
      return v.AsBoolean();
    case AtomicType::kString:
    case AtomicType::kUntyped:
      return !v.AsString().empty();
    case AtomicType::kInteger:
      return v.AsInteger() != 0;
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      return v.AsDouble() != 0.0;
    case AtomicType::kDateTime:
      return Status::RuntimeError(
          "effective boolean value of xs:dateTime is undefined");
  }
  return Status::Internal("unhandled atomic type in EBV");
}

void AppendSequence(Sequence& a, const Sequence& b) {
  a.insert(a.end(), b.begin(), b.end());
}

bool SequenceDeepEquals(const Sequence& a, const Sequence& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_atomic() != b[i].is_atomic()) return false;
    if (a[i].is_atomic()) {
      if (!(a[i].atomic() == b[i].atomic())) return false;
    } else {
      if (!a[i].node()->DeepEquals(*b[i].node())) return false;
    }
  }
  return true;
}

size_t SequenceMemoryBytes(const Sequence& seq) {
  size_t total = sizeof(Sequence) + seq.capacity() * sizeof(Item);
  for (const auto& item : seq) total += item.HeapBytes();
  return total;
}

}  // namespace aldsp::xml
