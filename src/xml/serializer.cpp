#include "xml/serializer.h"

#include "common/string_util.h"

namespace aldsp::xml {

namespace {

void SerializeRec(const XNode& node, const SerializeOptions& options,
                  int depth, std::string* out) {
  auto indent = [&](int d) {
    if (options.indent) {
      if (!out->empty() && out->back() != '\n') *out += '\n';
      out->append(static_cast<size_t>(d) * 2, ' ');
    }
  };
  switch (node.kind()) {
    case NodeKind::kDocument:
      for (const auto& c : node.children()) {
        SerializeRec(*c, options, depth, out);
      }
      break;
    case NodeKind::kElement: {
      indent(depth);
      *out += '<';
      *out += node.name();
      for (const auto& a : node.attributes()) {
        *out += ' ';
        *out += a->name();
        *out += "=\"";
        *out += XmlEscape(a->value().Lexical());
        *out += '"';
      }
      if (node.leaf()) {
        // The one text child a leaf stands for.
        *out += '>';
        *out += XmlEscape(node.leaf_value().Lexical());
        *out += "</";
        *out += node.name();
        *out += '>';
        break;
      }
      if (node.flat()) {
        // The children a row's cells imply, written as the tree form
        // would write them.
        bool open = false;
        node.ForEachRowCell([&](const std::string& column,
                                const AtomicValue& v) {
          if (!open) *out += '>';
          open = true;
          indent(depth + 1);
          *out += '<';
          *out += column;
          *out += '>';
          *out += XmlEscape(v.Lexical());
          *out += "</";
          *out += column;
          *out += '>';
        });
        if (!open) {
          *out += "/>";
          return;
        }
        indent(depth);
        *out += "</";
        *out += node.name();
        *out += '>';
        break;
      }
      if (node.children().empty()) {
        *out += "/>";
        return;
      }
      *out += '>';
      bool has_element_children = false;
      for (const auto& c : node.children()) {
        if (c->kind() == NodeKind::kElement) has_element_children = true;
        SerializeRec(*c, options, depth + 1, out);
      }
      if (options.indent && has_element_children) indent(depth);
      *out += "</";
      *out += node.name();
      *out += '>';
      break;
    }
    case NodeKind::kAttribute:
      // Standalone attribute (not attached to an element): name="value".
      *out += node.name();
      *out += "=\"";
      *out += XmlEscape(node.value().Lexical());
      *out += '"';
      break;
    case NodeKind::kText:
      *out += XmlEscape(node.value().Lexical());
      break;
  }
}

}  // namespace

std::string SerializeNode(const XNode& node, const SerializeOptions& options) {
  std::string out;
  SerializeRec(node, options, 0, &out);
  return out;
}

std::string SerializeSequence(const Sequence& seq,
                              const SerializeOptions& options) {
  std::string out;
  bool prev_atomic = false;
  for (const auto& item : seq) {
    if (item.is_atomic()) {
      if (prev_atomic) out += ' ';
      out += XmlEscape(item.atomic().Lexical());
      prev_atomic = true;
    } else {
      if (options.indent && !out.empty() && out.back() != '\n') out += '\n';
      out += SerializeNode(*item.node(), options);
      prev_atomic = false;
    }
  }
  return out;
}

}  // namespace aldsp::xml
