#include "xml/token.h"

#include <vector>

namespace aldsp::xml {

namespace {

void NodeToTokens(const XNode& node, TokenVector* out) {
  switch (node.kind()) {
    case NodeKind::kDocument:
      out->push_back(Token::StartDocument());
      for (const auto& c : node.children()) NodeToTokens(*c, out);
      out->push_back(Token::EndDocument());
      break;
    case NodeKind::kElement:
      out->push_back(Token::StartElement(node.name()));
      for (const auto& a : node.attributes()) {
        out->push_back(Token::Attribute(a->name(), a->value()));
      }
      if (node.leaf()) {
        out->push_back(Token::Atom(node.leaf_value()));
      } else if (node.flat()) {
        node.ForEachRowCell([out](const std::string& column,
                                  const AtomicValue& v) {
          out->push_back(Token::StartElement(column));
          out->push_back(Token::Atom(v));
          out->push_back(Token::EndElement(column));
        });
      } else {
        for (const auto& c : node.children()) NodeToTokens(*c, out);
      }
      out->push_back(Token::EndElement(node.name()));
      break;
    case NodeKind::kAttribute:
      out->push_back(Token::Attribute(node.name(), node.value()));
      break;
    case NodeKind::kText:
      out->push_back(Token::Atom(node.value()));
      break;
  }
}

}  // namespace

void ItemToTokens(const Item& item, TokenVector* out) {
  if (item.is_atomic()) {
    out->push_back(Token::Atom(item.atomic()));
  } else {
    NodeToTokens(*item.node(), out);
  }
}

void SequenceToTokens(const Sequence& seq, TokenVector* out) {
  for (const auto& item : seq) ItemToTokens(item, out);
}

namespace {

// An element or document the stream has opened. An element stays
// unbuilt while its content may still be one typed value, which it then
// holds as a leaf.
struct OpenNode {
  std::string name;
  NodePtr node;  // null while unbuilt
  bool document = false;
  bool has_value = false;
  AtomicValue value;  // the one value an unbuilt element holds

  const std::string& Name() const { return node ? node->name() : name; }
  XNode& Built() {
    if (node == nullptr) {
      node = XNode::Element(std::move(name));
      if (has_value) node->AddChild(XNode::Text(std::move(value)));
    }
    return *node;
  }
  NodePtr Finish() {
    if (node != nullptr) return std::move(node);
    return has_value ? XNode::TypedElement(std::move(name), std::move(value))
                     : XNode::Element(std::move(name));
  }
};

}  // namespace

Result<Sequence> TokensToSequence(TokenIterator* it) {
  Sequence result;
  std::vector<OpenNode> open;
  // A finished node goes to the node open around it, else to the result.
  auto place = [&](NodePtr n) {
    if (open.empty()) {
      result.emplace_back(std::move(n));
    } else {
      open.back().Built().AddChild(std::move(n));
    }
  };
  Token tok;
  while (it->Next(&tok)) {
    switch (tok.kind) {
      case TokenKind::kStartDocument: {
        if (!open.empty()) {
          return Status::RuntimeError("nested document in token stream");
        }
        OpenNode doc;
        doc.node = XNode::Document();
        doc.document = true;
        open.push_back(std::move(doc));
        break;
      }
      case TokenKind::kEndDocument: {
        if (open.empty() || !open.back().document) {
          return Status::RuntimeError("unbalanced EndDocument token");
        }
        NodePtr doc = open.back().Finish();
        open.pop_back();
        place(std::move(doc));
        break;
      }
      case TokenKind::kStartElement:
        // An element child means the parent is no leaf.
        if (!open.empty()) open.back().Built();
        open.emplace_back();
        open.back().name = std::move(tok.name);
        break;
      case TokenKind::kEndElement: {
        if (open.empty() || open.back().document ||
            open.back().Name() != tok.name) {
          return Status::RuntimeError("unbalanced EndElement token: " +
                                      tok.name);
        }
        NodePtr el = open.back().Finish();
        open.pop_back();
        place(std::move(el));
        break;
      }
      case TokenKind::kAttribute: {
        NodePtr attr = XNode::Attribute(std::move(tok.name),
                                        std::move(tok.value));
        if (open.empty()) {
          result.emplace_back(std::move(attr));
        } else {
          open.back().Built().AddAttribute(std::move(attr));
        }
        break;
      }
      case TokenKind::kAtom:
        if (open.empty()) {
          result.emplace_back(std::move(tok.value));
        } else if (open.back().node == nullptr && !open.back().has_value) {
          open.back().value = std::move(tok.value);
          open.back().has_value = true;
        } else {
          open.back().Built().AddChild(XNode::Text(std::move(tok.value)));
        }
        break;
      case TokenKind::kBeginTuple:
      case TokenKind::kFieldSeparator:
      case TokenKind::kEndTuple:
        return Status::RuntimeError(
            "tuple-framing token in XML token stream");
    }
  }
  if (!open.empty()) {
    return Status::RuntimeError("token stream ended with open elements");
  }
  return result;
}

Result<Sequence> TokensToSequence(const TokenVector& tokens) {
  VectorTokenIterator it(tokens);
  return TokensToSequence(&it);
}

}  // namespace aldsp::xml
