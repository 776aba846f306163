#include "xml/token.h"

#include <stack>

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

Result<Sequence> TokensToSequence(TokenIterator* it) {
  Sequence result;
  std::stack<NodePtr> open;
  Token tok;
  while (it->Next(&tok)) {
    switch (tok.kind) {
      case TokenKind::kStartDocument: {
        NodePtr doc = XNode::Document();
        if (open.empty()) {
          result.emplace_back(doc);
        } else {
          return Status::RuntimeError("nested document in token stream");
        }
        open.push(doc);
        break;
      }
      case TokenKind::kEndDocument:
        if (open.empty() || open.top()->kind() != NodeKind::kDocument) {
          return Status::RuntimeError("unbalanced EndDocument token");
        }
        open.pop();
        break;
      case TokenKind::kStartElement: {
        NodePtr el = XNode::Element(tok.name);
        if (open.empty()) {
          result.emplace_back(el);
        } else {
          open.top()->AddChild(el);
        }
        open.push(el);
        break;
      }
      case TokenKind::kEndElement:
        if (open.empty() || open.top()->kind() != NodeKind::kElement ||
            open.top()->name() != tok.name) {
          return Status::RuntimeError("unbalanced EndElement token: " +
                                      tok.name);
        }
        open.pop();
        break;
      case TokenKind::kAttribute: {
        NodePtr attr = XNode::Attribute(tok.name, tok.value);
        if (open.empty()) {
          result.emplace_back(attr);
        } else {
          open.top()->AddAttribute(attr);
        }
        break;
      }
      case TokenKind::kAtom:
        if (open.empty()) {
          result.emplace_back(tok.value);
        } else {
          open.top()->AddChild(XNode::Text(tok.value));
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

size_t TokenVectorMemoryBytes(const TokenVector& tokens) {
  size_t total = sizeof(TokenVector) + tokens.capacity() * sizeof(Token);
  for (const auto& t : tokens) total += t.name.capacity() + t.value.MemoryBytes();
  return total;
}

}  // namespace aldsp::xml
