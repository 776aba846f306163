#ifndef ALDSP_XML_TOKEN_H_
#define ALDSP_XML_TOKEN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/item.h"

namespace aldsp::xml {

/// Token kinds of the typed XML token stream (paper §5.1 and [11]).
/// Structural events carry names; Atom tokens carry typed values (unlike
/// SAX/StAX, the stream represents the full typed XQuery Data Model).
/// BeginTuple / FieldSeparator / EndTuple frame the internal (non-XML)
/// tuple representation of FLWOR variable bindings (Fig. 4).
enum class TokenKind {
  kStartDocument,
  kEndDocument,
  kStartElement,   // name
  kEndElement,     // name
  kAttribute,      // name + value
  kAtom,           // typed atomic value (element content / standalone atomic)
  kBeginTuple,
  kFieldSeparator,
  kEndTuple,
};

/// One token of the stream. Kept small and POD-ish; token streams are the
/// high-volume currency of the runtime.
struct Token {
  TokenKind kind;
  std::string name;   // element/attribute name for structural tokens
  AtomicValue value;  // payload for kAttribute / kAtom

  static Token StartDocument() { return {TokenKind::kStartDocument, "", {}}; }
  static Token EndDocument() { return {TokenKind::kEndDocument, "", {}}; }
  static Token StartElement(std::string n) {
    return {TokenKind::kStartElement, std::move(n), {}};
  }
  static Token EndElement(std::string n) {
    return {TokenKind::kEndElement, std::move(n), {}};
  }
  static Token Attribute(std::string n, AtomicValue v) {
    return {TokenKind::kAttribute, std::move(n), std::move(v)};
  }
  static Token Atom(AtomicValue v) {
    return {TokenKind::kAtom, "", std::move(v)};
  }
  static Token BeginTuple() { return {TokenKind::kBeginTuple, "", {}}; }
  static Token FieldSeparator() { return {TokenKind::kFieldSeparator, "", {}}; }
  static Token EndTuple() { return {TokenKind::kEndTuple, "", {}}; }

  /// The token's slot and the bytes its name and value hold outside it.
  size_t MemoryBytes() const {
    return sizeof(Token) + HeapBytes(name) + value.HeapBytes();
  }
};

using TokenVector = std::vector<Token>;

/// Pull interface over a token stream. Implementations may stream lazily
/// (adaptors) or replay a materialized vector.
class TokenIterator {
 public:
  virtual ~TokenIterator() = default;
  /// Fills `token` and returns true, or returns false at end of stream.
  virtual bool Next(Token* token) = 0;
};

/// TokenIterator over a materialized vector.
class VectorTokenIterator : public TokenIterator {
 public:
  explicit VectorTokenIterator(TokenVector tokens)
      : tokens_(std::move(tokens)) {}
  bool Next(Token* token) override {
    if (pos_ >= tokens_.size()) return false;
    *token = tokens_[pos_++];
    return true;
  }

 private:
  TokenVector tokens_;
  size_t pos_ = 0;
};

/// Appends the token encoding of `item` to `out` (element subtrees expand
/// to Start/Attribute/Atom/End events; atomic items to a single Atom).
void ItemToTokens(const Item& item, TokenVector* out);
void SequenceToTokens(const Sequence& seq, TokenVector* out);

/// Rebuilds items from a token stream produced by ItemToTokens /
/// an adaptor. Tuple-framing tokens are not valid here.
Result<Sequence> TokensToSequence(TokenIterator* it);
Result<Sequence> TokensToSequence(const TokenVector& tokens);

}  // namespace aldsp::xml

#endif  // ALDSP_XML_TOKEN_H_
