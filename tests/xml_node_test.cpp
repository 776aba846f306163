#include <gtest/gtest.h>

#include <random>

#include "xml/item.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/token.h"

namespace aldsp::xml {
namespace {

NodePtr MakeCustomer() {
  NodePtr c = XNode::Element("CUSTOMER");
  c->AddAttribute(XNode::Attribute("id", AtomicValue::String("CUST001")));
  c->AddChild(XNode::TypedElement("CID", AtomicValue::String("CUST001")));
  c->AddChild(XNode::TypedElement("LAST_NAME", AtomicValue::String("Jones")));
  NodePtr orders = XNode::Element("ORDERS");
  orders->AddChild(XNode::TypedElement("OID", AtomicValue::Integer(7)));
  c->AddChild(orders);
  return c;
}

TEST(NodeTest, NavigationAndTypedValue) {
  NodePtr c = MakeCustomer();
  NodePtr last = c->FirstChildNamed("LAST_NAME");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->TypedValue().AsString(), "Jones");
  EXPECT_EQ(c->ChildrenNamed("ORDERS").size(), 1u);
  EXPECT_EQ(c->AttributeNamed("id")->value().AsString(), "CUST001");
  EXPECT_EQ(c->FirstChildNamed("MISSING"), nullptr);
}

TEST(NodeTest, PrefixedNameMatching) {
  NodePtr e = XNode::Element("tns:PROFILE");
  e->AddChild(XNode::TypedElement("CID", AtomicValue::String("1")));
  EXPECT_TRUE(NameMatches(e->name(), "PROFILE"));
  EXPECT_TRUE(NameMatches(e->name(), "tns:PROFILE"));
  EXPECT_FALSE(NameMatches(e->name(), "PROFILES"));
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  NodePtr c = MakeCustomer();
  NodePtr copy = c->Clone();
  EXPECT_TRUE(c->DeepEquals(*copy));
  copy->FirstChildNamed("LAST_NAME")->SetChildren(
      {XNode::Text(AtomicValue::String("Smith"))});
  EXPECT_FALSE(c->DeepEquals(*copy));
  EXPECT_EQ(c->FirstChildNamed("LAST_NAME")->TypedValue().AsString(), "Jones");
}

TEST(NodeTest, StringValueConcatenatesDescendants) {
  NodePtr c = MakeCustomer();
  EXPECT_EQ(c->StringValue(), "CUST001Jones7");
}

TEST(TokenTest, SequenceRoundTripsThroughTokenStream) {
  Sequence seq;
  seq.emplace_back(Item(NodePtr(MakeCustomer())));
  seq.emplace_back(Item(AtomicValue::Integer(99)));
  TokenVector tokens;
  SequenceToTokens(seq, &tokens);
  auto back = TokensToSequence(tokens);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SequenceDeepEquals(seq, back.value()));
}

TEST(TokenTest, UnbalancedStreamIsError) {
  TokenVector tokens;
  tokens.push_back(Token::StartElement("A"));
  EXPECT_FALSE(TokensToSequence(tokens).ok());
  tokens.clear();
  tokens.push_back(Token::StartElement("A"));
  tokens.push_back(Token::EndElement("B"));
  EXPECT_FALSE(TokensToSequence(tokens).ok());
}

TEST(TokenTest, TupleFramingRejectedInXmlStream) {
  TokenVector tokens;
  tokens.push_back(Token::BeginTuple());
  EXPECT_FALSE(TokensToSequence(tokens).ok());
}

TEST(SerializerTest, BasicSerialization) {
  NodePtr c = MakeCustomer();
  std::string xml = SerializeNode(*c);
  EXPECT_EQ(xml,
            "<CUSTOMER id=\"CUST001\"><CID>CUST001</CID>"
            "<LAST_NAME>Jones</LAST_NAME><ORDERS><OID>7</OID></ORDERS>"
            "</CUSTOMER>");
}

TEST(SerializerTest, EscapesSpecialCharacters) {
  NodePtr e = XNode::TypedElement("X", AtomicValue::String("a<b&c>\"d\""));
  std::string xml = SerializeNode(*e);
  EXPECT_EQ(xml, "<X>a&lt;b&amp;c&gt;&quot;d&quot;</X>");
}

TEST(ParserTest, ParsesBackWhatSerializerWrites) {
  NodePtr c = MakeCustomer();
  auto parsed = ParseXml(SerializeNode(*c));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Parsed tree is untyped; string values must match.
  EXPECT_EQ((*parsed)->StringValue(), c->StringValue());
  EXPECT_EQ((*parsed)->AttributeNamed("id")->value().Lexical(), "CUST001");
}

TEST(ParserTest, HandlesDeclarationCommentsAndEntities) {
  auto parsed = ParseXml(
      "<?xml version=\"1.0\"?><!-- a comment -->"
      "<root><a>1 &amp; 2</a><!-- inner --><b x='y'/></root>");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)->FirstChildNamed("a")->StringValue(), "1 & 2");
  EXPECT_NE((*parsed)->FirstChildNamed("b"), nullptr);
}

TEST(ParserTest, RejectsMalformedXml) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("<a x=y/>").ok());
}

// Random-tree property: token-stream encoding and XML text serialization
// both round-trip arbitrary trees.
class RandomTreeProperty : public ::testing::TestWithParam<uint32_t> {
 protected:
  NodePtr RandomTree(std::mt19937& rng, int depth) {
    NodePtr el =
        XNode::Element(std::string("E").append(std::to_string(rng() % 5)));
    if (rng() % 3 == 0) {
      el->AddAttribute(XNode::Attribute(
          std::string("a").append(std::to_string(rng() % 3)),
          AtomicValue::String(
              std::string("v<&>").append(std::to_string(rng() % 100)))));
    }
    int children = static_cast<int>(rng() % 4);
    for (int i = 0; i < children; ++i) {
      if (depth < 3 && rng() % 2 == 0) {
        el->AddChild(RandomTree(rng, depth + 1));
      } else {
        switch (rng() % 4) {
          case 0:
            el->AddChild(XNode::Text(AtomicValue::Integer(
                static_cast<int64_t>(rng() % 1000) - 500)));
            break;
          case 1:
            el->AddChild(XNode::Text(AtomicValue::Double(
                static_cast<double>(rng() % 1000) / 8.0)));
            break;
          case 2:
            el->AddChild(XNode::Text(AtomicValue::Boolean(rng() % 2 == 0)));
            break;
          default:
            el->AddChild(XNode::Text(
                AtomicValue::String("t&x<" + std::to_string(rng() % 50))));
        }
      }
    }
    return el;
  }
};

TEST_P(RandomTreeProperty, TokenStreamRoundTrip) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  for (int i = 0; i < 20; ++i) {
    Sequence seq{Item(RandomTree(rng, 0))};
    TokenVector tokens;
    SequenceToTokens(seq, &tokens);
    auto back = TokensToSequence(tokens);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(SequenceDeepEquals(seq, *back));
  }
}

TEST_P(RandomTreeProperty, SerializeParsePreservesStringValues) {
  std::mt19937 rng(GetParam() * 40503u + 7);
  for (int i = 0; i < 20; ++i) {
    NodePtr tree = RandomTree(rng, 0);
    auto parsed = ParseXml(SerializeNode(*tree));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                             << SerializeNode(*tree);
    // Parsed trees are untyped, but names, structure and string values
    // survive; serializing again is a fixpoint.
    EXPECT_EQ(SerializeNode(**parsed), SerializeNode(*tree));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty, ::testing::Range(0u, 8u));

TEST(SequenceTest, EffectiveBooleanValue) {
  EXPECT_FALSE(*EffectiveBooleanValue({}));
  EXPECT_TRUE(*EffectiveBooleanValue({Item(AtomicValue::Boolean(true))}));
  EXPECT_FALSE(*EffectiveBooleanValue({Item(AtomicValue::String(""))}));
  EXPECT_TRUE(*EffectiveBooleanValue({Item(AtomicValue::Integer(5))}));
  EXPECT_TRUE(*EffectiveBooleanValue({Item(NodePtr(MakeCustomer()))}));
  Sequence two = {Item(AtomicValue::Integer(1)), Item(AtomicValue::Integer(2))};
  EXPECT_FALSE(EffectiveBooleanValue(two).ok());
}

TEST(SequenceTest, AtomizeMixedSequence) {
  Sequence seq = {Item(NodePtr(XNode::TypedElement("N", AtomicValue::Integer(3)))),
                  Item(AtomicValue::String("x"))};
  Sequence data = Atomize(seq);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0].atomic().AsInteger(), 3);
  EXPECT_EQ(data[1].atomic().AsString(), "x");
}

}  // namespace
}  // namespace aldsp::xml
