// Lean XML nodes: each node kind stores only its own fields, and an
// element whose content is typed atomic values is one *leaf* node holding
// the value in place of the text child it stands for. A leaf must read
// exactly like that tree form, build its text child once even when several
// threads ask, and cost well under what the single node layout every kind
// used to share cost; the accounted bytes of leaves, rows and mixed trees
// must follow what the allocator hands out. Through the server, element
// constructors make leaves.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cache/typed_codec.h"
#include "examples/example_env.h"
#include "update/sdo.h"
#include "xml/serializer.h"
#include "xml/token.h"
#include "xsd/validate.h"

// Allocation counting (calls and requested bytes) for the calling thread
// only.
namespace {
thread_local bool tls_counting = false;
thread_local int64_t tls_allocations = 0;
thread_local int64_t tls_bytes = 0;

void Count(std::size_t size) {
  if (!tls_counting) return;
  ++tls_allocations;
  tls_bytes += static_cast<int64_t>(size);
}
}  // namespace

// As in flat_row_test: every scalar new and delete goes to malloc() and
// free(), out of line (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                            const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace aldsp::server {
namespace {

using xml::AtomicType;
using xml::AtomicValue;
using xml::Cell;
using xml::NodePtr;
using xml::XNode;

// Bytes and allocations requested on this thread while it lives.
class Counted {
 public:
  Counted() {
    tls_allocations = 0;
    tls_bytes = 0;
    tls_counting = true;
  }
  ~Counted() { tls_counting = false; }
  int64_t bytes() const { return tls_bytes; }
  int64_t allocations() const { return tls_allocations; }
};

// ----- The leaf ------------------------------------------------------------

// The tree form a leaf stands for: an element with one typed text child.
NodePtr TreeOf(const std::string& name, const AtomicValue& v) {
  NodePtr e = XNode::Element(name);
  e->AddChild(XNode::Text(v));
  return e;
}

// Values a leaf may hold: typed, empty, needing escapes, and atomics an
// element constructor joined with spaces (an xs:string).
std::vector<AtomicValue> Values() {
  return {AtomicValue::Integer(42),
          AtomicValue::String(""),
          AtomicValue::String("O'Brien & <Co>"),
          AtomicValue::Double(2.5),
          AtomicValue::Boolean(true),
          AtomicValue::DateTime(1000604800),
          AtomicValue::Untyped("untyped"),
          AtomicValue::String("CUST007 125.5")};
}

void ExpectSameTokens(const xml::Item& a, const xml::Item& b) {
  xml::TokenVector ta, tb;
  xml::ItemToTokens(a, &ta);
  xml::ItemToTokens(b, &tb);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].kind, tb[i].kind) << i;
    EXPECT_EQ(ta[i].name, tb[i].name) << i;
    EXPECT_EQ(ta[i].value.type(), tb[i].value.type()) << i;
    EXPECT_EQ(ta[i].value, tb[i].value) << i;
  }
}

// Every read of `leaf` against the tree form, alone and as a child.
void ExpectReadsLikeTree(const NodePtr& leaf, const NodePtr& tree) {
  const std::string label = xml::SerializeNode(*tree);
  EXPECT_EQ(leaf->kind(), xml::NodeKind::kElement);
  EXPECT_EQ(leaf->name(), tree->name());
  for (bool indent : {false, true}) {
    EXPECT_EQ(xml::SerializeNode(*leaf, {indent}),
              xml::SerializeNode(*tree, {indent}))
        << label;
  }
  EXPECT_EQ(leaf->StringValue(), tree->StringValue()) << label;
  EXPECT_EQ(leaf->TypedValue().type(), tree->TypedValue().type()) << label;
  EXPECT_EQ(leaf->TypedValue(), tree->TypedValue()) << label;
  ExpectSameTokens(xml::Item(leaf), xml::Item(tree));
  EXPECT_TRUE(leaf->DeepEquals(*tree)) << label;
  EXPECT_TRUE(tree->DeepEquals(*leaf)) << label;
  EXPECT_TRUE(leaf->attributes().empty());
  EXPECT_EQ(leaf->FirstChildNamed("G"), nullptr);
  EXPECT_TRUE(leaf->ChildrenNamed("G").empty());
  xml::Sequence none;
  xml::AppendChildData(*leaf, "G", &none);
  EXPECT_TRUE(none.empty());

  // As the content of a parent: atomized child steps and serialization.
  NodePtr leaf_parent = XNode::Element("P");
  NodePtr tree_parent = XNode::Element("P");
  for (int i = 0; i < 2; ++i) {
    leaf_parent->AddChild(leaf->Clone());
    tree_parent->AddChild(tree->Clone());
  }
  for (bool indent : {false, true}) {
    EXPECT_EQ(xml::SerializeNode(*leaf_parent, {indent}),
              xml::SerializeNode(*tree_parent, {indent}))
        << label;
  }
  xml::Sequence from_leaf, from_tree;
  xml::AppendChildData(*leaf_parent, "G", &from_leaf);
  xml::AppendChildData(*tree_parent, "G", &from_tree);
  ASSERT_EQ(from_leaf.size(), 2u);
  EXPECT_TRUE(xml::SequenceDeepEquals(from_leaf, from_tree)) << label;
  EXPECT_EQ(from_leaf[0].atomic().type(), from_tree[0].atomic().type());
  EXPECT_TRUE(leaf_parent->DeepEquals(*tree_parent)) << label;
}

TEST(LeafTest, ReadsMatchTheTreeForm) {
  for (const AtomicValue& v : Values()) {
    NodePtr leaf = XNode::TypedElement("G", v);
    NodePtr tree = TreeOf("G", v);
    ASSERT_TRUE(leaf->leaf());
    EXPECT_FALSE(tree->leaf());
    EXPECT_EQ(leaf->leaf_value(), v);
    ExpectReadsLikeTree(leaf, tree);
    // None of the reads built the text child.
    EXPECT_TRUE(leaf->leaf()) << v.Lexical();
    EXPECT_LT(leaf->MemoryBytes(), tree->MemoryBytes());
  }
  // The empty string still writes an open and a close tag.
  EXPECT_EQ(xml::SerializeNode(*XNode::TypedElement("G", AtomicValue::String(""))),
            "<G></G>");
}

TEST(LeafTest, UnequalLeaves) {
  NodePtr leaf = XNode::TypedElement("G", AtomicValue::Integer(1));
  EXPECT_FALSE(leaf->DeepEquals(*XNode::TypedElement("G", AtomicValue::Integer(2))));
  EXPECT_FALSE(leaf->DeepEquals(*XNode::TypedElement("H", AtomicValue::Integer(1))));
  EXPECT_FALSE(leaf->DeepEquals(*XNode::Element("G")));
  NodePtr with_attribute = TreeOf("G", AtomicValue::Integer(1));
  with_attribute->AddAttribute(XNode::Attribute("a", AtomicValue::Integer(1)));
  EXPECT_FALSE(leaf->DeepEquals(*with_attribute));
  EXPECT_FALSE(with_attribute->DeepEquals(*leaf));
  NodePtr two_texts = TreeOf("G", AtomicValue::Integer(1));
  two_texts->AddChild(XNode::Text(AtomicValue::Integer(1)));
  EXPECT_FALSE(leaf->DeepEquals(*two_texts));
  EXPECT_TRUE(leaf->leaf());
}

TEST(LeafTest, ClonesAreLeaves) {
  for (const AtomicValue& v : Values()) {
    NodePtr leaf = XNode::TypedElement("G", v);
    NodePtr tree = TreeOf("G", v);
    NodePtr copy = leaf->Clone();
    EXPECT_NE(copy, leaf);
    EXPECT_TRUE(copy->leaf());
    EXPECT_EQ(copy->parent(), nullptr);
    EXPECT_EQ(copy->MemoryBytes(), leaf->MemoryBytes());
    EXPECT_TRUE(copy->DeepEquals(*tree));
    // The tree form copies as the leaf it stands for, and so does a
    // built leaf.
    EXPECT_TRUE(tree->Clone()->leaf());
    EXPECT_EQ(xml::SerializeNode(*tree->Clone()), xml::SerializeNode(*tree));
    (void)leaf->children();
    EXPECT_TRUE(leaf->Clone()->leaf());
  }
}

TEST(LeafTest, TextChildIsBuiltOnceWithTheLeafAsParent) {
  for (const AtomicValue& v : Values()) {
    NodePtr leaf = XNode::TypedElement("G", v);
    NodePtr tree = TreeOf("G", v);
    const size_t unbuilt = leaf->MemoryBytes();
    const std::vector<NodePtr>& children = leaf->children();
    EXPECT_FALSE(leaf->leaf());
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children[0]->kind(), xml::NodeKind::kText);
    EXPECT_EQ(children[0]->parent(), leaf.get());
    EXPECT_EQ(children[0]->value().type(), v.type());
    EXPECT_EQ(children[0]->value(), v);
    EXPECT_EQ(&leaf->children(), &children);
    EXPECT_EQ(leaf->children()[0], children[0]);
    EXPECT_GT(leaf->MemoryBytes(), unbuilt);
    // Built, every read goes through the child and still matches.
    ExpectReadsLikeTree(leaf, tree);
  }
}

TEST(LeafTest, MutatorsBuildTheChildFirst) {
  NodePtr set = XNode::TypedElement("G", AtomicValue::Integer(1));
  set->SetChildren({XNode::Text(AtomicValue::Integer(2))});
  EXPECT_FALSE(set->leaf());
  EXPECT_EQ(xml::SerializeNode(*set), "<G>2</G>");
  EXPECT_EQ(set->TypedValue(), AtomicValue::Integer(2));
  EXPECT_EQ(set->children()[0]->parent(), set.get());
  // A reader follows a text child written in place.
  set->children()[0]->set_value(AtomicValue::Integer(3));
  EXPECT_EQ(set->StringValue(), "3");

  NodePtr added = XNode::TypedElement("G", AtomicValue::Integer(1));
  added->AddChild(XNode::TypedElement("H", AtomicValue::Integer(2)));
  EXPECT_EQ(xml::SerializeNode(*added), "<G>1<H>2</H></G>");
  xml::Sequence h;
  xml::AppendChildData(*added, "H", &h);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].atomic(), AtomicValue::Integer(2));

  NodePtr attributed = XNode::TypedElement("G", AtomicValue::Integer(1));
  attributed->AddAttribute(XNode::Attribute("a", AtomicValue::String("x")));
  EXPECT_EQ(xml::SerializeNode(*attributed), "<G a=\"x\">1</G>");
  EXPECT_NE(attributed->AttributeNamed("a"), nullptr);
  EXPECT_EQ(attributed->AttributeNamed("a")->parent(), attributed.get());

  NodePtr removed = XNode::TypedElement("G", AtomicValue::Integer(1));
  removed->RemoveChildAt(0);
  EXPECT_EQ(xml::SerializeNode(*removed), "<G/>");
  EXPECT_EQ(removed->StringValue(), "");
}

TEST(LeafTest, SdoUpdatesALeaf) {
  NodePtr root = XNode::Element("PROFILE");
  root->AddChild(XNode::TypedElement("CID", AtomicValue::String("CUST001")));
  root->AddChild(XNode::TypedElement("RATING", AtomicValue::Integer(640)));
  update::DataObject sdo(root);
  auto rating = sdo.Get("RATING");
  ASSERT_TRUE(rating.ok()) << rating.status().ToString();
  EXPECT_EQ(*rating, AtomicValue::Integer(640));
  ASSERT_TRUE(sdo.Set("RATING", AtomicValue::Integer(700)).ok());
  EXPECT_EQ(*sdo.Get("RATING"), AtomicValue::Integer(700));
  ASSERT_EQ(sdo.change_log().size(), 1u);
  EXPECT_EQ(sdo.change_log()[0].old_value, AtomicValue::Integer(640));
  EXPECT_EQ(xml::SerializeNode(*sdo.root()),
            "<PROFILE><CID>CUST001</CID><RATING>700</RATING></PROFILE>");
  // The node the data object was made from is untouched.
  EXPECT_TRUE(root->children()[1]->leaf());
}

TEST(LeafTest, ConcurrentReadersBuildTheTextOnce) {
  int64_t one_build = 0;
  {
    NodePtr fresh = XNode::TypedElement("G", AtomicValue::Integer(7));
    Counted counted;
    (void)fresh->children();
    one_build = counted.allocations();
  }
  ASSERT_GT(one_build, 0);
  NodePtr leaf = XNode::TypedElement("G", AtomicValue::Integer(7));
  constexpr int kThreads = 8;
  std::vector<XNode*> seen(kThreads, nullptr);
  std::vector<int64_t> allocations(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counted counted;
      seen[t] = leaf->children().front().get();
      allocations[t] = counted.allocations();
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    total += allocations[t];
  }
  EXPECT_EQ(total, one_build);
  EXPECT_EQ(seen[0]->parent(), leaf.get());
}

// A cached result read back from the typed codec holds the leaves it was
// stored with: the same bytes accounted and the same serialization.
TEST(LeafTest, TypedCodecRoundTripKeepsLeaves) {
  xml::Sequence original;
  NodePtr profile = XNode::Element("tns:PROFILE");
  profile->AddChild(XNode::TypedElement("CID", AtomicValue::String("CUST001")));
  profile->AddChild(XNode::TypedElement("SINCE", AtomicValue::DateTime(1000604800)));
  profile->AddChild(XNode::TypedElement(
      "NOTE", AtomicValue::String("a note longer than the inline buffer")));
  profile->AddChild(XNode::Element("EMPTY"));
  NodePtr attributed = TreeOf("RATING", AtomicValue::Integer(640));
  attributed->AddAttribute(XNode::Attribute("scale", AtomicValue::String("fico")));
  profile->AddChild(attributed);
  original.emplace_back(profile);
  for (const AtomicValue& v : Values()) {
    original.emplace_back(XNode::TypedElement("G", v));
  }
  original.emplace_back(AtomicValue::Integer(7));

  auto decoded = cache::DecodeTypedSequence(cache::EncodeTypedSequence(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), original.size());
  EXPECT_EQ(xml::SerializeSequence(*decoded), xml::SerializeSequence(original));
  EXPECT_TRUE(xml::SequenceDeepEquals(*decoded, original));
  EXPECT_EQ(xml::SequenceMemoryBytes(*decoded), xml::SequenceMemoryBytes(original));
  for (size_t i = 1; i + 1 < decoded->size(); ++i) {
    EXPECT_TRUE((*decoded)[i].node()->leaf()) << i;
  }
  const std::vector<NodePtr>& fields = decoded->front().node()->children();
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_TRUE(fields[0]->leaf());
  EXPECT_TRUE(fields[1]->leaf());
  EXPECT_EQ(fields[1]->leaf_value().type(), AtomicType::kDateTime);
  EXPECT_TRUE(fields[2]->leaf());
  // No content, and content beside an attribute, stay in tree form.
  EXPECT_FALSE(fields[3]->leaf());
  EXPECT_TRUE(fields[3]->children().empty());
  EXPECT_FALSE(fields[4]->leaf());
  EXPECT_EQ(xml::SerializeNode(*fields[4]),
            "<RATING scale=\"fico\">640</RATING>");
}

// Simple content without attributes validates to a leaf: the rating web
// service's typed result, directly and through the server.
TEST(LeafTest, ValidatedSimpleContentIsALeaf) {
  const xsd::TypePtr result_type = xsd::XType::SimpleElement(
      "ns5:getRatingResult", AtomicType::kInteger);
  const xsd::TypePtr response_type = xsd::XType::ComplexElement(
      "ns5:getRatingResponse", {{"ns5:getRatingResult", xsd::One(result_type)}});
  NodePtr response = XNode::Element("ns5:getRatingResponse");
  response->AddChild(TreeOf("ns5:getRatingResult", AtomicValue::Untyped("650")));
  auto validated = xsd::ValidateAndType(*response, response_type);
  ASSERT_TRUE(validated.ok()) << validated.status().ToString();
  EXPECT_EQ(xml::SerializeNode(**validated), xml::SerializeNode(*response));
  NodePtr result = (*validated)->FirstChildNamed("ns5:getRatingResult");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->leaf());
  EXPECT_EQ(result->leaf_value(), AtomicValue::Integer(650));
  EXPECT_EQ(result->leaf_value().type(), AtomicType::kInteger);

  DataServicePlatform platform(ServerOptions{});
  examples::WireRunningExample(platform, 5);
  auto r = platform.Execute(
      "ns4:getRating(<ns5:getRating><ns5:lName>Smith</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(xml::SerializeSequence(*r),
            "<ns5:getRatingResponse><ns5:getRatingResult>650"
            "</ns5:getRatingResult></ns5:getRatingResponse>");
  NodePtr served = r->front().node()->FirstChildNamed("ns5:getRatingResult");
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(served->leaf());
}

// ----- Bytes ---------------------------------------------------------------

// The single layout every node kind shared before: name, value, both
// child lists and the parent for a text node and an element alike, and a
// flat row that extended it and kept its own copy of the row name.
struct SharedLayoutNode {
  int kind;
  bool row;
  std::atomic<bool> built;
  std::string name;
  AtomicValue value;
  std::vector<NodePtr> attributes;
  std::vector<NodePtr> children;
  XNode* parent;
};
struct SharedLayoutRow : SharedLayoutNode {
  std::shared_ptr<const xml::RowSchema> schema;
  std::vector<Cell> cells;
  std::once_flag build_once;
};
// std::make_shared's control block: a vtable pointer and two counts.
constexpr int64_t kControlBlock = sizeof(void*) + 2 * sizeof(int);

std::shared_ptr<const xml::RowSchema> OrderSchema() {
  return std::make_shared<const xml::RowSchema>(
      xml::RowSchema{"ORDER", {"CID", "AMOUNT"}});
}

// <G>{k}{v}</G> as the group panel builds it: one leaf holding the joined
// value, where the shared layout needed an element, its one-slot child
// list and a text node.
TEST(NodeBytesTest, GroupResultItemTakesAtMostSixtyPercent) {
  const std::string joined = "CUST001 125.5";
  int64_t leaf_bytes = 0;
  {
    AtomicValue v = AtomicValue::String(joined);
    Counted counted;
    NodePtr item = XNode::TypedElement("G", std::move(v));
    leaf_bytes = counted.bytes();
  }
  const int64_t shared_layout =
      2 * (kControlBlock + sizeof(SharedLayoutNode)) + sizeof(NodePtr);
  EXPECT_LE(leaf_bytes * 10, shared_layout * 6)
      << leaf_bytes << " vs " << shared_layout;
}

TEST(NodeBytesTest, TwoColumnFlatRowTakesAtMostSixtyPercent) {
  const auto schema = OrderSchema();
  int64_t row_bytes = 0;
  {
    Counted counted;
    std::vector<Cell> cells;
    cells.reserve(2);
    cells.push_back(Cell::Str("CUST001"));
    cells.push_back(Cell::Dbl(25.0));
    NodePtr row = XNode::Row(schema, std::move(cells));
    row_bytes = counted.bytes();
  }
  const int64_t shared_layout =
      kControlBlock + sizeof(SharedLayoutRow) + 2 * sizeof(Cell);
  EXPECT_LE(row_bytes * 10, shared_layout * 6)
      << row_bytes << " vs " << shared_layout;
}

// MemoryBytes charges what the allocator handed out for the subtree,
// within 10% either way.
void ExpectAccounted(const char* what, int64_t counted, size_t accounted) {
  EXPECT_GE(static_cast<double>(accounted), 0.9 * counted)
      << what << ": accounted " << accounted << ", allocated " << counted;
  EXPECT_LE(static_cast<double>(accounted), 1.1 * counted)
      << what << ": accounted " << accounted << ", allocated " << counted;
}

TEST(NodeBytesTest, AccountedBytesFollowTheAllocator) {
  const auto schema = std::make_shared<const xml::RowSchema>(xml::RowSchema{
      "CUSTOMER", {"CID", "FIRST_NAME", "LAST_NAME", "SSN", "SINCE"}});
  auto make_row = [&schema] {
    std::vector<Cell> cells;
    cells.reserve(5);
    cells.push_back(Cell::Str("CUST007"));
    cells.push_back(Cell::Null());
    cells.push_back(Cell::Str("a last name longer than the inline buffer"));
    cells.push_back(Cell::Str(""));
    cells.push_back(Cell::Int(1000604800));
    return XNode::Row(schema, std::move(cells));
  };
  {
    Counted counted;
    NodePtr row = make_row();
    const int64_t flat = counted.bytes();
    ExpectAccounted("flat row", flat, row->MemoryBytes());
    (void)row->children();
    ExpectAccounted("built row", counted.bytes(), row->MemoryBytes());
  }
  for (const AtomicValue& v :
       {AtomicValue::Integer(1),
        AtomicValue::String("a value longer than the inline buffer")}) {
    Counted counted;
    NodePtr leaf = XNode::TypedElement("AN_ELEMENT_NAME_OF_SOME_LENGTH", v);
    ExpectAccounted("leaf", counted.bytes(), leaf->MemoryBytes());
    (void)leaf->children();
    ExpectAccounted("built leaf", counted.bytes(), leaf->MemoryBytes());
  }
  {
    Counted counted;
    NodePtr doc = XNode::Document();
    NodePtr profile = XNode::Element("tns:PROFILE");
    profile->AddAttribute(
        XNode::Attribute("version", AtomicValue::String("2")));
    profile->AddChild(XNode::TypedElement("CID", AtomicValue::String("CUST7")));
    profile->AddChild(XNode::Text(AtomicValue::String(
        "mixed text content longer than the inline buffer")));
    NodePtr orders = XNode::Element("ORDERS");
    orders->AddChild(make_row());
    orders->AddChild(make_row());
    profile->AddChild(orders);
    profile->AddChild(TreeOf("RATING", AtomicValue::Integer(640)));
    doc->AddChild(profile);
    ExpectAccounted("mixed tree", counted.bytes(), doc->MemoryBytes());
  }
}

// A sequence's accounted bytes are its vector, its slots and what each
// item holds outside its slot (an out-of-line string, a node), and a
// token's are its slot, its name's heap and its value's heap.
TEST(NodeBytesTest, AtomicSequencesAndTokensFollowTheAllocator) {
  const std::vector<AtomicValue> values = {
      AtomicValue::Integer(1), AtomicValue::String("CUST001"),
      AtomicValue::String("a value longer than the inline buffer"),
      AtomicValue::Double(2.5), AtomicValue::Untyped(""),
      AtomicValue::DateTime(1000604800)};
  {
    Counted counted;
    auto seq = std::make_unique<xml::Sequence>();
    seq->reserve(2 * values.size());
    for (int i = 0; i < 2; ++i) {
      for (const AtomicValue& v : values) seq->emplace_back(v);
    }
    ExpectAccounted("atomic sequence", counted.bytes(),
                    xml::SequenceMemoryBytes(*seq));
    // Each slot is charged once: an inline value holds nothing outside it.
    EXPECT_EQ(xml::SequenceMemoryBytes(*seq),
              sizeof(xml::Sequence) + seq->capacity() * sizeof(xml::Item) +
                  2 * values[2].HeapBytes());
  }
  {
    Counted counted;
    xml::TokenVector tokens;
    tokens.reserve(3 * values.size());
    for (const AtomicValue& v : values) {
      tokens.push_back(xml::Token::StartElement("AN_ELEMENT_NAME_OF_SOME_LENGTH"));
      tokens.push_back(xml::Token::Atom(v));
      tokens.push_back(xml::Token::EndElement("E"));
    }
    size_t accounted = 0;
    for (const xml::Token& t : tokens) accounted += t.MemoryBytes();
    ExpectAccounted("tokens", counted.bytes(), accounted);
  }
}

// ----- Through the server --------------------------------------------------
// The knob matrix over the panels and leaf-making queries is in
// flat_row_test (FlatRowKnobTest).

constexpr int kCustomers = 30;

constexpr const char* kGroupPanel =
    "for $o in ns3:ORDER() group $o as $g by $o/CID as $k "
    "return <G>{fn:data($k)}{fn:sum($g/AMOUNT)}</G>";

// The element constructors of the panels return leaves, each the size of
// one directly built, and read as the tree form would.
TEST(LeafServerTest, PanelResultsAreLeaves) {
  DataServicePlatform platform(ServerOptions{});
  examples::WireRunningExample(platform, kCustomers);
  auto r = platform.Execute(kGroupPanel);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->empty());
  for (const xml::Item& item : *r) {
    ASSERT_TRUE(item.is_node());
    const NodePtr& g = item.node();
    ASSERT_TRUE(g->leaf());
    EXPECT_EQ(g->leaf_value().type(), AtomicType::kString);
    EXPECT_EQ(g->MemoryBytes(),
              XNode::TypedElement("G", g->leaf_value())->MemoryBytes());
  }
  auto single = platform.Execute("<G>{fn:count(ns3:CUSTOMER())}</G>");
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_EQ(single->size(), 1u);
  ASSERT_TRUE(single->front().node()->leaf());
  // One atomic keeps its type annotation.
  EXPECT_EQ(single->front().node()->TypedValue().type(), AtomicType::kInteger);
  EXPECT_EQ(xml::SerializeSequence(*single),
            "<G>" + std::to_string(kCustomers) + "</G>");
}

}  // namespace
}  // namespace aldsp::server
