// Flat source rows (paper §5.1 keeps relational data as a flat typed token
// stream): a SQL row is one node over its cells until something needs
// child nodes. The flat form must read exactly like the tree of typed
// child elements it stands for (NULL cells are missing elements, paper
// §4.4), build its children once even when several threads ask, and
// cost at most three allocations per row. Through the server, the flat
// row query set (with the leaves element constructors make, and the
// return operator dropping each row once its result is built) is held
// byte for byte to the reference across the knob matrix, and the plans
// that should keep the flat form do.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "examples/example_env.h"
#include "server/explain.h"
#include "tests/e2e_fixture.h"
#include "update/sdo.h"
#include "xml/serializer.h"

// Allocation counting for the calling thread only.
namespace {
thread_local bool tls_counting = false;
thread_local int64_t tls_allocations = 0;
}  // namespace

// Every scalar new and delete goes to malloc() and free(), so memory from
// one variant (std::stable_sort's nothrow buffer) may be released through
// another under the sanitizers. Out of line, so the compiler does not pair
// an inlined malloc() or free() with the new and delete at call sites
// (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (tls_counting) ++tls_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                            const std::nothrow_t&) noexcept {
  if (tls_counting) ++tls_allocations;
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

const security::Principal kAnalyst{"amy", {"analyst", "admin"}};
const security::Principal kSupport{"sam", {"support"}};
constexpr int kCustomers = 30;

// ----- The node ------------------------------------------------------------

std::shared_ptr<const xml::RowSchema> Schema() {
  return std::make_shared<const xml::RowSchema>(xml::RowSchema{
      "CUSTOMER", {"CID", "FIRST_NAME", "LAST_NAME", "SSN", "SINCE"}});
}

// A row with a NULL column, a string that needs escaping, an empty
// string and an integer.
std::vector<Cell> Cells() {
  return {Cell::Str("CUST007"), Cell::Null(), Cell::Str("O'Brien & <Co>"),
          Cell::Str(""), Cell::Int(1000604800)};
}

// The tree form the row stands for.
NodePtr Tree() {
  NodePtr row = XNode::Element("CUSTOMER");
  const auto schema = Schema();
  const std::vector<Cell> cells = Cells();
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].is_null) continue;
    row->AddChild(XNode::TypedElement(schema->column_names[i], cells[i].value));
  }
  return row;
}

NodePtr Flat() { return XNode::Row(Schema(), Cells()); }

// Charges the row materializations of the calling thread to `count`.
class CountBuilds {
 public:
  explicit CountBuilds(std::atomic<int64_t>* count)
      : outer_(xml::SetThreadRowMaterializationCounter(count)) {}
  ~CountBuilds() { xml::SetThreadRowMaterializationCounter(outer_); }

 private:
  std::atomic<int64_t>* outer_;
};

TEST(FlatRowTest, ReadsMatchTheTreeForm) {
  NodePtr tree = Tree();
  NodePtr flat = Flat();
  ASSERT_TRUE(flat->flat());
  EXPECT_EQ(flat->name(), tree->name());
  EXPECT_EQ(flat->kind(), xml::NodeKind::kElement);
  for (bool indent : {false, true}) {
    EXPECT_EQ(xml::SerializeNode(*flat, {indent}),
              xml::SerializeNode(*tree, {indent}));
  }
  EXPECT_EQ(flat->StringValue(), tree->StringValue());
  EXPECT_EQ(flat->TypedValue(), tree->TypedValue());
  EXPECT_EQ(flat->TypedValue().type(), AtomicType::kUntyped);
  // Atomized child steps keep each cell's type annotation; the NULL
  // column reads as a missing element.
  for (const char* col :
       {"CID", "FIRST_NAME", "LAST_NAME", "SSN", "SINCE", "NOPE"}) {
    xml::Sequence from_flat, from_tree;
    xml::AppendChildData(*flat, col, &from_flat);
    xml::AppendChildData(*tree, col, &from_tree);
    ASSERT_EQ(from_flat.size(), from_tree.size()) << col;
    for (size_t i = 0; i < from_flat.size(); ++i) {
      EXPECT_EQ(from_flat[i].atomic().type(), from_tree[i].atomic().type());
      EXPECT_EQ(from_flat[i].atomic(), from_tree[i].atomic()) << col;
    }
  }
  xml::Sequence since;
  xml::AppendChildData(*flat, "SINCE", &since);
  ASSERT_EQ(since.size(), 1u);
  EXPECT_EQ(since[0].atomic().type(), AtomicType::kInteger);
  xml::Sequence first_name;
  xml::AppendChildData(*flat, "FIRST_NAME", &first_name);
  EXPECT_TRUE(first_name.empty());
  // None of the reads above built children.
  EXPECT_TRUE(flat->flat());
  // The flat form is the smaller one.
  EXPECT_LT(flat->MemoryBytes(), tree->MemoryBytes());
}

TEST(FlatRowTest, CloneStaysFlatAndEqual) {
  NodePtr tree = Tree();
  NodePtr flat = Flat();
  NodePtr copy = flat->Clone();
  EXPECT_NE(copy, flat);
  EXPECT_TRUE(copy->flat());
  EXPECT_EQ(copy->parent(), nullptr);
  EXPECT_EQ(xml::SerializeNode(*copy), xml::SerializeNode(*tree));
  EXPECT_EQ(copy->MemoryBytes(), flat->MemoryBytes());
  EXPECT_TRUE(copy->DeepEquals(*tree));
  // A clone of a built row is a tree like any other.
  NodePtr built = Flat();
  (void)built->children();
  NodePtr tree_copy = built->Clone();
  EXPECT_FALSE(tree_copy->flat());
  EXPECT_TRUE(tree_copy->DeepEquals(*tree));
}

TEST(FlatRowTest, ChildNodesAreBuiltOnceWithTheRowAsParent) {
  NodePtr tree = Tree();
  NodePtr flat = Flat();
  std::atomic<int64_t> builds{0};
  CountBuilds count(&builds);
  EXPECT_TRUE(flat->DeepEquals(*tree));
  EXPECT_TRUE(tree->DeepEquals(*Flat()));
  EXPECT_EQ(builds.load(), 2);
  EXPECT_FALSE(flat->flat());
  const std::vector<NodePtr>& children = flat->children();
  ASSERT_EQ(children.size(), tree->children().size());
  for (size_t i = 0; i < children.size(); ++i) {
    EXPECT_EQ(children[i]->parent(), flat.get());
    EXPECT_EQ(children[i]->name(), tree->children()[i]->name());
    ASSERT_EQ(children[i]->children().size(), 1u);
    EXPECT_EQ(children[i]->children()[0]->parent(), children[i].get());
    EXPECT_EQ(children[i]->TypedValue().type(),
              tree->children()[i]->TypedValue().type());
  }
  EXPECT_EQ(flat->FirstChildNamed("FIRST_NAME"), nullptr);
  EXPECT_EQ(flat->FirstChildNamed("CID"), children[0]);
  // Later reads see the same nodes and build nothing more.
  EXPECT_EQ(&flat->children(), &children);
  EXPECT_EQ(flat->children()[0], children[0]);
  EXPECT_EQ(builds.load(), 2);
  // Built, every read goes through the children.
  EXPECT_EQ(xml::SerializeNode(*flat), xml::SerializeNode(*tree));
  EXPECT_EQ(flat->StringValue(), tree->StringValue());
  EXPECT_GT(flat->MemoryBytes(), Flat()->MemoryBytes());
  // A mutator writes the built children, and reads follow it.
  children[0]->SetChildren({XNode::Text(AtomicValue::String("CUST008"))});
  xml::Sequence cid;
  xml::AppendChildData(*flat, "CID", &cid);
  ASSERT_EQ(cid.size(), 1u);
  EXPECT_EQ(cid[0].atomic().AsString(), "CUST008");
  EXPECT_NE(xml::SerializeNode(*flat).find("CUST008"), std::string::npos);
}

TEST(FlatRowTest, MutatingAFlatRowBuildsItsChildrenFirst) {
  NodePtr flat = Flat();
  flat->AddChild(XNode::TypedElement("EXTRA", AtomicValue::Integer(1)));
  EXPECT_FALSE(flat->flat());
  ASSERT_EQ(flat->children().size(), 5u);
  EXPECT_EQ(flat->children()[4]->name(), "EXTRA");
  EXPECT_EQ(flat->children()[0]->name(), "CID");
}

TEST(FlatRowTest, ConcurrentReadersBuildTheChildrenOnce) {
  NodePtr flat = Flat();
  constexpr int kThreads = 8;
  std::vector<std::vector<XNode*>> seen(kThreads);
  std::atomic<int64_t> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CountBuilds count(&builds);
      for (const NodePtr& child : flat->children()) {
        seen[t].push_back(child.get());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_EQ(seen[0].size(), 4u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

// At most three allocations per row for 1-, 2- and 5-column result rows.
TEST(FlatRowTest, RowsCostAtMostThreeAllocationsEach) {
  constexpr int kRows = 200;
  for (int width : {1, 2, 5}) {
    relational::ResultSet rs;
    for (int c = 0; c < width; ++c) {
      rs.column_names.push_back("COLUMN_" + std::to_string(c));
    }
    for (int r = 0; r < kRows; ++r) {
      relational::Row row;
      for (int c = 0; c < width; ++c) {
        row.push_back(c % 2 == 0
                          ? Cell::Str("customer-name-" + std::to_string(r))
                          : Cell::Int(r));
      }
      rs.rows.push_back(std::move(row));
    }
    tls_allocations = 0;
    tls_counting = true;
    xml::Sequence items = runtime::RowsToItems(std::move(rs), "CUSTOMER");
    tls_counting = false;
    ASSERT_EQ(items.size(), static_cast<size_t>(kRows));
    EXPECT_LE(tls_allocations, 3 * kRows) << width << " column(s)";
    EXPECT_TRUE(items.back().node()->flat());
  }
}

// ----- Through the server --------------------------------------------------

constexpr const char* kJoinPanel =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
constexpr const char* kGroupPanel =
    "for $o in ns3:ORDER() group $o as $g by $o/CID as $k "
    "return <G>{fn:data($k)}{fn:sum($g/AMOUNT)}</G>";
constexpr const char* kSmithPanel =
    "for $c in ns3:CUSTOMER() where $c/LAST_NAME eq \"Smith\" "
    "return <S>{fn:data($c/CID)}{fn:count(ns3:getORDER($c))}</S>";
constexpr const char* kCustomerSummary =
    "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST004\" "
    "return <C>{fn:data($c/LAST_NAME)}{fn:count(ns3:getORDER($c))}</C>";
constexpr const char* kReturnRow = "for $c in ns3:CUSTOMER() return $c";
// CUST999 has NULL FIRST_NAME, SSN and SINCE.
constexpr const char* kNullColumns =
    "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST999\" "
    "return <N>{$c}{fn:data($c/SSN)}{fn:data($c/LAST_NAME)}</N>";
constexpr const char* kFilterRows = "ns3:CUSTOMER()[CID eq \"CUST002\"]";
constexpr const char* kCopyRow =
    "for $c in ns3:CUSTOMER() return <W>{$c}</W>";
constexpr const char* kChildStep =
    "for $c in ns3:CUSTOMER() return <W>{$c/CID}</W>";
// Leaves as content of constructors, an empty string, an attribute beside
// atomics, and leaves copied from a row and from a constructed element.
constexpr const char* kNestedLeaves =
    "for $c in ns3:CUSTOMER() "
    "return <R><N>{fn:data($c/LAST_NAME)}</N><E>{\"\"}</E>"
    "<A id=\"{fn:data($c/CID)}\">{fn:data($c/SINCE)}{1}</A>{$c/CID}</R>";
constexpr const char* kStepOverLeaves =
    "for $c in ns3:CUSTOMER() "
    "let $r := <R><K>{fn:data($c/CID)}</K><V>{fn:count(ns3:getORDER($c))}</V></R> "
    "return <W>{$r/K}{fn:data($r/V)}{$r/V}</W>";
constexpr const char* kDeepEqual =
    "for $c in ns3:CUSTOMER(), $d in ns3:CUSTOMER() "
    "where $c/CID eq $d/CID return fn:deep-equal($c, $d)";

std::unique_ptr<DataServicePlatform> MakePlatform(ServerOptions options) {
  auto platform = std::make_unique<DataServicePlatform>(std::move(options));
  examples::WireRunningExample(*platform, kCustomers);
  relational::Database* db = platform->adaptors().FindDatabase("customer_db");
  EXPECT_NE(db, nullptr);
  if (db != nullptr) {
    EXPECT_TRUE(db->InsertRow("CUSTOMER", {Cell::Str("CUST999"), Cell::Null(),
                                           Cell::Str("Nulls"), Cell::Null(),
                                           Cell::Null()})
                    .ok());
  }
  EXPECT_TRUE(platform->LoadDataService(examples::ProfileDataService()).ok());
  security::AccessControl& ac = platform->access_control();
  ac.AddFunctionAcl({"tns:getProfile", {"admin", "analyst", "support"}});
  ac.AddElementPolicy({"PROFILE/RATING",
                       {"analyst"},
                       security::RedactionAction::kReplace,
                       xml::AtomicValue::Integer(-1)});
  ac.AddElementPolicy({"PROFILE/CREDIT_CARDS",
                       {"admin"},
                       security::RedactionAction::kRemove,
                       {}});
  return platform;
}

class FlatRowKnobTest : public ::testing::TestWithParam<testing::ServerKnobs> {
};

TEST_P(FlatRowKnobTest, FlatRowQueriesMatchReference) {
  static const std::unique_ptr<DataServicePlatform> reference =
      MakePlatform(testing::ReferenceOptions());
  auto platform = testing::KnobPlatform(MakePlatform, GetParam());
  const std::string label = GetParam().Name();
  for (const char* q :
       {kJoinPanel, kGroupPanel, kSmithPanel, kCustomerSummary, kReturnRow,
        kNullColumns, kFilterRows, kCopyRow, kNestedLeaves, kStepOverLeaves}) {
    testing::ExpectMatchesReference(*platform, *reference, q, nullptr, label);
  }
  const std::string profile = "tns:getProfileByID(\"CUST003\")";
  for (const security::Principal* who : {&kAnalyst, &kSupport}) {
    testing::ExpectMatchesReference(*platform, *reference, profile, who,
                                    label + " as " + who->user);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, FlatRowKnobTest,
                         ::testing::ValuesIn(testing::ServerKnobMatrix()),
                         testing::KnobName);

int64_t Materializations(DataServicePlatform& platform) {
  return platform.MetricsSnapshot().counters.at("runtime.row_materializations");
}

// The plans of the dashboard panels and the customer summary read rows
// only through atomized child steps, navigation keys and serialization,
// so they keep every row flat. A bare child step and fn:deep-equal need
// child nodes; a constructor copying a row keeps the copy flat.
TEST(FlatRowCounterTest, CountsRowsThatLoseTheFlatForm) {
  auto platform = MakePlatform({});
  for (const char* q : {kJoinPanel, kGroupPanel, kSmithPanel, kCustomerSummary,
                        kReturnRow, kCopyRow, kFilterRows}) {
    auto r = platform->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    EXPECT_FALSE(r->empty()) << q;
    auto profiled = platform->ExecuteProfiled(q);
    ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
    EXPECT_EQ(profiled->trace->RowMaterializations(), 0) << q;
    EXPECT_NE(RenderProfileText(*profiled->plan, *profiled->trace)
                  .find("row materializations: 0\n"),
              std::string::npos)
        << q;
  }
  EXPECT_EQ(Materializations(*platform), 0);

  auto stepped = platform->ExecuteProfiled(kChildStep);
  ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
  EXPECT_EQ(stepped->trace->RowMaterializations(), kCustomers + 1);
  EXPECT_NE(RenderProfileJson(*stepped->plan, *stepped->trace)
                .find("\"row_materializations\":" +
                      std::to_string(kCustomers + 1)),
            std::string::npos);
  const int64_t after_step = Materializations(*platform);
  EXPECT_EQ(after_step, kCustomers + 1);

  auto equal = platform->Execute(kDeepEqual);
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  ASSERT_EQ(equal->size(), static_cast<size_t>(kCustomers + 1));
  for (const xml::Item& item : *equal) EXPECT_TRUE(item.atomic().AsBoolean());
  EXPECT_GT(Materializations(*platform), after_step);
}

// A per-query memory budget still ends a scan that holds its rows.
TEST(FlatRowBudgetTest, TinyBudgetEndsAScan) {
  ServerOptions options;
  options.query_memory_budget_bytes = 256;
  auto platform = MakePlatform(options);
  auto r = platform->Execute(
      "for $c in ns3:CUSTOMER() order by $c/LAST_NAME return $c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(platform->query_registry().live_count(), 0);
}

// An SDO over a profile whose ORDERS hold returned ORDER rows: the
// update of a row field goes through the row's lineage, and the next
// read sees it.
TEST(FlatRowSdoTest, UpdateOfAReturnedRow) {
  auto platform = MakePlatform({});
  auto r = platform->Execute("tns:getProfileByID(\"CUST005\")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  const NodePtr orders = r->front().node()->FirstChildNamed("ORDERS");
  ASSERT_NE(orders, nullptr);
  ASSERT_EQ(orders->children().size(), 1u);
  EXPECT_TRUE(orders->children()[0]->flat());
  update::DataObject sdo(r->front().node());
  auto amount = sdo.Get("ORDERS/ORDER[1]/AMOUNT");
  ASSERT_TRUE(amount.ok()) << amount.status().ToString();
  EXPECT_EQ(amount->AsDouble(), 25.0);
  ASSERT_TRUE(sdo.Set("ORDERS/ORDER[1]/AMOUNT", AtomicValue::Double(99.5)).ok());
  auto report = platform->Submit("tns", sdo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements.size(), 1u);
  // The returned row is untouched; a new read sees the update.
  EXPECT_TRUE(orders->children()[0]->flat());
  platform->function_cache().Clear();
  auto again = platform->Execute(
      "for $o in ns3:ORDER() where $o/CID eq \"CUST005\" "
      "return fn:data($o/AMOUNT)");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->size(), 1u);
  EXPECT_EQ(again->front().atomic().NumericAsDouble(), 99.5);
}

}  // namespace
}  // namespace aldsp::server
