// Column pruning (paper Table 1, pattern a, for rows that stay in the
// mid-tier): a table scan or PP-k fetch bound by a FLWOR clause that is
// not pushed as a whole region ships only the columns that FLWOR reads,
// plus every NOT NULL column. Every result is held byte for byte against
// a platform that evaluates the simplest way (no pushdown, one row per
// batch, serial); every whole-row use must keep all columns.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "examples/example_env.h"
#include "server/explain.h"
#include "sql/dialect.h"
#include "sql/pushdown.h"
#include "tests/e2e_fixture.h"
#include "xquery/parser.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::JoinMethod;

const security::Principal kAnalyst{"amy", {"analyst", "admin"}};
const security::Principal kSupport{"sam", {"support"}};
constexpr int kCustomers = 24;

// The dashboard panels of the end-to-end benchmark.
constexpr const char* kJoinPanel =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
constexpr const char* kSmithPanel =
    "for $c in ns3:CUSTOMER() where $c/LAST_NAME eq \"Smith\" "
    "return <S>{fn:data($c/CID)}{fn:count(ns3:getORDER($c))}</S>";

// A cross-source join whose key, NOTE.CID, is nullable: notes with a NULL
// CID match nothing, and the key must ship although it may be NULL.
constexpr const char* kNoteJoin =
    "for $c in ns3:CUSTOMER(), $n in ns6:NOTE() where $c/CID eq $n/CID "
    "return <N>{fn:data($c/CID)}{fn:data($n/NID)}</N>";
constexpr const char* kNoteOuterJoin =
    "for $n in ns6:NOTE(), $c in ns3:CUSTOMER() where $n/CID eq $c/CID "
    "return <N>{fn:data($n/NID)}{fn:data($c/LAST_NAME)}</N>";

// A navigation call whose argument child, NOTE.CODE, is nullable and
// read by nothing else.
constexpr const char* kNoteTagJoin =
    "for $c in ns3:CUSTOMER(), $n in ns6:NOTE() where $c/CID eq $n/CID "
    "return <N>{fn:data($n/NID)}{fn:count(ns6:getTAG($n))}</N>";

std::shared_ptr<relational::Database> MakeNoteDb() {
  using relational::Cell;
  using relational::ColumnType;
  auto db = std::make_shared<relational::Database>("notes_db");
  relational::TableDef note;
  note.name = "NOTE";
  note.columns = {{"NID", ColumnType::kInteger, false},
                  {"CID", ColumnType::kVarchar, true},
                  {"CODE", ColumnType::kVarchar, true},
                  {"BODY", ColumnType::kVarchar, true}};
  note.primary_key = {"NID"};
  EXPECT_TRUE(db->CreateTable(note).ok());
  // TAG.CODE references the nullable NOTE.CODE, so ns6:getTAG($n) reads
  // a column that only the navigation call keeps.
  relational::TableDef tag;
  tag.name = "TAG";
  tag.columns = {{"TID", ColumnType::kInteger, false},
                 {"CODE", ColumnType::kVarchar, false}};
  tag.primary_key = {"TID"};
  tag.foreign_keys = {{{"CODE"}, "NOTE", {"CODE"}}};
  EXPECT_TRUE(db->CreateTable(tag).ok());
  for (int i = 1; i <= 12; ++i) {
    char cid[16];
    std::snprintf(cid, sizeof(cid), "CUST%03d", 2 * i);
    const std::string code = "K" + std::to_string(i % 4);
    EXPECT_TRUE(db->InsertRow("NOTE", {Cell::Int(i),
                                       i % 3 == 0 ? Cell::Null()
                                                  : Cell::Str(cid),
                                       i % 5 == 0 ? Cell::Null()
                                                  : Cell::Str(code),
                                       Cell::Str("note " + std::to_string(i))})
                    .ok());
    EXPECT_TRUE(
        db->InsertRow("TAG",
                      {Cell::Int(i), Cell::Str("K" + std::to_string(i % 3))})
            .ok());
  }
  return db;
}

std::unique_ptr<DataServicePlatform> MakePlatform(ServerOptions options) {
  auto platform = std::make_unique<DataServicePlatform>(options);
  examples::WireRunningExample(*platform, kCustomers);
  EXPECT_TRUE(
      platform->RegisterRelationalSource("ns6", MakeNoteDb(), "db2").ok());
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

std::string Serialized(DataServicePlatform& platform, const std::string& q,
                       const security::Principal& who = kAnalyst) {
  return testing::Executed(platform, q, &who);
}

// What a plan ships from one table: the SQL of its scans and the PP-k
// fetch templates over it, rendered in the source's dialect.
struct Shipped {
  std::vector<std::string> scans;
  std::vector<std::string> fetches;
  std::vector<std::vector<std::string>> fetch_columns;
};

// `slots`: the literal values a rebound plan carries (null for a plan
// compiled in full).
void Collect(const ExprPtr& e, const std::string& table,
             sql::SqlDialect dialect, Shipped* out,
             const xquery::SlotValues* slots = nullptr) {
  if (e->kind == ExprKind::kSqlQuery && e->sql && e->sql->select &&
      e->sql->select->from.table_name == table) {
    auto text = sql::RenderSql(*e->sql->select, dialect, slots);
    out->scans.push_back(text.ok() ? *text : text.status().ToString());
  }
  for (const auto& cl : e->clauses) {
    if (cl.ppk_fetch == nullptr ||
        cl.ppk_fetch->select_template->from.table_name != table) {
      continue;
    }
    auto text =
        sql::RenderSql(*cl.ppk_fetch->select_template, dialect, slots);
    out->fetches.push_back(text.ok() ? *text : text.status().ToString());
    std::vector<std::string> names;
    for (const auto& col : cl.ppk_fetch->columns) names.push_back(col.name);
    out->fetch_columns.push_back(std::move(names));
  }
  xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
    if (c) Collect(c, table, dialect, out, slots);
  });
}

class ColumnPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = MakePlatform({});
    reference_ = MakePlatform(testing::ReferenceOptions());
  }

  std::shared_ptr<const CompiledPlan> Plan(const std::string& q) {
    auto plan = platform_->Prepare(q);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << q;
    return plan.ok() ? *plan : nullptr;
  }

  Shipped Ship(const std::string& q, const std::string& table,
               sql::SqlDialect dialect = sql::SqlDialect::kOracle) {
    Shipped out;
    if (auto plan = Plan(q)) {
      Collect(plan->plan, table, dialect, &out, plan->literals.get());
    }
    return out;
  }

  void ExpectSameAsReference(const std::string& q,
                             const security::Principal& who = kAnalyst) {
    EXPECT_EQ(Serialized(*platform_, q, who), Serialized(*reference_, q, who))
        << q;
  }

  std::unique_ptr<DataServicePlatform> platform_;
  std::unique_ptr<DataServicePlatform> reference_;
};

// ----- The SQL each clause ships -------------------------------------------

TEST_F(ColumnPruningTest, JoinPanelScansOnlyTheCustomerKey) {
  Shipped customer = Ship(kJoinPanel, "CUSTOMER");
  ASSERT_EQ(customer.scans.size(), 1u);
  EXPECT_EQ(customer.scans[0], "SELECT t1.\"CID\" AS CID FROM \"CUSTOMER\" t1");
  EXPECT_TRUE(customer.fetches.empty());

  // CREDIT_CARD's PP-k fetch: CCN and CID are NOT NULL, LIMIT_AMT is read.
  Shipped cards = Ship(kJoinPanel, "CREDIT_CARD", sql::SqlDialect::kDb2);
  ASSERT_EQ(cards.fetch_columns.size(), 1u);
  EXPECT_EQ(cards.fetch_columns[0],
            (std::vector<std::string>{"CCN", "CID", "LIMIT_AMT"}));
  for (const char* col : {"t1.\"CCN\"", "t1.\"CID\"", "t1.\"LIMIT_AMT\""}) {
    EXPECT_NE(cards.fetches[0].find(col), std::string::npos)
        << cards.fetches[0];
  }

  auto plan = Plan(kJoinPanel);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->pushdown.columns_pruned, 4);
  EXPECT_NE(RenderPlanSnapshotText(*plan).find("4 column(s) pruned"),
            std::string::npos);
  auto json = platform_->ExplainJson(kJoinPanel);
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"columns_pruned\":4"), std::string::npos) << *json;
  auto text = platform_->Explain(kJoinPanel);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("4 column(s) pruned"), std::string::npos) << *text;
  ExpectSameAsReference(kJoinPanel);
}

TEST_F(ColumnPruningTest, SmithPanelDropsTheColumnFoldedIntoItsWhere) {
  Shipped customer = Ship(kSmithPanel, "CUSTOMER");
  ASSERT_EQ(customer.scans.size(), 1u);
  EXPECT_EQ(customer.scans[0],
            "SELECT t1.\"CID\" AS CID FROM \"CUSTOMER\" t1 "
            "WHERE (t1.\"LAST_NAME\" = 'Smith')");
  ExpectSameAsReference(kSmithPanel);
}

TEST_F(ColumnPruningTest, NullableJoinKeyShips) {
  // NID is NOT NULL, CID is the key; BODY is never read.
  for (const char* q : {kNoteJoin, kNoteOuterJoin}) {
    Shipped notes = Ship(q, "NOTE", sql::SqlDialect::kDb2);
    ASSERT_FALSE(notes.scans.empty()) << q;
    for (const std::string& s : notes.scans) {
      EXPECT_EQ(s.find("t1.\"BODY\""), std::string::npos) << s;
      EXPECT_NE(s.find("t1.\"CID\" AS CID"), std::string::npos) << s;
      EXPECT_NE(s.find("t1.\"NID\" AS NID"), std::string::npos) << s;
    }
    for (const auto& cols : notes.fetch_columns) {
      EXPECT_EQ(cols, (std::vector<std::string>{"NID", "CID"})) << q;
    }
    ExpectSameAsReference(q);
  }
  EXPECT_FALSE(Ship(kNoteJoin, "NOTE", sql::SqlDialect::kDb2)
                   .fetch_columns.empty());
}

TEST_F(ColumnPruningTest, NavigationCallKeepsItsArgumentChild) {
  const std::string q = kNoteTagJoin;
  Shipped notes = Ship(q, "NOTE", sql::SqlDialect::kDb2);
  ASSERT_FALSE(notes.fetch_columns.empty());
  for (const auto& cols : notes.fetch_columns) {
    EXPECT_EQ(cols, (std::vector<std::string>{"NID", "CID", "CODE"}));
  }
  for (const std::string& s : notes.scans) {
    EXPECT_NE(s.find("t1.\"CODE\" AS CODE"), std::string::npos) << s;
    EXPECT_EQ(s.find("t1.\"BODY\""), std::string::npos) << s;
  }
  ExpectSameAsReference(q);
}

TEST_F(ColumnPruningTest, WholeRowUsesKeepEveryColumn) {
  const std::string join =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID ";
  const std::vector<std::string> queries = {
      // returned, and used as content
      join + "return $c",
      join + "return <R>{$c}{fn:data($cc/CCN)}</R>",
      // passed to another function
      join + "return <R>{fn:string($c)}</R>",
      // a filter on the row
      join + "return <R>{fn:data($c[LAST_NAME eq \"Smith\"]/CID)}</R>",
      // regrouped: group_vars name the row by its variable
      join + "group $c as $g by $cc/CID as $k "
             "return <G>{fn:data($k)}{fn:string($g)}</G>",
  };
  for (const std::string& q : queries) {
    Shipped customer = Ship(q, "CUSTOMER");
    ASSERT_FALSE(customer.scans.empty()) << q;
    for (const std::string& s : customer.scans) {
      for (const char* col : {"FIRST_NAME", "LAST_NAME", "SSN", "SINCE"}) {
        EXPECT_NE(s.find(std::string("t1.\"") + col + "\""),
                  std::string::npos)
            << q << "\n" << s;
      }
    }
    ExpectSameAsReference(q);
  }
}

TEST(ColumnPruningPassTest, AttributeAndNonColumnStepsKeepEveryColumn) {
  // The dialect has no wildcard, descendant or parent steps, and the
  // analyzer rejects an attribute step on a row, so these reach the pass
  // only in an unanalyzed tree.
  auto platform = MakePlatform({});
  for (const char* step : {"@CID", "*"}) {
    auto parsed = xquery::ParseExpression(
        "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
        "where $c/CID eq $cc/CID return <R>{$c/CID}</R>");
    ASSERT_TRUE(parsed.ok());
    ExprPtr e = *parsed;
    const bool attribute = step[0] == '@';
    e->children[0]->children[0] = xquery::MakePathStep(
        xquery::MakeVarRef("c"), attribute ? step + 1 : step, attribute);
    sql::PushdownStats stats;
    ASSERT_TRUE(sql::PushdownRewrite(e, &platform->functions(), &stats).ok());
    Shipped customer;
    Collect(e, "CUSTOMER", sql::SqlDialect::kOracle, &customer);
    ASSERT_EQ(customer.scans.size(), 1u) << step;
    EXPECT_NE(customer.scans[0].find("t1.\"SSN\""), std::string::npos)
        << step << "\n" << customer.scans[0];
    // Only the card's unread, nullable LIMIT_AMT goes.
    EXPECT_EQ(stats.columns_pruned, 1) << step;
  }
}

TEST(ColumnPruningLetTest, LetBoundRowKeepsEveryColumn) {
  // The optimizer substitutes a let of a bare variable, so the let only
  // survives to pushdown with the optimizer off.
  ServerOptions options;
  options.enable_optimizer = false;
  auto platform = MakePlatform(options);
  auto reference = MakePlatform(testing::ReferenceOptions());
  const std::string q =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID let $r := $c "
      "return <R>{fn:data($r/LAST_NAME)}</R>";
  auto plan = platform->Prepare(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Shipped customer;
  Collect((*plan)->plan, "CUSTOMER", sql::SqlDialect::kOracle, &customer);
  ASSERT_FALSE(customer.scans.empty());
  for (const std::string& s : customer.scans) {
    EXPECT_NE(s.find("t1.\"SSN\""), std::string::npos) << s;
  }
  // Only the card's unread, nullable LIMIT_AMT goes.
  EXPECT_EQ((*plan)->pushdown.columns_pruned, 1);
  EXPECT_EQ(Serialized(*platform, q), Serialized(*reference, q));
}

TEST_F(ColumnPruningTest, ProfileByIdStillFiltersOnCidInSql) {
  for (int i : {1, 4, 7, 12, 999}) {
    char cid[16];
    std::snprintf(cid, sizeof(cid), "CUST%03d", i);
    const std::string q = "tns:getProfileByID(\"" + std::string(cid) + "\")";
    Shipped customer = Ship(q, "CUSTOMER");
    ASSERT_FALSE(customer.scans.empty()) << q;
    const std::string key_filter =
        "FROM \"CUSTOMER\" t1 WHERE (t1.\"CID\" = '" + std::string(cid) + "')";
    EXPECT_NE(customer.scans[0].find(key_filter), std::string::npos)
        << customer.scans[0];
    ExpectSameAsReference(q, kAnalyst);
    ExpectSameAsReference(q, kSupport);
  }
}

// ----- Results across the knob space ---------------------------------------

class ColumnPruningKnobTest
    : public ::testing::TestWithParam<testing::ServerKnobs> {};

TEST_P(ColumnPruningKnobTest, ByteIdenticalToReference) {
  static const std::unique_ptr<DataServicePlatform> reference =
      MakePlatform(testing::ReferenceOptions());
  auto platform = testing::KnobPlatform(MakePlatform, GetParam());
  for (const char* q :
       {kJoinPanel, kSmithPanel, kNoteJoin, kNoteOuterJoin, kNoteTagJoin,
        "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
        "where $c/CID eq $cc/CID order by $c/SINCE descending "
        "return <R>{fn:data($c/FIRST_NAME)}{fn:data($cc/CCN)}</R>"}) {
    auto plan = platform->Prepare(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << q;
    EXPECT_GT((*plan)->pushdown.columns_pruned, 0) << q;
    testing::ExpectMatchesReference(*platform, *reference, q, &kAnalyst,
                                    GetParam().Name());
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ColumnPruningKnobTest,
                         ::testing::ValuesIn(testing::ServerKnobMatrix()),
                         testing::KnobName);

// ----- Plan templates ------------------------------------------------------

TEST(ColumnPruningRebindTest, ReboundPrunedStatementMatchesFullCompile) {
  auto text = [](const char* last_name, int limit) {
    return std::string(
               "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
               "where $c/CID eq $cc/CID and $c/LAST_NAME eq \"") +
           last_name + "\" and $cc/LIMIT_AMT gt " + std::to_string(limit) +
           " return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
  };
  auto platform = MakePlatform({});
  std::vector<std::string> texts = {text("Smith", 500), text("Lee", 2500),
                                    text("Jones", 7000)};
  std::shared_ptr<const CompiledPlan> last;
  for (const std::string& t : texts) {
    auto plan = platform->Prepare(t);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << t;
    last = *plan;
  }
  EXPECT_TRUE(last->rebound);
  EXPECT_GT(last->pushdown.columns_pruned, 0);

  auto fresh_platform = MakePlatform({});
  auto fresh = fresh_platform->Prepare(texts[2]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE((*fresh)->rebound);
  EXPECT_EQ(RenderPlanSnapshotText(*last), RenderPlanSnapshotText(**fresh));
  const std::string rebound_result = Serialized(*platform, texts[2]);
  EXPECT_EQ(rebound_result, Serialized(*fresh_platform, texts[2]));
  auto reference = MakePlatform(testing::ReferenceOptions());
  EXPECT_EQ(rebound_result, Serialized(*reference, texts[2]));
  EXPECT_NE(rebound_result, "");
}

}  // namespace
}  // namespace aldsp::server
