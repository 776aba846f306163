// The plan cache's template tier: a text miss whose statement shape has a
// verified plan template is rebound (the template cloned, the new text's
// literals patched in) instead of compiled. These tests hold every
// rebound plan to a fresh compile of the same text on a second platform
// set up the same way: byte-identical EXPLAIN snapshot and result.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptors/directory_adaptor.h"
#include "examples/example_env.h"
#include "relational/engine.h"
#include "server/explain.h"
#include "server/server.h"
#include "sql/dialect.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using xml::AtomicValue;

constexpr const char* kProfileModule = R"(
declare function tns:getProfile() as element(PROFILE)* {
  for $c in ns3:CUSTOMER()
  return <PROFILE>
    <CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
    <ORDERS>{ns3:getORDER($c)}</ORDERS>
  </PROFILE>
};
declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";

// The running example plus an LDAP-like custom-queryable directory.
std::unique_ptr<DataServicePlatform> MakePlatform(
    ServerOptions options = {}, relational::LatencyModel latency = {0, 0,
                                                                    false}) {
  auto platform = std::make_unique<DataServicePlatform>(std::move(options));
  auto customers =
      std::shared_ptr<relational::Database>(MakeCustomerDb(12, 3).release());
  auto cards =
      std::shared_ptr<relational::Database>(MakeCreditCardDb(12).release());
  customers->latency_model() = latency;
  cards->latency_model() = latency;
  EXPECT_TRUE(
      platform->RegisterRelationalSource("ns3", customers, "oracle").ok());
  EXPECT_TRUE(platform->RegisterRelationalSource("ns2", cards, "oracle").ok());
  auto directory = std::make_shared<adaptors::DirectoryAdaptor>(
      "corp_ldap", "PERSON", std::set<std::string>{"eq", "le", "ge"});
  static const char* kDepts[] = {"eng", "sales", "hr"};
  for (int i = 1; i <= 30; ++i) {
    directory->AddEntry({{"UID", AtomicValue::String("u" + std::to_string(i))},
                         {"DEPT", AtomicValue::String(kDepts[i % 3])},
                         {"LEVEL", AtomicValue::Integer(i % 10)}});
  }
  EXPECT_TRUE(platform->RegisterAdaptor(directory).ok());
  xsd::TypePtr person = xsd::XType::ComplexElement(
      "PERSON",
      {{"UID", xsd::One(xsd::XType::SimpleElement("UID",
                                                  xml::AtomicType::kString))},
       {"DEPT", xsd::One(xsd::XType::SimpleElement(
                    "DEPT", xml::AtomicType::kString))},
       {"LEVEL", xsd::One(xsd::XType::SimpleElement(
                     "LEVEL", xml::AtomicType::kInteger))}});
  EXPECT_TRUE(platform
                  ->RegisterFunctionalSource(
                      "ldap:PERSON", "corp_ldap", "custom-queryable", {},
                      xsd::Star(person), {{"pushdown_ops", "eq,le,ge"}})
                  .ok());
  EXPECT_TRUE(platform->LoadDataService(kProfileModule).ok());
  return platform;
}

std::string Serialized(DataServicePlatform& platform, const std::string& q) {
  auto r = platform.Execute(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
  return r.ok() ? xml::SerializeSequence(*r) : "<error>";
}

std::shared_ptr<const CompiledPlan> MustPrepare(DataServicePlatform& platform,
                                                const std::string& q) {
  auto plan = platform.Prepare(q);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << q;
  return plan.ok() ? *plan : nullptr;
}

// Prepares three texts of one shape: the first two compile in full (the
// candidate, then its verification), the third must come back rebound
// and match a fresh compile of the same text on a second platform.
void ExpectRebindMatchesFreshCompile(const std::vector<std::string>& texts) {
  ASSERT_EQ(texts.size(), 3u);
  auto platform = MakePlatform();
  auto first = MustPrepare(*platform, texts[0]);
  auto second = MustPrepare(*platform, texts[1]);
  auto third = MustPrepare(*platform, texts[2]);
  ASSERT_TRUE(first != nullptr && second != nullptr && third != nullptr);
  EXPECT_FALSE(first->rebound);
  EXPECT_FALSE(second->rebound);
  EXPECT_TRUE(third->rebound) << texts[2];
  EXPECT_EQ(platform->plan_cache_rebinds(), 1);
  EXPECT_EQ(third->analyze_micros + third->optimize_micros +
                third->pushdown_micros,
            0);

  auto reference = MakePlatform();
  auto fresh = MustPrepare(*reference, texts[2]);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->rebound);
  EXPECT_EQ(RenderPlanSnapshotText(*third), RenderPlanSnapshotText(*fresh));
  EXPECT_EQ(third->fingerprint, fresh->fingerprint);
  EXPECT_EQ(third->statement_fingerprint, fresh->statement_fingerprint);
  EXPECT_EQ(Serialized(*platform, texts[2]), Serialized(*reference, texts[2]));
}

// ----- Differential: rebound plans equal fresh compiles ------------------

TEST(PlanRebindTest, Table1SelectProject) {
  ExpectRebindMatchesFreshCompile(
      {"for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
       "return $c/FIRST_NAME",
       "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST004\" "
       "return $c/FIRST_NAME",
       "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST009\" "
       "return $c/FIRST_NAME"});
}

TEST(PlanRebindTest, Table1CaseExpression) {
  auto text = [](const std::string& cid) {
    return "for $c in ns3:CUSTOMER() return <CUSTOMER>{ if ($c/CID eq \"" +
           cid +
           "\") then fn:data($c/FIRST_NAME) else fn:data($c/LAST_NAME) "
           "}</CUSTOMER>";
  };
  ExpectRebindMatchesFreshCompile(
      {text("CUST001"), text("CUST002"), text("CUST007")});
}

TEST(PlanRebindTest, Table2Arithmetic) {
  auto text = [](int factor, int bound, int add) {
    return "for $o in ns3:ORDER() where $o/AMOUNT * " +
           std::to_string(factor) + " gt " + std::to_string(bound) +
           " return <R>{ fn:data($o/AMOUNT) + " + std::to_string(add) +
           " }</R>";
  };
  ExpectRebindMatchesFreshCompile(
      {text(2, 50, 1), text(3, 20, 7), text(4, 90, 2)});
}

TEST(PlanRebindTest, BareScanFilter) {
  ExpectRebindMatchesFreshCompile(
      {"ns3:CUSTOMER()[CID eq \"CUST005\"]/LAST_NAME",
       "ns3:CUSTOMER()[CID eq \"CUST006\"]/LAST_NAME",
       "ns3:CUSTOMER()[CID eq \"CUST011\"]/LAST_NAME"});
}

TEST(PlanRebindTest, ViewUnfoldingGetProfileByID) {
  ExpectRebindMatchesFreshCompile({"tns:getProfileByID(\"CUST002\")",
                                   "tns:getProfileByID(\"CUST003\")",
                                   "tns:getProfileByID(\"CUST010\")"});
}

TEST(PlanRebindTest, CustomerSummary) {
  auto text = [](const std::string& cid) {
    return "for $c in ns3:CUSTOMER() where $c/CID eq \"" + cid +
           "\" return <C>{fn:data($c/LAST_NAME)}"
           "{fn:count(ns3:getORDER($c))}</C>";
  };
  ExpectRebindMatchesFreshCompile(
      {text("CUST001"), text("CUST006"), text("CUST011")});
}

TEST(PlanRebindTest, PPkJoinWithInnerLiteralFilter) {
  auto text = [](int limit) {
    return "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
           "where $c/CID eq $cc/CID and $cc/LIMIT_AMT gt " +
           std::to_string(limit) +
           " return <CO>{fn:data($c/CID)}{fn:data($cc/CCN)}</CO>";
  };
  ExpectRebindMatchesFreshCompile({text(500), text(2500), text(7000)});
  auto platform = MakePlatform();
  auto plan = MustPrepare(*platform, text(500));
  EXPECT_NE(RenderPlanSnapshotText(*plan).find("ppk-fetch"),
            std::string::npos)
      << RenderPlanSnapshotText(*plan);
}

TEST(PlanRebindTest, GroupByWithLiteralWhere) {
  auto text = [](int amount) {
    return "for $o in ns3:ORDER() where $o/AMOUNT gt " +
           std::to_string(amount) +
           " group $o as $g by $o/CID as $k "
           "return <G>{fn:data($k)}{fn:count($g)}</G>";
  };
  ExpectRebindMatchesFreshCompile({text(5), text(15), text(25)});
}

TEST(PlanRebindTest, CustomPushdownConjunct) {
  auto text = [](const std::string& dept, int level) {
    return "ldap:PERSON()[DEPT eq \"" + dept + "\" and LEVEL ge " +
           std::to_string(level) + "]/UID";
  };
  ExpectRebindMatchesFreshCompile(
      {text("eng", 5), text("sales", 2), text("hr", 8)});
}

TEST(PlanRebindTest, CallMethodWithFilterValue) {
  // The text CallMethod composes for a method call with a filter.
  auto text = [](const std::string& cid, const std::string& last_name) {
    return "for $mc_item in tns:getProfileByID(\"" + cid +
           "\") where $mc_item/LAST_NAME eq \"" + last_name +
           "\" return $mc_item";
  };
  ExpectRebindMatchesFreshCompile({text("CUST001", "Smith"),
                                   text("CUST002", "Lee"),
                                   text("CUST007", "Kim")});
  auto platform = MakePlatform();
  auto reference = MakePlatform();
  MustPrepare(*platform, text("CUST001", "Smith"));
  MustPrepare(*platform, text("CUST002", "Lee"));
  DataServicePlatform::MethodCriteria criteria;
  criteria.filter_child = "LAST_NAME";
  criteria.filter_value = "Kim";
  auto rebound =
      platform->CallMethod("tns:getProfileByID", {"\"CUST007\""}, criteria);
  auto fresh =
      reference->CallMethod("tns:getProfileByID", {"\"CUST007\""}, criteria);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(platform->plan_cache_rebinds(), 1);
  EXPECT_EQ(rebound->size(), 1u);
  EXPECT_EQ(xml::SerializeSequence(*rebound), xml::SerializeSequence(*fresh));
}

// ----- Fallback: shapes whose literals the compiler consumes -------------

// All texts are prepared before any runs: executions feed the cost model
// the rebind guard compares, and a changed snapshot would restart the
// shape instead of testing its fallback. The reference platform drops its
// plan cache before each text, so every reference result comes from a
// full compile. Returns each text's result.
std::vector<std::string> ExpectNeverRebound(
    const std::vector<std::string>& texts, const std::string& module = "") {
  auto platform = MakePlatform();
  auto reference = MakePlatform();
  if (!module.empty()) {
    EXPECT_TRUE(platform->LoadDataService(module).ok());
    EXPECT_TRUE(reference->LoadDataService(module).ok());
  }
  for (const auto& text : texts) {
    auto plan = MustPrepare(*platform, text);
    EXPECT_TRUE(plan != nullptr && !plan->rebound) << text;
  }
  EXPECT_EQ(platform->plan_cache_rebinds(), 0);
  std::vector<std::string> results;
  for (const auto& text : texts) {
    results.push_back(Serialized(*platform, text));
    reference->ClearPlanCache();
    EXPECT_EQ(results.back(), Serialized(*reference, text)) << text;
  }
  return results;
}

TEST(PlanRebindFallbackTest, ContainsBecomesLikePattern) {
  ExpectNeverRebound(
      {"for $c in ns3:CUSTOMER() where fn:contains(fn:string($c/LAST_NAME), "
       "\"mi\") return $c/CID",
       "for $c in ns3:CUSTOMER() where fn:contains(fn:string($c/LAST_NAME), "
       "\"ee\") return $c/CID",
       "for $c in ns3:CUSTOMER() where fn:contains(fn:string($c/LAST_NAME), "
       "\"K\") return $c/CID",
       "for $c in ns3:CUSTOMER() where fn:contains(fn:string($c/LAST_NAME), "
       "\"on\") return $c/CID"});
}

TEST(PlanRebindFallbackTest, StartsWithBecomesLikePattern) {
  ExpectNeverRebound(
      {"for $c in ns3:CUSTOMER() where fn:starts-with(fn:string($c/CID), "
       "\"CUST00\") return $c/CID",
       "for $c in ns3:CUSTOMER() where fn:starts-with(fn:string($c/CID), "
       "\"CUST01\") return $c/CID",
       "for $c in ns3:CUSTOMER() where fn:starts-with(fn:string($c/CID), "
       "\"CUST1\") return $c/CID"});
}

TEST(PlanRebindFallbackTest, SubsequenceBecomesRowRange) {
  auto text = [](int start, int count) {
    return "let $cs := for $c in ns3:CUSTOMER() order by $c/CID descending "
           "return <C>{fn:data($c/CID)}</C> return fn:subsequence($cs, " +
           std::to_string(start) + ", " + std::to_string(count) + ")";
  };
  ExpectNeverRebound({text(1, 5), text(2, 4), text(3, 6), text(4, 2)});
}

TEST(PlanRebindFallbackTest, FoldedConditional) {
  auto text = [](int a, int b) {
    return "for $c in ns3:CUSTOMER() return if (" + std::to_string(a) +
           " eq " + std::to_string(b) +
           ") then fn:data($c/CID) else fn:data($c/LAST_NAME)";
  };
  ExpectNeverRebound({text(1, 1), text(2, 3), text(4, 5), text(6, 6)});
}

// A literal argument is substituted into every use of the parameter, so
// copies of one slot end up both in a pushed predicate and in a condition
// the optimizer folds. 5 and 7 fold the same way, so a check of the plan
// alone would verify the shape and rebind 15 and 25 to the wrong branch.
TEST(PlanRebindFallbackTest, ViewParameterInWhereAndFoldedConditional) {
  const std::string module = R"(
declare function tns:ordersAbove($n as xs:integer) as element(R)* {
  for $o in ns3:ORDER()
  where $o/AMOUNT gt $n
  return <R>{ if ($n gt 12) then fn:data($o/CID) else fn:data($o/OID) }</R>
};
)";
  auto text = [](int n) {
    return "tns:ordersAbove(" + std::to_string(n) + ")";
  };
  auto results = ExpectNeverRebound(
      {text(5), text(7), text(15), text(25), text(9)}, module);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_NE(results[2].find("CUST"), std::string::npos) << results[2];
  EXPECT_EQ(results[1].find("CUST"), std::string::npos) << results[1];
}

// The same with let-bound literals: substituting the trivial lets copies
// each slot into the where clause and into an order-by key that folds
// ($k gt $t consumes one copy of both).
TEST(PlanRebindFallbackTest, LetLiteralInWhereAndFoldedOrderKey) {
  auto text = [](int k, int t) {
    return "let $k := " + std::to_string(k) + ", $t := " + std::to_string(t) +
           " for $o in ns3:ORDER() where $o/AMOUNT gt $k and $o/OID gt $t "
           "order by (if ($k gt $t) then fn:data($o/OID) "
           "else fn:data($o/AMOUNT)) descending, fn:data($o/OID) "
           "return fn:data($o/OID)";
  };
  auto results = ExpectNeverRebound(
      {text(5, 12), text(7, 13), text(15, 11), text(25, 10), text(9, 14)});
  ASSERT_EQ(results.size(), 5u);
  // 15 > 11 orders by OID; 20 and 30 are the amounts above 15.
  EXPECT_EQ(results[2], "18 17 15 12");
}

// ----- Guards, clearing, and the mediator API -----------------------------

TEST(PlanRebindTest, AdviceChangeForcesFullCompile) {
  auto platform = MakePlatform();
  auto by_id = [](int i) {
    return "tns:getProfileByID(\"CUST00" + std::to_string(i) + "\")";
  };
  MustPrepare(*platform, by_id(1));
  MustPrepare(*platform, by_id(2));
  EXPECT_TRUE(MustPrepare(*platform, by_id(3))->rebound);

  const std::string before = platform->observed_cost().AdviceSnapshot();
  platform->observed_cost().RecordTableScan("customer_db", "CUSTOMER", 12,
                                            100);
  ASSERT_NE(platform->observed_cost().AdviceSnapshot(), before);
  // The changed advice restarts the shape: a full compile becomes the new
  // candidate, the next text verifies it, the one after rebinds again.
  EXPECT_FALSE(MustPrepare(*platform, by_id(4))->rebound);
  EXPECT_FALSE(MustPrepare(*platform, by_id(5))->rebound);
  EXPECT_TRUE(MustPrepare(*platform, by_id(6))->rebound);
  EXPECT_EQ(platform->plan_cache_rebinds(), 2);
}

TEST(PlanRebindTest, ClearPlanCacheDropsTemplates) {
  auto platform = MakePlatform();
  MustPrepare(*platform, "tns:getProfileByID(\"CUST001\")");
  MustPrepare(*platform, "tns:getProfileByID(\"CUST002\")");
  platform->ClearPlanCache();
  EXPECT_FALSE(MustPrepare(*platform, "tns:getProfileByID(\"CUST003\")")
                   ->rebound);
  EXPECT_EQ(platform->plan_cache_rebinds(), 0);
}

TEST(PlanRebindTest, LoadDataServiceDropsTemplates) {
  auto platform = MakePlatform();
  MustPrepare(*platform, "tns:getProfileByID(\"CUST001\")");
  MustPrepare(*platform, "tns:getProfileByID(\"CUST002\")");
  // Loading a data service can change what any view unfolds to, so it
  // drops every template along with the cached texts.
  ASSERT_TRUE(platform
                  ->LoadDataService(
                      "declare function tns:customerCount() as xs:integer "
                      "{ fn:count(ns3:CUSTOMER()) };")
                  .ok());
  EXPECT_FALSE(MustPrepare(*platform, "tns:getProfileByID(\"CUST003\")")
                   ->rebound);
  EXPECT_EQ(platform->plan_cache_rebinds(), 0);
}

TEST(PlanRebindTest, CallMethodCompilesTwiceThenRebinds) {
  // Each call executes, and executions feed the cost model the rebind
  // guard compares. A fixed, really slept round trip keeps its latency
  // bucket steady, and one warm-up execution of another statement over
  // the same sources settles the model before the calls start.
  const relational::LatencyModel steady{50, 0, true};
  auto platform = MakePlatform({}, steady);
  auto reference = MakePlatform();
  ASSERT_TRUE(
      platform->Execute("fn:count(tns:getProfileByID(\"CUST001\"))").ok());
  const int64_t misses_before = platform->plan_cache_misses();
  for (int i = 0; i < 50; ++i) {
    char arg[16];
    std::snprintf(arg, sizeof(arg), "\"CUST%03d\"",
                  i % 12 + 1 + (i / 12) * 100);
    auto r = platform->CallMethod("tns:getProfileByID", {arg});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i % 12 == 0 || i == 49) {
      auto expected = reference->CallMethod("tns:getProfileByID", {arg});
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(xml::SerializeSequence(*r), xml::SerializeSequence(*expected));
    }
  }
  EXPECT_EQ(platform->plan_cache_misses() - misses_before, 50);
  EXPECT_EQ(platform->plan_cache_rebinds(), 48);
  auto snapshot = platform->MetricsSnapshot();
  EXPECT_EQ(snapshot.counters.at("plan_cache.rebinds"), 48);
  EXPECT_NE(platform->MetricsPrometheusText().find("plan_cache_rebinds"),
            std::string::npos);
  EXPECT_NE(platform->Describe().find("48 rebinds"), std::string::npos);
}

// The Fig. 3 view also reads billing_db and a web service, so its key
// predicate reaches the CUSTOMER SQL through the prefix fallback rather
// than a whole-region push. Neither that nor the let-constructor
// navigation reads the key's value: one shape still compiles twice and
// rebinds every later text, and a rebound plan's SQL carries its own key.
std::string CustomerSqlOf(const xquery::ExprPtr& e) {
  std::string out;
  if (e->kind == xquery::ExprKind::kSqlQuery && e->sql && e->sql->select &&
      e->sql->select->from.table_name == "CUSTOMER") {
    auto text = sql::RenderSql(*e->sql->select, sql::SqlDialect::kOracle);
    if (text.ok()) out += *text;
  }
  xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
    if (c) out += CustomerSqlOf(c);
  });
  return out;
}

std::unique_ptr<DataServicePlatform> MakeRunningExample(int customers) {
  auto platform = std::make_unique<DataServicePlatform>();
  examples::WireRunningExample(*platform, customers);
  EXPECT_TRUE(platform->LoadDataService(examples::ProfileDataService()).ok());
  return platform;
}

// Prepares `n` texts of one shape with keys CUST001.. and expects 2
// compiles and n - 2 rebinds; the last plan must filter on its own key
// and give the result of a fresh compile.
void ExpectKeyedShapeRebinds(int n, std::string (*text)(const std::string&)) {
  auto platform = MakeRunningExample(100);
  auto reference = MakeRunningExample(100);
  std::shared_ptr<const CompiledPlan> last;
  std::string cid;
  for (int i = 1; i <= n; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "CUST%03d", i);
    cid = buf;
    last = MustPrepare(*platform, text(cid));
    ASSERT_NE(last, nullptr);
  }
  EXPECT_EQ(platform->plan_cache_misses(), n);
  EXPECT_EQ(platform->plan_cache_rebinds(), n - 2);
  EXPECT_TRUE(last->rebound);
  EXPECT_NE(CustomerSqlOf(last->plan).find("WHERE (t1.\"CID\" = '" + cid +
                                           "')"),
            std::string::npos)
      << CustomerSqlOf(last->plan);
  auto rebound = platform->ExecutePlan(*last);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  EXPECT_EQ(xml::SerializeSequence(*rebound),
            Serialized(*reference, text(cid)));
}

TEST(PlanRebindTest, RunningExampleProfileByIdCompilesTwiceThenRebinds) {
  ExpectKeyedShapeRebinds(100, [](const std::string& cid) {
    return "tns:getProfileByID(\"" + cid + "\")";
  });
}

TEST(PlanRebindTest, RunningExampleCustomerSummaryCompilesTwiceThenRebinds) {
  ExpectKeyedShapeRebinds(50, [](const std::string& cid) {
    return "for $c in ns3:CUSTOMER() where $c/CID eq \"" + cid +
           "\" return <C>{fn:data($c/LAST_NAME)}"
           "{fn:count(ns3:getORDER($c))}</C>";
  });
}

TEST(PlanRebindTest, RebindIsVisibleInExplainAndAudit) {
  auto platform = MakePlatform();
  MustPrepare(*platform, "tns:getProfileByID(\"CUST001\")");
  MustPrepare(*platform, "tns:getProfileByID(\"CUST002\")");
  auto text = platform->Explain("tns:getProfileByID(\"CUST003\")");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("us rebound\n"), std::string::npos) << *text;
  auto json = platform->ExplainJson("tns:getProfileByID(\"CUST003\")");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"rebound\":true"), std::string::npos) << *json;
  // Plan history records compiles only: two compiles of one plan.
  auto plan = MustPrepare(*platform, "tns:getProfileByID(\"CUST003\")");
  auto history =
      platform->plan_history().Statement(plan->statement_fingerprint);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->versions.size(), 1u);
  EXPECT_EQ(history->versions[0].compiles, 2);
  // The audit charges a rebound execution parse + bind.
  ASSERT_TRUE(platform->Execute("tns:getProfileByID(\"CUST004\")").ok());
  auto records = platform->execution_audit().Records();
  ASSERT_FALSE(records.empty());
  auto rebound = MustPrepare(*platform, "tns:getProfileByID(\"CUST004\")");
  ASSERT_TRUE(rebound->rebound);
  EXPECT_EQ(records.back().compile_micros,
            rebound->parse_micros + rebound->bind_micros);
}

TEST(PlanRebindTest, TemplatesShareTheTextCacheCapacity) {
  ServerOptions options;
  options.plan_cache_size = 3;
  auto platform = MakePlatform(options);
  MustPrepare(*platform, "tns:getProfileByID(\"CUST001\")");
  MustPrepare(*platform, "tns:getProfileByID(\"CUST002\")");
  // Two texts plus one template fill the cache; the next text evicts the
  // least recently used entry (the first text), not the template, which
  // every miss of its shape touches.
  EXPECT_TRUE(MustPrepare(*platform, "tns:getProfileByID(\"CUST003\")")
                  ->rebound);
  bool hit = true;
  ASSERT_TRUE(platform->Prepare("tns:getProfileByID(\"CUST001\")", &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(platform->plan_cache_rebinds(), 2);
}

// ----- Concurrency ---------------------------------------------------------

TEST(PlanRebindTest, ConcurrentPrepareAndExecuteOfOneShape) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  auto platform = MakePlatform();
  auto reference = MakePlatform();
  auto text = [](int key) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "tns:getProfileByID(\"CUST%03d\")",
                  key % 12 + 1 + (key / 12) * 100);
    return std::string(buf);
  };
  std::vector<std::string> expected(kThreads * kPerThread);
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    expected[k] = Serialized(*reference, text(k));
  }
  std::vector<std::string> got(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int key = t * kPerThread + i;
        auto plan = platform->Prepare(text(key));
        if (!plan.ok()) continue;
        auto r = platform->Execute(text(key));
        got[key] = r.ok() ? xml::SerializeSequence(*r) : "<error>";
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < kThreads * kPerThread; ++k) {
    EXPECT_EQ(got[k], expected[k]) << text(k);
  }
  EXPECT_EQ(platform->plan_cache_misses(), kThreads * kPerThread);
}

}  // namespace
}  // namespace aldsp::server
