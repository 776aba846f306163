#include <gtest/gtest.h>
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/server.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db =
        std::shared_ptr<relational::Database>(MakeCustomerDb(6, 3).release());
    customer_db_ = db.get();
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", db, "oracle").ok());
  }
  DataServicePlatform platform_;
  relational::Database* customer_db_ = nullptr;
};

TEST_F(ServerTest, ExecuteSimpleQuery) {
  auto r = platform_.Execute(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST002\" "
      "return fn:data($c/LAST_NAME)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(xml::SerializeSequence(*r), "Lee");
}

TEST_F(ServerTest, PlanCacheAvoidsRecompilation) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 1);
  EXPECT_EQ(platform_.plan_cache_hits(), 2);
  // A different query misses.
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:ORDER())").ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 2);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedText) {
  ServerOptions options;
  options.plan_cache_size = 2;
  DataServicePlatform platform(options);
  auto db =
      std::shared_ptr<relational::Database>(MakeCustomerDb(6, 3).release());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db, "oracle").ok());
  // Literal-free texts, so no plan template shares the two slots.
  const char* a = "fn:count(ns3:CUSTOMER())";
  const char* b = "fn:count(ns3:ORDER())";
  const char* c = "for $c in ns3:CUSTOMER() return $c/CID";
  auto prepare = [&](const char* q) {
    bool hit = false;
    EXPECT_TRUE(platform.Prepare(q, &hit).ok());
    return hit;
  };
  EXPECT_FALSE(prepare(a));
  EXPECT_FALSE(prepare(b));
  EXPECT_TRUE(prepare(a));   // a is now the most recently used
  EXPECT_FALSE(prepare(c));  // evicts b, the least recently used
  EXPECT_TRUE(prepare(a));
  EXPECT_TRUE(prepare(c));
  EXPECT_FALSE(prepare(b));  // evicts a
  EXPECT_TRUE(prepare(c));
  EXPECT_FALSE(prepare(a));
  EXPECT_EQ(platform.plan_cache_hits(), 4);
  EXPECT_EQ(platform.plan_cache_misses(), 5);
  EXPECT_EQ(platform.MetricsSnapshot().counters.at("plan_cache.entries"), 2);
}

TEST_F(ServerTest, LoadingServicesInvalidatesPlanCache) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:n() as xs:integer "
                      "{ fn:count(ns3:CUSTOMER()) };")
                  .ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  EXPECT_EQ(platform_.plan_cache_misses(), 2);  // recompiled after load
}

TEST_F(ServerTest, CompilationPhaseTimingsRecorded) {
  auto plan = platform_.Prepare(
      "for $c in ns3:CUSTOMER() return <P>{fn:data($c/CID)}</P>");
  ASSERT_TRUE(plan.ok());
  EXPECT_GE((*plan)->parse_micros, 0);
  EXPECT_GE((*plan)->analyze_micros, 0);
  EXPECT_GE((*plan)->optimize_micros, 0);
  EXPECT_GE((*plan)->pushdown_micros, 0);
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 1);
}

TEST_F(ServerTest, CalledFunctionsRecordedBeforeUnfolding) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:v() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  auto plan = platform_.Prepare("fn:count(tns:v())");
  ASSERT_TRUE(plan.ok());
  bool found = false;
  for (const auto& f : (*plan)->called_functions) {
    if (f == "tns:v") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerTest, ExecuteStreamDeliversItemsIncrementally) {
  int count = 0;
  Status st = platform_.ExecuteStream(
      "for $c in ns3:CUSTOMER() return <P>{fn:data($c/CID)}</P>",
      [&](const xml::Item& item) -> Status {
        ++count;
        if (!item.is_node()) return Status::Internal("expected node");
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(count, 6);
  // A sink error propagates.
  Status failed = platform_.ExecuteStream(
      "ns3:CUSTOMER()",
      [&](const xml::Item&) { return Status::Internal("stop"); });
  EXPECT_FALSE(failed.ok());
}

TEST_F(ServerTest, RecoveryLoadKeepsValidFunctions) {
  DiagnosticBag bag;
  Status st = platform_.LoadDataServiceWithRecovery(R"(
declare function tns:bad() as xs:integer { 1 + };
declare function tns:good() as xs:integer { 41 + 1 };
)",
                                                    &bag);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(bag.error_count(), 0u);
  auto r = platform_.Execute("tns:good()");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->front().atomic().AsInteger(), 42);
  // The broken function exists but is not executable.
  EXPECT_FALSE(platform_.Execute("tns:bad()").ok());
}

TEST_F(ServerTest, CompileErrorsSurfaceCleanly) {
  EXPECT_EQ(platform_.Execute("for $x in").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(platform_.Execute("$undefined").status().code(),
            StatusCode::kAnalysisError);
  EXPECT_EQ(
      platform_.Execute("for $c in ns3:CUSTOMER() return $c/NO_SUCH_COL")
          .status()
          .code(),
      StatusCode::kTypeError);
}

TEST_F(ServerTest, DisablingPushdownStillAnswersQueries) {
  platform_.options().enable_pushdown = false;
  const char* q =
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST003\" "
      "return fn:data($c/FIRST_NAME)";
  auto r = platform_.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(xml::SerializeSequence(*r), "Dan");
  auto plan = platform_.Prepare(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.regions_pushed, 0);
}

TEST_F(ServerTest, MediatorMethodCallWithCriteria) {
  // Paper §2.2: mediator clients attach result filtering and sorting
  // criteria to method calls; the criteria compose into the query and
  // benefit from pushdown like any hand-written predicate.
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
(::pragma function kind="read" ::)
declare function tns:byName($n as xs:string) as element(P)* {
  for $c in ns3:CUSTOMER() where $c/FIRST_NAME eq $n
  return <P><CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></P>
};)")
                  .ok());
  // Plain method call.
  auto plain = platform_.CallMethod("tns:byName", {"\"Ann\""});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->size(), 1u);  // customer 5 (i%5==0 -> "Ann")
  // With filter + sort criteria.
  DataServicePlatform::MethodCriteria criteria;
  criteria.filter_child = "CID";
  criteria.filter_op = "ne";
  criteria.filter_value = "CUST001";
  criteria.sort_child = "LAST_NAME";
  criteria.sort_descending = true;
  auto all = platform_.CallMethod("ns3:CUSTOMER", {}, criteria);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 5u);  // 6 customers minus the filtered one
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_GE((*all)[i - 1].node()->FirstChildNamed("LAST_NAME")->StringValue(),
              (*all)[i].node()->FirstChildNamed("LAST_NAME")->StringValue());
  }
  // Criteria queries hit the plan cache on repetition.
  auto again = platform_.CallMethod("ns3:CUSTOMER", {}, criteria);
  ASSERT_TRUE(again.ok());
  EXPECT_GE(platform_.plan_cache_hits(), 1);
}

TEST_F(ServerTest, FileSourcesIntegrateWithQueries) {
  // Non-queryable sources (paper §2.2): XML and CSV files join against
  // relational data in the same query.
  xsd::TypePtr region = xsd::XType::ComplexElement(
      "REGION",
      {{"NAME", xsd::One(xsd::XType::SimpleElement(
                    "NAME", xml::AtomicType::kString))},
       {"CODE", xsd::One(xsd::XType::SimpleElement(
                    "CODE", xml::AtomicType::kInteger))}});
  ASSERT_TRUE(platform_
                  .RegisterXmlSource("f:regions",
                                     "<REGIONS>"
                                     "<REGION><NAME>west</NAME><CODE>1</CODE>"
                                     "</REGION>"
                                     "<REGION><NAME>east</NAME><CODE>2</CODE>"
                                     "</REGION></REGIONS>",
                                     region)
                  .ok());
  ASSERT_TRUE(platform_
                  .RegisterCsvSource("f:rates",
                                     "CODE,RATE\n1,0.07\n2,0.05\n",
                                     "RATE_ROW", {"CODE", "RATE"},
                                     {xml::AtomicType::kInteger,
                                      xml::AtomicType::kDouble})
                  .ok());
  auto r = platform_.Execute(
      "for $g in f:regions(), $t in f:rates() "
      "where $g/CODE eq $t/CODE "
      "return <R><N>{fn:data($g/NAME)}</N><RATE>{fn:data($t/RATE)}</RATE>"
      "</R>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].node()->FirstChildNamed("RATE")->TypedValue().AsDouble(),
            0.07);
  // Static typing applies to file shapes too.
  EXPECT_EQ(platform_.Execute("f:regions()/TYPO").status().code(),
            StatusCode::kTypeError);
}

TEST_F(ServerTest, DescribeReportsPlatformState) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "(::pragma function kind=\"read\" ::)\n"
                      "declare function tns:all() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  ASSERT_TRUE(platform_.Execute("fn:count(tns:all())").ok());
  std::string report = platform_.Describe();
  EXPECT_NE(report.find("ns3:CUSTOMER"), std::string::npos) << report;
  EXPECT_NE(report.find("tns:all"), std::string::npos);
  EXPECT_NE(report.find("lineage provider tns:all"), std::string::npos);
  EXPECT_NE(report.find("pushed SQL executions"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentQueriesOnSharedPlans) {
  // The paper's server is multi-client; plans and caches must be safe to
  // share across threads.
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:all() as element(P)* { "
                      "for $c in ns3:CUSTOMER() "
                      "return <P>{fn:data($c/CID)}</P> };")
                  .ok());
  const char* queries[] = {
      "tns:all()",
      "fn:count(ns3:CUSTOMER())",
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID return fn:data($o/OID)",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        auto r = platform_.Execute(queries[(t + i) % 3]);
        if (!r.ok() || r->empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, ViewPlanCachePopulatedByPrepares) {
  ASSERT_TRUE(platform_
                  .LoadDataService(
                      "declare function tns:v() as element(CUSTOMER)* "
                      "{ ns3:CUSTOMER() };")
                  .ok());
  ASSERT_TRUE(platform_.Execute("fn:count(tns:v())").ok());
  EXPECT_EQ(platform_.view_plan_cache().size(), 1u);
  ASSERT_TRUE(platform_.Execute("fn:count(tns:v()) + 1").ok());
  EXPECT_GT(platform_.view_plan_cache().hits(), 0);
}

// Concurrent plan-cache misses on view queries all compile through the one
// shared view plan cache (run under TSan via scripts/check.sh).
TEST_F(ServerTest, ConcurrentColdViewCompilesShareViewPlanCache) {
  ASSERT_TRUE(platform_
                  .LoadDataService(R"(
declare function tns:getProfile() as element(PROFILE)* {
  for $c in ns3:CUSTOMER()
  return <PROFILE><CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME></PROFILE>
};
declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};)")
                  .ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 6;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    // Every text misses the plan cache each round; every other round the
    // view plans start cold too, so concurrent Puts race as well as Gets.
    platform_.ClearPlanCache();
    if (round % 2 == 0) platform_.view_plan_cache().Clear();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          char q[64];
          std::snprintf(q, sizeof(q), "tns:getProfileByID(\"CUST%03d\")",
                        t * kPerThread + i + 1);
          if (!platform_.Prepare(q).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(platform_.plan_cache_misses(), kRounds * kThreads * kPerThread);
  EXPECT_GT(platform_.view_plan_cache().hits(), 0);
  auto r = platform_.Execute("tns:getProfileByID(\"CUST002\")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].node()->FirstChildNamed("LAST_NAME")->StringValue(), "Lee");
}

// ----- One execution path behind every entry point -----------------------

constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <R><C>{fn:data($c/CID)}</C><L>{fn:data($cc/LIMIT_AMT)}</L></R>";

// Each public execution surface, reduced to "run the query, count rows".
using EntryPoint =
    std::function<Result<int64_t>(DataServicePlatform&, const std::string&)>;

std::vector<std::pair<std::string, EntryPoint>> EntryPoints() {
  auto size = [](const xml::Sequence& s) { return static_cast<int64_t>(s.size()); };
  return {
      {"Execute",
       [=](DataServicePlatform& p, const std::string& q) -> Result<int64_t> {
         ALDSP_ASSIGN_OR_RETURN(xml::Sequence r, p.Execute(q));
         return size(r);
       }},
      {"ExecutePlan",
       [=](DataServicePlatform& p, const std::string& q) -> Result<int64_t> {
         ALDSP_ASSIGN_OR_RETURN(auto plan, p.Prepare(q));
         ALDSP_ASSIGN_OR_RETURN(xml::Sequence r, p.ExecutePlan(*plan));
         return size(r);
       }},
      {"ExecuteAs",
       [=](DataServicePlatform& p, const std::string& q) -> Result<int64_t> {
         security::Principal analyst{"analyst", {"support"}};
         ALDSP_ASSIGN_OR_RETURN(xml::Sequence r, p.ExecuteAs(q, analyst));
         return size(r);
       }},
      {"ExecuteStream",
       [](DataServicePlatform& p, const std::string& q) -> Result<int64_t> {
         int64_t n = 0;
         ALDSP_RETURN_NOT_OK(p.ExecuteStream(q, [&](const xml::Item&) {
           ++n;
           return Status::OK();
         }));
         return n;
       }},
      {"ExecuteProfiled",
       [=](DataServicePlatform& p, const std::string& q) -> Result<int64_t> {
         ALDSP_ASSIGN_OR_RETURN(ProfiledExecution run, p.ExecuteProfiled(q));
         return size(run.result);
       }},
  };
}

class EntryPointParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cdb =
        std::shared_ptr<relational::Database>(MakeCustomerDb(12, 3).release());
    auto bdb =
        std::shared_ptr<relational::Database>(MakeCreditCardDb(12).release());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", cdb, "oracle").ok());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns2", bdb, "db2").ok());
  }

  int64_t WaitWindowCount() {
    auto snapshot = platform_.MetricsSnapshot();
    auto it = snapshot.windows.find("admission.wait_micros");
    return it == snapshot.windows.end() ? 0 : it->second.total.count;
  }

  observability::StatementStats Stats(uint64_t statement_fp) {
    for (const auto& s : platform_.stat_statements().TopK(0)) {
      if (s.statement_fingerprint == statement_fp) return s;
    }
    return {};
  }

  DataServicePlatform platform_;
};

TEST_F(EntryPointParityTest, EveryEntryPointRecordsOneCompletion) {
  auto plan = platform_.Prepare(kCrossJoin);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const uint64_t stmt_fp = (*plan)->statement_fingerprint;
  auto reference = platform_.Execute(kCrossJoin);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const int64_t expected_rows = static_cast<int64_t>(reference->size());
  ASSERT_GT(expected_rows, 0);

  for (const auto& [name, run] : EntryPoints()) {
    SCOPED_TRACE(name);
    const int64_t audits = platform_.execution_audit().total_appended();
    const int64_t journal = platform_.workload_journal().total_appended();
    const int64_t calls = Stats(stmt_fp).calls;
    const int64_t waits = WaitWindowCount();

    Result<int64_t> rows = run(platform_, kCrossJoin);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(*rows, expected_rows);

    ASSERT_EQ(platform_.execution_audit().total_appended(), audits + 1);
    const auto record = platform_.execution_audit().Records().back();
    EXPECT_EQ(record.statement_fingerprint, stmt_fp);
    EXPECT_EQ(record.outcome, StatusCode::kOk);
    EXPECT_EQ(record.rows_returned, expected_rows);

    const auto stats = Stats(stmt_fp);
    EXPECT_EQ(stats.calls, calls + 1);
    EXPECT_EQ(stats.rows_returned, (calls + 1) * expected_rows);

    ASSERT_EQ(platform_.workload_journal().total_appended(), journal + 1);
    const auto entry = platform_.workload_journal().Records().back();
    EXPECT_EQ(entry.statement_fingerprint, stmt_fp);
    EXPECT_EQ(entry.outcome, "ok");
    EXPECT_EQ(entry.rows, expected_rows);

    EXPECT_EQ(WaitWindowCount(), waits + 1);
    EXPECT_EQ(platform_.query_registry().live_count(), 0);
    EXPECT_EQ(platform_.admission().Snapshot().running, 0);
  }
}

TEST_F(EntryPointParityTest, MemoryBudgetHoldsOnEveryEntryPoint) {
  auto plan = platform_.Prepare(kCrossJoin);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const uint64_t stmt_fp = (*plan)->statement_fingerprint;
  // Any join build side or PP-k block exceeds this.
  platform_.options().query_memory_budget_bytes = 64;

  int64_t entry_points = 0;
  for (const auto& [name, run] : EntryPoints()) {
    SCOPED_TRACE(name);
    Result<int64_t> rows = run(platform_, kCrossJoin);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kResourceExhausted)
        << rows.status().ToString();
    ++entry_points;
    EXPECT_EQ(Stats(stmt_fp).sheds, entry_points);
    EXPECT_EQ(Stats(stmt_fp).errors, 0);
    EXPECT_EQ(platform_.query_registry().live_count(), 0);
  }
}

}  // namespace
}  // namespace aldsp::server
