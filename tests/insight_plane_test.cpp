#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "observability/query_registry.h"
#include "observability/stat_statements.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "server/fingerprint.h"
#include "server/server.h"
#include "tests/e2e_fixture.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using aldsp::testing::CompileJoin;
using aldsp::testing::MarkLargeClauses;
using aldsp::testing::RunningExample;
using observability::QueryControl;
using observability::QueryPhase;
using observability::QueryRegistry;
using observability::QueryCompletion;
using observability::RenderJson;
using observability::RenderText;
using observability::SnapshotDoc;
using observability::StatStatements;
using server::DataServicePlatform;
using server::ServerOptions;
using xquery::Clause;
using xquery::ExprPtr;
using xquery::JoinMethod;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

SnapshotDoc StatsDoc(const StatStatements& stats) {
  return StatStatements::Doc(stats.TopK(20), stats.entry_count(),
                             stats.evictions());
}

SnapshotDoc LiveDoc(const QueryRegistry& registry) {
  return QueryRegistry::Doc(registry.Snapshot(), registry.total_started(),
                            registry.total_cancel_requests());
}

// ----- StatStatements accumulator ----------------------------------------

QueryCompletion Sample(uint64_t fp, int64_t wall, int64_t rows = 1) {
  QueryCompletion s;
  s.fingerprint = fp;
  s.text = "q" + std::to_string(fp);
  s.wall_micros = wall;
  s.rows_returned = rows;
  return s;
}

TEST(StatStatementsTest, AggregatesAndOrdersByTotalWall) {
  StatStatements stats;
  stats.Record(Sample(1, 100));
  stats.Record(Sample(1, 300));
  QueryCompletion err = Sample(2, 5000, 0);
  err.outcome = StatusCode::kRuntimeError;
  stats.Record(err);
  QueryCompletion can = Sample(2, 1000, 0);
  can.outcome = StatusCode::kCancelled;
  stats.Record(can);

  auto top = stats.TopK(0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].fingerprint, 2u);  // 6000us total dominates 400us
  EXPECT_EQ(top[0].calls, 2);
  EXPECT_EQ(top[0].errors, 1);
  EXPECT_EQ(top[0].cancels, 1);
  EXPECT_EQ(top[1].fingerprint, 1u);
  EXPECT_EQ(top[1].calls, 2);
  EXPECT_EQ(top[1].total_wall_micros, 400);
  EXPECT_DOUBLE_EQ(top[1].MeanWallMicros(), 200.0);
  // Bucket-estimated p95 never undercuts the mean and never exceeds max.
  EXPECT_GE(top[1].P95WallMicrosEstimate(), 200);
  EXPECT_LE(top[1].P95WallMicrosEstimate(), 300);

  EXPECT_EQ(stats.TopK(1).size(), 1u);
  stats.Reset();
  EXPECT_EQ(stats.entry_count(), 0);
}

TEST(StatStatementsTest, BoundedMapEvictsCheapestEntry) {
  StatStatements stats(/*max_entries=*/2);
  stats.Record(Sample(1, 10'000));
  stats.Record(Sample(2, 50));  // the cheapest: first eviction victim
  stats.Record(Sample(3, 2'000));
  EXPECT_EQ(stats.entry_count(), 2);
  EXPECT_EQ(stats.evictions(), 1);
  auto top = stats.TopK(0);
  EXPECT_EQ(top[0].fingerprint, 1u);
  EXPECT_EQ(top[1].fingerprint, 3u);
}

TEST(StatStatementsTest, RenderersIncludeCountsAndEscapes) {
  StatStatements stats;
  QueryCompletion s = Sample(7, 1234);
  s.text = "for $c in \"quoted\"";
  stats.Record(s);
  std::string text = RenderText(StatsDoc(stats));
  EXPECT_TRUE(Contains(text, "fingerprint=\"7\"")) << text;
  EXPECT_TRUE(Contains(text, "calls=1")) << text;
  std::string json = RenderJson(StatsDoc(stats));
  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\\\"quoted\\\"")) << json;
}

// ----- QueryRegistry ------------------------------------------------------

TEST(QueryRegistryTest, RegisterSnapshotCancelUnregister) {
  QueryRegistry reg;
  auto ctl = reg.Register(42, 7042, "alice", "for $c in ...");
  EXPECT_GT(ctl->query_id, 0u);
  ctl->SetPhase(QueryPhase::kExecuting);
  ctl->AddRows(5);
  ctl->NotePeakBytes(1024);
  ctl->NotePeakBytes(512);  // smaller: watermark unchanged

  auto live = reg.Snapshot();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].fingerprint, 42u);
  EXPECT_EQ(live[0].tenant, "alice");
  EXPECT_EQ(live[0].phase, QueryPhase::kExecuting);
  EXPECT_EQ(live[0].rows_produced, 5);
  EXPECT_EQ(live[0].peak_bytes, 1024);
  EXPECT_FALSE(live[0].cancel_requested);

  EXPECT_FALSE(reg.Cancel(ctl->query_id + 99));
  EXPECT_TRUE(reg.Cancel(ctl->query_id));
  EXPECT_TRUE(ctl->IsCancelled());
  EXPECT_EQ(reg.total_cancel_requests(), 1);

  reg.Unregister(ctl->query_id);
  EXPECT_EQ(reg.live_count(), 0);
  EXPECT_FALSE(reg.Cancel(ctl->query_id));  // already gone
  EXPECT_EQ(reg.total_started(), 1);

  std::string json = RenderJson(LiveDoc(reg));
  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\"live_count\":0")) << json;
}

// ----- Fingerprints (server-level) ---------------------------------------

class InsightServer {
 public:
  explicit InsightServer(ServerOptions opts = {}) : platform(std::move(opts)) {
    auto cdb =
        std::shared_ptr<relational::Database>(MakeCustomerDb(30, 3).release());
    customer_db = cdb.get();
    auto bdb =
        std::shared_ptr<relational::Database>(MakeCreditCardDb(30).release());
    billing_db = bdb.get();
    EXPECT_TRUE(platform.RegisterRelationalSource("ns3", cdb, "oracle").ok());
    EXPECT_TRUE(platform.RegisterRelationalSource("ns2", bdb, "db2").ok());
  }

  uint64_t Fingerprint(const std::string& query) {
    auto plan = platform.Prepare(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? (*plan)->fingerprint : 0;
  }

  DataServicePlatform platform;
  relational::Database* customer_db = nullptr;
  relational::Database* billing_db = nullptr;
};

constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <R><C>{fn:data($c/CID)}</C><L>{fn:data($cc/LIMIT_AMT)}</L></R>";

TEST(FingerprintTest, LiteralsAreStripped) {
  InsightServer env;
  uint64_t f1 = env.Fingerprint(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
      "return fn:data($c/LAST_NAME)");
  uint64_t f2 = env.Fingerprint(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST017\" "
      "return fn:data($c/LAST_NAME)");
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, 0u);
  // Numeric literals strip the same way.
  EXPECT_EQ(env.Fingerprint("for $o in ns3:ORDER() where $o/AMOUNT gt 10.0 "
                            "return $o"),
            env.Fingerprint("for $o in ns3:ORDER() where $o/AMOUNT gt 25.0 "
                            "return $o"));
}

TEST(FingerprintTest, SourceAndShapeChangeFingerprint) {
  InsightServer env;
  uint64_t customers = env.Fingerprint("fn:count(ns3:CUSTOMER())");
  uint64_t orders = env.Fingerprint("fn:count(ns3:ORDER())");
  uint64_t cards = env.Fingerprint("fn:count(ns2:CREDIT_CARD())");
  EXPECT_NE(customers, orders);
  EXPECT_NE(customers, cards);
  EXPECT_NE(orders, cards);
  // A different predicate shape (ne vs eq) differs too.
  EXPECT_NE(env.Fingerprint("for $c in ns3:CUSTOMER() where $c/CID eq "
                            "\"CUST001\" return $c"),
            env.Fingerprint("for $c in ns3:CUSTOMER() where $c/CID ne "
                            "\"CUST001\" return $c"));
}

TEST(FingerprintTest, JoinMethodChangesFingerprint) {
  auto fingerprint_with = [](JoinMethod method) {
    ServerOptions opts;
    opts.optimizer.forced_join_method = method;
    InsightServer env(opts);
    return env.Fingerprint(kCrossJoin);
  };
  uint64_t nl = fingerprint_with(JoinMethod::kNestedLoop);
  uint64_t inl = fingerprint_with(JoinMethod::kIndexNestedLoop);
  uint64_t ppk = fingerprint_with(JoinMethod::kPPkIndexNestedLoop);
  EXPECT_NE(nl, inl);
  EXPECT_NE(nl, ppk);
  EXPECT_NE(inl, ppk);
}

TEST(FingerprintTest, SurvivesPlanCacheRoundTrip) {
  InsightServer env;
  bool hit = false;
  auto first = env.platform.Prepare(kCrossJoin, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  uint64_t fp = (*first)->fingerprint;
  auto cached = env.platform.Prepare(kCrossJoin, &hit);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ((*cached)->fingerprint, fp);
  // A fresh compilation of the same text reproduces the hash.
  env.platform.ClearPlanCache();
  auto recompiled = env.platform.Prepare(kCrossJoin, &hit);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ((*recompiled)->fingerprint, fp);
}

// ----- Cumulative statement stats through the server ----------------------

TEST(InsightPlaneTest, StatStatementsAccumulateAcrossLiterals) {
  InsightServer env;
  for (const char* cid : {"CUST001", "CUST002", "CUST003"}) {
    auto r = env.platform.Execute(
        "for $c in ns3:CUSTOMER() where $c/CID eq \"" + std::string(cid) +
        "\" return fn:data($c/LAST_NAME)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Three distinct texts, one plan shape: a single fingerprint with 3
  // calls (each text compiled fresh, so all plan-cache misses).
  auto top = env.platform.stat_statements().TopK(0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].calls, 3);
  EXPECT_EQ(top[0].errors, 0);
  EXPECT_EQ(top[0].rows_returned, 3);
  EXPECT_EQ(top[0].plan_cache_misses, 3);
  EXPECT_GT(top[0].total_wall_micros, 0);

  std::string text = RenderText(StatsDoc(env.platform.stat_statements()));
  EXPECT_TRUE(Contains(text, "calls=3")) << text;
  std::string json = RenderJson(StatsDoc(env.platform.stat_statements()));
  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\"calls\":3")) << json;

  env.platform.ResetStatStatements();
  EXPECT_EQ(env.platform.stat_statements().entry_count(), 0);
}

TEST(InsightPlaneTest, TopKOrdersByTotalWallAndMetricsExportCounts) {
  InsightServer env;
  // The join runs against sleeping sources, the count does not: the join
  // fingerprint must dominate the top-K.
  env.customer_db->latency_model().roundtrip_micros = 2000;
  ASSERT_TRUE(env.platform.Execute(kCrossJoin).ok());
  ASSERT_TRUE(env.platform.Execute("fn:count(ns2:CREDIT_CARD())").ok());
  auto top1 = env.platform.stat_statements().TopK(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_TRUE(Contains(top1[0].query_head, "CREDIT_CARD()")) << "join absent";
  EXPECT_TRUE(Contains(top1[0].query_head, "ns3:CUSTOMER()"));

  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.counters["stat_statements.entries"], 2);
  EXPECT_EQ(snapshot.counters["query_registry.started"], 2);
  EXPECT_EQ(snapshot.counters["query_registry.live"], 0);
}

// ----- Live registry through the server ----------------------------------

TEST(InsightPlaneTest, LiveQueriesVisibleDuringExecution) {
  InsightServer env;
  std::string live_json;
  std::vector<observability::LiveQueryInfo> mid_stream;
  int items = 0;
  Status st = env.platform.ExecuteStream(
      "for $c in ns3:CUSTOMER() return fn:data($c/CID)",
      [&](const xml::Item&) -> Status {
        if (++items == 5) {
          live_json = RenderJson(LiveDoc(env.platform.query_registry()));
          mid_stream = env.platform.query_registry().Snapshot();
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(items, 30);
  ASSERT_EQ(mid_stream.size(), 1u);
  EXPECT_EQ(mid_stream[0].tenant, "(anonymous)");
  EXPECT_EQ(mid_stream[0].phase, QueryPhase::kExecuting);
  EXPECT_GE(mid_stream[0].rows_produced, 4);
  EXPECT_NE(mid_stream[0].fingerprint, 0u);
  EXPECT_TRUE(Contains(live_json, "\"phase\":\"executing\"")) << live_json;
  // Finished executions leave the registry.
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);
  EXPECT_TRUE(Contains(RenderText(LiveDoc(env.platform.query_registry())),
                       "live_count=0"));
}

// Live progress counts the items the caller has received. A nested
// FLWOR's rows are part of one delivered item, not progress of their own.
TEST(InsightPlaneTest, LiveProgressCountsDeliveredItems) {
  ServerOptions opts;
  opts.enable_pushdown = false;
  InsightServer env(opts);
  int items = 0;
  Status st = env.platform.ExecuteStream(
      "for $c in ns3:CUSTOMER() return <C>{"
      "for $o in ns3:ORDER() where $o/CID eq $c/CID "
      "return <O>{fn:data($o/OID)}</O>}</C>",
      [&](const xml::Item&) -> Status {
        ++items;
        std::vector<observability::LiveQueryInfo> live =
            env.platform.query_registry().Snapshot();
        EXPECT_EQ(live.size(), 1u);
        if (!live.empty()) {
          EXPECT_EQ(live[0].rows_produced, items) << "at item " << items;
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(items, 30);
}

TEST(InsightPlaneTest, PerTenantWindowsAttributeResources) {
  InsightServer env;
  security::Principal alice{"alice", {"analyst"}};
  ASSERT_TRUE(
      env.platform.ExecuteAs("fn:count(ns3:CUSTOMER())", alice).ok());
  ASSERT_TRUE(env.platform.Execute("fn:count(ns3:ORDER())").ok());

  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.windowed_counters.at("tenant.alice.queries").total, 1);
  EXPECT_EQ(snapshot.windows.at("tenant.alice.wall_micros").total.count, 1);
  EXPECT_TRUE(snapshot.windows.count("tenant.alice.source_wait_micros"));
  EXPECT_TRUE(snapshot.windows.count("tenant.alice.rows"));
  EXPECT_EQ(
      snapshot.windowed_counters.at("tenant.(anonymous).queries").total, 1);

  // Long tenant keys stay aligned in the text rendering and valid in JSON.
  std::string text = env.platform.MetricsText();
  EXPECT_TRUE(Contains(text, "windowed_counter{tenant.alice.queries}"))
      << text;
  std::string json = env.platform.MetricsJson();
  EXPECT_TRUE(Contains(json, "tenant.alice.wall_micros")) << json;
}

// ----- Cancellation: evaluator level, all join methods and DOPs -----------

struct CancelCase {
  JoinMethod method;
  int dop;
};

class CancelMidStreamTest : public ::testing::TestWithParam<CancelCase> {};

TEST_P(CancelMidStreamTest, CancelStopsTheStreamAndDrainsTasks) {
  const CancelCase& param = GetParam();
  RunningExample env(60, 3);
  ExprPtr plan = CompileJoin(env, param.method, /*k=*/10);
  MarkLargeClauses(*plan);
  env.ctx.max_query_dop = param.dop;

  QueryRegistry registry;
  auto ctl = registry.Register(1, 0, "test", "join");
  env.ctx.exec = ctl.get();
  env.ctx.exec_owner = ctl;

  int delivered = 0;
  int delivered_after_cancel = 0;
  int64_t cancel_at_ms = 0;
  Status st = runtime::EvaluateStream(
      *plan, env.ctx, [&](const xml::Item&) -> Status {
        ++delivered;
        if (ctl->IsCancelled()) ++delivered_after_cancel;
        if (delivered == 3) {
          EXPECT_TRUE(registry.Cancel(ctl->query_id));
          cancel_at_ms = NowMs();
        }
        return Status::OK();
      });
  int64_t returned_ms = NowMs();

  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_GE(delivered, 3);
  // Cooperative latency: the poll at the next tuple boundary stops the
  // stream — nothing is delivered after the flag flips, and the return
  // is prompt even with pool tasks in flight (generous CI/TSan bound).
  EXPECT_EQ(delivered_after_cancel, 0);
  EXPECT_LT(returned_ms - cancel_at_ms, 5000);

  // Prefetch/exchange tasks drained through Close/CancelAndWait: nothing
  // left queued, and a fresh run through the same pool still works.
  EXPECT_EQ(env.pool.queue_depth(), 0);
  env.ctx.exec = nullptr;
  env.ctx.exec_owner.reset();
  auto again = runtime::Evaluate(*plan, env.ctx);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->size(), 0u);

  registry.Unregister(ctl->query_id);
}

std::string CancelCaseName(
    const ::testing::TestParamInfo<CancelCase>& info) {
  std::string name;
  switch (info.param.method) {
    case JoinMethod::kNestedLoop:
      name = "NestedLoop";
      break;
    case JoinMethod::kIndexNestedLoop:
      name = "IndexNestedLoop";
      break;
    case JoinMethod::kPPkNestedLoop:
      name = "PPkNestedLoop";
      break;
    case JoinMethod::kPPkIndexNestedLoop:
      name = "PPkIndexNestedLoop";
      break;
    default:
      name = "Auto";
      break;
  }
  return name + "Dop" + std::to_string(info.param.dop);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndDops, CancelMidStreamTest,
    ::testing::Values(
        CancelCase{JoinMethod::kNestedLoop, 1},
        CancelCase{JoinMethod::kNestedLoop, 2},
        CancelCase{JoinMethod::kNestedLoop, 8},
        CancelCase{JoinMethod::kIndexNestedLoop, 1},
        CancelCase{JoinMethod::kIndexNestedLoop, 2},
        CancelCase{JoinMethod::kIndexNestedLoop, 8},
        CancelCase{JoinMethod::kPPkNestedLoop, 1},
        CancelCase{JoinMethod::kPPkNestedLoop, 2},
        CancelCase{JoinMethod::kPPkNestedLoop, 8},
        CancelCase{JoinMethod::kPPkIndexNestedLoop, 1},
        CancelCase{JoinMethod::kPPkIndexNestedLoop, 2},
        CancelCase{JoinMethod::kPPkIndexNestedLoop, 8}),
    CancelCaseName);

TEST(CancelMidStreamTest, CancelLandsWithinOneBatchAtDop8) {
  // The batch runtime polls the control block once per batch, so a tiny
  // batch size bounds cancel latency at a few rows of work even with
  // eight worker pipelines in flight — and the per-row delivery poll
  // still guarantees nothing reaches the sink after the flag flips.
  RunningExample env(60, 3);
  ExprPtr plan = CompileJoin(env, JoinMethod::kIndexNestedLoop, /*k=*/10);
  MarkLargeClauses(*plan);
  env.ctx.max_query_dop = 8;
  env.ctx.batch_size = 4;

  QueryRegistry registry;
  auto ctl = registry.Register(1, 0, "test", "join-small-batch");
  env.ctx.exec = ctl.get();
  env.ctx.exec_owner = ctl;

  int delivered = 0;
  int delivered_after_cancel = 0;
  Status st = runtime::EvaluateStream(
      *plan, env.ctx, [&](const xml::Item&) -> Status {
        ++delivered;
        if (ctl->IsCancelled()) ++delivered_after_cancel;
        if (delivered == 3) {
          EXPECT_TRUE(registry.Cancel(ctl->query_id));
        }
        return Status::OK();
      });

  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  // Delivery stops at the row where the cancel landed: the in-flight
  // batch is never drained past the poll.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(delivered_after_cancel, 0);
  EXPECT_EQ(env.pool.queue_depth(), 0);

  env.ctx.exec = nullptr;
  env.ctx.exec_owner.reset();
  env.ctx.max_query_dop = 1;
  env.ctx.batch_size = 1024;
  registry.Unregister(ctl->query_id);
}

// ----- Cancellation: the server API end to end ----------------------------

TEST(InsightPlaneTest, CancelQueryThroughServerAuditsAndCounts) {
  ServerOptions opts;
  opts.optimizer.forced_join_method = JoinMethod::kIndexNestedLoop;
  InsightServer env(std::move(opts));
  // Make the join slow enough to be running when the cancel lands.
  env.customer_db->latency_model().roundtrip_micros = 500;

  uint64_t cancelled_id = 0;
  int items = 0;
  Status st = env.platform.ExecuteStream(
      kCrossJoin, [&](const xml::Item&) -> Status {
        if (++items == 1) {
          auto live = env.platform.query_registry().Snapshot();
          EXPECT_EQ(live.size(), 1u);
          if (!live.empty()) {
            cancelled_id = live[0].query_id;
            EXPECT_TRUE(env.platform.CancelQuery(cancelled_id));
          }
        }
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_NE(cancelled_id, 0u);
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);

  // Distinct outcome in the execution audit log.
  auto records = env.platform.execution_audit().Records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().outcome, StatusCode::kCancelled);
  // The cancel request itself is a security-audit event.
  EXPECT_EQ(env.platform.audit_log().EventsInCategory("cancel").size(), 1u);
  // Counted as a cancel (not an error) in the statement stats.
  auto top = env.platform.stat_statements().TopK(0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].cancels, 1);
  EXPECT_EQ(top[0].errors, 0);
  // And attributed to the tenant's windows.
  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(
      snapshot.windowed_counters.at("tenant.(anonymous).cancels").total, 1);

  // Cancelling an id that is no longer running reports false (and still
  // leaves an audit trail of the attempt).
  EXPECT_FALSE(env.platform.CancelQuery(cancelled_id));
  EXPECT_FALSE(env.platform.CancelQuery(999999));
}

// ----- Concurrent cancel from another thread (TSan coverage) --------------

TEST(InsightPlaneTest, ConcurrentCancelFromAnotherThread) {
  InsightServer env;
  env.customer_db->latency_model().roundtrip_micros = 300;

  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // Snapshot-and-cancel race deliberately overlaps the running query.
    for (int i = 0; i < 100; ++i) {
      auto live = env.platform.query_registry().Snapshot();
      if (!live.empty() && env.platform.CancelQuery(live[0].query_id)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  Status st = env.platform.ExecuteStream(
      kCrossJoin, [&](const xml::Item&) -> Status {
        started.store(true, std::memory_order_release);
        return Status::OK();
      });
  canceller.join();
  // Either the cancel landed mid-stream or the query finished first;
  // both are valid outcomes of the race — never a crash or a hang.
  EXPECT_TRUE(st.ok() || st.code() == StatusCode::kCancelled)
      << st.ToString();
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);
}

}  // namespace
}  // namespace aldsp
