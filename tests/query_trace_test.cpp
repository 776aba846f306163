// Tests for the query profiler: per-execution operator spans and source
// events (runtime::QueryTrace), the EXPLAIN / PROFILE rendering APIs, and
// the server-wide metrics snapshot (paper §9: "instrumenting the system").

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/query_trace.h"
#include "server/explain.h"
#include "server/server.h"
#include "tests/e2e_fixture.h"
#include "tests/test_fixtures.h"

namespace aldsp::runtime {
namespace {

using aldsp::testing::MakeCustomerDb;
using aldsp::testing::RunningExample;
using server::DataServicePlatform;

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

const QueryTrace::Span* FindSpan(const std::vector<QueryTrace::Span>& spans,
                                 const std::string& prefix) {
  for (const auto& s : spans) {
    if (s.kind.rfind(prefix, 0) == 0) return &s;
  }
  return nullptr;
}

// Cross-source join (matching observed_cost_test): pushdown cannot
// collapse it into one SQL statement, so the mid-tier runs a PP-k join
// against billing_db while scanning customer_db.
constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <X>{fn:data($cc/CCN)}</X>";

class CrossJoinProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    customer_db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(800, 0).release());
    billing_db = std::shared_ptr<relational::Database>(
        aldsp::testing::MakeCreditCardDb(40).release());
    ASSERT_TRUE(
        platform.RegisterRelationalSource("ns3", customer_db, "oracle").ok());
    ASSERT_TRUE(
        platform.RegisterRelationalSource("ns2", billing_db, "oracle").ok());
  }

  DataServicePlatform platform;
  std::shared_ptr<relational::Database> customer_db;
  std::shared_ptr<relational::Database> billing_db;
};

TEST_F(CrossJoinProfileTest, EveryOperatorGetsAFinishedSpan) {
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  EXPECT_EQ(prof->result.size(), 21u);
  ASSERT_NE(prof->trace, nullptr);

  auto spans = prof->trace->spans();
  ASSERT_FALSE(spans.empty());
  // Root span covers the whole execution and reports the result size.
  EXPECT_EQ(spans[0].kind, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].rows, 21);
  for (const auto& span : spans) {
    EXPECT_TRUE(span.finished) << span.kind;
    EXPECT_GE(span.micros, 0) << span.kind;
    EXPECT_GE(span.rows, 0) << span.kind;
  }

  // One span per pipeline operator: the FLWOR itself, the outer scan,
  // and the PP-k join chosen by the optimizer (default k=20).
  const QueryTrace::Span* flwor = FindSpan(spans, "flwor");
  ASSERT_NE(flwor, nullptr);
  EXPECT_EQ(flwor->rows, 21);
  const QueryTrace::Span* outer = FindSpan(spans, "for $c");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->rows, 800);
  EXPECT_EQ(outer->parent, flwor->id);
  const QueryTrace::Span* join = FindSpan(spans, "join[ppk-inl] $cc");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->detail, "k=20");
  EXPECT_EQ(join->rows, 21);
  EXPECT_EQ(join->parent, flwor->id);
  // The PP-k join materializes fetched blocks: bytes must be attributed.
  EXPECT_GT(join->bytes, 0);
}

TEST_F(CrossJoinProfileTest, SourceInteractionsBecomeEvents) {
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();

  // The outer scan is one pushed SQL statement with its text captured.
  EXPECT_EQ(prof->trace->CountEvents(QueryTrace::EventKind::kSql), 1);
  // 800 outer rows / k=20 -> 40 parameterized block fetches.
  EXPECT_EQ(prof->trace->CountEvents(QueryTrace::EventKind::kPPkFetch), 40);

  bool saw_scan = false, saw_fetch = false;
  for (const auto& ev : prof->trace->events()) {
    if (ev.kind == QueryTrace::EventKind::kSql) {
      saw_scan = true;
      EXPECT_EQ(ev.source, "customer_db");
      EXPECT_TRUE(Contains(ev.detail, "SELECT")) << ev.detail;
      EXPECT_EQ(ev.rows, 800);
      EXPECT_GE(ev.micros, 0);
    } else if (ev.kind == QueryTrace::EventKind::kPPkFetch) {
      saw_fetch = true;
      EXPECT_EQ(ev.source, "billing_db");
      EXPECT_TRUE(Contains(ev.detail, "SELECT")) << ev.detail;
    }
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_fetch);
}

TEST_F(CrossJoinProfileTest, VirtualSourceLatencyIsFoldedIntoEvents) {
  // With sleep=false the latency model only ticks a virtual clock; the
  // profiler must still charge it to the source round trips.
  relational::LatencyModel lm;
  lm.roundtrip_micros = 5000;
  lm.per_row_micros = 0;
  lm.sleep = false;
  customer_db->latency_model() = lm;
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  for (const auto& ev : prof->trace->events()) {
    if (ev.kind == QueryTrace::EventKind::kSql) {
      EXPECT_GE(ev.micros, 5000) << ev.detail;
    }
  }
}

TEST_F(CrossJoinProfileTest, ProfileRenderersMergePlanAndTrace) {
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();

  std::string text = server::RenderProfileText(*prof->plan, *prof->trace);
  EXPECT_TRUE(Contains(text, "=== profile ===")) << text;
  EXPECT_TRUE(Contains(text, "compile: parse=")) << text;
  EXPECT_TRUE(Contains(text, "query")) << text;
  EXPECT_TRUE(Contains(text, "join[ppk-inl] $cc")) << text;
  EXPECT_TRUE(Contains(text, "* sql[customer_db]")) << text;
  EXPECT_TRUE(Contains(text, "* ppk-fetch[billing_db]")) << text;
  EXPECT_TRUE(Contains(text, "rows=21")) << text;

  std::string json = server::RenderProfileJson(*prof->plan, *prof->trace);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_TRUE(Contains(json, "\"spans\":[")) << json;
  EXPECT_TRUE(Contains(json, "\"kind\":\"query\"")) << json;
  EXPECT_TRUE(Contains(json, "ppk-fetch")) << json;
  EXPECT_TRUE(Contains(json, "\"parse_micros\":")) << json;
}

TEST_F(CrossJoinProfileTest, ExplainAnnotatesPlanWithoutExecuting) {
  auto text = platform.Explain(kCrossJoin);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(Contains(*text, "=== plan ===")) << *text;
  EXPECT_TRUE(Contains(*text, "compile: parse=")) << *text;
  EXPECT_TRUE(Contains(*text, "pushdown:")) << *text;
  EXPECT_TRUE(Contains(*text, "join[ppk-inl] $cc k=20")) << *text;
  EXPECT_TRUE(Contains(*text, "sql[customer_db] SELECT")) << *text;
  EXPECT_TRUE(Contains(*text, "ppk-fetch[billing_db]")) << *text;
  // Explain compiles but never touches the sources.
  EXPECT_EQ(customer_db->stats().statements.load(), 0);
  EXPECT_EQ(billing_db->stats().statements.load(), 0);

  auto json = platform.ExplainJson(kCrossJoin);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '{');
  EXPECT_TRUE(Contains(*json, "\"parse_micros\":")) << *json;
  EXPECT_TRUE(Contains(*json, "\"plan\":{")) << *json;
  EXPECT_TRUE(Contains(*json, "join[ppk-inl]")) << *json;
}

TEST_F(CrossJoinProfileTest, CompletedTraceFeedsObservedCost) {
  // The profiled run alone (no manual Record* calls, no plain Execute)
  // populates the observed-cost model from its trace.
  ASSERT_TRUE(platform.ExecuteProfiled("fn:count(ns3:CUSTOMER())").ok());
  ASSERT_TRUE(platform.ExecuteProfiled("fn:count(ns2:CREDIT_CARD())").ok());
  EXPECT_EQ(platform.observed_cost().ObservedRows("customer_db", "CUSTOMER"),
            800);
  EXPECT_EQ(platform.observed_cost().ObservedRows("billing_db", "CREDIT_CARD"),
            21);
  // Fed exactly once per run: the evaluator must not also record inline
  // while a trace is attached (that would double-count every scan).
  EXPECT_EQ(platform.observed_cost().TableStats("customer_db", "CUSTOMER").scans,
            1);
  EXPECT_GT(platform.observed_cost().ObservedRoundTripMicros("customer_db"),
            -1);
}

TEST_F(CrossJoinProfileTest, MetricsSnapshotExportsCountersAndHistograms) {
  ASSERT_TRUE(platform.ExecuteProfiled(kCrossJoin).ok());
  ASSERT_TRUE(platform.Execute(kCrossJoin).ok());  // untraced runs count too

  auto snapshot = platform.MetricsSnapshot();
  EXPECT_GE(snapshot.counters["plan_cache.misses"], 1);
  EXPECT_GE(snapshot.counters["plan_cache.hits"], 1);
  EXPECT_GE(snapshot.counters["runtime.sql_pushdowns"], 1);
  EXPECT_GE(snapshot.counters["runtime.ppk_blocks"], 40);
  ASSERT_TRUE(snapshot.source_latency.count("customer_db"));
  ASSERT_TRUE(snapshot.source_latency.count("billing_db"));
  const auto& hist = snapshot.source_latency["billing_db"];
  EXPECT_GE(hist.count, 40);  // one sample per PP-k fetch
  int64_t bucket_total = 0;
  for (int i = 0; i < MetricsRegistry::Histogram::kBuckets; ++i) {
    bucket_total += hist.counts[i];
  }
  EXPECT_EQ(bucket_total, hist.count);

  std::string text = platform.MetricsText();
  EXPECT_TRUE(Contains(text, "plan_cache.misses")) << text;
  EXPECT_TRUE(Contains(text, "customer_db")) << text;
  std::string json = platform.MetricsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\"counters\"")) << json;
  EXPECT_TRUE(Contains(json, "billing_db")) << json;
}

// ----- Evaluator-level tracing through the running example ---------------

TEST(QueryTraceEvalTest, FunctionCacheHitsAndMissesAreEvents) {
  RunningExample env(2);
  env.cache.EnableFor("ns4:getRating", /*ttl_millis=*/60000);
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  std::string q =
      "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>A</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)/ns5:getRatingResult)";
  ASSERT_TRUE(env.Run(q).ok());
  ASSERT_TRUE(env.Run(q).ok());
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kCacheMiss), 1);
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kCacheHit), 1);
  // Only the miss reached the source.
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kSourceInvoke), 1);
  for (const auto& ev : trace.events()) {
    if (ev.kind == QueryTrace::EventKind::kSourceInvoke) {
      EXPECT_EQ(ev.source, "ratingWS");
      EXPECT_EQ(ev.detail, "ns4:getRating");
    }
  }
}

TEST(QueryTraceEvalTest, TimeoutFiringIsRecorded) {
  // The trace must outlive env: env's pool drains the task abandoned by
  // fn-bea:timeout on destruction, and that task still records events.
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  RunningExample env(2);
  env.ctx.trace = &trace;
  env.rating_ws->SetLatency("ns4:getRating", 200);
  auto r = env.Run(
      "fn-bea:timeout("
      "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>X</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)/ns5:getRatingResult), 30, 0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->front().atomic().AsInteger(), 0);
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kTimeout), 1);
  for (const auto& ev : trace.events()) {
    if (ev.kind == QueryTrace::EventKind::kTimeout) {
      EXPECT_EQ(ev.micros, 30 * 1000);  // the abandoned deadline
    }
  }
}

TEST(QueryTraceEvalTest, FailOverFiringIsRecorded) {
  RunningExample env(2);
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  env.rating_ws->FailNextCalls(1);
  auto r = env.Run(
      "fn-bea:fail-over("
      "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>X</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)/ns5:getRatingResult), -1)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->front().atomic().AsInteger(), -1);
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kFailOver), 1);
}

TEST(QueryTraceEvalTest, AsyncTasksAreRecordedWithParentSpans) {
  RunningExample env(3);
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  std::string body =
      "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>Smith</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)/ns5:getRatingResult)";
  auto r = env.Run("<R><A>{fn-bea:async(" + body + ")}</A><B>{fn-bea:async(" +
                   body + ")}</B></R>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Two hoisted element subtrees, each of which launches its direct
  // fn-bea:async call on its own worker: four task launches in total.
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kAsyncTask), 4);
  int direct = 0, hoisted = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind != QueryTrace::EventKind::kAsyncTask) continue;
    if (ev.detail == "fn-bea:async") ++direct;
    if (ev.detail == "hoisted async subtree") ++hoisted;
  }
  EXPECT_EQ(direct, 2);   // matches RuntimeStats::async_tasks
  EXPECT_EQ(hoisted, 2);
  // Worker-thread invocations still land in the trace.
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kSourceInvoke), 2);
}

TEST(QueryTraceEvalTest, OperatorSpansWithoutServer) {
  // Tracing is a runtime feature: a bare evaluator run (no optimizer, no
  // pushdown) still produces one span per FLWOR clause.
  RunningExample env(5);
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  auto r = env.Run(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
      "order by $c/CID return $c");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto spans = trace.spans();
  const QueryTrace::Span* flwor = FindSpan(spans, "flwor");
  ASSERT_NE(flwor, nullptr);
  EXPECT_EQ(flwor->rows, 1);
  const QueryTrace::Span* forc = FindSpan(spans, "for $c");
  ASSERT_NE(forc, nullptr);
  EXPECT_EQ(forc->rows, 5);
  EXPECT_NE(FindSpan(spans, "where"), nullptr);
  const QueryTrace::Span* order = FindSpan(spans, "order-by");
  ASSERT_NE(order, nullptr);
  EXPECT_GT(order->bytes, 0);  // sort buffers are blocking state
  // The un-pushed scan is a plain source invocation observing the table.
  bool saw_invoke = false;
  for (const auto& ev : trace.events()) {
    if (ev.kind == QueryTrace::EventKind::kSourceInvoke &&
        ev.source == "customer_db") {
      saw_invoke = true;
      EXPECT_EQ(ev.table, "CUSTOMER");
    }
  }
  EXPECT_TRUE(saw_invoke);
}

}  // namespace
}  // namespace aldsp::runtime
