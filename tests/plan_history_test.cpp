// Plan lifecycle plane: statement-vs-plan fingerprint split, the
// per-statement plan-version history with compile-trigger attribution,
// and the regression sentinel — including the end-to-end pipeline where
// cost-model observations flip a cross-source join method, the history
// records the transition, and a slower new plan version produces a
// plan_regression audit event with a rendered EXPLAIN diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "observability/plan_history.h"
#include "server/explain.h"
#include "server/fingerprint.h"
#include "server/server.h"
#include "tests/test_fixtures.h"
#include "xquery/parser.h"

namespace aldsp {
namespace {

using observability::CompileTrigger;
using observability::PlanHistory;
using observability::PlanHistoryOptions;
using observability::PlanRegressionEvent;
using observability::RenderJson;
using observability::RenderText;
using observability::SnapshotDoc;
using observability::StatementHistory;
using server::DataServicePlatform;
using server::ServerOptions;
using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using xquery::Clause;
using xquery::ExprPtr;
using xquery::JoinMethod;

/// The plan-history document of `statements` with `history`'s totals.
SnapshotDoc HistoryDoc(const PlanHistory& history,
                       const std::vector<StatementHistory>& statements) {
  return PlanHistory::HistoryDoc(statements, history.statement_count(),
                                 history.statement_evictions(),
                                 history.plan_changes_total());
}

// ----- Statement fingerprint unit tests ---------------------------------

uint64_t StmtFp(const std::string& query) {
  auto expr = xquery::ParseExpression(query);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  return server::StatementFingerprint(**expr);
}

TEST(StatementFingerprintTest, LiteralsStripButStructureCounts) {
  // Different literals: same statement.
  EXPECT_EQ(StmtFp("1 + 2"), StmtFp("3 + 4"));
  EXPECT_EQ(StmtFp("for $x in (1, 2) return $x"),
            StmtFp("for $x in (9, 8) return $x"));
  // Different operator, variable, or clause structure: different statement.
  EXPECT_NE(StmtFp("1 + 2"), StmtFp("1 * 2"));
  EXPECT_NE(StmtFp("for $x in (1) return $x"),
            StmtFp("for $y in (1) return $y"));
  EXPECT_NE(StmtFp("for $x in (1) return $x"),
            StmtFp("for $x in (1) where $x eq 1 return $x"));
}

TEST(StatementFingerprintTest, DistinctFromPlanFingerprintSpace) {
  auto expr = xquery::ParseExpression("1 + 2");
  ASSERT_TRUE(expr.ok());
  // The two id spaces are tagged apart even over the identical tree.
  EXPECT_NE(server::StatementFingerprint(**expr),
            server::PlanFingerprint(**expr));
}

// ----- PlanHistory unit tests -------------------------------------------

TEST(PlanHistoryTest, TriggerAttribution) {
  PlanHistory history;
  history.RecordCompile(1, 100, "q", "advice-a", [] { return "plan A"; });
  auto s = history.Statement(1);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->versions.size(), 1u);
  EXPECT_EQ(s->versions[0].trigger, CompileTrigger::kColdCompile);

  // Same shape recompiled: touched, not a new version.
  history.RecordCompile(1, 100, "q", "advice-a", [] { return "plan A"; });
  s = history.Statement(1);
  ASSERT_EQ(s->versions.size(), 1u);
  EXPECT_EQ(s->versions[0].compiles, 2);
  EXPECT_EQ(s->plan_changes, 0);

  // New shape, same advice inputs: a cache eviction recompiled it.
  history.RecordCompile(1, 200, "q", "advice-a", [] { return "plan B"; });
  s = history.Statement(1);
  ASSERT_EQ(s->versions.size(), 2u);
  EXPECT_EQ(s->versions[1].trigger, CompileTrigger::kCacheEviction);

  // New shape after the advice inputs moved: the cost model did it.
  history.RecordCompile(1, 300, "q", "advice-b", [] { return "plan C"; });
  s = history.Statement(1);
  ASSERT_EQ(s->versions.size(), 3u);
  EXPECT_EQ(s->versions[2].trigger, CompileTrigger::kCostModelAdviceChange);
  EXPECT_EQ(s->plan_changes, 2);
  EXPECT_EQ(history.plan_changes_total(), 2);
}

TEST(PlanHistoryTest, VersionRingBounded) {
  PlanHistoryOptions opts;
  opts.max_versions_per_statement = 3;
  PlanHistory history(opts);
  for (uint64_t fp = 1; fp <= 5; ++fp) {
    history.RecordCompile(7, fp, "q", std::string("a") + std::to_string(fp),
                          [] { return "p"; });
  }
  auto s = history.Statement(7);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->versions.size(), 3u);  // oldest two rolled off
  EXPECT_EQ(s->versions.front().plan_fingerprint, 3u);
  EXPECT_EQ(s->versions.back().plan_fingerprint, 5u);
  EXPECT_EQ(s->plan_changes, 4);  // transitions survive the roll-off
}

TEST(PlanHistoryTest, StatementEvictionIsLeastRecentlySeen) {
  PlanHistoryOptions opts;
  opts.max_statements = 2;
  PlanHistory history(opts);
  history.RecordCompile(1, 10, "q1", "a", [] { return "p"; });
  history.RecordCompile(2, 20, "q2", "a", [] { return "p"; });
  // Touch statement 1 so statement 2 is the stalest.
  history.RecordExecution(1, 10, 1000);
  history.RecordCompile(3, 30, "q3", "a", [] { return "p"; });
  EXPECT_EQ(history.statement_count(), 2);
  EXPECT_EQ(history.statement_evictions(), 1);
  EXPECT_TRUE(history.Statement(1).has_value());
  EXPECT_FALSE(history.Statement(2).has_value());
  EXPECT_TRUE(history.Statement(3).has_value());
}

TEST(PlanHistoryTest, SentinelFiresOnceAndCarriesExplains) {
  PlanHistoryOptions opts;
  opts.sentinel_min_calls = 3;
  opts.sentinel_ratio = 1.5;
  PlanHistory history(opts);
  history.RecordCompile(9, 100, "q", "a1", [] { return "plan v1"; });
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(history.RecordExecution(9, 100, 1000).has_value());
  }
  history.RecordCompile(9, 200, "q", "a2", [] { return "plan v2"; });
  // Not enough calls on the new version yet.
  EXPECT_FALSE(history.RecordExecution(9, 200, 5000).has_value());
  EXPECT_FALSE(history.RecordExecution(9, 200, 5000).has_value());
  auto ev = history.RecordExecution(9, 200, 5000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->baseline_plan_fingerprint, 100u);
  EXPECT_EQ(ev->regressed_plan_fingerprint, 200u);
  EXPECT_EQ(ev->trigger, CompileTrigger::kCostModelAdviceChange);
  EXPECT_EQ(ev->baseline_explain, "plan v1");
  EXPECT_EQ(ev->regressed_explain, "plan v2");
  EXPECT_GE(ev->ratio, 1.5);
  // Fires at most once per version, no matter how slow it stays.
  EXPECT_FALSE(history.RecordExecution(9, 200, 9000).has_value());
  // Published events land in the bounded ring with sequence numbers.
  EXPECT_EQ(history.PublishRegression(*ev), 0);
  EXPECT_EQ(history.regressions_total(), 1);
  ASSERT_EQ(history.Regressions().size(), 1u);
}

TEST(PlanHistoryTest, RegressionRingBoundedAndZeroCapacityCounts) {
  PlanHistoryOptions opts;
  opts.max_regressions = 2;
  PlanHistory history(opts);
  for (int i = 0; i < 3; ++i) {
    PlanRegressionEvent ev;
    ev.statement_fingerprint = 9;
    ev.regressed_plan_fingerprint = 100 + i;
    EXPECT_EQ(history.PublishRegression(ev), i);
  }
  EXPECT_EQ(history.regressions_total(), 3);
  auto kept = history.Regressions();
  ASSERT_EQ(kept.size(), 2u);  // oldest evicted
  EXPECT_EQ(kept.front().seq, 1);
  EXPECT_EQ(kept.back().regressed_plan_fingerprint, 102u);

  // Capacity 0 retains nothing but still counts every event.
  opts.max_regressions = 0;
  PlanHistory none(opts);
  EXPECT_EQ(none.PublishRegression(PlanRegressionEvent{}), 0);
  EXPECT_EQ(none.PublishRegression(PlanRegressionEvent{}), 1);
  EXPECT_EQ(none.regressions_total(), 2);
  EXPECT_TRUE(none.Regressions().empty());
}

TEST(PlanHistoryTest, SentinelSilentWhenNewPlanIsFine) {
  PlanHistoryOptions opts;
  opts.sentinel_min_calls = 2;
  PlanHistory history(opts);
  history.RecordCompile(9, 100, "q", "a1", [] { return "p1"; });
  history.RecordExecution(9, 100, 4000);
  history.RecordExecution(9, 100, 4000);
  history.RecordCompile(9, 200, "q", "a2", [] { return "p2"; });
  // The new version is faster: no event, ever.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(history.RecordExecution(9, 200, 2000).has_value());
  }
}

TEST(PlanHistoryTest, RenderersEmitValidShapes) {
  PlanHistory history;
  history.RecordCompile(5, 50, "some \"query\"", "a",
                        [] { return "plan\ntext"; });
  history.RecordExecution(5, 50, 1234);
  std::string text = RenderText(HistoryDoc(history, history.Snapshot()));
  EXPECT_NE(text.find("statement_fingerprint=\"5\""), std::string::npos);
  EXPECT_NE(text.find("cold compile"), std::string::npos);
  std::string json = RenderJson(HistoryDoc(history, {*history.Statement(5)}));
  EXPECT_NE(json.find("\"statement_fingerprint\":\"5\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"cold compile\""), std::string::npos);
  // Unknown statement renders an empty-but-valid document.
  EXPECT_FALSE(history.Statement(999).has_value());
  EXPECT_NE(RenderJson(HistoryDoc(history, {})).find("\"statements\":[]"),
            std::string::npos);
}

// ----- EXPLAIN diff -----------------------------------------------------

TEST(ExplainDiffTest, AlignsSharedStructure) {
  std::string before = "scan CUSTOMER\njoin[ppk-inl] $cc k=20\nreturn\n";
  std::string after = "scan CUSTOMER\njoin[inl] $cc\nreturn\n";
  std::string diff = server::RenderExplainDiff(before, after);
  EXPECT_NE(diff.find("  scan CUSTOMER"), std::string::npos);
  EXPECT_NE(diff.find("- join[ppk-inl] $cc k=20"), std::string::npos);
  EXPECT_NE(diff.find("+ join[inl] $cc"), std::string::npos);
  EXPECT_NE(diff.find("  return"), std::string::npos);
}

// ----- End-to-end: cost-model flip -> history -> sentinel ---------------

const Clause* FindJoin(const ExprPtr& plan) {
  if (plan->kind != xquery::ExprKind::kFLWOR) return nullptr;
  for (const auto& cl : plan->clauses) {
    if (cl.kind == Clause::Kind::kJoin) return &cl;
  }
  return nullptr;
}

// Cross-source join so pushdown cannot collapse it into one SQL query;
// the optimizer must pick a mid-tier method (same query as
// observed_cost_test, which proves the PP-k -> INL flip itself).
constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <X>{fn:data($cc/CCN)}</X>";

TEST(PlanLifecycleE2ETest, FlipRecordsHistoryAndSentinelFires) {
  ServerOptions options;
  options.plan_regression_min_calls = 3;  // keep the test fast
  DataServicePlatform platform(options);
  auto db1 =
      std::shared_ptr<relational::Database>(MakeCustomerDb(800, 0).release());
  auto db2 = std::shared_ptr<relational::Database>(
      MakeCreditCardDb(40).release());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns3", db1, "oracle").ok());
  ASSERT_TRUE(platform.RegisterRelationalSource("ns2", db2, "oracle").ok());

  // Cold compile: the paper's default PP-k join. Build the version-1
  // latency baseline with fast (latency-free) executions.
  auto cold = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const uint64_t stmt_fp = (*cold)->statement_fingerprint;
  const uint64_t v1_fp = (*cold)->fingerprint;
  ASSERT_NE(stmt_fp, 0u);
  const Clause* join = FindJoin((*cold)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kPPkIndexNestedLoop);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform.Execute(kCrossJoin).ok());
  }

  // Observe the cardinalities (800 outer vs 21 inner), flush the plan
  // caches, recompile: the observed-cost model now advises a one-shot
  // full fetch (index nested loop) — a different plan fingerprint for
  // the same statement fingerprint.
  ASSERT_TRUE(platform.Execute("fn:count(ns3:CUSTOMER())").ok());
  ASSERT_TRUE(platform.Execute("fn:count(ns2:CREDIT_CARD())").ok());
  platform.ClearPlanCache();
  platform.view_plan_cache().Clear();
  auto warm = platform.Prepare(kCrossJoin);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ((*warm)->statement_fingerprint, stmt_fp);
  const uint64_t v2_fp = (*warm)->fingerprint;
  ASSERT_NE(v2_fp, v1_fp);
  join = FindJoin((*warm)->plan);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->method, JoinMethod::kIndexNestedLoop);

  // The history recorded both versions, attributing the flip to the
  // cost model (its advice inputs changed between the compiles).
  auto hist = platform.plan_history().Statement(stmt_fp);
  ASSERT_TRUE(hist.has_value());
  ASSERT_EQ(hist->versions.size(), 2u);
  EXPECT_EQ(hist->versions[0].plan_fingerprint, v1_fp);
  EXPECT_EQ(hist->versions[0].trigger, CompileTrigger::kColdCompile);
  EXPECT_EQ(hist->versions[1].plan_fingerprint, v2_fp);
  EXPECT_EQ(hist->versions[1].trigger,
            CompileTrigger::kCostModelAdviceChange);
  EXPECT_EQ(hist->plan_changes, 1);
  EXPECT_FALSE(hist->versions[1].explain_text.empty());
  EXPECT_NE(hist->versions[0].explain_text,
            hist->versions[1].explain_text);

  // Make the new version slow (the sources now really sleep), run it to
  // its sentinel threshold. The slowdown scales off the *measured* v1
  // baseline rather than a fixed constant: under sanitizer builds the
  // latency-free executions themselves take tens of milliseconds, and a
  // fixed sleep could land under the 1.5x ratio. Every execution makes
  // at least one source round trip, so one roundtrip at 4x the v1 mean
  // (floored at 50ms) guarantees the breach on any build.
  const int64_t v1_mean =
      static_cast<int64_t>(hist->versions[0].wall.MeanMicros());
  const int64_t slow_roundtrip = std::max<int64_t>(50'000, 4 * v1_mean);
  db1->latency_model() = {slow_roundtrip, /*per_row_micros=*/0,
                          /*sleep=*/true};
  db2->latency_model() = {slow_roundtrip, 0, true};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform.Execute(kCrossJoin).ok());
  }

  // The sentinel published exactly one regression event...
  EXPECT_EQ(platform.plan_history().regressions_total(), 1);
  auto events = platform.plan_history().Regressions();
  ASSERT_EQ(events.size(), 1u);
  const PlanRegressionEvent& ev = events[0];
  EXPECT_EQ(ev.statement_fingerprint, stmt_fp);
  EXPECT_EQ(ev.baseline_plan_fingerprint, v1_fp);
  EXPECT_EQ(ev.regressed_plan_fingerprint, v2_fp);
  EXPECT_EQ(ev.trigger, CompileTrigger::kCostModelAdviceChange);
  EXPECT_GE(ev.ratio, 1.5);
  // ...with a rendered structural EXPLAIN diff showing the method flip.
  EXPECT_NE(ev.explain_diff.find("- "), std::string::npos);
  EXPECT_NE(ev.explain_diff.find("+ "), std::string::npos);
  EXPECT_NE(ev.explain_diff.find("ppk-inl"), std::string::npos);

  // ...a plan_regression audit event...
  auto audited =
      platform.audit_log().EventsInCategory("plan_regression");
  ASSERT_EQ(audited.size(), 1u);
  EXPECT_NE(audited[0].detail.str().find("cost-model-advice change"),
            std::string::npos);

  // ...and the server surfaces it all: history, regressions, metrics.
  auto& history = platform.plan_history();
  std::string hist_json =
      RenderJson(HistoryDoc(history, {*history.Statement(stmt_fp)}));
  EXPECT_NE(hist_json.find("\"plan_changes\":1"), std::string::npos);
  EXPECT_NE(hist_json.find("cost-model-advice change"), std::string::npos);
  const SnapshotDoc regressions = PlanHistory::RegressionsDoc(
      history.Regressions(), history.regressions_total());
  std::string reg_json = RenderJson(regressions);
  EXPECT_NE(reg_json.find("\"regressions_total\":1"), std::string::npos);
  EXPECT_NE(RenderText(regressions).find("ratio="), std::string::npos);
  auto snapshot = platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.counters.at("plan_history.plan_changes"), 1);
  EXPECT_EQ(snapshot.counters.at("plan_history.regressions"), 1);

  // The cumulative statement stats kept one entry across the flip —
  // the forking problem the statement fingerprint exists to solve.
  auto& stats = platform.stat_statements();
  std::string stats_json = RenderJson(observability::StatStatements::Doc(
      stats.TopK(0), stats.entry_count(), stats.evictions()));
  const std::string key =
      "\"statement_fingerprint\":\"" + std::to_string(stmt_fp) + "\"";
  size_t first = stats_json.find(key);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(stats_json.find(key, first + 1), std::string::npos);
}

}  // namespace
}  // namespace aldsp
