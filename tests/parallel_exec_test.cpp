#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "observability/query_registry.h"
#include "optimizer/optimizer.h"
#include "runtime/observed_cost.h"
#include "runtime/query_trace.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp::runtime {
namespace {

using aldsp::testing::CompileJoin;
using aldsp::testing::kJoinQuery;
using aldsp::testing::MarkLargeClauses;
using aldsp::testing::RunningExample;
using optimizer::Optimizer;
using optimizer::OptimizerOptions;
using xquery::Clause;
using xquery::ExprPtr;
using xquery::JoinMethod;

// ----- Exchange operator --------------------------------------------------

TEST(ExchangeTest, ParallelJoinRunsChunksAndMatchesSerial) {
  RunningExample env(40, 3);
  ExprPtr plan = CompileJoin(env, JoinMethod::kNestedLoop);
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok());

  env.ctx.max_query_dop = 4;
  env.stats.Reset();
  auto parallel = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(xml::SerializeSequence(*serial),
            xml::SerializeSequence(*parallel));
  EXPECT_GT(env.stats.exchange_chunks.load(), 1);
  env.ctx.max_query_dop = 1;
}

TEST(ExchangeTest, TimelineShowsExchangeTasksAndGatherWaits) {
  RunningExample env(40, 3);
  ExprPtr plan = CompileJoin(env, JoinMethod::kIndexNestedLoop);
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 4;
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());
  env.ctx.trace = nullptr;
  env.ctx.max_query_dop = 1;

  int task_spans = 0;
  for (const auto& span : trace.spans()) {
    if (span.kind == "task[exchange]") {
      ++task_spans;
      EXPECT_GE(span.queue_micros, 0);
    }
  }
  EXPECT_GT(task_spans, 1);
  // Gather waits reference the awaited chunk's span, feeding the
  // critical-path queue-wait bucket.
  bool saw_gather_wait = false;
  for (const auto& event : trace.events()) {
    if (event.kind == QueryTrace::EventKind::kTaskWait &&
        event.detail == "exchange-gather") {
      saw_gather_wait = true;
      EXPECT_GE(event.ref_span, 0);
    }
  }
  EXPECT_TRUE(saw_gather_wait);
}

TEST(ExchangeTest, ErrorInWorkerChunkPropagates) {
  RunningExample env(40, 3);
  // Divide by zero inside the probe's residual expression only for some
  // rows, so the failure surfaces from a worker chunk.
  const char* q =
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID and (10 div ($o/OID - $o/OID)) eq 3 "
      "return $o";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  OptimizerOptions options;
  options.fold_constants = false;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  ASSERT_TRUE(opt.Optimize(plan).ok());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 4;
  auto result = Evaluate(*plan, env.ctx);
  EXPECT_FALSE(result.ok());
  env.ctx.max_query_dop = 1;
}

TEST(ExchangeTest, SerialContextNeverInsertsExchange) {
  RunningExample env(30, 3);
  ExprPtr plan = CompileJoin(env, JoinMethod::kNestedLoop);
  MarkLargeClauses(*plan);
  env.ctx.max_query_dop = 1;
  env.stats.Reset();
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());
  EXPECT_EQ(env.stats.exchange_chunks.load(), 0);
}

// ----- Parallel let fan-out ----------------------------------------------

// Two independent source lets per customer: the optimizer's post-pass
// marks them (both call sources, neither references the other) as one
// parallel group.
ExprPtr CompileParallelLets(RunningExample& env) {
  const char* q =
      "for $c in ns3:CUSTOMER() "
      "let $r := ns4:getRating(<ns5:getRating><ns5:lName>{fn:data($c/LAST_NAME)}"
      "</ns5:lName><ns5:ssn>x</ns5:ssn></ns5:getRating>) "
      "let $cc := ns2:CREDIT_CARD() "
      // Each let is referenced twice so single-use substitution leaves
      // the clauses (and the parallel group) in place.
      "return <R><A>{fn:data($r/ns5:getRatingResult)}</A>"
      "<B>{fn:count($r)}</B><C>{fn:count($cc)}</C>"
      "<D>{fn:count($cc) + 1}</D></R>";
  auto parsed = xquery::ParseExpression(q);
  EXPECT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  EXPECT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  EXPECT_TRUE(opt.Optimize(plan).ok());
  int lets_marked = 0;
  for (const auto& cl : plan->clauses) {
    if (cl.kind == Clause::Kind::kLet && cl.parallel_group >= 0) {
      ++lets_marked;
    }
  }
  EXPECT_EQ(lets_marked, 2);
  return plan;
}

TEST(ParallelLetTest, IndependentSourceLetsFanOutAndMatchSerial) {
  // Row-at-a-time and wide batches run the same operator: one fan-out
  // per input row either way.
  for (int batch_size : {1, 1024}) {
    SCOPED_TRACE(batch_size);
    RunningExample env(5, 2);
    env.ctx.batch_size = batch_size;
    ExprPtr plan = CompileParallelLets(env);

    env.ctx.max_query_dop = 1;
    auto serial = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    env.ctx.max_query_dop = 4;
    env.stats.Reset();
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*serial),
              xml::SerializeSequence(*parallel));
    EXPECT_EQ(env.stats.parallel_let_fanouts.load(), 5);
  }
}

TEST(ParallelLetTest, CancelStopsWithinOneInputRow) {
  // One wide batch holds every customer, so only the per-row cancel poll
  // can stop the fan-out before the batch is done.
  RunningExample env(30, 1);
  env.ctx.batch_size = 1024;
  env.ctx.max_query_dop = 4;
  env.rating_ws->SetLatency("ns4:getRating", 10);
  ExprPtr plan = CompileParallelLets(env);
  observability::QueryControl control;
  env.ctx.exec = &control;
  env.stats.Reset();

  int64_t fanouts_at_cancel = -1;
  std::atomic<bool> finished{false};
  std::thread canceller([&] {
    while (env.stats.parallel_let_fanouts.load() < 3 && !finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fanouts_at_cancel = env.stats.parallel_let_fanouts.load();
    control.cancelled.store(true);
  });
  auto result = Evaluate(*plan, env.ctx);
  finished.store(true);
  canceller.join();
  env.ctx.exec = nullptr;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // The row in flight when the flag flipped finishes; no later row starts.
  EXPECT_LE(env.stats.parallel_let_fanouts.load(), fanouts_at_cancel + 1);
  EXPECT_LT(env.stats.parallel_let_fanouts.load(), 30);
}

TEST(ParallelLetTest, DependentLetsAreNotMarked) {
  RunningExample env(3, 1);
  const char* q =
      "for $c in ns3:CUSTOMER() "
      "let $a := ns2:CREDIT_CARD() "
      "let $b := fn:count($a) "
      "return $b";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  OptimizerOptions options;
  options.substitute_lets = false;
  options.remove_unused_lets = false;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  ASSERT_TRUE(opt.Optimize(plan).ok());
  for (const auto& cl : plan->clauses) {
    EXPECT_EQ(cl.parallel_group, -1) << "$" << cl.var;
  }
}

// ----- Deep PP-k prefetch -------------------------------------------------

TEST(DeepPrefetchTest, ForcedDepthsAreByteIdenticalToSerial) {
  for (int depth : {0, 1, 3, 8}) {
    RunningExample env(30, 3);
    ExprPtr plan = CompileJoin(env, JoinMethod::kPPkIndexNestedLoop, 7);

    env.ctx.ppk_prefetch = false;
    auto baseline = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(baseline.ok());

    env.ctx.ppk_prefetch = true;
    env.ctx.ppk_prefetch_depth = depth;
    env.stats.Reset();
    auto deep = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(deep.ok()) << deep.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*baseline), xml::SerializeSequence(*deep))
        << "depth=" << depth;
    EXPECT_EQ(env.stats.ppk_blocks.load(), (30 + 7 - 1) / 7)
        << "depth=" << depth;
  }
}

// Satellite regression: closing the plan while prefetch tasks are still
// in flight must drain them before upstream operators are destroyed.
// Run under TSan, this catches tasks racing teardown.
TEST(DeepPrefetchTest, CloseMidPrefetchDrainsInFlightTasks) {
  for (int round = 0; round < 10; ++round) {
    RunningExample env(60, 2);
    ExprPtr plan = CompileJoin(env, JoinMethod::kPPkIndexNestedLoop, 5);
    // Real sleeps so fetch tasks are genuinely in flight at abort time.
    env.customer_db->latency_model().roundtrip_micros = 2000;
    env.customer_db->latency_model().sleep = true;
    env.ctx.ppk_prefetch_depth = 4;

    int delivered = 0;
    Status st = EvaluateStream(*plan, env.ctx, [&](const xml::Item&) {
      if (++delivered >= 3) return Status::RuntimeError("consumer aborted");
      return Status::OK();
    });
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kRuntimeError);
    // The fixture tears down here: any undrained task would touch freed
    // operators (TSan/ASan fail the run).
  }
}

TEST(DeepPrefetchTest, AdaptiveDepthFollowsObservedLatency) {
  ObservedCostModel model;
  // Unknown source: stay at the classic double-buffer depth.
  EXPECT_EQ(model.AdvisePrefetchDepth("db", 20), 1);
  // 5ms round trips against ~40us consume per 20-row block: pipeline
  // deep, capped at 8.
  for (int i = 0; i < 50; ++i) {
    model.RecordStatementSplit("db", 5000, 100, 50);
  }
  EXPECT_EQ(model.AdvisePrefetchDepth("db", 20), 8);
  // Slow consumers (high per-row transfer) need little pipelining.
  ObservedCostModel slow;
  for (int i = 0; i < 50; ++i) {
    slow.RecordStatementSplit("db", 2000, 100000, 50);
  }
  int depth = slow.AdvisePrefetchDepth("db", 20);
  EXPECT_GE(depth, 1);
  EXPECT_LE(depth, 2);
}

TEST(DeepPrefetchTest, SourceAwareBlockSizeNeverBelowLegacyAdvice) {
  ObservedCostModel model;
  EXPECT_EQ(model.AdvisePPkBlockSize("db", 2000),
            model.AdvisePPkBlockSize(2000));
  // Expensive round trips push k above the pure-cardinality heuristic.
  for (int i = 0; i < 50; ++i) {
    model.RecordStatementSplit("db", 50000, 500, 50);
  }
  EXPECT_GE(model.AdvisePPkBlockSize("db", 200),
            model.AdvisePPkBlockSize(200));
}

// ----- Peak-bytes high-water mark (satellite audit) -----------------------

TEST(PeakBytesTest, ConcurrentNotesNeverLoseTheMaximum) {
  RuntimeStats stats;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int64_t i = 1; i <= kPerThread; ++i) {
        stats.NotePeakBytes(t * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  // The largest value any thread reported must survive every racing CAS.
  EXPECT_EQ(stats.peak_operator_bytes.load(), kThreads * kPerThread);
}

TEST(PeakBytesTest, ConcurrentResetCannotResurrectStalePeak) {
  RuntimeStats stats;
  std::atomic<bool> stop{false};
  std::thread noter([&] {
    int64_t i = 0;
    while (!stop.load()) stats.NotePeakBytes(++i % 1000);
  });
  for (int r = 0; r < 200; ++r) {
    stats.Reset();
    std::this_thread::yield();
  }
  stop.store(true);
  noter.join();
  stats.Reset();
  EXPECT_EQ(stats.peak_operator_bytes.load(), 0);
}

}  // namespace
}  // namespace aldsp::runtime
