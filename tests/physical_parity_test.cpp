#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "optimizer/optimizer.h"
#include "runtime/physical/builder.h"
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
using xquery::ExprPtr;
using xquery::JoinMethod;

// Runs EvaluateStream and materializes the streamed items.
Result<xml::Sequence> CollectStream(const xquery::Expr& e,
                                    const RuntimeContext& ctx) {
  xml::Sequence out;
  ALDSP_RETURN_NOT_OK(EvaluateStream(e, ctx, [&](const xml::Item& item) {
    out.push_back(item);
    return Status::OK();
  }));
  return out;
}

// The trace-parity key: operator spans must report the same row counts
// whether the tree is driven by Evaluate or EvaluateStream. Details are
// excluded because only the flwor root's detail differs ("streaming").
std::multiset<std::pair<std::string, int64_t>> SpanRows(
    const QueryTrace& trace) {
  std::multiset<std::pair<std::string, int64_t>> rows;
  for (const auto& span : trace.spans()) {
    rows.insert({span.kind, span.rows});
  }
  return rows;
}

class PhysicalParityTest : public ::testing::TestWithParam<JoinMethod> {};

TEST_P(PhysicalParityTest, EvaluateAndStreamMatchReference) {
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);  // naive nested iteration
  ASSERT_TRUE(reference.ok());
  ExprPtr plan = CompileJoin(env, GetParam());

  auto materialized = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  auto streamed = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  const std::string expected = xml::SerializeSequence(*reference);
  EXPECT_EQ(expected, xml::SerializeSequence(*materialized));
  EXPECT_EQ(expected, xml::SerializeSequence(*streamed));
}

TEST_P(PhysicalParityTest, SpanRowCountsMatchBetweenDrivers) {
  RunningExample env(30, 3);
  ExprPtr plan = CompileJoin(env, GetParam());

  QueryTrace eval_trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &eval_trace;
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());

  QueryTrace stream_trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &stream_trace;
  ASSERT_TRUE(CollectStream(*plan, env.ctx).ok());

  EXPECT_EQ(SpanRows(eval_trace), SpanRows(stream_trace));
}

INSTANTIATE_TEST_SUITE_P(
    Repertoire, PhysicalParityTest,
    ::testing::Values(JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
                      JoinMethod::kPPkNestedLoop,
                      JoinMethod::kPPkIndexNestedLoop),
    [](const auto& info) {
      switch (info.param) {
        case JoinMethod::kNestedLoop:
          return "NestedLoop";
        case JoinMethod::kIndexNestedLoop:
          return "IndexNestedLoop";
        case JoinMethod::kPPkNestedLoop:
          return "PPkNestedLoop";
        case JoinMethod::kPPkIndexNestedLoop:
          return "PPkIndexNestedLoop";
        default:
          return "Auto";
      }
    });

TEST(PhysicalParityTest, BatchWidthsAreByteIdentical) {
  // The batch size is a pure throughput knob: every width — including 1,
  // which degenerates to row-at-a-time — must produce byte-identical
  // ordered output for every join method, through both drivers. Odd
  // widths exercise partial final batches; width 3 makes most batches
  // sub-block relative to the 30-row inputs.
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);
  ASSERT_TRUE(reference.ok());
  const std::string expected = xml::SerializeSequence(*reference);

  for (JoinMethod method :
       {JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
        JoinMethod::kPPkNestedLoop, JoinMethod::kPPkIndexNestedLoop}) {
    ExprPtr plan = CompileJoin(env, method);
    for (int width : {1, 3, 7, 1024}) {
      env.ctx.batch_size = width;
      auto materialized = Evaluate(*plan, env.ctx);
      ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*materialized))
          << "width=" << width;
      auto streamed = CollectStream(*plan, env.ctx);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*streamed))
          << "width=" << width;
    }
  }
  env.ctx.batch_size = 1024;
}

TEST(PhysicalParityTest, PrefetchOnAndOffAreByteIdentical) {
  // The PP-k prefetcher overlaps the next block's round trip with
  // consumption of the current one; results and block counts must not
  // depend on whether the overlap is enabled.
  for (int k : {1, 7, 20, 50}) {
    RunningExample env(30, 3);
    ExprPtr plan = CompileJoin(env, JoinMethod::kPPkIndexNestedLoop, k);

    env.ctx.ppk_prefetch = false;
    env.stats.Reset();
    auto baseline = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    int64_t baseline_blocks = env.stats.ppk_blocks.load();

    env.ctx.ppk_prefetch = true;
    env.stats.Reset();
    auto prefetched = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(prefetched.ok()) << prefetched.status().ToString();

    EXPECT_EQ(xml::SerializeSequence(*baseline),
              xml::SerializeSequence(*prefetched))
        << "k=" << k;
    EXPECT_EQ(env.stats.ppk_blocks.load(), baseline_blocks) << "k=" << k;
    EXPECT_EQ(baseline_blocks, (30 + k - 1) / k) << "k=" << k;
  }
}

// ----- Parallel vs serial parity (exchange insertion) --------------------
//
// The planner inserts exchange operators when ctx.max_query_dop > 1 and
// the optimizer's cardinality annotations cross the threshold. Tests
// patch Clause::estimated_rows directly (the annotation the observed-cost
// post-pass would produce) so plans parallelize deterministically without
// warming a model.

class ParallelParityTest : public ::testing::TestWithParam<JoinMethod> {};

// True when the plan `ctx` would run for `plan` holds an exchange: the
// descriptors are the ones EXPLAIN renders.
bool HasExchange(const xquery::Expr& plan, const RuntimeContext& ctx) {
  std::vector<physical::ExplainNode> nodes;
  physical::BuildPlan(plan, physical::BuildOptionsFor(ctx))->Describe(&nodes);
  for (const auto& n : nodes) {
    if (n.label == "exchange[gather]") return true;
  }
  return false;
}

// The join query, and the two whose every let, where operand, join key,
// group key or order key is outside the batch kernel's shapes (the
// interpreter evaluates those columns inside the exchange chunks).
const char* const kParallelQueries[] = {
    kJoinQuery, aldsp::testing::kInterpretedJoinQuery,
    aldsp::testing::kInterpretedGroupQuery};

TEST_P(ParallelParityTest, OrderedParallelJoinMatchesSerialExactly) {
  RunningExample env(30, 3);
  for (const char* q : kParallelQueries) {
    ExprPtr plan = CompileJoin(env, GetParam(), 20, q);
    MarkLargeClauses(*plan);

    env.ctx.max_query_dop = 1;
    auto serial = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    const std::string expected = xml::SerializeSequence(*serial);
    if (q != kJoinQuery) {
      auto reference = env.Run(q);  // naive nested iteration
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(xml::SerializeSequence(*reference), expected) << q;
    }

    for (int dop : {2, 8}) {
      env.ctx.max_query_dop = dop;
      // PP-k keeps its own pipeline; a join on a function-call key has no
      // PP-k fetch and runs as a partitioned INL probe.
      bool ppk = q == kJoinQuery &&
                 (GetParam() == JoinMethod::kPPkNestedLoop ||
                  GetParam() == JoinMethod::kPPkIndexNestedLoop);
      EXPECT_EQ(HasExchange(*plan, env.ctx), !ppk) << q << " dop=" << dop;
      auto parallel = Evaluate(*plan, env.ctx);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*parallel))
          << q << " dop=" << dop;
      auto streamed = CollectStream(*plan, env.ctx);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(expected, xml::SerializeSequence(*streamed))
          << q << " dop=" << dop;
    }
    env.ctx.max_query_dop = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Repertoire, ParallelParityTest,
    ::testing::Values(JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
                      JoinMethod::kPPkNestedLoop,
                      JoinMethod::kPPkIndexNestedLoop),
    [](const auto& info) {
      switch (info.param) {
        case JoinMethod::kNestedLoop:
          return "NestedLoop";
        case JoinMethod::kIndexNestedLoop:
          return "IndexNestedLoop";
        case JoinMethod::kPPkNestedLoop:
          return "PPkNestedLoop";
        case JoinMethod::kPPkIndexNestedLoop:
          return "PPkIndexNestedLoop";
        default:
          return "Auto";
      }
    });

TEST(ParallelParityTest, TinyBatchesThroughExchangesMatchSerial) {
  // Small widths stress the exchange path: scatter chunks carry one- and
  // three-row batches, workers see many tiny units, and the ordered
  // gather must still reassemble the exact serial output at every dop.
  RunningExample env(30, 3);
  for (const char* q : kParallelQueries) {
    auto reference = env.Run(q);
    ASSERT_TRUE(reference.ok());
    const std::string expected = xml::SerializeSequence(*reference);

    for (JoinMethod method :
         {JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
          JoinMethod::kPPkNestedLoop, JoinMethod::kPPkIndexNestedLoop}) {
      ExprPtr plan = CompileJoin(env, method, 20, q);
      MarkLargeClauses(*plan);
      for (int width : {1, 3}) {
        env.ctx.batch_size = width;
        for (int dop : {2, 8}) {
          env.ctx.max_query_dop = dop;
          auto parallel = Evaluate(*plan, env.ctx);
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
          EXPECT_EQ(expected, xml::SerializeSequence(*parallel))
              << q << " width=" << width << " dop=" << dop;
        }
      }
    }
  }
  env.ctx.batch_size = 1024;
  env.ctx.max_query_dop = 1;
}

TEST(ParallelParityTest, ParallelForScanMatchesSerial) {
  // Two cascaded for-scans (join introduction disabled) so the second
  // scan sits above a multi-tuple stream and parallelizes.
  RunningExample env(30, 3);
  auto parsed = xquery::ParseExpression(kJoinQuery);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  OptimizerOptions options;
  options.introduce_joins = false;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  ASSERT_TRUE(opt.Optimize(plan).ok());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*serial),
              xml::SerializeSequence(*parallel))
        << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
}

TEST(ParallelParityTest, ParallelGroupByMatchesSerial) {
  RunningExample env(30, 3);
  const char* q =
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
      "where $c/CID eq $o/CID "
      "group $o as $p by fn:data($c/CID) as $k "
      "return <G><K>{$k}</K><N>{fn:count($p)}</N></G>";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());
  MarkLargeClauses(*plan);

  env.ctx.max_query_dop = 1;
  auto serial = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int dop : {2, 8}) {
    env.ctx.max_query_dop = dop;
    auto parallel = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(xml::SerializeSequence(*serial),
              xml::SerializeSequence(*parallel))
        << "dop=" << dop;
  }
  env.ctx.max_query_dop = 1;
}

TEST(PhysicalParityTest, GroupByStreamingAndFallbackAcrossDrivers) {
  RunningExample env(20, 3);
  const char* q =
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "return <G>{$k}{fn:count($p)}</G>";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());

  auto streaming = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(streaming.ok());
  auto streamed_api = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(streamed_api.ok());

  for (auto& cl : plan->clauses) cl.pre_clustered = false;
  auto fallback = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(fallback.ok());
  auto fallback_streamed = CollectStream(*plan, env.ctx);
  ASSERT_TRUE(fallback_streamed.ok());

  const std::string expected = xml::SerializeSequence(*streaming);
  EXPECT_EQ(expected, xml::SerializeSequence(*streamed_api));
  EXPECT_EQ(expected, xml::SerializeSequence(*fallback));
  EXPECT_EQ(expected, xml::SerializeSequence(*fallback_streamed));
}

}  // namespace
}  // namespace aldsp::runtime
