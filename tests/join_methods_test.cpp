#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp::runtime {
namespace {

using aldsp::testing::CompileJoin;
using aldsp::testing::kJoinQuery;
using aldsp::testing::RunningExample;
using optimizer::Optimizer;
using optimizer::OptimizerOptions;
using xquery::ExprPtr;
using xquery::JoinMethod;

class JoinMethodsTest : public ::testing::TestWithParam<JoinMethod> {};

TEST_P(JoinMethodsTest, AllMethodsProduceIdenticalResults) {
  RunningExample env(30, 3);
  auto reference = env.Run(kJoinQuery);  // naive nested iteration
  ASSERT_TRUE(reference.ok());
  ExprPtr plan = CompileJoin(env, GetParam());
  auto result = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                           << xquery::DebugString(*plan);
  EXPECT_EQ(xml::SerializeSequence(*reference),
            xml::SerializeSequence(*result))
      << "method: " << xquery::JoinMethodName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Repertoire, JoinMethodsTest,
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

TEST(PPkJoinTest, BlockCountMatchesCeilNOverK) {
  // Paper §4.2: PP-k issues one parameterized disjunctive query per block
  // of k outer tuples — 1/k as many round trips as row-at-a-time.
  for (int k : {1, 7, 20, 50}) {
    RunningExample env(30, 3);
    ExprPtr plan = CompileJoin(env, JoinMethod::kPPkIndexNestedLoop, k);
    env.customer_db->stats().Reset();
    env.stats.Reset();
    auto result = Evaluate(*plan, env.ctx);
    ASSERT_TRUE(result.ok());
    int64_t expected_blocks = (30 + k - 1) / k;
    EXPECT_EQ(env.stats.ppk_blocks.load(), expected_blocks) << "k=" << k;
    // Round trips: 1 scan of CUSTOMER + one fetch per block.
    EXPECT_EQ(env.customer_db->stats().statements.load(),
              1 + expected_blocks)
        << "k=" << k;
  }
}

TEST(PPkJoinTest, LeftOuterJoinViaPPk) {
  RunningExample env(8, 3);
  // Build: join with left_outer set (customers 4 and 8 have no orders).
  ExprPtr plan = CompileJoin(env, JoinMethod::kPPkIndexNestedLoop, 3);
  for (auto& cl : plan->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) cl.left_outer = true;
  }
  // Re-analyze after mutating the plan.
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  auto result = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 12 matched pairs + 2 unmatched customers.
  EXPECT_EQ(result->size(), 14u);
  size_t empty_orders = 0;
  for (const auto& item : *result) {
    if (item.node()->FirstChildNamed("O")->children().empty()) ++empty_orders;
  }
  EXPECT_EQ(empty_orders, 2u);
}

TEST(PPkJoinTest, DuplicateKeysDedupedInBlockFetch) {
  // Several left tuples in one block may share a key; the IN list must
  // not repeat parameters, and every left tuple still joins.
  RunningExample env(6, 3);
  // Join ORDER (left) back to CUSTOMER (right): many orders share a CID.
  const char* q =
      "for $o in ns3:ORDER(), $c in ns3:CUSTOMER() "
      "where $o/CID eq $c/CID "
      "return <X>{fn:data($o/OID)}{fn:data($c/LAST_NAME)}</X>";
  auto reference = env.Run(q);
  ASSERT_TRUE(reference.ok());
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  OptimizerOptions options;
  options.ppk_k = 4;
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  ASSERT_TRUE(opt.Optimize(plan).ok());
  auto result = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(xml::SerializeSequence(*reference),
            xml::SerializeSequence(*result));
}

TEST(GroupingTest, StreamingAndSortFallbackAgree) {
  RunningExample env(20, 3);
  // Group by primary key: optimizer marks pre-clustered (streaming).
  const char* q =
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "return <G>{$k}</G>";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());

  env.stats.Reset();
  auto streaming = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(streaming.ok());
  EXPECT_GT(env.stats.streaming_groups.load(), 0);
  EXPECT_EQ(env.stats.group_sort_fallbacks.load(), 0);

  // Force the fallback path and compare.
  for (auto& cl : plan->clauses) cl.pre_clustered = false;
  env.stats.Reset();
  auto fallback = Evaluate(*plan, env.ctx);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(env.stats.group_sort_fallbacks.load(), 1);
  EXPECT_EQ(xml::SerializeSequence(*streaming),
            xml::SerializeSequence(*fallback));
}

TEST(GroupingTest, StreamingUsesLessPeakMemory) {
  RunningExample env(200, 3);
  const char* q =
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "return fn:count($p)";
  auto parsed = xquery::ParseExpression(q);
  ASSERT_TRUE(parsed.ok());
  ExprPtr plan = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  ASSERT_TRUE(analyzer.Analyze(plan, {}).ok());
  Optimizer opt(&env.functions, &env.schemas, nullptr, {});
  ASSERT_TRUE(opt.Optimize(plan).ok());

  env.stats.Reset();
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());
  int64_t streaming_peak = env.stats.peak_operator_bytes.load();

  for (auto& cl : plan->clauses) cl.pre_clustered = false;
  env.stats.Reset();
  ASSERT_TRUE(Evaluate(*plan, env.ctx).ok());
  int64_t fallback_peak = env.stats.peak_operator_bytes.load();

  // Constant-memory streaming (one group at a time) vs full
  // materialization (paper §4.2).
  EXPECT_LT(streaming_peak, fallback_peak / 10);
}

}  // namespace
}  // namespace aldsp::runtime
