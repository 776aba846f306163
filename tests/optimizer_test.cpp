#include <gtest/gtest.h>

#include "optimizer/expr_utils.h"
#include "optimizer/optimizer.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp::optimizer {
namespace {

using aldsp::testing::RunningExample;
using xquery::Clause;
using xquery::ExprKind;
using xquery::ExprPtr;

// Parses + analyzes a query in the running-example environment.
ExprPtr Analyzed(RunningExample& env, const std::string& query) {
  auto parsed = xquery::ParseExpression(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExprPtr e = parsed.value();
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  Status st = analyzer.Analyze(e, {});
  EXPECT_TRUE(st.ok()) << st.ToString() << "\n" << bag.ToString();
  return e;
}

ExprPtr OptimizedExpr(RunningExample& env, const std::string& query,
                      OptimizerOptions options = {}) {
  ExprPtr e = Analyzed(env, query);
  Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  Status st = opt.Optimize(e);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\nquery: " << query;
  return e;
}

// Runs a query unoptimized and optimized; both must produce identical XML.
void ExpectEquivalent(RunningExample& env, const std::string& query,
                      OptimizerOptions options = {}) {
  auto plain = env.Run(query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString() << "\n" << query;
  ExprPtr optimized = OptimizedExpr(env, query, options);
  auto fast = runtime::Evaluate(*optimized, env.ctx);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString() << "\nplan: "
                         << xquery::DebugString(*optimized);
  EXPECT_EQ(xml::SerializeSequence(*plain), xml::SerializeSequence(*fast))
      << "query: " << query << "\nplan: " << xquery::DebugString(*optimized);
}

TEST(ExprUtilsTest, FreeVarsRespectScoping) {
  // $c is bound; $id and $other are free (parse-only: analysis would
  // reject the unbound variables).
  auto parsed = xquery::ParseExpression(
      "for $c in ns3:CUSTOMER() where $c/CID eq $id "
      "return ($c/LAST_NAME, $other)");
  ASSERT_TRUE(parsed.ok());
  auto free = FreeVars(**parsed);
  EXPECT_EQ(free.count("c"), 0u);
  EXPECT_EQ(free.count("id"), 1u);
  EXPECT_EQ(free.count("other"), 1u);
}

TEST(ExprUtilsTest, SubstituteRespectsShadowing) {
  auto parsed = xquery::ParseExpression(
      "($x, for $x in (1,2) return $x, $x)");
  ASSERT_TRUE(parsed.ok());
  ExprPtr e = *parsed;
  SubstituteVar(e, "x", xquery::MakeLiteral(xml::AtomicValue::Integer(9)));
  std::string printed = xquery::DebugString(*e);
  // Outer $x replaced; inner loop variable untouched.
  EXPECT_EQ(printed, "(9, for $x in (1, 2) return $x, 9)");
}

TEST(ExprUtilsTest, RenameBoundVarsMakesNamesUnique) {
  auto parsed = xquery::ParseExpression(
      "for $x in (1,2) let $y := $x return ($x, $y)");
  ASSERT_TRUE(parsed.ok());
  ExprPtr e = *parsed;
  int serial = 0;
  RenameBoundVars(e, &serial);
  EXPECT_EQ(serial, 2);
  std::string printed = xquery::DebugString(*e);
  EXPECT_NE(printed.find("x#0"), std::string::npos);
  EXPECT_NE(printed.find("y#1"), std::string::npos);
  EXPECT_EQ(FreeVars(*e).size(), 0u);
}

TEST(OptimizerTest, ConstantFolding) {
  RunningExample env;
  ExprPtr e = OptimizedExpr(env, "1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal.AsInteger(), 7);
  ExprPtr c = OptimizedExpr(env, "if (2 gt 1) then \"a\" else \"b\"");
  ASSERT_EQ(c->kind, ExprKind::kLiteral);
  EXPECT_EQ(c->literal.AsString(), "a");
}

TEST(OptimizerTest, SourceAccessElimination) {
  // The paper's §4.2 example: navigating into a constructed element must
  // drop the ORDERS construction so its source call is never made.
  RunningExample env(3);
  const char* q =
      "for $c in ns3:CUSTOMER() "
      "let $x := <CUSTOMER>"
      "<LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>"
      "<ORDERS>{ns3:getORDER($c)}</ORDERS>"
      "</CUSTOMER> "
      "return fn:data($x/LAST_NAME)";
  ExprPtr e = OptimizedExpr(env, q);
  EXPECT_FALSE(ContainsCallTo(*e, "ns3:getORDER"))
      << xquery::DebugString(*e);
  // And the optimized query still computes the right answer.
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  // No ORDER fetches happened.
  EXPECT_EQ(env.customer_db->stats().statements.load(), 1);
}

TEST(OptimizerTest, ViewUnfoldingPushesPredicateIntoView) {
  RunningExample env(5);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:names() as element(N)* {
  for $c in ns3:CUSTOMER()
  return <N><CID>{fn:data($c/CID)}</CID>
           <ORDERS>{ns3:getORDER($c)}</ORDERS></N>
};)")
                  .ok());
  // Selecting only CID through the view must not fetch orders.
  ExprPtr e = OptimizedExpr(env, "fn:data(tns:names()/CID)");
  EXPECT_FALSE(ContainsCallTo(*e, "tns:names")) << xquery::DebugString(*e);
  EXPECT_FALSE(ContainsCallTo(*e, "ns3:getORDER")) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 5u);
}

TEST(OptimizerTest, FilterOnViewBecomesWhere) {
  RunningExample env(5);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:all() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID></P>
};)")
                  .ok());
  ExprPtr e = OptimizedExpr(env, "tns:all()[CID eq \"CUST002\"]");
  // The filter should be rewritten into the FLWOR as a where clause.
  ASSERT_EQ(e->kind, ExprKind::kFLWOR) << xquery::DebugString(*e);
  bool has_where = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kWhere) has_where = true;
  }
  EXPECT_TRUE(has_where) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
}

TEST(OptimizerTest, JoinIntroduction) {
  RunningExample env(5);
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
                            "where $c/CID eq $o/CID "
                            "return <CO>{fn:data($o/OID)}</CO>",
                            [] {
                              OptimizerOptions o;
                              o.convert_ppk = false;  // keep a plain join
                              return o;
                            }());
  ASSERT_EQ(e->kind, ExprKind::kFLWOR);
  bool has_join = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kJoin) {
      has_join = true;
      EXPECT_EQ(cl.equi_keys.size(), 1u);
      EXPECT_FALSE(cl.left_outer);
    }
    EXPECT_NE(cl.kind, Clause::Kind::kWhere);  // consumed by the join
  }
  EXPECT_TRUE(has_join) << xquery::DebugString(*e);
}

TEST(OptimizerTest, PPkConversionForRelationalRightSide) {
  RunningExample env(5);
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
                            "where $c/CID eq $o/CID "
                            "return <CO>{fn:data($o/OID)}</CO>");
  bool has_ppk = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kJoin && cl.ppk_fetch != nullptr) {
      has_ppk = true;
      EXPECT_EQ(cl.method, xquery::JoinMethod::kPPkIndexNestedLoop);
      EXPECT_EQ(cl.ppk_block_size, 20);  // the paper's default k
      EXPECT_EQ(cl.ppk_fetch->in_column, "CID");
      EXPECT_EQ(cl.ppk_fetch->source, "customer_db");
    }
  }
  EXPECT_TRUE(has_ppk) << xquery::DebugString(*e);
  // Results equal the naive plan.
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 7u);  // 1+2+3+0+1 orders
}

TEST(OptimizerTest, InverseFunctionRewrite) {
  // The paper's §4.5 example: int2date($c/SINCE) gt $start becomes
  // $c/SINCE gt date2int($start) — pushable.
  RunningExample env(3);
  ExprPtr e = OptimizedExpr(
      env,
      "for $c in ns3:CUSTOMER() "
      "where ns1:int2date($c/SINCE) gt (\"2001-09-09T01:46:40\" cast as "
      "xs:dateTime) "
      "return fn:data($c/CID)");
  EXPECT_FALSE(ContainsCallTo(*e, "ns1:int2date")) << xquery::DebugString(*e);
  EXPECT_TRUE(ContainsCallTo(*e, "ns1:date2int")) << xquery::DebugString(*e);
  auto r = runtime::Evaluate(*e, env.ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // SINCE = 1000000000 + i*86400; threshold 1000000000 -> all 3 match.
  EXPECT_EQ(r->size(), 3u);
}

TEST(OptimizerTest, InverseCancellation) {
  RunningExample env;
  ExprPtr e = OptimizedExpr(env, "ns1:date2int(ns1:int2date(12345))");
  ASSERT_EQ(e->kind, ExprKind::kLiteral) << xquery::DebugString(*e);
  EXPECT_EQ(e->literal.AsInteger(), 12345);
}

TEST(OptimizerTest, ClusteringDetectionOnPrimaryKey) {
  RunningExample env(5);
  // Grouping by the scan's primary key: streaming group-by applies.
  ExprPtr e = OptimizedExpr(env,
                            "for $c in ns3:CUSTOMER() "
                            "group $c as $p by $c/CID as $k "
                            "return <G>{$k, fn:count($p)}</G>");
  bool clustered = false;
  for (const auto& cl : e->clauses) {
    if (cl.kind == Clause::Kind::kGroupBy) clustered = cl.pre_clustered;
  }
  EXPECT_TRUE(clustered) << xquery::DebugString(*e);
  // Grouping by LAST_NAME (non-key): must NOT be marked clustered.
  ExprPtr e2 = OptimizedExpr(env,
                             "for $c in ns3:CUSTOMER() "
                             "group $c as $p by $c/LAST_NAME as $k "
                             "return <G>{$k, fn:count($p)}</G>");
  for (const auto& cl : e2->clauses) {
    if (cl.kind == Clause::Kind::kGroupBy) {
      EXPECT_FALSE(cl.pre_clustered);
    }
  }
}

TEST(OptimizerTest, WhereConjunctsSettleInSourceOrder) {
  // Split conjuncts must reach a fixpoint: if placing one where clause
  // hoisted it past another at the same slot, the pair would swap on
  // every pass and the plan would depend on the pass budget's parity.
  RunningExample env(3);
  const std::vector<std::vector<std::string>> cases = {
      {"$c/CID eq \"CUST001\"", "$c/LAST_NAME eq \"Smith\""},
      {"$c/CID eq \"CUST001\"", "$c/LAST_NAME eq \"Smith\"",
       "$c/FIRST_NAME eq \"John\""},
  };
  for (const auto& conjuncts : cases) {
    std::string query = "for $c in ns3:CUSTOMER() where ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      query += (i == 0 ? "" : " and ") + conjuncts[i];
    }
    query += " return $c/FIRST_NAME";
    SCOPED_TRACE(query);
    std::vector<std::string> plans;
    for (int passes : {11, 12, 13}) {
      OptimizerOptions options;
      options.max_passes = passes;
      plans.push_back(xquery::DebugString(*OptimizedExpr(env, query, options)));
    }
    EXPECT_EQ(plans[0], plans[1]);
    EXPECT_EQ(plans[1], plans[2]);
    // Source order: each conjunct's column appears after the previous.
    size_t last = 0;
    for (const std::string column : {"CID", "LAST_NAME", "FIRST_NAME"}) {
      if (query.find(column + " eq") == std::string::npos) continue;
      size_t at = plans[0].find(column + " eq");
      ASSERT_NE(at, std::string::npos) << plans[0];
      EXPECT_GE(at, last) << plans[0];
      last = at;
    }
  }
}

TEST(OptimizerTest, ViewPlanCacheReusesPartialPlans) {
  RunningExample env(3);
  ASSERT_TRUE(env
                  .LoadModule(R"(
declare function tns:v() as element(P)* {
  for $c in ns3:CUSTOMER() return <P><CID>{fn:data($c/CID)}</CID></P>
};)")
                  .ok());
  ViewPlanCache cache;
  Optimizer opt(&env.functions, &env.schemas, &cache);
  ExprPtr q1 = Analyzed(env, "tns:v()[CID eq \"CUST001\"]");
  ASSERT_TRUE(opt.Optimize(q1).ok());
  EXPECT_EQ(cache.size(), 1u);
  int64_t misses_after_first = cache.misses();
  ExprPtr q2 = Analyzed(env, "tns:v()[CID eq \"CUST002\"]");
  ASSERT_TRUE(opt.Optimize(q2).ok());
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), misses_after_first);
}

TEST(OptimizerTest, EquivalenceSuite) {
  RunningExample env(8, 3);
  const char* queries[] = {
      // Plain scans and filters.
      "for $c in ns3:CUSTOMER() return fn:data($c/CID)",
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" return "
      "fn:data($c/FIRST_NAME)",
      "fn:data(ns3:CUSTOMER()[CID eq \"CUST003\"]/LAST_NAME)",
      // Joins (introduced + PP-k converted).
      "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() where $c/CID eq $o/CID "
      "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>",
      // Cross-database join.
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID "
      "return <X>{fn:data($c/CID)}{fn:data($cc/CCN)}</X>",
      // Group-by (pre-clustered and not).
      "for $c in ns3:CUSTOMER() group $c as $p by $c/LAST_NAME as $l "
      "order by $l return <G name=\"{$l}\">{fn:count($p)}</G>",
      "for $c in ns3:CUSTOMER() group $c as $p by $c/CID as $k "
      "order by $k return <G>{$k, fn:count($p)}</G>",
      // Nested construction with navigation functions.
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST003\" "
      "return <P><CID>{fn:data($c/CID)}</CID>"
      "<ORDERS>{ns3:getORDER($c)}</ORDERS></P>",
      // Order by + subsequence.
      "let $cs := for $c in ns3:CUSTOMER() order by $c/LAST_NAME "
      "return fn:data($c/CID) return subsequence($cs, 2, 3)",
      // Quantified.
      "for $c in ns3:CUSTOMER() "
      "where some $o in ns3:ORDER() satisfies $c/CID eq $o/CID "
      "return fn:data($c/CID)",
      // Conditional construction.
      "for $c in ns3:CUSTOMER() return <P><F?>{fn:data($c/FIRST_NAME)}</F>"
      "</P>",
      // Inverse functions.
      "for $c in ns3:CUSTOMER() "
      "where ns1:int2date($c/SINCE) gt ns1:int2date(1000086400) "
      "return fn:data($c/CID)",
  };
  for (const char* q : queries) {
    ExpectEquivalent(env, q);
  }
}

TEST(OptimizerTest, Figure3ProfileOptimizedEquivalence) {
  RunningExample env(4, 3);
  const char* module = R"(
declare function tns:getProfile() as element(PROFILE)* {
  for $CUSTOMER in ns3:CUSTOMER()
  return
    <PROFILE>
      <CID>{fn:data($CUSTOMER/CID)}</CID>
      <LAST_NAME>{ fn:data($CUSTOMER/LAST_NAME) }</LAST_NAME>
      <ORDERS>{ ns3:getORDER($CUSTOMER) }</ORDERS>
      <CREDIT_CARDS>{ ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID] }</CREDIT_CARDS>
    </PROFILE>
};
declare function tns:getProfileByID($id as xs:string)
    as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";
  ASSERT_TRUE(env.LoadModule(module).ok());
  ExpectEquivalent(env, "tns:getProfile()");
  ExpectEquivalent(env, "tns:getProfileByID(\"CUST002\")");
}

}  // namespace
}  // namespace aldsp::optimizer
