// Regenerates the paper's Tables 1 and 2: for every pushdown pattern
// (a)-(i) the benchmark prints the XQuery snippet and the generated
// Oracle SQL, then measures pushed vs mid-tier execution over a source
// with realistic round-trip costs. The paper's claim is structural —
// these patterns push — and quantitative: pushing beats shipping rows to
// the middleware.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "server/server.h"
#include "sql/dialect.h"
#include "tests/test_fixtures.h"

namespace {

using namespace aldsp;
using server::DataServicePlatform;

struct Pattern {
  const char* id;
  const char* query;
};

const Pattern kPatterns[] = {
    {"a:select-project",
     "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
     "return $c/FIRST_NAME"},
    {"b:inner-join",
     "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() where $c/CID eq $o/CID "
     "return <CUSTOMER_ORDER>{ $c/CID, $o/OID }</CUSTOMER_ORDER>"},
    {"c:outer-join",
     "for $c in ns3:CUSTOMER() return <CUSTOMER>{ $c/CID, "
     "for $o in ns3:ORDER() where $c/CID eq $o/CID return $o/OID "
     "}</CUSTOMER>"},
    {"d:if-then-else",
     "for $c in ns3:CUSTOMER() return <CUSTOMER>{ "
     "if ($c/CID eq \"CUST001\") then fn:data($c/FIRST_NAME) "
     "else fn:data($c/LAST_NAME) }</CUSTOMER>"},
    {"e:group-by-agg",
     "for $c in ns3:CUSTOMER() group $c as $p by $c/LAST_NAME as $l "
     "return <CUSTOMER>{ $l, fn:count($p) }</CUSTOMER>"},
    {"f:distinct",
     "for $c in ns3:CUSTOMER() group by $c/LAST_NAME as $l return $l"},
    {"g:outer-join-agg",
     "for $c in ns3:CUSTOMER() return <CUSTOMER>{ $c/CID }<ORDERS>{ "
     "fn:count(for $o in ns3:ORDER() where $o/CID eq $c/CID return $o) "
     "}</ORDERS></CUSTOMER>"},
    {"h:exists-semijoin",
     "for $c in ns3:CUSTOMER() "
     "where some $o in ns3:ORDER() satisfies $c/CID eq $o/CID "
     "return $c/CID"},
    {"i:subsequence",
     "let $cs := for $c in ns3:CUSTOMER() "
     "let $oc := fn:count(for $o in ns3:ORDER() where $c/CID eq $o/CID "
     "return $o) order by $oc descending "
     "return <CUSTOMER>{ fn:data($c/CID), $oc }</CUSTOMER> "
     "return subsequence($cs, 10, 20)"},
};

// Nested shapes that cannot push as one region: a key predicate on an
// unfolded view whose body also reads a second database, and a
// navigation call in `return` beside a literal `where`. Their predicates
// still reach the CUSTOMER scan (through the let-bound constructor, then
// the prefix fallback), so each read is reported with the statements and
// rows it costs the relational sources.
constexpr const char* kProfileView = R"(
declare function tns:getProfile() as element(PROFILE)* {
  for $c in ns3:CUSTOMER()
  return <PROFILE>
    <CID>{fn:data($c/CID)}</CID>
    <LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
    <ORDERS>{ns3:getORDER($c)}</ORDERS>
    <CREDIT_CARDS>{ns2:CREDIT_CARD()[CID eq $c/CID]}</CREDIT_CARDS>
  </PROFILE>
};
declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";

const Pattern kNestedShapes[] = {
    {"view-key-predicate", "tns:getProfileByID(\"CUST007\")"},
    {"nav-call-in-return",
     "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST007\" "
     "return <C>{fn:data($c/LAST_NAME)}{fn:count(ns3:getORDER($c))}</C>"},
};

constexpr int kCustomers = 500;

std::unique_ptr<DataServicePlatform> MakePlatform(bool pushdown) {
  auto platform = std::make_unique<DataServicePlatform>();
  platform->options().enable_pushdown = pushdown;
  auto db = std::shared_ptr<relational::Database>(
      testing::MakeCustomerDb(kCustomers, 3).release());
  db->latency_model().roundtrip_micros = 300;
  db->latency_model().per_row_micros = 0;
  db->latency_model().sleep = true;
  (void)platform->RegisterRelationalSource("ns3", db, "oracle");
  return platform;
}

// Adds the CREDIT_CARD database and the PROFILE view the nested shapes
// read.
std::unique_ptr<DataServicePlatform> MakeNestedPlatform(bool pushdown) {
  auto platform = MakePlatform(pushdown);
  auto cards = std::shared_ptr<relational::Database>(
      testing::MakeCreditCardDb(kCustomers).release());
  cards->latency_model() = {300, 0, true};
  (void)platform->RegisterRelationalSource("ns2", cards, "oracle");
  (void)platform->LoadDataService(kProfileView);
  return platform;
}

struct SourceCost {
  int64_t statements = 0;
  int64_t rows_shipped = 0;
};

// Statements and rows shipped by both databases for one execution.
SourceCost MeasureOnce(DataServicePlatform& platform, const char* query) {
  SourceCost cost;
  std::vector<relational::Database*> dbs;
  for (const char* id : {"customer_db", "billing_db"}) {
    relational::Database* db = platform.adaptors().FindDatabase(id);
    if (db == nullptr) continue;
    dbs.push_back(db);
    cost.statements -= db->stats().statements;
    cost.rows_shipped -= db->stats().rows_shipped;
  }
  (void)platform.Execute(query);
  for (relational::Database* db : dbs) {
    cost.statements += db->stats().statements;
    cost.rows_shipped += db->stats().rows_shipped;
  }
  return cost;
}

void CollectSql(const xquery::ExprPtr& e, std::string* out) {
  if (e->kind == xquery::ExprKind::kSqlQuery && e->sql && e->sql->select) {
    auto text = sql::RenderSql(*e->sql->select, sql::SqlDialect::kOracle);
    if (text.ok()) {
      if (!out->empty()) *out += "\n    ";
      *out += *text;
    }
  }
  xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
    if (c) CollectSql(c, out);
  });
}

void PrintGeneratedSql() {
  auto platform = MakePlatform(true);
  std::printf("=== Tables 1 & 2: generated SQL per pattern ===\n");
  for (const Pattern& p : kPatterns) {
    auto plan = platform->Prepare(p.query);
    if (!plan.ok()) {
      std::printf("[%s] COMPILE ERROR: %s\n", p.id,
                  plan.status().ToString().c_str());
      continue;
    }
    std::string sql;
    xquery::ExprPtr root = (*plan)->plan;
    CollectSql(root, &sql);
    std::printf("[%s]\n    %s\n", p.id, sql.empty() ? "(no SQL pushed)" : sql.c_str());
  }
  std::printf("================================================\n\n");
  std::printf("=== Nested shapes: generated SQL and source cost per read ===\n");
  auto nested = MakeNestedPlatform(true);
  auto midtier = MakeNestedPlatform(false);
  for (const Pattern& p : kNestedShapes) {
    auto plan = nested->Prepare(p.query);
    if (!plan.ok()) {
      std::printf("[%s] COMPILE ERROR: %s\n", p.id,
                  plan.status().ToString().c_str());
      continue;
    }
    std::string sql;
    xquery::ExprPtr root = (*plan)->plan;
    CollectSql(root, &sql);
    SourceCost pushed = MeasureOnce(*nested, p.query);
    SourceCost mid = MeasureOnce(*midtier, p.query);
    std::printf("[%s]\n    %s\n    pushed: %lld round trips, %lld rows "
                "shipped; mid-tier: %lld round trips, %lld rows shipped\n",
                p.id, sql.empty() ? "(no SQL pushed)" : sql.c_str(),
                static_cast<long long>(pushed.statements),
                static_cast<long long>(pushed.rows_shipped),
                static_cast<long long>(mid.statements),
                static_cast<long long>(mid.rows_shipped));
  }
  std::printf("=============================================================\n\n");
}

void BM_Pattern(benchmark::State& state, const char* query, bool pushdown) {
  auto platform = MakePlatform(pushdown);
  auto plan = platform->Prepare(query);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = platform->ExecutePlan(**plan);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r->size());
  }
  state.counters["sql_regions"] =
      static_cast<double>((*plan)->pushdown.regions_pushed +
                          (*plan)->pushdown.bare_scans_pushed);
}

void BM_Nested(benchmark::State& state, const char* query, bool pushdown) {
  auto platform = MakeNestedPlatform(pushdown);
  SourceCost cost;
  for (auto _ : state) {
    cost = MeasureOnce(*platform, query);
    benchmark::DoNotOptimize(cost);
  }
  state.counters["roundtrips"] = static_cast<double>(cost.statements);
  state.counters["rows_shipped"] = static_cast<double>(cost.rows_shipped);
}

void RegisterBenchmarks() {
  for (const Pattern& p : kPatterns) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Pattern_") + p.id + "/pushed").c_str(),
        [&p](benchmark::State& s) { BM_Pattern(s, p.query, true); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(
        (std::string("BM_Pattern_") + p.id + "/midtier").c_str(),
        [&p](benchmark::State& s) { BM_Pattern(s, p.query, false); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  for (const Pattern& p : kNestedShapes) {
    for (bool pushdown : {true, false}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_Nested_") + p.id +
           (pushdown ? "/pushed" : "/midtier"))
              .c_str(),
          [&p, pushdown](benchmark::State& s) {
            BM_Nested(s, p.query, pushdown);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintGeneratedSql();
  RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // One pushed run of every pattern through a shared platform, exported
  // as a machine-readable metrics artifact.
  auto platform = MakePlatform(true);
  for (const Pattern& p : kPatterns) {
    auto r = platform->Execute(p.query);
    if (!r.ok()) {
      std::printf("[%s] EXEC ERROR: %s\n", p.id,
                  r.status().ToString().c_str());
    }
  }
  bench::WriteBenchMetrics(*platform, "pushdown_patterns");
  return 0;
}
