// Measures the §3.3 query-processing phases (parse, analyze, optimize,
// SQL pushdown) for the running example, and the plan cache of Fig. 2
// ("ALDSP maintains a query plan cache in order to avoid repeatedly
// compiling popular queries").

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "server/server.h"
#include "tests/test_fixtures.h"

namespace {

using namespace aldsp;
using server::DataServicePlatform;

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

std::unique_ptr<DataServicePlatform> MakePlatform() {
  auto platform = std::make_unique<DataServicePlatform>();
  auto db = std::shared_ptr<relational::Database>(
      testing::MakeCustomerDb(50, 3).release());
  (void)platform->RegisterRelationalSource("ns3", db, "oracle");
  (void)platform->LoadDataService(kProfileModule);
  return platform;
}

constexpr const char* kQuery = "tns:getProfileByID(\"CUST007\")";

void BM_FullCompile(benchmark::State& state) {
  auto platform = MakePlatform();
  for (auto _ : state) {
    platform->ClearPlanCache();
    platform->view_plan_cache().Clear();
    auto plan = platform->Prepare(kQuery);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    benchmark::DoNotOptimize(plan->get());
  }
}

void BM_CompileWithViewCache(benchmark::State& state) {
  auto platform = MakePlatform();
  (void)platform->Prepare(kQuery);  // warm the view plan cache
  for (auto _ : state) {
    platform->ClearPlanCache();  // but keep view plans
    auto plan = platform->Prepare(kQuery);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    benchmark::DoNotOptimize(plan->get());
  }
}

// A text miss of a known statement shape: the verified plan template is
// cloned and the new literal patched in, instead of analyze, optimize and
// pushdown. Every iteration prepares a literal no earlier one used.
void BM_RebindNewLiteral(benchmark::State& state) {
  auto platform = MakePlatform();
  // The first text becomes the shape's candidate, the second verifies it.
  (void)platform->Prepare("tns:getProfileByID(\"CUST001\")");
  (void)platform->Prepare("tns:getProfileByID(\"CUST002\")");
  int64_t key = 0;
  for (auto _ : state) {
    const std::string query =
        "tns:getProfileByID(\"K" + std::to_string(key++) + "\")";
    auto plan = platform->Prepare(query);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    if (!(*plan)->rebound) state.SkipWithError("plan was not rebound");
    benchmark::DoNotOptimize(plan->get());
  }
}

void BM_PlanCacheHit(benchmark::State& state) {
  auto platform = MakePlatform();
  (void)platform->Prepare(kQuery);
  for (auto _ : state) {
    auto plan = platform->Prepare(kQuery);
    if (!plan.ok()) state.SkipWithError(plan.status().ToString().c_str());
    benchmark::DoNotOptimize(plan->get());
  }
}

BENCHMARK(BM_FullCompile)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RebindNewLiteral)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompileWithViewCache)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PlanCacheHit)->Unit(benchmark::kMicrosecond);

void PrintPhaseBreakdown() {
  auto platform = MakePlatform();
  auto plan = platform->Prepare(kQuery);
  if (!plan.ok()) return;
  std::printf(
      "=== Compilation phase breakdown (paper §3.3) for %s ===\n"
      "  parse:     %6lld us\n"
      "  analyze:   %6lld us\n"
      "  optimize:  %6lld us\n"
      "  pushdown:  %6lld us\n"
      "  pushed regions: %d, bare scans: %d\n"
      "========================================================\n\n",
      kQuery, static_cast<long long>((*plan)->parse_micros),
      static_cast<long long>((*plan)->analyze_micros),
      static_cast<long long>((*plan)->optimize_micros),
      static_cast<long long>((*plan)->pushdown_micros),
      (*plan)->pushdown.regions_pushed, (*plan)->pushdown.bare_scans_pushed);
}

}  // namespace

int main(int argc, char** argv) {
  PrintPhaseBreakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
