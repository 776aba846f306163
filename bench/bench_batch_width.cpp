// Measures the vectorized batch runtime's throughput as a function of
// batch width on three engine-bound workloads over the running example.
// Source latency simulation is off and the source functions are served
// from a warmed function cache, so the numbers isolate per-row operator
// overhead rather than simulated network waits or per-run XML
// construction of the source tables:
//
//   scan_project — a relational scan pushed through a deep pipeline of
//                  kernel-evaluable `let` projections and a literal
//                  filter: seven operators per row, so the per-operator
//                  dispatch that batching amortizes dominates at width 1.
//   scan_filter  — two cascaded scans with a `where` comparison kept as a
//                  FilterOp (analyzer-only compile, no join introduction):
//                  the filter kernel + selection vector over a cross
//                  product, the widest stream in the plan.
//   group_by     — an order scan grouped by a kernel-evaluable key.
//
// Every width must produce byte-identical output (the run exits 1
// otherwise); batch_size=1 degenerates to row-at-a-time and is the
// baseline the speedup column divides by. After a warm-up pass, each of
// the repetitions visits every workload x width cell once, round-robin
// (bench_util.h MeasureInterleaved), so host drift spreads over all cells.
// BENCH_batch_width.json gets one row per cell: {workload, batch_size,
// ms (the median), min_ms, p90_ms, spread (interquartile range / median),
// speedup_vs_1 (of the medians)}, plus the repetition count and a host
// block.
//
//   bench_batch_width [--smoke] [--reps N]
//
// --smoke shrinks the data set, the width grid and the repetitions for CI
// gates. google-benchmark flags (--benchmark_*) are accepted and ignored.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/analyzer.h"
#include "runtime/evaluator.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace {

using aldsp::testing::RunningExample;
using namespace aldsp;

bool g_smoke = false;

struct Workload {
  const char* name;
  const char* query;
  int customers;        // full-size data set
  int smoke_customers;  // --smoke data set
};

const Workload kWorkloads[] = {
    {"scan_project",
     "for $c in ns3:CUSTOMER() "
     "let $id := $c/CID let $fn := $c/FIRST_NAME let $ln := $c/LAST_NAME "
     "where $ln eq \"Smith\" return $id",
     8000, 400},
    {"scan_filter",
     "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
     "where $c/CID eq $o/CID "
     "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>",
     300, 60},
    {"group_by",
     "for $o in ns3:ORDER() group $o as $p by $o/CID as $k "
     "return <G>{$k}{fn:count($p)}</G>",
     8000, 400},
};

// Analyzer-only compile: no optimizer pass, so the `where` clause lowers
// to a FilterOp instead of being folded into an introduced join.
xquery::ExprPtr Compile(RunningExample& env, const char* query) {
  auto parsed = xquery::ParseExpression(query);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench: %s\n", parsed.status().ToString().c_str());
    return nullptr;
  }
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  Status st = analyzer.Analyze(e, {});
  if (!st.ok()) {
    std::fprintf(stderr, "bench: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return e;
}

struct Prepared {
  const Workload* workload;
  std::unique_ptr<RunningExample> env;
  xquery::ExprPtr plan;
  std::string reference;  // result bytes at width 1
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      std::fprintf(stderr, "bench_batch_width: unknown argument %s\n",
                   argv[i]);
      return 2;
    }
  }
  if (reps <= 0) reps = g_smoke ? 2 : 9;
  const std::vector<int> widths =
      g_smoke ? std::vector<int>{1, 1024}
              : std::vector<int>{1, 4, 16, 64, 256, 1024, 4096};
  const std::string host = bench::HostJson();

  std::vector<Prepared> prepared;
  for (const Workload& w : kWorkloads) {
    Prepared p;
    p.workload = &w;
    p.env = std::make_unique<RunningExample>(
        g_smoke ? w.smoke_customers : w.customers, 3);
    p.plan = Compile(*p.env, w.query);
    if (p.plan == nullptr) return 1;
    // Serve the source tables from the function cache: the rows are read
    // once at warm-up and shared afterwards, so the sweep measures the
    // operator pipeline rather than source reads.
    p.env->cache.EnableFor("ns3:CUSTOMER", /*ttl_millis=*/3600000);
    p.env->cache.EnableFor("ns3:ORDER", /*ttl_millis=*/3600000);
    prepared.push_back(std::move(p));
  }

  // Cells in workload-major order; the rows keep that order.
  struct Cell {
    Prepared* p;
    int width;
  };
  std::vector<Cell> cells;
  for (Prepared& p : prepared) {
    for (int width : widths) cells.push_back({&p, width});
  }
  auto measure = [&](size_t c) -> double {
    Prepared& p = *cells[c].p;
    p.env->ctx.batch_size = cells[c].width;
    auto t0 = std::chrono::steady_clock::now();
    auto result = runtime::Evaluate(*p.plan, p.env->ctx);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "bench: %s: %s\n", p.workload->name,
                   result.status().ToString().c_str());
      return -1;
    }
    std::string out = xml::SerializeSequence(*result);
    if (cells[c].width == widths.front()) {
      if (p.reference.empty()) p.reference = std::move(out);
    } else if (out != p.reference) {
      std::fprintf(stderr, "bench: %s: width %d changed the result bytes\n",
                   p.workload->name, cells[c].width);
      return -1;
    }
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  std::vector<std::vector<double>> samples =
      bench::MeasureInterleaved(cells.size(), reps, measure);
  if (samples.empty()) return 1;

  const char* path = "BENCH_batch_width.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\"bench\":\"batch_width\",\"smoke\":%s,\"reps\":%d,%s,"
               "\"rows\":[",
               g_smoke ? "true" : "false", reps, host.c_str());
  double baseline_ms = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    bench::RepeatStats s = bench::Summarize(samples[c]);
    if (cells[c].width == widths.front()) baseline_ms = s.median;
    double speedup = s.median > 0 ? baseline_ms / s.median : 0;
    std::fprintf(f,
                 "%s{\"workload\":\"%s\",\"batch_size\":%d,\"ms\":%.3f,"
                 "\"min_ms\":%.3f,\"p90_ms\":%.3f,\"spread\":%.3f,"
                 "\"speedup_vs_1\":%.3f}",
                 c == 0 ? "" : ",", cells[c].p->workload->name, cells[c].width,
                 s.median, s.min, s.p90, s.spread, speedup);
    std::printf("  %-12s width=%-5d median %8.3f ms  min %8.3f  p90 %8.3f  "
                "spread %5.1f%%  speedup_vs_1=%.2fx\n",
                cells[c].p->workload->name, cells[c].width, s.median, s.min,
                s.p90, 100 * s.spread, speedup);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("batch width grid (%d interleaved repetitions) written to %s\n",
              reps, path);
  return 0;
}
