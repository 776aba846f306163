// Measures the cost of the always-on observability plane on the PP-k
// join grid. The same streamed plan runs in five modes:
//
//   bare      no trace, no health board: the pre-observability path;
//   counters  the counters-mode QueryTrace plus the source-health board
//             (the always-on configuration);
//   journal   counters plus one workload-journal capture of the finished
//             run, as a server Execute pays it (budget: <= 1% of bare);
//   insight   counters plus the live query registry, a StatStatements
//             record and the plan lifecycle plane (budget: <= 5%);
//   timeline  the span/event trace with timestamps and lanes (only
//             promoted slow queries and explicit profiling pay it).
//
// After a warm-up pass, each repetition visits every roundtrip x k x
// mode cell once, round-robin (bench_util.h MeasureInterleaved), so host
// drift lands on all cells alike. Cells run mode-major: every run follows
// a run of another grid point's environment, so no mode inherits warmer
// caches than another. A mode's overhead in a repetition is its time
// against the bare run of the same grid point in that repetition; each
// row reports the median of those paired overheads and their
// interquartile range, the noise a budget must clear to be measurable.
// It also reports the planes' own calls (register, record, append,
// unregister; for counters and timeline only the completion's
// construction), timed apart from the evaluation, as a share of the bare
// run (`<mode>_plane_pct`), and the live heap one retained execution
// adds (its audit record, journal entry and redaction events) on the
// running-example server. Results land in
// BENCH_observability_overhead.json.
//
//   bench_observability_overhead [--smoke] [--reps N]
//
// --smoke shrinks the grid and the repetitions for CI gates.
// google-benchmark flags (--benchmark_*) are accepted and ignored.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/analyzer.h"
#include "examples/example_env.h"
#include "observability/plan_history.h"
#include "observability/query_registry.h"
#include "observability/source_health.h"
#include "observability/stat_statements.h"
#include "observability/workload_journal.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "runtime/query_trace.h"
#include "tests/e2e_fixture.h"

namespace {

using aldsp::testing::RunningExample;
using namespace aldsp;

constexpr const char* kJoinQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>";

constexpr int kCustomers = 200;
constexpr double kJournalBudgetPct = 1.0;
constexpr double kInsightBudgetPct = 5.0;

enum Mode { kBare, kCounters, kJournal, kInsight, kTimeline, kModes };
constexpr const char* kModeNames[kModes] = {"bare", "counters", "journal",
                                            "insight", "timeline"};

xquery::ExprPtr PlanWithK(RunningExample& env, int k) {
  auto parsed = xquery::ParseExpression(kJoinQuery);
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  (void)analyzer.Analyze(e, {});
  optimizer::OptimizerOptions options;
  options.ppk_k = k;
  options.cross_source_method = xquery::JoinMethod::kPPkIndexNestedLoop;
  options.convert_ppk = true;
  optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  (void)opt.Optimize(e);
  for (auto& cl : e->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) {
      cl.method = xquery::JoinMethod::kPPkIndexNestedLoop;
      cl.ppk_block_size = k;
    }
  }
  return e;
}

/// One roundtrip x k grid point: its environment, plan and the planes
/// the journal and insight modes feed.
struct GridPoint {
  int64_t roundtrip_us = 0;
  int k = 0;
  std::unique_ptr<RunningExample> env;
  xquery::ExprPtr plan;
  int64_t rows = 0;
  observability::SourceHealthBoard health;
  observability::QueryRegistry registry;
  observability::StatStatements stats;
  observability::PlanHistory history;
  observability::WorkloadJournal journal;
  /// Per run of each mode: microseconds spent in the planes' own calls
  /// (register, record, append, unregister), outside the evaluation.
  std::vector<double> plane_us[kModes];
};

/// Streams the plan once in `mode` and returns wall-clock milliseconds
/// (the planes' bookkeeping included), or -1 on failure. The sink only
/// counts, so the measured path is the runtime and its instrumentation
/// rather than serialization.
double RunOnce(GridPoint& g, Mode mode, const observability::SharedText& text) {
  RunningExample& env = *g.env;
  runtime::QueryTrace trace(mode == kTimeline
                                ? runtime::QueryTrace::Mode::kTimeline
                                : runtime::QueryTrace::Mode::kCounters);
  env.ctx.trace = mode == kBare ? nullptr : &trace;
  env.ctx.health = mode == kBare ? nullptr : &g.health;
  std::shared_ptr<observability::QueryControl> ctl;
  const auto t0 = std::chrono::steady_clock::now();
  if (mode == kInsight) {
    ctl = g.registry.Register(0xa1d5, 0x57a7, "bench", text);
    ctl->SetPhase(observability::QueryPhase::kExecuting);
    env.ctx.exec = ctl.get();
    g.history.RecordCompile(0x57a7, 0xa1d5, text, "bench-advice",
                            [] { return "bench-explain"; });
  }
  const auto evaluation_start = std::chrono::steady_clock::now();
  int64_t rows = 0;
  Status s = runtime::EvaluateStream(*g.plan, env.ctx, [&](const xml::Item&) {
    ++rows;
    return Status::OK();
  });
  const auto t1 = std::chrono::steady_clock::now();
  observability::QueryCompletion completion;
  completion.fingerprint = 0xa1d5;
  completion.statement_fingerprint = 0x57a7;
  completion.text = text;
  completion.wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  completion.rows_returned = rows;
  if (mode == kJournal) g.journal.Append(completion);
  if (mode == kInsight) {
    g.registry.Unregister(ctl->query_id);
    g.stats.Record(completion);
    (void)g.history.RecordExecution(0x57a7, 0xa1d5, completion.wall_micros);
  }
  const auto t2 = std::chrono::steady_clock::now();
  g.plane_us[mode].push_back(
      std::chrono::duration<double, std::micro>(evaluation_start - t0 + t2 - t1)
          .count());
  env.ctx.trace = nullptr;
  env.ctx.health = nullptr;
  env.ctx.exec = nullptr;
  if (!s.ok()) {
    std::fprintf(stderr, "bench: %s\n", s.ToString().c_str());
    return -1;
  }
  g.rows = rows;
  return std::chrono::duration<double, std::milli>(t2 - t0).count();
}

/// Live heap one retained profile read adds on the running-example
/// server, below every ring's capacity: read alternately as support (two
/// redaction events) and analyst, after a warm-up that compiles every
/// text and fills the per-statement state.
int64_t RetainedBytesPerExecution() {
  constexpr int kReads = 400;
  server::DataServicePlatform aldsp;
  constexpr int kProfiles = 10;
  examples::WireRunningExample(aldsp, kProfiles);
  if (!aldsp.LoadDataService(examples::ProfileDataService()).ok()) return -1;
  examples::AddProfilePolicies(aldsp);
  const security::Principal support{"sam", {"support"}};
  const security::Principal analyst{"amy", {"analyst", "admin"}};
  auto read = [&](int i) {
    char text[64];
    std::snprintf(text, sizeof(text), "tns:getProfileByID(\"CUST%03d\")",
                  i % kProfiles + 1);
    return aldsp.ExecuteAs(text, i % 2 == 0 ? support : analyst).ok();
  };
  for (int i = 0; i < 4 * kProfiles; ++i) {
    if (!read(i)) return -1;
  }
  aldsp.execution_audit().Clear();
  aldsp.workload_journal().Clear();
  aldsp.audit_log().Clear();
  const size_t before = mallinfo2().uordblks;
  for (int i = 0; i < kReads; ++i) {
    if (!read(i)) return -1;
  }
  const size_t after = mallinfo2().uordblks;
  return (static_cast<int64_t>(after) - static_cast<int64_t>(before)) / kReads;
}

/// Median and interquartile range of `samples`.
struct Paired {
  double median = 0;
  double iqr = 0;
};

Paired MedianAndIqr(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {bench::Quantile(samples, 0.5),
          bench::Quantile(samples, 0.75) - bench::Quantile(samples, 0.25)};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      std::fprintf(stderr,
                   "bench_observability_overhead: unknown argument %s\n",
                   argv[i]);
      return 2;
    }
  }
  if (reps <= 0) reps = smoke ? 2 : 15;
  // roundtrip 0 is the CPU-bound worst case for instrumentation overhead
  // (no source sleeps to hide it); the non-zero points mirror the PP-k
  // prefetch grid's LAN/WAN latencies.
  const std::vector<int64_t> roundtrips =
      smoke ? std::vector<int64_t>{0} : std::vector<int64_t>{0, 500, 2000};
  const std::vector<int> ks = smoke ? std::vector<int>{20}
                                    : std::vector<int>{10, 20, 50};
  const std::string host = bench::HostJson();
  // The plan's text, built once as Prepare builds it.
  const observability::SharedText text(kJoinQuery);

  std::vector<std::unique_ptr<GridPoint>> grid;
  for (int64_t roundtrip : roundtrips) {
    for (int k : ks) {
      auto g = std::make_unique<GridPoint>();
      g->roundtrip_us = roundtrip;
      g->k = k;
      g->env = std::make_unique<RunningExample>(kCustomers, 3);
      auto& latency = g->env->customer_db->latency_model();
      latency.roundtrip_micros = roundtrip;
      latency.per_row_micros = 2;
      latency.sleep = roundtrip > 0;
      g->plan = PlanWithK(*g->env, k);
      grid.push_back(std::move(g));
    }
  }
  // Cell m * points + p runs mode m on grid point p.
  const size_t points = grid.size();
  std::vector<std::vector<double>> samples =
      bench::MeasureInterleaved(points * kModes, reps, [&](size_t c) {
        return RunOnce(*grid[c % points], static_cast<Mode>(c / points), text);
      });
  if (samples.empty()) return 1;
  const int64_t retained_bytes = RetainedBytesPerExecution();
  if (retained_bytes < 0) return 1;

  const char* path = "BENCH_observability_overhead.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"observability_overhead\",\"smoke\":%s,"
               "\"customers\":%d,\"reps\":%d,%s,\"rows\":[",
               smoke ? "true" : "false", kCustomers, reps, host.c_str());
  // Per mode (counters..timeline): the paired overheads of every row, and
  // the widest interquartile range any row showed.
  std::vector<double> overheads[kModes];
  double widest_iqr[kModes] = {};
  double widest_plane_pct[kModes] = {};
  for (size_t p = 0; p < points; ++p) {
    const GridPoint& g = *grid[p];
    const std::vector<double>& bare = samples[kBare * points + p];
    std::fprintf(f,
                 "%s{\"roundtrip_us\":%lld,\"k\":%d,\"result_rows\":%lld,"
                 "\"bare_ms\":%.3f,\"bare_spread\":%.3f",
                 p == 0 ? "" : ",", static_cast<long long>(g.roundtrip_us),
                 g.k, static_cast<long long>(g.rows),
                 bench::Summarize(bare).median, bench::Summarize(bare).spread);
    std::printf("  roundtrip=%-5lld k=%-3d bare %8.3f ms",
                static_cast<long long>(g.roundtrip_us), g.k,
                bench::Summarize(bare).median);
    for (int m = kCounters; m < kModes; ++m) {
      const std::vector<double>& ms = samples[m * points + p];
      // The journal's cost is what capture adds to counters mode; the
      // other modes' is what they add to the bare run.
      const std::vector<double>& base =
          m == kJournal ? samples[kCounters * points + p] : bare;
      std::vector<double> pct;
      for (size_t r = 0; r < ms.size(); ++r) {
        pct.push_back(100.0 * (ms[r] - base[r]) / bare[r]);
      }
      const Paired o = MedianAndIqr(pct);
      overheads[m].push_back(o.median);
      widest_iqr[m] = std::max(widest_iqr[m], o.iqr);
      // The planes' own calls, timed apart from the evaluation: a cost
      // far below the run-to-run noise of the whole execution.
      const double plane_pct = 100.0 * MedianAndIqr(g.plane_us[m]).median /
                               (1000.0 * bench::Summarize(bare).median);
      widest_plane_pct[m] = std::max(widest_plane_pct[m], plane_pct);
      std::fprintf(f,
                   ",\"%s_ms\":%.3f,\"%s_overhead_pct\":%.2f,"
                   "\"%s_overhead_iqr_pct\":%.2f,\"%s_plane_pct\":%.4f",
                   kModeNames[m], bench::Summarize(ms).median, kModeNames[m],
                   o.median, kModeNames[m], o.iqr, kModeNames[m], plane_pct);
      std::printf("  %s %+6.2f%% (iqr %5.2f)", kModeNames[m], o.median, o.iqr);
    }
    std::fprintf(f, "}");
    std::printf("\n");
  }
  std::fprintf(f, "]");
  for (int m = kCounters; m < kModes; ++m) {
    const Paired across = MedianAndIqr(overheads[m]);
    std::fprintf(f,
                 ",\"median_%s_overhead_pct\":%.2f,"
                 "\"widest_%s_overhead_iqr_pct\":%.2f,"
                 "\"widest_%s_plane_pct\":%.4f",
                 kModeNames[m], across.median, kModeNames[m], widest_iqr[m],
                 kModeNames[m], widest_plane_pct[m]);
  }
  std::fprintf(f,
               ",\"journal_budget_pct\":%.1f,\"insight_budget_pct\":%.1f,"
               "\"retained_bytes_per_execution\":%lld}\n",
               kJournalBudgetPct, kInsightBudgetPct,
               static_cast<long long>(retained_bytes));
  std::fclose(f);
  for (Mode m : {kJournal, kInsight}) {
    std::printf("%s budget %.1f%%: median overhead %+.2f%%, widest iqr "
                "%.2f, own calls at most %.4f%%\n",
                kModeNames[m],
                m == kJournal ? kJournalBudgetPct : kInsightBudgetPct,
                MedianAndIqr(overheads[m]).median, widest_iqr[m],
                widest_plane_pct[m]);
  }
  std::printf("retained bytes per execution: %lld\n"
              "overhead grid (%d interleaved repetitions) written to %s\n",
              static_cast<long long>(retained_bytes), reps, path);
  return 0;
}
