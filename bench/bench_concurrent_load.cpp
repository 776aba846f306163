// Concurrent-load harness: captures a mixed workload (point lookups with
// varied literals, a cross-source join, an aggregate, two tenants) into
// the server's workload journal, then replays it closed-loop through
// ReplayWorkload at increasing simulated-client counts. Each level
// reports throughput, exact p50/p95/p99/p999 latency, shed counts and
// the admission gate's queue-wait percentiles — the offered load adapts
// to the service rate, so the level sweep shows where added concurrency
// stops buying throughput and starts buying tail latency, and how the
// admission gate converts scheduler oversubscription into bounded lane
// waits. A final mixed phase measures point-lookup p99 in isolation vs
// under a concurrent analytics barrage (the fairness headline: lookups
// must not starve behind scans). Results land in
// BENCH_concurrent_load.json. --smoke shrinks the data set, client
// levels and op counts for CI gates; it exits nonzero on replay errors,
// fingerprint mismatches, or a queue that failed to drain.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "examples/example_env.h"
#include "server/server.h"

namespace {

using namespace aldsp;

bool g_smoke = false;

struct LevelRow {
  int clients = 0;
  observability::ReplayReport report;
  server::AdmissionSnapshot admission;  // this level only (stats reset)
  int64_t drain_pool_queue_depth = 0;
};

struct MixedRow {
  int64_t isolated_p99_us = 0;
  int64_t mixed_p99_us = 0;
  double ratio = 0.0;
  int64_t lookup_ops = 0;
  int64_t analytics_ops = 0;
  int64_t analytics_sheds = 0;
};

// The capture phase: every statement shape the replay will round-robin.
// Literal variety keeps the plan cache honest (one statement fingerprint,
// several cache entries) and the two principals exercise the per-tenant
// attribution path under load. Running each shape also seeds
// stat_statements, which is what the admission gate classifies from.
int RunCaptureWorkload(server::DataServicePlatform& aldsp, int customers) {
  int ops = 0;
  for (int i = 1; i <= 8; ++i) {
    char cid[16];
    std::snprintf(cid, sizeof(cid), "CUST%03d", 1 + (i * 7) % customers);
    std::string q = "for $c in ns3:CUSTOMER() where $c/CID eq \"" +
                    std::string(cid) + "\" return fn:data($c/LAST_NAME)";
    if (auto r = aldsp.Execute(q); !r.ok()) return -1;
    ++ops;
  }
  const std::string join =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID "
      "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
  for (int i = 0; i < 2; ++i) {
    if (auto r = aldsp.Execute(join); !r.ok()) return -1;
    ++ops;
  }
  security::Principal alpha{"alpha", {"support"}};
  security::Principal beta{"beta", {"support"}};
  for (int i = 0; i < 2; ++i) {
    if (auto r = aldsp.ExecuteAs("fn:count(ns3:ORDER())", alpha); !r.ok()) {
      return -1;
    }
    ++ops;
    if (auto r = aldsp.ExecuteAs("fn:count(ns2:CREDIT_CARD())", beta);
        !r.ok()) {
      return -1;
    }
    ++ops;
  }
  return ops;
}

void WriteJson(const std::vector<LevelRow>& rows, const MixedRow& mixed,
               int customers, int capture_ops, int max_concurrent) {
  const char* path = "BENCH_concurrent_load.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"concurrent_load\",\"smoke\":%s,"
               "\"customers\":%d,\"capture_ops\":%d,"
               "\"max_concurrent_queries\":%d,\"rows\":[",
               g_smoke ? "true" : "false", customers, capture_ops,
               max_concurrent);
  for (size_t i = 0; i < rows.size(); ++i) {
    const observability::ReplayReport& r = rows[i].report;
    const server::AdmissionSnapshot& a = rows[i].admission;
    std::fprintf(
        f,
        "%s{\"clients\":%d,\"ops\":%lld,\"wall_ms\":%.1f,"
        "\"throughput_qps\":%.1f,\"mean_us\":%lld,\"p50_us\":%lld,"
        "\"p95_us\":%lld,\"p99_us\":%lld,\"p999_us\":%lld,\"max_us\":%lld,"
        "\"errors\":%lld,\"sheds\":%lld,\"fingerprint_mismatches\":%lld,"
        "\"plan_changes\":%lld,"
        "\"admitted\":%lld,\"admission_queued\":%lld,"
        "\"admission_wait_mean_us\":%lld,\"admission_wait_p95_us\":%lld,"
        "\"admission_wait_p99_us\":%lld,\"admission_wait_max_us\":%lld,"
        "\"drain_queue_depth\":%lld,\"drain_running\":%lld,"
        "\"drain_pool_queue_depth\":%lld}",
        i == 0 ? "" : ",", rows[i].clients, static_cast<long long>(r.ops),
        static_cast<double>(r.wall_micros) / 1000.0, r.throughput_qps,
        static_cast<long long>(r.mean_micros),
        static_cast<long long>(r.p50_micros),
        static_cast<long long>(r.p95_micros),
        static_cast<long long>(r.p99_micros),
        static_cast<long long>(r.p999_micros),
        static_cast<long long>(r.max_micros),
        static_cast<long long>(r.errors), static_cast<long long>(r.sheds),
        static_cast<long long>(r.fingerprint_mismatches),
        static_cast<long long>(r.plan_changes),
        static_cast<long long>(a.admitted), static_cast<long long>(a.queued),
        static_cast<long long>(a.wait.MeanMicros()),
        static_cast<long long>(a.wait.PercentileUpperMicros(0.95)),
        static_cast<long long>(a.wait.PercentileUpperMicros(0.99)),
        static_cast<long long>(a.wait.max_micros),
        static_cast<long long>(a.queue_depth),
        static_cast<long long>(a.running),
        static_cast<long long>(rows[i].drain_pool_queue_depth));
  }
  std::fprintf(f,
               "],\"mixed\":{\"isolated_lookup_p99_us\":%lld,"
               "\"mixed_lookup_p99_us\":%lld,\"ratio\":%.2f,"
               "\"lookup_ops\":%lld,\"analytics_ops\":%lld,"
               "\"analytics_sheds\":%lld}}\n",
               static_cast<long long>(mixed.isolated_p99_us),
               static_cast<long long>(mixed.mixed_p99_us), mixed.ratio,
               static_cast<long long>(mixed.lookup_ops),
               static_cast<long long>(mixed.analytics_ops),
               static_cast<long long>(mixed.analytics_sheds));
  std::fclose(f);
  std::printf("concurrent load grid written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // Plain main: accept --smoke, ignore google-benchmark flags the bench
  // runner passes to every target.
  int max_concurrent = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    // Tuning escape hatch: sweep the gate width (0 disables admission)
    // without a rebuild.
    if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      max_concurrent = std::atoi(argv[++i]);
    }
  }
  const int customers = g_smoke ? 30 : 60;
  const std::vector<int> client_levels =
      g_smoke ? std::vector<int>{2, 8} : std::vector<int>{4, 32, 256};
  const int64_t total_ops = g_smoke ? 60 : 900;

  // The concurrent serving plane, enabled: a handful of execution slots
  // absorbs any client count — the rest wait in weighted-fair lanes
  // instead of oversubscribing the scheduler. The analytics threshold
  // sits well above a point lookup and below the cross-source join, so
  // the capture workload classifies into both classes.
  server::ServerOptions options;
  options.max_concurrent_queries = max_concurrent;
  options.analytics_threshold_micros = 5'000;
  options.admission_queue_timeout_micros = 30'000'000;
  server::DataServicePlatform aldsp(options);
  examples::WireRunningExample(aldsp, customers);

  const int capture_ops = RunCaptureWorkload(aldsp, customers);
  if (capture_ops < 0) {
    std::fprintf(stderr, "bench: capture workload failed\n");
    return 1;
  }
  const std::vector<observability::WorkloadJournalEntry> entries =
      aldsp.workload_journal().Records();
  std::printf("captured %d ops (%zu journal entries)\n", capture_ops,
              entries.size());

  std::vector<LevelRow> rows;
  for (int clients : client_levels) {
    observability::ReplayOptions opts;
    opts.mode = observability::ReplayOptions::Mode::kClosedLoop;
    opts.clients = clients;
    opts.total_ops = total_ops;
    aldsp.admission().ResetStats();  // per-level wait percentiles
    LevelRow row;
    row.clients = clients;
    row.report = aldsp.ReplayWorkload(entries, opts);
    row.admission = aldsp.admission().Snapshot();
    row.drain_pool_queue_depth = aldsp.worker_pool().queue_depth();
    const observability::ReplayReport& r = row.report;
    std::printf(
        "clients=%-4d ops=%lld  %8.1f qps  p50=%lldus p99=%lldus "
        "p999=%lldus  wait_p99<=%lldus errors=%lld sheds=%lld "
        "mismatches=%lld\n",
        clients, static_cast<long long>(r.ops), r.throughput_qps,
        static_cast<long long>(r.p50_micros),
        static_cast<long long>(r.p99_micros),
        static_cast<long long>(r.p999_micros),
        static_cast<long long>(row.admission.wait.PercentileUpperMicros(0.99)),
        static_cast<long long>(r.errors), static_cast<long long>(r.sheds),
        static_cast<long long>(r.fingerprint_mismatches));
    if (r.errors > 0 || r.fingerprint_mismatches > 0) {
      std::fprintf(stderr, "bench: replay reported errors or mismatches\n");
      return 1;
    }
    // Drain check: with every replay client joined, nothing may still be
    // queued at (or admitted past) the gate.
    if (row.admission.queue_depth != 0 || row.admission.running != 0) {
      std::fprintf(stderr,
                   "bench: admission gate failed to drain (depth=%lld "
                   "running=%lld)\n",
                   static_cast<long long>(row.admission.queue_depth),
                   static_cast<long long>(row.admission.running));
      return 1;
    }
    rows.push_back(std::move(row));
  }

  // Mixed phase: the same point lookups, first alone, then against a
  // continuous analytics barrage. The analytics cap (auto:
  // max_concurrent - 1) keeps one slot reachable for lookups and the
  // interactive-first lane order dispatches them past queued scans, so
  // the lookup tail should degrade by a small factor, not starve.
  std::vector<observability::WorkloadJournalEntry> lookups;
  for (const auto& e : entries) {
    if (e.text.str().find("where $c/CID eq") != std::string::npos) {
      lookups.push_back(e);
    }
  }
  MixedRow mixed;
  if (!lookups.empty()) {
    const std::string analytics_q =
        "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
        "where $c/CID eq $cc/CID "
        "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
    observability::ReplayOptions opts;
    opts.mode = observability::ReplayOptions::Mode::kClosedLoop;
    opts.clients = 4;
    opts.total_ops = g_smoke ? 40 : 400;
    aldsp.SetWorkloadCapture(false);  // the phase must not journal itself

    observability::ReplayReport isolated = aldsp.ReplayWorkload(lookups, opts);

    std::atomic<bool> stop{false};
    std::atomic<int64_t> analytics_ops{0};
    std::atomic<int64_t> analytics_sheds{0};
    std::vector<std::thread> scanners;
    for (int t = 0; t < 2; ++t) {
      scanners.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          auto r = aldsp.Execute(analytics_q);
          analytics_ops.fetch_add(1, std::memory_order_relaxed);
          if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
            analytics_sheds.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    observability::ReplayReport under_load = aldsp.ReplayWorkload(lookups, opts);
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : scanners) t.join();
    aldsp.SetWorkloadCapture(true);

    mixed.isolated_p99_us = isolated.p99_micros;
    mixed.mixed_p99_us = under_load.p99_micros;
    mixed.ratio = isolated.p99_micros > 0
                      ? static_cast<double>(under_load.p99_micros) /
                            static_cast<double>(isolated.p99_micros)
                      : 0.0;
    mixed.lookup_ops = isolated.ops + under_load.ops;
    mixed.analytics_ops = analytics_ops.load();
    mixed.analytics_sheds = analytics_sheds.load();
    std::printf(
        "mixed: lookup p99 isolated=%lldus under-analytics=%lldus "
        "(%.2fx)  analytics_ops=%lld sheds=%lld\n",
        static_cast<long long>(mixed.isolated_p99_us),
        static_cast<long long>(mixed.mixed_p99_us), mixed.ratio,
        static_cast<long long>(mixed.analytics_ops),
        static_cast<long long>(mixed.analytics_sheds));
    if (isolated.errors > 0 || under_load.errors > 0) {
      std::fprintf(stderr, "bench: mixed phase reported errors\n");
      return 1;
    }
  }

  WriteJson(rows, mixed, customers, capture_ops,
            options.max_concurrent_queries);
  return 0;
}
