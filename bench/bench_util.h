#ifndef ALDSP_BENCH_BENCH_UTIL_H_
#define ALDSP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp::bench {

/// Builds a platform over a generated customer database with a
/// configurable source latency model (round-trip cost per statement and
/// per-row transfer cost) — the knobs that drive the paper's distributed
/// tradeoffs.
inline std::unique_ptr<server::DataServicePlatform> MakePlatform(
    int customers, int max_orders, int64_t roundtrip_micros,
    int64_t per_row_micros, bool sleep = true,
    const std::string& vendor = "oracle") {
  auto platform = std::make_unique<server::DataServicePlatform>();
  auto db = std::shared_ptr<relational::Database>(
      aldsp::testing::MakeCustomerDb(customers, max_orders).release());
  db->latency_model().roundtrip_micros = roundtrip_micros;
  db->latency_model().per_row_micros = per_row_micros;
  db->latency_model().sleep = sleep;
  (void)platform->RegisterRelationalSource("ns3", db, vendor);
  return platform;
}

inline relational::Database* CustomerDb(server::DataServicePlatform& p) {
  return p.adaptors().FindDatabase("customer_db");
}

/// Writes the platform's metrics snapshot (counters + per-source latency
/// histograms) to BENCH_<name>.json in the working directory, so bench
/// runs leave a machine-readable artifact next to the console output.
inline void WriteBenchMetrics(server::DataServicePlatform& platform,
                              const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = platform.MetricsJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("metrics snapshot written to %s\n", path.c_str());
}

/// Summary of one cell's repeated timings.
struct RepeatStats {
  double median = 0;
  double min = 0;
  double p90 = 0;
  double spread = 0;  // interquartile range / median
};

/// Linear-interpolation quantile of sorted samples, q in [0, 1].
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline RepeatStats Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  RepeatStats s;
  if (samples.empty()) return s;
  s.median = Quantile(samples, 0.5);
  s.min = samples.front();
  s.p90 = Quantile(samples, 0.9);
  const double iqr = Quantile(samples, 0.75) - Quantile(samples, 0.25);
  s.spread = s.median > 0 ? iqr / s.median : 0;
  return s;
}

/// Times every cell of a grid: one warm-up pass, then `reps` repetitions
/// that each visit every cell once, round-robin and starting one cell
/// later each time, so drift on a shared host lands on all cells alike
/// instead of on whole workloads. `measure(cell)` returns milliseconds, or
/// a negative value to stop. Returns samples[cell][rep], or nothing when
/// a measurement stopped the run.
template <typename Measure>
std::vector<std::vector<double>> MeasureInterleaved(size_t cells, int reps,
                                                    Measure&& measure) {
  std::vector<std::vector<double>> samples(cells);
  for (size_t c = 0; c < cells; ++c) {
    if (measure(c) < 0) return {};
  }
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < cells; ++i) {
      size_t c = (i + static_cast<size_t>(r)) % cells;
      double ms = measure(c);
      if (ms < 0) return {};
      samples[c].push_back(ms);
    }
  }
  return samples;
}

/// The `"host":{...}` member of an export: hardware threads, CPU model
/// and the one-minute load average when the run started.
inline std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  for (char& ch : model) {
    if (ch == '"' || ch == '\\') ch = ' ';
  }
  double load = -1;
  std::ifstream loadavg("/proc/loadavg");
  loadavg >> load;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"host\":{\"hardware_threads\":%u,\"cpu_model\":\"%s\","
                "\"loadavg_1m\":%.2f}",
                std::thread::hardware_concurrency(), model.c_str(), load);
  return buf;
}

}  // namespace aldsp::bench

#endif  // ALDSP_BENCH_BENCH_UTIL_H_
