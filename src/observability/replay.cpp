#include "observability/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

namespace aldsp::observability {

namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One replayed execution, accumulated per worker then merged.
struct Sample {
  size_t entry_index = 0;
  int64_t latency_micros = 0;
  bool ok = false;
  bool shed = false;
  bool statement_mismatch = false;
  bool plan_change = false;
};

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank + 0.5)];
}

}  // namespace

ReplayDriver::ReplayDriver(std::vector<WorkloadJournalEntry> entries,
                           ReplayExecutor executor)
    : entries_(std::move(entries)), executor_(std::move(executor)) {}

ReplayReport ReplayDriver::Run(const ReplayOptions& options) const {
  ReplayReport report;
  if (entries_.empty() || !executor_) return report;

  const bool open_loop = options.mode == ReplayOptions::Mode::kOpenLoop;
  const double speed = options.speed > 0 ? options.speed : 1.0;
  const int clients = std::max(1, options.clients);
  const int64_t total_ops =
      open_loop ? static_cast<int64_t>(entries_.size())
                : (options.total_ops > 0
                       ? options.total_ops
                       : static_cast<int64_t>(entries_.size()));

  // Open loop replays the capture's arrival process, so entries must be
  // issued in offset order regardless of journal order after an import.
  std::vector<size_t> order(entries_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (open_loop) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return entries_[a].offset_micros < entries_[b].offset_micros;
    });
  }

  std::atomic<int64_t> cursor{0};
  std::vector<std::vector<Sample>> worker_samples(
      static_cast<size_t>(clients));
  const int64_t epoch = SteadyNowMicros();

  auto worker = [&](int worker_index) {
    std::vector<Sample>& local = worker_samples[static_cast<size_t>(worker_index)];
    while (true) {
      const int64_t op = cursor.fetch_add(1, std::memory_order_relaxed);
      if (op >= total_ops) return;
      const size_t idx = order[static_cast<size_t>(op) % order.size()];
      const WorkloadJournalEntry& entry = entries_[idx];
      if (open_loop) {
        // Issue at the captured arrival offset, scaled. When every
        // worker is busy the op starts late and the extra wait is
        // charged to its latency below — the open-loop convention.
        const int64_t due =
            epoch + static_cast<int64_t>(
                        static_cast<double>(entry.offset_micros) / speed);
        const int64_t now = SteadyNowMicros();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::microseconds(due - now));
        }
      } else if (options.think_micros > 0 && !local.empty()) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options.think_micros));
      }
      Sample s;
      s.entry_index = idx;
      const int64_t t0 = SteadyNowMicros();
      ReplayExecution exec = executor_(entry);
      s.latency_micros = SteadyNowMicros() - t0;
      s.ok = exec.ok;
      s.shed = exec.shed;
      s.statement_mismatch = entry.statement_fingerprint != 0 &&
                             exec.statement_fingerprint != 0 &&
                             exec.statement_fingerprint !=
                                 entry.statement_fingerprint;
      s.plan_change = !s.statement_mismatch && entry.plan_fingerprint != 0 &&
                      exec.plan_fingerprint != 0 &&
                      exec.plan_fingerprint != entry.plan_fingerprint;
      local.push_back(s);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int i = 0; i < clients; ++i) threads.emplace_back(worker, i);
  for (std::thread& t : threads) t.join();
  report.wall_micros = std::max<int64_t>(1, SteadyNowMicros() - epoch);

  // Merge worker-local samples into the overall and per-statement views.
  struct StatementAgg {
    std::string query_head;
    int64_t captured_calls = 0;
    int64_t captured_wall = 0;
    int64_t replayed_calls = 0;
    int64_t replayed_wall = 0;
    int64_t errors = 0;
    int64_t sheds = 0;
    int64_t mismatches = 0;
    int64_t plan_changes = 0;
  };
  std::map<uint64_t, StatementAgg> per_statement;
  for (const WorkloadJournalEntry& e : entries_) {
    StatementAgg& agg = per_statement[e.statement_fingerprint];
    if (agg.query_head.empty()) agg.query_head = std::string(e.text.head(96));
    ++agg.captured_calls;
    agg.captured_wall += e.wall_micros;
  }
  std::vector<int64_t> latencies;
  int64_t latency_sum = 0;
  for (const auto& local : worker_samples) {
    for (const Sample& s : local) {
      ++report.ops;
      if (s.shed) {
        ++report.sheds;
      } else if (!s.ok) {
        ++report.errors;
      }
      if (s.statement_mismatch) ++report.fingerprint_mismatches;
      if (s.plan_change) ++report.plan_changes;
      latencies.push_back(s.latency_micros);
      latency_sum += s.latency_micros;
      StatementAgg& agg =
          per_statement[entries_[s.entry_index].statement_fingerprint];
      ++agg.replayed_calls;
      agg.replayed_wall += s.latency_micros;
      if (s.shed) {
        ++agg.sheds;
      } else if (!s.ok) {
        ++agg.errors;
      }
      if (s.statement_mismatch) ++agg.mismatches;
      if (s.plan_change) ++agg.plan_changes;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  report.p50_micros = Percentile(latencies, 0.50);
  report.p95_micros = Percentile(latencies, 0.95);
  report.p99_micros = Percentile(latencies, 0.99);
  report.p999_micros = Percentile(latencies, 0.999);
  report.max_micros = latencies.empty() ? 0 : latencies.back();
  report.mean_micros =
      report.ops == 0 ? 0 : latency_sum / std::max<int64_t>(1, report.ops);
  report.throughput_qps = 1e6 * static_cast<double>(report.ops) /
                          static_cast<double>(report.wall_micros);

  for (const auto& [fp, agg] : per_statement) {
    ReplayStatementReport s;
    s.statement_fingerprint = fp;
    s.query_head = agg.query_head;
    s.captured_calls = agg.captured_calls;
    s.replayed_calls = agg.replayed_calls;
    s.captured_mean_micros =
        agg.captured_calls == 0 ? 0 : agg.captured_wall / agg.captured_calls;
    s.replayed_mean_micros =
        agg.replayed_calls == 0 ? 0 : agg.replayed_wall / agg.replayed_calls;
    if (s.captured_mean_micros > 0 && s.replayed_calls > 0) {
      s.ratio = static_cast<double>(s.replayed_mean_micros) /
                static_cast<double>(s.captured_mean_micros);
    }
    // Same gate shape as the plan-history sentinel: enough calls on both
    // sides, and the replayed mean breaching ratio * captured mean.
    s.regressed = options.min_calls > 0 &&
                  s.captured_calls >= options.min_calls &&
                  s.replayed_calls >= options.min_calls &&
                  s.ratio >= options.ratio;
    s.errors = agg.errors;
    s.sheds = agg.sheds;
    s.fingerprint_mismatches = agg.mismatches;
    s.plan_changes = agg.plan_changes;
    report.statements.push_back(std::move(s));
  }
  std::sort(report.statements.begin(), report.statements.end(),
            [](const ReplayStatementReport& a, const ReplayStatementReport& b) {
              if (a.regressed != b.regressed) return a.regressed;
              if (a.ratio != b.ratio) return a.ratio > b.ratio;
              return a.statement_fingerprint < b.statement_fingerprint;
            });
  return report;
}

SnapshotDoc ReplayReport::Doc() const {
  using D = SnapshotDoc;
  D list = D::List();
  for (const ReplayStatementReport& s : statements) {
    list.Push(D::Object())
        .Add("statement_fingerprint", D::Fingerprint(s.statement_fingerprint))
        .Add("query_head", D::String(s.query_head))
        .Add("captured_calls", D::Int(s.captured_calls))
        .Add("replayed_calls", D::Int(s.replayed_calls))
        .Add("captured_mean_micros", D::Int(s.captured_mean_micros))
        .Add("replayed_mean_micros", D::Int(s.replayed_mean_micros))
        .Add("ratio", D::Real(s.ratio, 3))
        .Add("regressed", D::Bool(s.regressed))
        .Add("errors", D::Int(s.errors))
        .Add("sheds", D::Int(s.sheds))
        .Add("fingerprint_mismatches", D::Int(s.fingerprint_mismatches))
        .Add("plan_changes", D::Int(s.plan_changes));
  }
  return D::Object("replay")
      .Add("ops", D::Int(ops))
      .Add("errors", D::Int(errors))
      .Add("sheds", D::Int(sheds))
      .Add("fingerprint_mismatches", D::Int(fingerprint_mismatches))
      .Add("plan_changes", D::Int(plan_changes))
      .Add("wall_micros", D::Int(wall_micros))
      .Add("throughput_qps", D::Real(throughput_qps, 2))
      .Add("mean_micros", D::Int(mean_micros))
      .Add("p50_micros", D::Int(p50_micros))
      .Add("p95_micros", D::Int(p95_micros))
      .Add("p99_micros", D::Int(p99_micros))
      .Add("p999_micros", D::Int(p999_micros))
      .Add("max_micros", D::Int(max_micros))
      .Add("statements", std::move(list));
}

}  // namespace aldsp::observability
