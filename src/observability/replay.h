#ifndef ALDSP_OBSERVABILITY_REPLAY_H_
#define ALDSP_OBSERVABILITY_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "observability/json_util.h"
#include "observability/workload_journal.h"

namespace aldsp::observability {

/// What executing one journal entry against the live server produced.
/// The executor reports the *live* fingerprints so the driver can verify
/// the replayed statement compiled into the same identity it had at
/// capture time (a changed statement fingerprint means the workload file
/// no longer matches the deployed services; a changed plan fingerprint
/// means the optimizer picked a different plan than the capture ran).
struct ReplayExecution {
  bool ok = false;
  /// The execution was refused or stopped by admission control / a memory
  /// budget (kResourceExhausted). Counted apart from errors: shed load is
  /// the server protecting itself, not the workload failing.
  bool shed = false;
  std::string outcome;  // "ok" or the failing status code name
  uint64_t statement_fingerprint = 0;
  uint64_t plan_fingerprint = 0;
  int64_t rows = 0;
};

/// Executes one captured statement against a live server. Supplied by the
/// caller (the server wraps Prepare + Execute) so this library stays
/// independent of the server layer; the driver wraps the call in its own
/// wall-clock measurement.
using ReplayExecutor =
    std::function<ReplayExecution(const WorkloadJournalEntry&)>;

struct ReplayOptions {
  enum class Mode {
    /// Honor the captured arrival offsets: entry i is issued at
    /// offset_micros / speed after the replay epoch, regardless of how
    /// long earlier entries take — offered load is fixed by the capture,
    /// and queueing shows up as latency (the throughput-measurement mode).
    kOpenLoop,
    /// N simulated clients issue statements back to back (plus think
    /// time), each taking the next entry from a shared cursor — offered
    /// load adapts to service rate (the saturation-measurement mode).
    kClosedLoop,
  };
  Mode mode = Mode::kClosedLoop;
  /// Open loop: arrival offsets are divided by this factor (2.0 replays
  /// the capture at twice the recorded rate). Must be > 0.
  double speed = 1.0;
  /// Worker threads. In closed loop this is the simulated client count;
  /// in open loop it bounds in-flight replays (arrivals queue behind the
  /// slowest when all workers are busy, and that wait is counted in the
  /// entry's replay latency, as a real client would experience it).
  int clients = 4;
  /// Closed loop: per-client pause between statements.
  int64_t think_micros = 0;
  /// Closed loop: total statements to issue (round-robin over the
  /// journal); <= 0 issues one pass. Open loop always issues one pass.
  int64_t total_ops = 0;
  /// Per-statement comparison gates, mirroring the plan-history
  /// regression sentinel's defaults: a statement is flagged as regressed
  /// when both sides carry at least `min_calls` executions and the
  /// replayed mean breaches `ratio` times the captured mean.
  int64_t min_calls = 8;
  double ratio = 1.5;
};

/// Per-statement latency comparison: the captured baseline vs the replay.
struct ReplayStatementReport {
  uint64_t statement_fingerprint = 0;
  std::string query_head;
  int64_t captured_calls = 0;
  int64_t replayed_calls = 0;
  int64_t captured_mean_micros = 0;
  int64_t replayed_mean_micros = 0;
  double ratio = 0.0;  // replayed mean / captured mean (0 when unknown)
  bool regressed = false;
  int64_t errors = 0;
  int64_t sheds = 0;  // kResourceExhausted outcomes, not counted as errors
  int64_t fingerprint_mismatches = 0;  // statement identity changed
  int64_t plan_changes = 0;            // same statement, different plan
};

struct ReplayReport {
  int64_t ops = 0;
  int64_t errors = 0;
  int64_t sheds = 0;  // admission/budget refusals (kResourceExhausted)
  int64_t fingerprint_mismatches = 0;
  int64_t plan_changes = 0;
  int64_t wall_micros = 0;    // replay wall clock, first issue to last finish
  double throughput_qps = 0;  // ops / wall seconds
  // Exact percentiles over every replayed execution's latency (which in
  // open loop includes time spent queued behind a busy worker).
  int64_t p50_micros = 0;
  int64_t p95_micros = 0;
  int64_t p99_micros = 0;
  int64_t p999_micros = 0;
  int64_t max_micros = 0;
  int64_t mean_micros = 0;
  /// Worst ratio first; statements the sentinel gates flagged lead.
  std::vector<ReplayStatementReport> statements;

  /// The "replay" document of this report.
  SnapshotDoc Doc() const;
};

/// Replays a captured workload journal through a ReplayExecutor and
/// reports throughput, tail latency and the per-statement comparison vs
/// the captured baseline. The driver runs its clients on its own
/// std::threads — deliberately *not* the server's WorkerPool, which is
/// part of the system under measurement.
class ReplayDriver {
 public:
  ReplayDriver(std::vector<WorkloadJournalEntry> entries,
               ReplayExecutor executor);

  /// Runs one replay. Thread-safe against nothing: one Run at a time.
  ReplayReport Run(const ReplayOptions& options) const;

 private:
  std::vector<WorkloadJournalEntry> entries_;
  ReplayExecutor executor_;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_REPLAY_H_
