#ifndef ALDSP_OBSERVABILITY_PLAN_HISTORY_H_
#define ALDSP_OBSERVABILITY_PLAN_HISTORY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "observability/bounded_ring.h"
#include "observability/histogram.h"
#include "observability/json_util.h"

namespace aldsp::observability {

/// Why a compile produced a new plan version for a known statement.
enum class CompileTrigger : int {
  kColdCompile = 0,        // first compile of this statement
  kCacheEviction,          // recompile, advice inputs unchanged
  kCostModelAdviceChange,  // recompile after the ObservedCostModel's
                           // advice-relevant inputs changed
};

const char* CompileTriggerName(CompileTrigger t);

/// One plan version of a statement: the plan fingerprint the optimizer
/// produced, why it was produced, when it was active, and the latency
/// baseline accumulated while it ran. The EXPLAIN snapshot is retained
/// so a regression report can show what actually changed.
struct PlanVersion {
  uint64_t plan_fingerprint = 0;
  CompileTrigger trigger = CompileTrigger::kColdCompile;
  int64_t first_seen_micros = 0;  // wall-clock epoch micros at compile
  int64_t last_seen_micros = 0;   // last compile or execution
  int64_t compiles = 1;           // recompiles landing on this same shape
  int64_t calls = 0;              // executions recorded against it
  LatencyHistogram wall;          // per-version latency baseline
  std::string advice_snapshot;    // discretized cost-model inputs at compile
  std::string explain_text;       // rendered EXPLAIN at compile time
  bool regressed = false;         // sentinel already fired for this version
};

/// Bounded, oldest-first ring of plan versions for one statement.
struct StatementHistory {
  uint64_t statement_fingerprint = 0;
  std::string query_head;
  int64_t plan_changes = 0;  // version transitions, including rolled-off ones
  std::vector<PlanVersion> versions;
};

/// Emitted when a new plan version's latency baseline breaches the prior
/// version's. `explain_diff` is filled by the server (which owns the
/// EXPLAIN diff renderer) before the event is published back into the
/// history's regression ring.
struct PlanRegressionEvent {
  int64_t seq = 0;  // assigned by PublishRegression
  uint64_t statement_fingerprint = 0;
  std::string query_head;
  uint64_t regressed_plan_fingerprint = 0;
  uint64_t baseline_plan_fingerprint = 0;
  CompileTrigger trigger = CompileTrigger::kColdCompile;  // of the new plan
  int64_t regressed_calls = 0;
  int64_t baseline_calls = 0;
  int64_t regressed_mean_micros = 0;
  int64_t baseline_mean_micros = 0;
  int64_t regressed_p95_micros = 0;  // bucket-upper estimates
  int64_t baseline_p95_micros = 0;
  double ratio = 0.0;  // worst of mean / p95 ratios that tripped the check
  std::string regressed_explain;
  std::string baseline_explain;
  std::string explain_diff;  // structural EXPLAIN diff (server-rendered)
};

struct PlanHistoryOptions {
  size_t max_statements = 256;
  size_t max_versions_per_statement = 8;
  /// Calls a new version and its predecessor must each accumulate before
  /// the sentinel compares baselines.
  int64_t sentinel_min_calls = 8;
  /// Breach threshold: new mean >= ratio * old mean, or new p95-upper >=
  /// ratio * old p95-upper.
  double sentinel_ratio = 1.5;
  size_t max_regressions = 64;
};

/// Plan lifecycle plane: per-statement bounded rings of plan versions with
/// compile-trigger attribution, per-version latency baselines, and a
/// regression sentinel. PlanFingerprint hashes the plan *shape*, so when
/// the ObservedCostModel flips a plan the cumulative stats would silently
/// fork without this map from statement identity to its plan versions.
///
/// The sentinel protocol is split so this library stays independent of
/// the server's EXPLAIN renderer: RecordExecution returns a breach event
/// carrying both versions' EXPLAIN snapshots; the caller renders the diff
/// and hands the completed event back via PublishRegression.
class PlanHistory {
 public:
  explicit PlanHistory(PlanHistoryOptions options = {})
      : options_(options), regressions_(options.max_regressions) {}

  /// Records a compile of `statement_fp` that produced `plan_fp`. The
  /// trigger is attributed internally: unknown statement -> cold compile;
  /// known statement with a new plan fingerprint -> cost-model-advice
  /// change when `advice_snapshot` differs from the previous version's,
  /// cache eviction otherwise. A recompile landing on the latest
  /// version's fingerprint only touches that version. `render_explain`
  /// is called (under the history's lock) only when a new version is
  /// started, so a recompile onto the same plan renders nothing.
  void RecordCompile(uint64_t statement_fp, uint64_t plan_fp,
                     const std::string& query_head,
                     const std::string& advice_snapshot,
                     const std::function<std::string()>& render_explain);

  /// Records one finished execution against the statement's matching plan
  /// version. When the latest version and its predecessor both carry at
  /// least sentinel_min_calls calls and the latest breaches the ratio,
  /// returns the (un-published) regression event exactly once per
  /// version; the caller should render the EXPLAIN diff and call
  /// PublishRegression.
  std::optional<PlanRegressionEvent> RecordExecution(uint64_t statement_fp,
                                                     uint64_t plan_fp,
                                                     int64_t wall_micros);

  /// Appends a completed regression event to the bounded ring and assigns
  /// its sequence number. Returns the assigned sequence.
  int64_t PublishRegression(PlanRegressionEvent event);

  std::optional<StatementHistory> Statement(uint64_t statement_fp) const;
  /// All tracked statements, ordered by descending plan_changes then
  /// statement fingerprint (the statements that flip most float up).
  std::vector<StatementHistory> Snapshot() const;
  std::vector<PlanRegressionEvent> Regressions() const {
    return regressions_.Records();
  }

  int64_t statement_count() const;
  int64_t statement_evictions() const;
  int64_t plan_changes_total() const;
  int64_t regressions_total() const { return regressions_.total_appended(); }

  void Reset();

  /// The "plan history" document of `statements` (a Snapshot result, or
  /// one Statement) and the history's totals.
  static SnapshotDoc HistoryDoc(const std::vector<StatementHistory>& statements,
                                int64_t statement_count,
                                int64_t statement_evictions,
                                int64_t plan_changes_total);
  /// The "plan regressions" document of `events` (a Regressions result).
  static SnapshotDoc RegressionsDoc(
      const std::vector<PlanRegressionEvent>& events,
      int64_t regressions_total);

 private:
  StatementHistory* FindOrCreateLocked(uint64_t statement_fp,
                                       const std::string& query_head);

  const PlanHistoryOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, StatementHistory> statements_;
  int64_t statement_evictions_ = 0;
  int64_t plan_changes_total_ = 0;
  BoundedRing<PlanRegressionEvent> regressions_;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_PLAN_HISTORY_H_
