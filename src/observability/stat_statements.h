#ifndef ALDSP_OBSERVABILITY_STAT_STATEMENTS_H_
#define ALDSP_OBSERVABILITY_STAT_STATEMENTS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "observability/histogram.h"
#include "observability/json_util.h"
#include "observability/query_completion.h"

namespace aldsp::observability {

/// Cumulative per-statement statistics (pg_stat_statements-style).
/// `fingerprint` tracks the most recently seen *plan* version for the
/// statement; the map key is the statement fingerprint when available.
struct StatementStats {
  uint64_t fingerprint = 0;            // latest plan fingerprint seen
  uint64_t statement_fingerprint = 0;  // identity (0 when unknown)
  std::string query_head;
  int64_t calls = 0;
  int64_t errors = 0;
  int64_t cancels = 0;
  int64_t sheds = 0;  // kResourceExhausted outcomes (admission / budget)
  int64_t total_wall_micros = 0;
  LatencyHistogram wall;  // mean + bucket-estimated p95
  int64_t rows_returned = 0;
  int64_t max_peak_bytes = 0;
  int64_t source_wait_micros = 0;
  int64_t compute_micros = 0;
  int64_t queue_wait_micros = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t function_cache_hits = 0;
  int64_t function_cache_misses = 0;

  double MeanWallMicros() const { return wall.MeanMicros(); }
  /// Upper bound of the histogram bucket containing the 95th percentile —
  /// the fixed-bucket histogram cannot produce an exact quantile.
  int64_t P95WallMicrosEstimate() const;
};

/// Bounded map of per-fingerprint cumulative stats. When full, recording a
/// new fingerprint evicts the entry with the smallest total wall time — the
/// statements that dominate the server are exactly the ones we must keep.
class StatStatements {
 public:
  static constexpr size_t kDefaultMaxEntries = 512;
  static constexpr size_t kQueryHeadChars = 120;

  explicit StatStatements(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// Folds one execution into its statement's entry (keyed on
  /// QueryCompletion::statement_key, so the history survives plan flips).
  void Record(const QueryCompletion& completion);
  void Reset();

  /// Mean wall micros of the entry keyed by `key` (a statement key), or
  /// -1 when unknown. The admission controller's cost-estimate lookup:
  /// one map find under the mutex, cheap enough for the execute front
  /// door.
  int64_t MeanWallMicrosFor(uint64_t key) const;

  /// Entries ordered by descending total wall time; top_k <= 0 returns all.
  std::vector<StatementStats> TopK(int top_k) const;
  int64_t entry_count() const;
  int64_t evictions() const;

  /// The "statement statistics" document of `top` (a TopK result).
  static SnapshotDoc Doc(const std::vector<StatementStats>& top,
                         int64_t entry_count, int64_t evictions);

 private:
  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, StatementStats> stats_;
  int64_t evictions_ = 0;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_STAT_STATEMENTS_H_
