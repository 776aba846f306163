#ifndef ALDSP_OBSERVABILITY_SLOW_QUERY_LOG_H_
#define ALDSP_OBSERVABILITY_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "observability/bounded_ring.h"
#include "observability/json_util.h"
#include "observability/query_completion.h"

namespace aldsp::observability {

/// One retained slow execution: its completion plus the rendered
/// profile. The first slow run of a statement executes
/// under the cheap always-on counters trace, so its record carries a
/// counter summary only (`full_trace == false`) and promotes the
/// statement; later runs of a promoted statement — any literal variant —
/// execute under a timeline trace whose rendered profile is persisted
/// here. Profiles are stored as rendered strings so this library stays
/// independent of the runtime trace types.
struct SlowQueryRecord {
  int64_t seq = 0;
  QueryCompletion completion;  // its seq names the execution's audit record
  int64_t threshold_micros = 0;
  bool full_trace = false;
  std::string profile_text;  // rendered profile / counter summary
  std::string profile_json;
  std::string trace_json;  // Chrome trace_event JSON (timeline runs only)
};

/// Bounded ring of slow executions plus the promotion set that upgrades
/// repeat offenders from counters to full tracing. Promotion keys on the
/// statement key (QueryCompletion::statement_key), so literal variants
/// of a slow statement share it.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 64) : ring_(capacity) {}

  /// True if `statement_key` has already been seen slow (its next
  /// execution should run with a timeline trace).
  bool IsPromoted(uint64_t statement_key) const;
  void Promote(uint64_t statement_key);

  /// Retains a slow execution. With a rendered profile (the run kept its
  /// trace events) the record keeps it; with none, the record keeps a
  /// counter summary of `completion` and promotes its statement. Returns
  /// the assigned sequence number.
  int64_t Append(const QueryCompletion& completion, int64_t threshold_micros,
                 std::string profile_text = "", std::string profile_json = "",
                 std::string trace_json = "");

  std::vector<SlowQueryRecord> Records() const { return ring_.Records(); }
  int64_t total_appended() const { return ring_.total_appended(); }
  size_t capacity() const { return ring_.capacity(); }
  void Clear();

  /// The "slow queries" document: a list of `records` (a Records result,
  /// or a selection of it).
  static SnapshotDoc Doc(const std::vector<SlowQueryRecord>& records);

 private:
  // Promotion set cap: a rogue workload of unique slow statements must
  // not grow memory without bound; past the cap new statements stay
  // unpromoted (counter-level records are still appended).
  static constexpr size_t kMaxPromoted = 256;

  BoundedRing<SlowQueryRecord> ring_;
  mutable std::mutex promoted_mu_;
  std::unordered_set<uint64_t> promoted_;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_SLOW_QUERY_LOG_H_
