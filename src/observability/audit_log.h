#ifndef ALDSP_OBSERVABILITY_AUDIT_LOG_H_
#define ALDSP_OBSERVABILITY_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "observability/bounded_ring.h"
#include "observability/json_util.h"
#include "observability/query_completion.h"

namespace aldsp::observability {

/// Bounded ring of the most recent execution completions, mirroring the
/// per-service invocation audits the ALDSP console surfaces. Each record
/// is the execution's QueryCompletion, which shares its plan's text; the
/// full history count survives eviction via `total_appended`.
class ExecutionAuditLog {
 public:
  explicit ExecutionAuditLog(size_t capacity = 1024) : ring_(capacity) {}

  /// Retains a copy of `completion` stamped with its sequence number and
  /// the hash of its full text, evicting the oldest record when full.
  /// Returns the assigned sequence number.
  int64_t Append(const QueryCompletion& completion);

  /// Oldest-to-newest copy of the retained records.
  std::vector<QueryCompletion> Records() const { return ring_.Records(); }
  int64_t total_appended() const { return ring_.total_appended(); }
  size_t capacity() const { return ring_.capacity(); }
  void Clear() { ring_.Clear(); }

  static uint64_t HashQuery(std::string_view text) { return Fnv1a(text); }
  /// The "execution audit" document: a list of `records` (a Records
  /// result), exported as JSON Lines, one record per line oldest first.
  /// A record's `query_head` is its text cut to kRetainedTextChars.
  static SnapshotDoc Doc(const std::vector<QueryCompletion>& records);

 private:
  BoundedRing<QueryCompletion> ring_;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_AUDIT_LOG_H_
