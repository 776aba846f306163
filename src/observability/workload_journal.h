#ifndef ALDSP_OBSERVABILITY_WORKLOAD_JOURNAL_H_
#define ALDSP_OBSERVABILITY_WORKLOAD_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "observability/bounded_ring.h"
#include "observability/json_util.h"
#include "observability/query_completion.h"

namespace aldsp::observability {

/// One captured server execution: everything a replay driver needs to
/// re-issue the statement against a live server and compare the result
/// against the capture. `text` is the verbatim statement (replay needs
/// it to hit the same plan-cache entry); identity is carried by the two
/// fingerprints (literal-stripped statement hash + optimized-plan hash)
/// so the replay can verify it compiled the *same statement into the
/// same plan shape* rather than diffing query strings. Like the audit
/// record it owns no string: the text is shared with the plan, the
/// principal is interned, and the outcome is a status code whose name is
/// written at export.
struct WorkloadJournalEntry {
  int64_t seq = 0;            // assigned by the journal
  /// Arrival offset from the journal epoch (micros). An open-loop replay
  /// re-issues the statement at `offset_micros / speed` after its own
  /// epoch, reproducing the captured arrival process.
  int64_t offset_micros = 0;
  uint64_t statement_fingerprint = 0;
  uint64_t plan_fingerprint = 0;
  SharedText text;   // verbatim statement text
  Tenant principal;  // tenant attribution (anonymous when none)
  Outcome outcome;
  int64_t wall_micros = 0;
  int64_t rows = 0;
  int64_t peak_bytes = 0;
};

/// Bounded ring of captured executions (the workload capture plane): each
/// completion is reduced to the compact entry above. Appends are a short
/// mutex hold — one entry move, no rendering — so the capture cost on the
/// Execute hot path stays within the counters overhead budget; all
/// rendering happens against a snapshot copy.
///
/// The epoch is the steady-clock instant of the first append after
/// construction or Clear(), so offsets start near zero and survive a
/// JSONL round trip unchanged.
class WorkloadJournal {
 public:
  explicit WorkloadJournal(size_t capacity = 4096) : ring_(capacity) {}

  /// Captures `completion` as an entry stamped with its sequence number
  /// and arrival offset (now - epoch), evicting the oldest entry when
  /// full. Returns the sequence.
  int64_t Append(const QueryCompletion& completion);

  /// Oldest-to-newest copy of the retained entries.
  std::vector<WorkloadJournalEntry> Records() const { return ring_.Records(); }
  int64_t total_appended() const { return ring_.total_appended(); }
  size_t capacity() const { return ring_.capacity(); }

  /// Drops all entries and re-arms the epoch for a fresh capture.
  void Clear();

  /// The "workload journal" document: {"total_appended":N,"capacity":N,
  /// "retained":N,"entries":[...]}. Its "entries" member rendered as JSON
  /// Lines, one entry per line oldest first, is the export format.
  static SnapshotDoc Doc(const std::vector<WorkloadJournalEntry>& entries,
                         int64_t total_appended, size_t capacity);
  /// Parses a JSONL export back into entries (the import side of the
  /// capture -> export -> import -> replay round trip). Unknown keys
  /// are ignored; a malformed line, or an outcome that names no status
  /// code, fails the whole import.
  static Result<std::vector<WorkloadJournalEntry>> ParseJsonl(
      const std::string& jsonl);

 private:
  BoundedRing<WorkloadJournalEntry> ring_;
  int64_t epoch_micros_ = -1;  // armed on first append; guarded by ring_
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_WORKLOAD_JOURNAL_H_
