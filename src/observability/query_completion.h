#ifndef ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_
#define ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace aldsp::observability {

/// Characters of the text a log keeps when it retains a completion.
inline constexpr size_t kRetainedTextChars = 80;

/// The key a statement's observations share: its statement fingerprint,
/// or the plan fingerprint when the statement one is unknown (0).
inline uint64_t StatementKey(uint64_t statement_fingerprint,
                             uint64_t plan_fingerprint) {
  return statement_fingerprint != 0 ? statement_fingerprint
                                    : plan_fingerprint;
}

/// What one server execution did, refused or run: the server builds one
/// per execution and every observability sink reads it — the statement
/// statistics, the workload journal, the slow-query log, and the
/// execution audit log, which retains the completion itself as its
/// record (JSONL-serializable and flat, so it ships to external
/// collectors unchanged).
struct QueryCompletion {
  // Stamped by the execution audit log: its sequence number and the
  // FNV-1a hash of the full text.
  int64_t seq = 0;
  uint64_t query_hash = 0;
  uint64_t fingerprint = 0;            // plan fingerprint (plan version)
  uint64_t statement_fingerprint = 0;  // statement identity (0 if unknown)
  /// The statement text. In flight it is the full text; a log that
  /// retains the completion keeps only its head.
  std::string text;
  std::string principal;  // "" = anonymous
  StatusCode outcome = StatusCode::kOk;
  bool plan_cache_hit = false;
  /// Per-execution event tallies from the trace. One execution stays far
  /// below 2^31 events; 32 bits keep a retained completion no larger
  /// than the audit record it replaced.
  int32_t sql_pushdowns = 0;  // SQL, PP-k block and custom pushdown calls
  int32_t source_invocations = 0;
  int32_t function_cache_hits = 0;
  int32_t function_cache_misses = 0;
  int32_t timeouts = 0;
  int32_t failovers = 0;
  int32_t security_denials = 0;  // ACL refusal, or elements redacted
  std::vector<std::string> sources;  // data services touched, sorted unique
  int64_t rows_returned = 0;
  int64_t bytes_returned = 0;  // 0 when streamed (items are not retained)
  int64_t peak_bytes = 0;
  int64_t wall_micros = 0;  // evaluation time; the queue wait if refused
  // Wall-time split. Exact when the execution ran with a timeline trace
  // (critical-path attribution); estimated from the O(1) event tallies in
  // counters mode (queue_wait is then 0 — kTaskWait spans need timelines).
  int64_t source_wait_micros = 0;
  int64_t compute_micros = 0;
  int64_t queue_wait_micros = 0;
  int64_t compile_micros = 0;  // 0 on a plan-cache hit

  /// Cuts the text to its retained head, releasing the rest.
  void KeepTextHead() {
    if (text.size() <= kRetainedTextChars) return;
    text.resize(kRetainedTextChars);
    text.shrink_to_fit();
  }
  uint64_t statement_key() const {
    return StatementKey(statement_fingerprint, fingerprint);
  }
  /// Killed by a cancel, or refused/stopped by admission control or a
  /// memory budget (shed): both are counted apart from errors.
  bool cancelled() const { return outcome == StatusCode::kCancelled; }
  bool shed() const { return outcome == StatusCode::kResourceExhausted; }
  bool error() const {
    return outcome != StatusCode::kOk && !cancelled() && !shed();
  }
  /// "ok" or the failing status code name, as every export spells it.
  const char* outcome_name() const {
    return outcome == StatusCode::kOk ? "ok" : StatusCodeName(outcome);
  }
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_
