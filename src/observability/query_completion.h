#ifndef ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_
#define ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "observability/interned.h"

namespace aldsp::observability {

/// Characters of the text a log renders as a record's `query_head`.
inline constexpr size_t kRetainedTextChars = 80;

/// An execution's outcome as a retained record stores it: its status
/// code, spelled "ok" or the code's name where it is rendered or compared
/// with a string.
struct Outcome : ComparesAsString<Outcome> {
  StatusCode code = StatusCode::kOk;

  Outcome(StatusCode c = StatusCode::kOk)  // NOLINT(runtime/explicit)
      : code(c) {}
  const char* name() const {
    return code == StatusCode::kOk ? "ok" : StatusCodeName(code);
  }
  std::string_view view() const { return name(); }

  friend bool operator==(Outcome a, Outcome b) { return a.code == b.code; }
  friend bool operator!=(Outcome a, Outcome b) { return a.code != b.code; }
};

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
/// collectors unchanged). It owns no string: the text is the plan's
/// shared one, and the principal and the sources are interned, so a
/// retained completion is this fixed-size struct alone.
struct QueryCompletion {
  // Stamped by the execution audit log: its sequence number and the
  // FNV-1a hash of the full text (taken once, when the text was built).
  int64_t seq = 0;
  uint64_t query_hash = 0;
  uint64_t fingerprint = 0;            // plan fingerprint (plan version)
  uint64_t statement_fingerprint = 0;  // statement identity (0 if unknown)
  SharedText text;  // the full statement text, shared with its plan
  Tenant principal;  // anonymous when no principal ran it
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
  SourceSet sources;  // data services touched
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
  const char* outcome_name() const { return Outcome(outcome).name(); }
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_QUERY_COMPLETION_H_
