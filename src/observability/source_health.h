#ifndef ALDSP_OBSERVABILITY_SOURCE_HEALTH_H_
#define ALDSP_OBSERVABILITY_SOURCE_HEALTH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "observability/json_util.h"

namespace aldsp::observability {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Consecutive failures (errors or timeouts) that trip the breaker.
  int failure_threshold = 5;
  /// How long an open breaker rejects before letting a probe through.
  int64_t open_cooldown_micros = 5'000'000;
  /// Consecutive half-open successes required to reclose.
  int half_open_successes = 2;
  /// Smoothing factor for the per-source EWMA latency.
  double ewma_alpha = 0.2;
};

struct SourceHealthSnapshot {
  std::string source;
  BreakerState state = BreakerState::kClosed;
  double ewma_latency_micros = 0;
  int64_t successes = 0;
  int64_t failures = 0;
  int64_t timeouts = 0;
  int64_t consecutive_failures = 0;
  int64_t trips = 0;  // number of closed/half-open -> open transitions
};

/// Per-source health scoreboard: EWMA latency, error/timeout counts, and
/// a three-state circuit breaker. The runtime consults `AllowRequest`
/// before every source interaction; `fn-bea:fail-over` / `fn-bea:timeout`
/// use the non-mutating `IsOpen` to skip a tripped primary immediately
/// instead of re-paying the timeout. Callers pass `now_micros` from a
/// steady clock so tests can drive cooldown expiry with a virtual clock.
class SourceHealthBoard {
 public:
  explicit SourceHealthBoard(BreakerOptions options = {})
      : options_(options) {}

  /// Non-mutating: would a request to `source` be rejected right now?
  /// Returns false once the open cooldown has elapsed (a probe would be
  /// admitted) and for unknown sources.
  bool IsOpen(const std::string& source, int64_t now_micros) const;

  /// Mutating admission gate. Open -> half-open once the cooldown has
  /// elapsed (the admitted request is the probe); rejects while the
  /// cooldown is still running. Closed and half-open admit.
  bool AllowRequest(const std::string& source, int64_t now_micros);

  void NoteSuccess(const std::string& source, int64_t latency_micros,
                   int64_t now_micros);
  void NoteFailure(const std::string& source, int64_t now_micros);
  void NoteTimeout(const std::string& source, int64_t now_micros);

  BreakerState StateOf(const std::string& source, int64_t now_micros) const;
  std::vector<SourceHealthSnapshot> GetSnapshot(int64_t now_micros) const;
  /// The "source health" document: `snap` (a GetSnapshot result) keyed by
  /// source name.
  static SnapshotDoc Doc(const std::vector<SourceHealthSnapshot>& snap);

  const BreakerOptions& options() const { return options_; }
  void Clear();

  /// Shifts the board's view of every caller-supplied `now_micros`
  /// forward, so tests can expire an open breaker's cooldown without
  /// sleeping through it.
  void AdvanceClockForTest(int64_t micros);

 private:
  struct Entry {
    BreakerState state = BreakerState::kClosed;
    double ewma_latency_micros = 0;
    bool has_ewma = false;
    int64_t successes = 0;
    int64_t failures = 0;
    int64_t timeouts = 0;
    int64_t consecutive_failures = 0;
    int64_t half_open_successes = 0;
    int64_t opened_at_micros = 0;
    int64_t trips = 0;
  };

  void NoteFailureLocked(Entry& entry, int64_t now_micros);

  BreakerOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  int64_t clock_skew_micros_ = 0;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_SOURCE_HEALTH_H_
