#ifndef ALDSP_SERVER_ADMISSION_H_
#define ALDSP_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "observability/histogram.h"
#include "observability/json_util.h"
#include "observability/query_registry.h"

namespace aldsp::server {

/// Priority class of one execution at the admission gate. Interactive
/// (point-lookup-shaped) work takes any free slot; analytics
/// (scan/join-shaped) work is additionally capped so a burst of long
/// queries can never occupy every slot and starve millisecond lookups.
/// The server classifies from the statement's observed cost history
/// (stat_statements / plan-history baselines keyed by statement
/// fingerprint); statements with no history default to interactive and
/// are reclassified once their first executions land.
enum class QueryClass : int { kInteractive = 0, kAnalytics = 1 };

const char* QueryClassName(QueryClass cls);

struct AdmissionOptions {
  /// Executions allowed to run concurrently; arrivals beyond this queue
  /// in per-tenant weighted-fair lanes. <= 0 disables admission control
  /// entirely (every Admit returns immediately, the pre-admission
  /// behavior).
  int max_concurrent_queries = 0;
  /// Of the concurrent slots, how many analytics-class executions may
  /// hold at once. 0 auto-sizes to max(1, max_concurrent_queries - 1):
  /// at least one slot always stays reachable for interactive work.
  int max_concurrent_analytics = 0;
  /// Queued executions (across all lanes) beyond which new arrivals are
  /// shed immediately with kResourceExhausted instead of queueing.
  int max_queue_depth = 1024;
  /// Longest a query waits in its lane before it is shed with
  /// kResourceExhausted. <= 0 waits without a deadline.
  int64_t queue_timeout_micros = 2'000'000;
  /// Statements whose observed mean wall time is at least this are
  /// classified as analytics (the server consults stat_statements, then
  /// the plan-history baseline).
  int64_t analytics_threshold_micros = 25'000;
  /// Relative lane weights (share of admissions under contention);
  /// absent tenants weigh 1.0. Weights <= 0 are treated as 1.0.
  std::map<std::string, double> tenant_weights;
};

/// Point-in-time admission statistics for metrics export and benches.
struct AdmissionSnapshot {
  bool enabled = false;
  int max_concurrent_queries = 0;
  int max_concurrent_analytics = 0;
  // Gauges.
  int64_t running = 0;
  int64_t analytics_running = 0;
  int64_t queue_depth = 0;
  // Cumulative counters.
  int64_t admitted = 0;
  int64_t admitted_interactive = 0;
  int64_t admitted_analytics = 0;
  int64_t queued = 0;  // admissions that waited in a lane first
  int64_t shed_queue_full = 0;
  int64_t shed_timeout = 0;
  int64_t cancelled_while_queued = 0;
  /// Queue-wait latency of every admitted execution (0 for fast-path
  /// admissions), bucket-estimated percentiles via PercentileUpperMicros.
  observability::LatencyHistogram wait;
  struct TenantCounters {
    int64_t admitted = 0;
    int64_t queued = 0;
    int64_t shed = 0;
    double weight = 1.0;
  };
  std::map<std::string, TenantCounters> tenants;

  /// The "admission control" document of this snapshot.
  observability::SnapshotDoc Doc() const;
};

/// The server's execution front door (the concurrent serving plane): at
/// most `max_concurrent_queries` executions hold a slot; the rest wait
/// in per-tenant FIFO lanes scheduled by start-time-fair queueing (each
/// admission charges its lane 1/weight of virtual time; the nonempty
/// lane with the smallest virtual time dispatches next, and a lane that
/// went idle re-enters at the global virtual clock so it cannot hoard
/// credit). Within a lane, interactive arrivals dispatch before
/// analytics; across lanes the analytics cap bounds how many long
/// queries hold slots at once. Queue overflow and queue-wait timeout
/// shed with kResourceExhausted — a shed execution never starts, so it
/// can never return partial results.
///
/// Threading: Admit blocks the calling client thread (not a WorkerPool
/// thread — pool workers execute *inside* admitted queries, so parking
/// them here would deadlock the very pool admission protects). Waiters
/// poll their live-query control block while parked, so a CancelQuery
/// against a queued execution returns kCancelled within one poll slice.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  bool enabled() const { return options_.max_concurrent_queries > 0; }
  const AdmissionOptions& options() const { return options_; }
  int analytics_cap() const;

  struct Ticket {
    Status status;  // OK, kResourceExhausted (shed) or kCancelled
    int64_t wait_micros = 0;
    bool queued = false;  // waited in a lane before the verdict
    QueryClass cls = QueryClass::kInteractive;
  };

  /// Blocks until a slot is granted, the queue verdict is a shed, or the
  /// control block (optional, may be null) is cancelled. An OK ticket
  /// MUST be paired with exactly one Release(cls) when the execution
  /// finishes; non-OK tickets hold no slot.
  Ticket Admit(const std::string& tenant, QueryClass cls,
               const observability::QueryControl* ctl = nullptr);
  void Release(QueryClass cls);

  AdmissionSnapshot Snapshot() const;
  /// Zeroes the cumulative counters and the wait histogram (gauges and
  /// queued state are untouched). Benches use this to report per-level
  /// wait percentiles.
  void ResetStats();

 private:
  struct Waiter {
    enum class State { kWaiting, kAdmitted, kShed };
    State state = State::kWaiting;
    QueryClass cls = QueryClass::kInteractive;
    std::condition_variable cv;
  };
  struct Lane {
    double vtime = 0.0;
    /// One FIFO per class, indexed by QueryClass. Entries a timeout or
    /// cancel already shed stay queued (marked) until they surface.
    std::deque<std::shared_ptr<Waiter>> q[2];
  };

  double WeightFor(const std::string& tenant) const;
  /// Drops shed markers off the front of both class queues.
  static void PurgeLane(Lane* lane);
  /// Class of the lane's dispatchable head under the analytics cap, or
  /// -1 when the lane has nothing eligible. Call after PurgeLane.
  int EligibleHeadLocked(const Lane& lane) const;
  /// Grants slots to waiters while capacity and eligible heads remain.
  void DispatchLocked();
  void AdmitSlotLocked(QueryClass cls, const std::string& tenant,
                       bool queued, int64_t wait_micros);

  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Lane> lanes_;
  double virtual_time_ = 0.0;
  int64_t running_ = 0;
  int64_t analytics_running_ = 0;
  int64_t waiting_ = 0;
  int64_t admitted_ = 0;
  int64_t admitted_by_class_[2] = {0, 0};
  int64_t queued_total_ = 0;
  int64_t shed_queue_full_ = 0;
  int64_t shed_timeout_ = 0;
  int64_t cancelled_while_queued_ = 0;
  observability::LatencyHistogram wait_;
  std::map<std::string, AdmissionSnapshot::TenantCounters> tenant_counters_;
};

}  // namespace aldsp::server

#endif  // ALDSP_SERVER_ADMISSION_H_
