#ifndef ALDSP_OBSERVABILITY_QUERY_REGISTRY_H_
#define ALDSP_OBSERVABILITY_QUERY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "observability/interned.h"
#include "observability/json_util.h"

namespace aldsp::observability {

/// Execution phases a query moves through. Stored as an int in QueryControl
/// so phase transitions are a single relaxed store.
enum class QueryPhase : int {
  kCompiling = 0,
  /// Waiting in an admission-control lane for a concurrency slot. Queued
  /// queries are registered (visible in LiveQueries*, cancellable) before
  /// they hold any execution resources.
  kQueued,
  kExecuting,
  kFinishing,
};

const char* QueryPhaseName(QueryPhase phase);

/// Shared control block for one in-flight query. The server hands a pointer
/// to this block to the runtime via RuntimeContext::exec; physical operators
/// poll `cancelled` at the top of NextBatch() and pool workers poll it per
/// tuple, so a CancelQuery() call propagates cooperatively within one
/// scheduling quantum. All fields are atomics: writers are the evaluator /
/// operator threads, readers are registry snapshots taken from other
/// threads.
///
/// Lifetime: the registry and the executing query both hold shared_ptr
/// references, so a snapshot or a cancel can never race with teardown.
struct QueryControl {
  uint64_t query_id = 0;
  uint64_t fingerprint = 0;            // plan fingerprint
  uint64_t statement_fingerprint = 0;  // statement identity (0 if unknown)
  Tenant tenant;             // the principal; rendered by its label
  SharedText text;           // the statement text, shared with the plan
  int64_t start_micros = 0;  // wall-clock epoch micros at registration

  std::atomic<bool> cancelled{false};
  std::atomic<int> phase{static_cast<int>(QueryPhase::kCompiling)};
  std::atomic<int64_t> rows_produced{0};
  std::atomic<int64_t> peak_bytes{0};
  /// Per-query memory budget in bytes (0 = unlimited), set by the server
  /// at admission. NotePeakBytes flips `budget_breached` when the peak
  /// crosses it; the runtime's cancellation funnel turns that flag into a
  /// kResourceExhausted failure at the next cooperative poll, so a breach
  /// fails fast instead of letting the operator keep materializing.
  std::atomic<int64_t> memory_budget_bytes{0};
  std::atomic<bool> budget_breached{false};

  bool IsCancelled() const {
    return cancelled.load(std::memory_order_relaxed);
  }
  bool BudgetBreached() const {
    return budget_breached.load(std::memory_order_relaxed);
  }
  void SetMemoryBudget(int64_t bytes) {
    memory_budget_bytes.store(bytes, std::memory_order_relaxed);
  }
  void SetPhase(QueryPhase p) {
    phase.store(static_cast<int>(p), std::memory_order_relaxed);
  }
  void AddRows(int64_t n) {
    rows_produced.fetch_add(n, std::memory_order_relaxed);
  }
  /// CAS-max, mirroring RuntimeStats::NotePeakBytes; also trips the
  /// budget-breached flag when a budget is set and exceeded.
  void NotePeakBytes(int64_t bytes) {
    int64_t prev = peak_bytes.load(std::memory_order_relaxed);
    while (bytes > prev && !peak_bytes.compare_exchange_weak(
                               prev, bytes, std::memory_order_relaxed)) {
    }
    const int64_t budget = memory_budget_bytes.load(std::memory_order_relaxed);
    if (budget > 0 && bytes > budget) {
      budget_breached.store(true, std::memory_order_relaxed);
    }
  }
};

/// Point-in-time copy of one live query, safe to render after the query
/// finished.
struct LiveQueryInfo {
  uint64_t query_id = 0;
  uint64_t fingerprint = 0;
  uint64_t statement_fingerprint = 0;
  std::string tenant;      // the principal's label
  std::string query_head;  // the first kQueryHeadChars of the text
  int64_t start_micros = 0;
  int64_t elapsed_micros = 0;
  QueryPhase phase = QueryPhase::kCompiling;
  int64_t rows_produced = 0;
  int64_t peak_bytes = 0;
  int64_t memory_budget_bytes = 0;  // 0 = unlimited
  bool budget_breached = false;
  bool cancel_requested = false;
};

/// Registry of in-flight queries. Register/Unregister bracket every observed
/// Execute* on the server; Cancel flips the cooperative flag on the matching
/// control block. The map is tiny (bounded by concurrent queries), so a
/// plain mutex is fine — the hot path per query is two map operations total.
class QueryRegistry {
 public:
  static constexpr size_t kQueryHeadChars = 120;

  /// Creates and registers a control block; assigns a fresh query id.
  /// `fingerprint` is the plan fingerprint, `statement_fingerprint` the
  /// statement identity (0 when the caller predates the split).
  std::shared_ptr<QueryControl> Register(uint64_t fingerprint,
                                         uint64_t statement_fingerprint,
                                         Tenant tenant, SharedText text);
  void Unregister(uint64_t query_id);

  /// Requests cooperative cancellation. Returns false if the id is not
  /// (or no longer) in flight.
  bool Cancel(uint64_t query_id);

  std::vector<LiveQueryInfo> Snapshot() const;

  /// The "live queries" document of `live` (a Snapshot result) and the
  /// registry's cumulative totals.
  static SnapshotDoc Doc(const std::vector<LiveQueryInfo>& live,
                         int64_t total_started, int64_t total_cancel_requests);

  /// Cumulative totals since construction.
  int64_t total_started() const {
    return total_started_.load(std::memory_order_relaxed);
  }
  int64_t total_cancel_requests() const {
    return total_cancels_.load(std::memory_order_relaxed);
  }
  int64_t live_count() const;
  /// High-water mark of concurrently live queries (server-wide).
  int64_t peak_live() const;

  /// Concurrency attribution per tenant: how many of its queries are in
  /// flight right now and the most that ever were at once. Entries stay
  /// after the tenant goes idle so the peak remains visible (the
  /// admission-control plane will key quotas off exactly these gauges).
  struct TenantGauge {
    int64_t in_flight = 0;
    int64_t peak_in_flight = 0;
  };
  std::map<std::string, TenantGauge> TenantGauges() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<QueryControl>> live_;
  std::map<std::string, TenantGauge> tenants_;
  int64_t peak_live_ = 0;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> total_started_{0};
  std::atomic<int64_t> total_cancels_{0};
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_QUERY_REGISTRY_H_
