#ifndef ALDSP_RUNTIME_CONTEXT_H_
#define ALDSP_RUNTIME_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "compiler/function_table.h"
#include "observability/query_registry.h"
#include "observability/source_health.h"
#include "runtime/adaptor.h"
#include "runtime/function_cache.h"
#include "runtime/metrics.h"
#include "runtime/observed_cost.h"
#include "runtime/query_trace.h"
#include "runtime/tuple_repr.h"
#include "xml/value.h"

namespace aldsp::runtime {

class WorkerPool;

/// The one cooperative-cancellation checkpoint. Every poll site in the
/// runtime — operator Next/NextBatch, exchange chunk workers, the PP-k
/// block fetcher, external-function invocation — funnels through here so
/// the cancelled status (and its message) stays identical everywhere.
/// Two relaxed atomic loads when a control block is wired; free otherwise.
/// A memory-budget breach (flagged by QueryControl::NotePeakBytes when a
/// blocking operator's materialization crosses the per-query budget) fails
/// here with kResourceExhausted: same cooperative stop as a cancel, so the
/// query tears down through the normal Close/CancelAndWait paths and can
/// never return a partial result.
inline Status CheckCancelled(const observability::QueryControl* exec) {
  if (exec == nullptr) return Status::OK();
  if (exec->IsCancelled()) {
    return Status::Cancelled("query cancelled");
  }
  if (exec->BudgetBreached()) {
    return Status::ResourceExhausted(
        "query memory budget exceeded (budget=" +
        std::to_string(
            exec->memory_budget_bytes.load(std::memory_order_relaxed)) +
        " bytes, peak=" +
        std::to_string(exec->peak_bytes.load(std::memory_order_relaxed)) +
        " bytes)");
  }
  return Status::OK();
}

/// Counters the benchmarks and the (future) observed-cost optimizer read.
struct RuntimeStats {
  std::atomic<int64_t> source_invocations{0};
  std::atomic<int64_t> sql_pushdowns{0};
  std::atomic<int64_t> join_probe_rows{0};
  std::atomic<int64_t> ppk_blocks{0};
  std::atomic<int64_t> async_tasks{0};
  std::atomic<int64_t> timeouts_fired{0};
  std::atomic<int64_t> failovers_fired{0};
  std::atomic<int64_t> group_sort_fallbacks{0};
  std::atomic<int64_t> streaming_groups{0};
  /// Chunks shipped through exchange operators (scatter side).
  std::atomic<int64_t> exchange_chunks{0};
  /// Parallel fan-outs of independent let-bound source calls.
  std::atomic<int64_t> parallel_let_fanouts{0};
  /// Peak bytes materialized by a single blocking operator instance
  /// (group-by / sort / join build side) — the memory axis of the
  /// grouping and PP-k experiments.
  std::atomic<int64_t> peak_operator_bytes{0};
  /// Flat rows that built their child nodes during a query (xml/node.h):
  /// each is a plan step that lost the flat row form.
  std::atomic<int64_t> row_materializations{0};

  /// Zeroes every counter with explicit relaxed stores: counters are
  /// independent, so readers racing a Reset see each counter either
  /// before or after its store, never a torn value. Safe to call while
  /// queries run: NotePeakBytes revalidates against the reset generation
  /// after publishing, so a maximum it loaded before the reset cannot
  /// silently survive it.
  void Reset() {
    source_invocations.store(0, std::memory_order_relaxed);
    sql_pushdowns.store(0, std::memory_order_relaxed);
    join_probe_rows.store(0, std::memory_order_relaxed);
    ppk_blocks.store(0, std::memory_order_relaxed);
    async_tasks.store(0, std::memory_order_relaxed);
    timeouts_fired.store(0, std::memory_order_relaxed);
    failovers_fired.store(0, std::memory_order_relaxed);
    group_sort_fallbacks.store(0, std::memory_order_relaxed);
    streaming_groups.store(0, std::memory_order_relaxed);
    exchange_chunks.store(0, std::memory_order_relaxed);
    parallel_let_fanouts.store(0, std::memory_order_relaxed);
    peak_operator_bytes.store(0, std::memory_order_relaxed);
    row_materializations.store(0, std::memory_order_relaxed);
    reset_generation.fetch_add(1, std::memory_order_release);
  }

  /// Raises the peak-bytes watermark to `bytes` if larger. Tolerant of a
  /// concurrent Reset: after the CAS publishes, the generation is
  /// re-checked and the publish retried, so the watermark a racing Reset
  /// zeroed is re-applied (the operator reporting it is still live) and a
  /// stale pre-reset maximum is never left behind.
  void NotePeakBytes(int64_t bytes) {
    while (true) {
      uint64_t gen = reset_generation.load(std::memory_order_acquire);
      int64_t prev = peak_operator_bytes.load();
      while (bytes > prev &&
             !peak_operator_bytes.compare_exchange_weak(prev, bytes)) {
      }
      if (reset_generation.load(std::memory_order_acquire) == gen) return;
    }
  }

  /// Bumped by Reset so NotePeakBytes can detect one racing with it.
  std::atomic<uint64_t> reset_generation{0};
};

/// Everything the evaluator needs to execute a compiled plan: function
/// metadata, connected adaptors, the optional mid-tier function cache,
/// and tuning knobs.
struct RuntimeContext {
  const compiler::FunctionTable* functions = nullptr;
  const AdaptorRegistry* adaptors = nullptr;
  FunctionCache* function_cache = nullptr;   // optional
  RuntimeStats* stats = nullptr;             // optional
  ObservedCostModel* observed = nullptr;     // optional (§9 roadmap)
  /// Server-wide metrics export (optional): per-source latency samples.
  MetricsRegistry* metrics = nullptr;
  /// Per-execution profile (optional). Null for ordinary Execute calls:
  /// every instrumentation branch in the evaluator is guarded by this
  /// pointer, so disabled profiling costs nothing. ExecuteProfiled runs
  /// with a context copy pointing at a fresh trace.
  QueryTrace* trace = nullptr;
  /// Keep-alive for `trace` when the execution may outlive the caller's
  /// stack frame: fn-bea:timeout abandons its worker-pool task on the
  /// deadline, and the task runs to completion later holding a *copy* of
  /// this context. The copy's shared ownership keeps the trace (and the
  /// events the abandoned task still records, e.g. function-cache hits on
  /// the pool thread) valid until the task finishes.
  std::shared_ptr<QueryTrace> trace_owner;

  /// Live-query control block (optional, server-owned). Physical operators
  /// poll its cancel flag in NextBatch(), pool workers poll it per tuple,
  /// and the evaluator's FLWOR drive loops report progress (rows produced)
  /// through it. Same keep-alive pattern as trace/trace_owner: abandoned
  /// timeout tasks hold a context copy, so exec_owner keeps the block
  /// valid until the last task finishes.
  observability::QueryControl* exec = nullptr;
  std::shared_ptr<observability::QueryControl> exec_owner;

  /// Literal values of the query text a rebound plan serves, indexed by
  /// literal slot (xquery::SlotValues); null for a plan compiled from its
  /// own text. Slotted literals of the shared template tree read their
  /// values here (xquery::LiteralValue, relational::LiteralCell). Shared
  /// ownership for the same reason as trace_owner: an abandoned timeout
  /// task may still read them after the query returns.
  std::shared_ptr<const std::vector<xml::AtomicValue>> literals;

  /// Per-source health scoreboard with circuit breaking (optional,
  /// server-owned). The evaluator gates every source interaction through
  /// AllowRequest and reports NoteSuccess/NoteFailure/NoteTimeout;
  /// fn-bea:fail-over / fn-bea:timeout consult IsOpen to skip a tripped
  /// primary without re-paying its timeout.
  observability::SourceHealthBoard* health = nullptr;

  /// Bounded worker pool for fn-bea:async fan-out, timeout evaluation and
  /// PP-k block prefetch. Null falls back to the process-wide
  /// WorkerPool::Default(); the server wires its own pool (destroyed
  /// first, so abandoned timeout tasks join while sources are alive).
  WorkerPool* pool = nullptr;

  /// Maximum user-function call depth (recursion guard).
  int max_call_depth = 64;
  /// Representation for blocking-operator materialization (Fig. 4 knob).
  TupleRepr materialize_repr = TupleRepr::kArray;
  /// Double-buffer PP-k parameter blocks: overlap the next block's
  /// round trip with mid-tier consumption of the current one.
  bool ppk_prefetch = true;
  /// Outstanding PP-k block fetches when prefetching (the pipeline depth).
  /// 0 = adaptive: ask the ObservedCostModel per source (falls back to 1,
  /// the classic double buffer, with no observations). Capped at 8.
  int ppk_prefetch_depth = 0;
  /// Maximum degree of intra-query parallelism (exchange operators and
  /// partitioned join probes). 1 = serial execution; the server wires
  /// this to its worker-pool size by default.
  int max_query_dop = 1;
  /// Rows per TupleBatch flowing between physical operators (the
  /// vectorized runtime's unit of work: virtual dispatch, trace timing
  /// and cancellation polls amortize over this many rows). Clamped to
  /// [1, 16384] at Open; 1 degenerates to row-at-a-time execution.
  int batch_size = 1024;
};

}  // namespace aldsp::runtime

#endif  // ALDSP_RUNTIME_CONTEXT_H_
