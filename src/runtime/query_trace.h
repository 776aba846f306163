#ifndef ALDSP_RUNTIME_QUERY_TRACE_H_
#define ALDSP_RUNTIME_QUERY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "observability/interned.h"
#include "observability/timeline.h"

namespace aldsp::runtime {

class ObservedCostModel;

/// Per-execution profile of one query run (the paper's §9 "instrumenting
/// the system" roadmap item, and the observability counterpart of the
/// §4.1 query-plan view). A trace records
///
///  - one *span* per plan-operator instance (FLWOR clause streams, the
///    enclosing FLWOR, the root query): operator kind, rows produced,
///    cumulative wall micros spent inside the operator (inclusive of its
///    inputs, EXPLAIN ANALYZE style), and bytes materialized by blocking
///    operators (join build sides, group-by, order-by);
///  - one *event* per source interaction: the SQL text pushed to a
///    relational source, PP-k block fetches, adaptor invocations,
///    function-cache hits/misses, async task launches, timeout and
///    fail-over firings. Events carry the rows transferred and the
///    round-trip micros (including a source's simulated latency when its
///    LatencyModel runs in virtual time).
///
/// A trace runs in one of two modes. kTimeline records the span tree and
/// the event list above plus a *timeline*: every span gets steady-clock
/// begin/end timestamps (relative to the trace's construction) and a
/// thread lane; operators mark first-row/last-row
/// production; pool-task spans record how long they sat queued before a
/// thread ran them; task joins record how long the waiting thread
/// stalled (kTaskWait events); relational source events split their
/// micros into round-trip vs per-row transfer. ExecuteProfiled and
/// slow-query promotion use kTimeline so the run can be rendered as a
/// critical-path report or exported as a Chrome trace_event JSON
/// document (see BuildTimeline and observability/{critical_path,
/// trace_export}). kCounters is the always-on observability mode:
/// BeginSpan returns -1 so operators keep their no-span fast path, and
/// AddEvent folds into per-kind atomic counters plus a touched-source
/// set — no span tree, no per-event strings, no mutex on the counter
/// path — cheap enough to leave on for every execution while still
/// feeding audit records (pushed-SQL count, cache hits, sources touched,
/// timeout/fail-over firings). The atomic tallies are maintained in
/// every mode, so CountEvents/SumEventMicros/SourcesTouched never scan
/// the event list. A null trace pointer still skips every
/// instrumentation branch. A trace must be thread-safe because
/// fn-bea:async and fn-bea:timeout evaluate subtrees on worker threads
/// that share the RuntimeContext.
///
/// Spans form a tree. Parentage is tracked per thread: a Scope pushes a
/// span onto the calling thread's stack, and spans/events created while
/// it is open attach to it. Worker threads re-establish the launching
/// thread's innermost span via the span id captured at launch.
class QueryTrace {
 public:
  enum class Mode { kCounters, kTimeline };

  explicit QueryTrace(Mode mode);
  Mode mode() const { return mode_; }
  /// True when the trace records the span tree and event list, with
  /// timestamps and lanes (kTimeline); false for counters only.
  bool has_timeline() const { return mode_ == Mode::kTimeline; }

  struct Span {
    int id = -1;
    int parent = -1;       // -1 = attached to the root listing
    std::string kind;      // "query", "flwor", "for $c", "join[ppk-inl] $o"
    std::string detail;    // method parameters, query text, ...
    int64_t rows = 0;      // tuples / items produced
    int64_t micros = 0;    // cumulative wall time (inclusive of inputs)
    int64_t bytes = 0;     // peak bytes materialized by this operator
    bool finished = false;
    // Timeline mode only (-1 otherwise): steady-clock micros relative to
    // the trace origin, and the thread lane the span was opened on.
    int64_t begin_micros = -1;
    int64_t end_micros = -1;
    int lane = -1;
    // Pool-task spans: micros spent queued before a thread ran the task.
    int64_t queue_micros = -1;
    // First/last row production marks (operators with a span).
    int64_t first_row_micros = -1;
    int64_t last_row_micros = -1;
  };

  enum class EventKind {
    kSql,             // pushed-down SQL statement (detail = SQL text)
    kPPkFetch,        // PP-k parameterized block fetch (detail = SQL text)
    kSourceInvoke,    // adaptor invocation (detail = function name)
    kCustomPushdown,  // pushed filter on a custom queryable source
    kCacheHit,        // function cache hit (no source round trip)
    kCacheMiss,       // function cache miss (invocation follows)
    kAsyncTask,       // fn-bea:async subtree hoisted to a worker thread
    kTimeout,         // fn-bea:timeout abandoned the primary
    kFailOver,        // fn-bea:fail-over / timeout took the alternate
    kTaskWait,        // calling thread blocked joining a pool task
  };
  static const char* EventKindName(EventKind kind);

  struct Event {
    EventKind kind = EventKind::kSourceInvoke;
    int span = -1;       // operator span the event occurred under
    std::string source;  // source id ("customer_db", "ratingWS", ...)
    std::string detail;  // SQL text / function name / message
    std::string table;   // non-empty when the event observed a table scan
    int64_t rows = 0;    // rows / items transferred
    int64_t micros = 0;  // round-trip time (virtual latency folded in)
    // Timeline mode only: completion timestamp (the event covers
    // [at - micros, at]) and the recording thread's lane.
    int64_t at_micros = -1;
    int lane = -1;
    // Relational source events: micros split into the LatencyModel
    // components. roundtrip < 0 means no split was recorded.
    int64_t roundtrip_micros = -1;
    int64_t transfer_micros = 0;
    // kTaskWait: the pool-task span the thread was joining.
    int ref_span = -1;
  };

  /// Opens a span whose parent is the calling thread's innermost open
  /// scope (or the root). Returns the span id.
  int BeginSpan(const std::string& kind, const std::string& detail = "");
  /// Opens a span under an explicit parent, ignoring the thread's scope
  /// stack. Used at async-launch points: the task span is created by the
  /// launching thread (so enqueue time is its begin) but runs elsewhere.
  int BeginSpanUnder(int parent, const std::string& kind,
                     const std::string& detail = "");
  /// Accumulates rows/micros onto a span (operators flush incrementally).
  void AddSpanMetrics(int id, int64_t rows, int64_t micros);
  /// Raises the span's materialized-bytes high-water mark.
  void AddSpanBytes(int id, int64_t bytes);
  /// Records how long a pool-task span sat queued before running.
  void SetSpanQueueMicros(int id, int64_t micros);
  /// Records when a span produced its first and most recent row
  /// (origin-relative micros).
  void SetSpanRowMarks(int id, int64_t first_micros, int64_t last_micros);
  void EndSpan(int id);

  /// Records a source-interaction event under the calling thread's
  /// innermost open span. `roundtrip_micros`/`transfer_micros` split
  /// `micros` into the LatencyModel components when the source is
  /// relational (-1 = unknown, whole duration counts as round trip).
  void AddEvent(EventKind kind, const std::string& source,
                const std::string& detail, int64_t rows, int64_t micros,
                const std::string& table = "", int64_t roundtrip_micros = -1,
                int64_t transfer_micros = 0);
  /// Timeline mode only (no-op otherwise): records that the calling
  /// thread just spent `micros` blocked joining pool-task span
  /// `ref_span`. The stall interval is [now - micros, now].
  void AddWaitEvent(int ref_span, int64_t micros, const std::string& detail);

  /// Micros elapsed since the trace was constructed (steady clock).
  int64_t NowRelMicros() const;
  /// Converts a steady-clock time point to origin-relative micros.
  int64_t RelMicros(std::chrono::steady_clock::time_point tp) const;

  /// Empty in counters mode.
  std::vector<Span> spans() const;
  /// Empty in counters mode.
  std::vector<Event> events() const;
  /// Per-kind atomic tally, O(1) in every mode.
  int64_t CountEvents(EventKind kind) const;
  /// Total micros attributed to events of `kind`, O(1) in every mode.
  int64_t SumEventMicros(EventKind kind) const;
  /// Flat rows that built their child nodes on a thread working for this
  /// trace (inside a Scope), every mode.
  int64_t RowMaterializations() const {
    return row_materializations_.load(std::memory_order_relaxed);
  }
  /// Sorted unique source ids touched by any recorded event (every
  /// mode). Function-cache hits count their source as touched even
  /// though no backend round trip happened.
  std::vector<std::string> SourcesTouched() const;
  /// The same sources, interned straight from the trace's set.
  observability::SourceSet SourceSetTouched() const;

  /// Converts a timeline-mode trace into the runtime-neutral model the
  /// observability consumers (critical path, Chrome export) operate on.
  /// Traces without timestamps degrade gracefully: spans land at ts 0
  /// with their cumulative micros as duration.
  observability::Timeline BuildTimeline() const;

  /// Replays the trace's source observations into the observed-cost
  /// model: SQL statements feed round-trip averages, and events that
  /// observed a full table scan feed cardinalities. This closes the §9
  /// observe -> optimize loop without any manual Record* calls: the next
  /// compilation of the same query consults these values.
  void FeedObservedCost(ObservedCostModel* model) const;

  /// RAII parent marker for the calling thread. Pass the span id that
  /// nested spans and events should attach to; -1 re-establishes the
  /// root (used by worker threads with an empty stack). While it is open,
  /// row materializations on the thread are charged to the trace.
  class Scope {
   public:
    Scope(const QueryTrace* trace, int span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const QueryTrace* trace_;
    std::atomic<int64_t>* outer_row_counter_;
  };
  /// The calling thread's innermost open span for `trace`, or -1.
  static int CurrentSpan(const QueryTrace* trace);

 private:
  static constexpr int kNumEventKinds =
      static_cast<int>(EventKind::kTaskWait) + 1;

  /// Lane index for the calling thread, registering it on first use.
  /// Requires mutex_ to be held.
  int LaneLocked();

  Mode mode_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Event> events_;
  // Timeline-mode lane registry: lane 0 is the constructing thread
  // ("main"), workers are named in registration order. Guarded by mutex_.
  std::map<std::thread::id, int> lanes_;
  std::vector<std::string> lane_names_;
  // Lock-free per-kind tallies plus a touched-source set updated only on
  // events that carry a source id. Maintained in every mode so the audit
  // path never scans the event list.
  std::atomic<int64_t> event_counts_[kNumEventKinds] = {};
  std::atomic<int64_t> event_micros_[kNumEventKinds] = {};
  mutable std::mutex sources_mutex_;
  std::set<std::string> sources_;
  mutable std::atomic<int64_t> row_materializations_{0};
};

}  // namespace aldsp::runtime

#endif  // ALDSP_RUNTIME_QUERY_TRACE_H_
