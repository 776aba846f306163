#include "runtime/query_trace.h"

#include <algorithm>

#include "runtime/observed_cost.h"
#include "xml/node.h"

namespace aldsp::runtime {

namespace {

// Per-thread stack of (trace, span) scopes. Keyed by trace instance so
// concurrent traced executions on the same thread pool cannot observe
// each other's parents.
thread_local std::vector<std::pair<const QueryTrace*, int>> tls_scope_stack;

}  // namespace

const char* QueryTrace::EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSql:
      return "sql";
    case EventKind::kPPkFetch:
      return "ppk-fetch";
    case EventKind::kSourceInvoke:
      return "invoke";
    case EventKind::kCustomPushdown:
      return "custom-pushdown";
    case EventKind::kCacheHit:
      return "cache-hit";
    case EventKind::kCacheMiss:
      return "cache-miss";
    case EventKind::kAsyncTask:
      return "async-task";
    case EventKind::kTimeout:
      return "timeout";
    case EventKind::kFailOver:
      return "fail-over";
    case EventKind::kTaskWait:
      return "task-wait";
  }
  return "?";
}

QueryTrace::QueryTrace(Mode mode)
    : mode_(mode), origin_(std::chrono::steady_clock::now()) {
  if (has_timeline()) {
    // Lane 0 is the thread that owns the execution (the driving thread).
    lanes_[std::this_thread::get_id()] = 0;
    lane_names_.push_back("main");
  }
}

QueryTrace::Scope::Scope(const QueryTrace* trace, int span)
    : trace_(trace),
      outer_row_counter_(xml::SetThreadRowMaterializationCounter(
          &trace->row_materializations_)) {
  tls_scope_stack.emplace_back(trace, span);
}

QueryTrace::Scope::~Scope() {
  xml::SetThreadRowMaterializationCounter(outer_row_counter_);
  // Scopes nest strictly, so the matching entry is on top.
  for (auto it = tls_scope_stack.rbegin(); it != tls_scope_stack.rend();
       ++it) {
    if (it->first == trace_) {
      tls_scope_stack.erase(std::next(it).base());
      break;
    }
  }
}

int QueryTrace::CurrentSpan(const QueryTrace* trace) {
  for (auto it = tls_scope_stack.rbegin(); it != tls_scope_stack.rend();
       ++it) {
    if (it->first == trace) return it->second;
  }
  return -1;
}

int64_t QueryTrace::NowRelMicros() const {
  return RelMicros(std::chrono::steady_clock::now());
}

int64_t QueryTrace::RelMicros(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - origin_)
      .count();
}

int QueryTrace::LaneLocked() {
  auto [it, inserted] =
      lanes_.try_emplace(std::this_thread::get_id(),
                         static_cast<int>(lane_names_.size()));
  if (inserted) {
    lane_names_.push_back("worker-" + std::to_string(it->second));
  }
  return it->second;
}

int QueryTrace::BeginSpan(const std::string& kind,
                          const std::string& detail) {
  return BeginSpanUnder(CurrentSpan(this), kind, detail);
}

int QueryTrace::BeginSpanUnder(int parent, const std::string& kind,
                               const std::string& detail) {
  // Counters mode keeps operators on their span-less fast path.
  if (mode_ == Mode::kCounters) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.kind = kind;
  span.detail = detail;
  if (has_timeline()) {
    span.begin_micros = NowRelMicros();
    span.lane = LaneLocked();
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void QueryTrace::AddSpanMetrics(int id, int64_t rows, int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].rows += rows;
  spans_[id].micros += micros;
}

void QueryTrace::AddSpanBytes(int id, int64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  if (bytes > spans_[id].bytes) spans_[id].bytes = bytes;
}

void QueryTrace::SetSpanQueueMicros(int id, int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].queue_micros = std::max<int64_t>(micros, 0);
  if (has_timeline()) {
    // The task is now running here: re-home the span to the thread that
    // actually executes it so Perfetto draws it on the right lane.
    spans_[id].lane = LaneLocked();
  }
}

void QueryTrace::SetSpanRowMarks(int id, int64_t first_micros,
                                 int64_t last_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].first_row_micros = first_micros;
  spans_[id].last_row_micros = last_micros;
}

void QueryTrace::EndSpan(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return;
  spans_[id].finished = true;
  if (has_timeline() && spans_[id].end_micros < 0) {
    spans_[id].end_micros =
        std::max(NowRelMicros(), spans_[id].begin_micros);
  }
}

void QueryTrace::AddEvent(EventKind kind, const std::string& source,
                          const std::string& detail, int64_t rows,
                          int64_t micros, const std::string& table,
                          int64_t roundtrip_micros, int64_t transfer_micros) {
  // The per-kind tallies and the touched-source set are maintained in
  // every mode: the audit path (CountEvents/SumEventMicros/
  // SourcesTouched) runs after every profiled execution and must not
  // scan the event list under mutex_.
  int i = static_cast<int>(kind);
  event_counts_[i].fetch_add(1, std::memory_order_relaxed);
  event_micros_[i].fetch_add(micros, std::memory_order_relaxed);
  if (!source.empty()) {
    std::lock_guard<std::mutex> lock(sources_mutex_);
    sources_.insert(source);
  }
  if (mode_ == Mode::kCounters) return;
  int span = CurrentSpan(this);
  std::lock_guard<std::mutex> lock(mutex_);
  Event event;
  event.kind = kind;
  event.span = span;
  event.source = source;
  event.detail = detail;
  event.table = table;
  event.rows = rows;
  event.micros = micros;
  event.roundtrip_micros = roundtrip_micros;
  event.transfer_micros = transfer_micros;
  if (has_timeline()) {
    event.at_micros = NowRelMicros();
    event.lane = LaneLocked();
  }
  events_.push_back(std::move(event));
}

void QueryTrace::AddWaitEvent(int ref_span, int64_t micros,
                              const std::string& detail) {
  if (!has_timeline()) return;
  int span = CurrentSpan(this);
  int i = static_cast<int>(EventKind::kTaskWait);
  event_counts_[i].fetch_add(1, std::memory_order_relaxed);
  event_micros_[i].fetch_add(micros, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  Event event;
  event.kind = EventKind::kTaskWait;
  event.span = span;
  event.detail = detail;
  event.micros = std::max<int64_t>(micros, 0);
  event.at_micros = NowRelMicros();
  event.lane = LaneLocked();
  event.ref_span = ref_span;
  events_.push_back(std::move(event));
}

std::vector<QueryTrace::Span> QueryTrace::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<QueryTrace::Event> QueryTrace::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

int64_t QueryTrace::CountEvents(EventKind kind) const {
  return event_counts_[static_cast<int>(kind)].load(
      std::memory_order_relaxed);
}

int64_t QueryTrace::SumEventMicros(EventKind kind) const {
  return event_micros_[static_cast<int>(kind)].load(
      std::memory_order_relaxed);
}

std::vector<std::string> QueryTrace::SourcesTouched() const {
  std::lock_guard<std::mutex> lock(sources_mutex_);
  return std::vector<std::string>(sources_.begin(), sources_.end());
}

observability::SourceSet QueryTrace::SourceSetTouched() const {
  std::lock_guard<std::mutex> lock(sources_mutex_);
  return observability::SourceSet(sources_);
}

observability::Timeline QueryTrace::BuildTimeline() const {
  observability::Timeline timeline;
  std::lock_guard<std::mutex> lock(mutex_);
  timeline.lanes = lane_names_;
  if (timeline.lanes.empty()) timeline.lanes.push_back("main");
  timeline.spans.reserve(spans_.size());
  for (const Span& s : spans_) {
    observability::TimelineSpan ts;
    ts.id = s.id;
    ts.parent = s.parent;
    ts.name = s.kind;
    ts.detail = s.detail;
    ts.lane = s.lane < 0 ? 0 : s.lane;
    // Non-timeline traces degrade to a flat ts=0 layout so the export
    // still opens; durations fall back to the cumulative micros.
    ts.begin_micros = s.begin_micros >= 0 ? s.begin_micros : 0;
    ts.end_micros = s.end_micros >= 0
                        ? s.end_micros
                        : (s.begin_micros >= 0 ? -1 : s.micros);
    ts.queue_micros = s.queue_micros;
    ts.rows = s.rows;
    ts.micros = s.micros;
    ts.bytes = s.bytes;
    ts.first_row_micros = s.first_row_micros;
    ts.last_row_micros = s.last_row_micros;
    timeline.spans.push_back(std::move(ts));
    if (s.parent < 0 && timeline.root < 0) timeline.root = s.id;
  }
  timeline.events.reserve(events_.size());
  for (const Event& e : events_) {
    observability::TimelineEvent te;
    te.name = EventKindName(e.kind);
    te.source = e.source;
    te.detail = e.detail;
    te.span = e.span;
    te.lane = e.lane < 0 ? 0 : e.lane;
    te.at_micros = e.at_micros >= 0 ? e.at_micros : e.micros;
    te.rows = e.rows;
    te.roundtrip_micros = e.roundtrip_micros;
    te.transfer_micros = e.transfer_micros;
    te.ref_span = e.ref_span;
    te.is_wait = e.kind == EventKind::kTaskWait;
    switch (e.kind) {
      case EventKind::kSql:
      case EventKind::kPPkFetch:
      case EventKind::kSourceInvoke:
      case EventKind::kCustomPushdown:
        te.is_source = true;
        te.dur_micros = e.micros;
        break;
      case EventKind::kTaskWait:
        te.dur_micros = e.micros;
        break;
      default:
        // Cache hits/misses, async launches, timeout/fail-over marks are
        // instants: their micros are attributes, not blocked time.
        te.dur_micros = 0;
        break;
    }
    timeline.events.push_back(std::move(te));
  }
  if (timeline.root >= 0) {
    observability::TimelineSpan& root =
        timeline.spans[static_cast<size_t>(timeline.root)];
    int64_t end = root.end_micros;
    for (const observability::TimelineSpan& s : timeline.spans) {
      end = std::max(end, s.end_micros);
    }
    for (const observability::TimelineEvent& e : timeline.events) {
      end = std::max(end, e.at_micros);
    }
    timeline.wall_micros =
        std::max<int64_t>((root.end_micros >= 0 ? root.end_micros : end) -
                              root.begin_micros,
                          0);
  }
  return timeline;
}

void QueryTrace::FeedObservedCost(ObservedCostModel* model) const {
  if (model == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::kSql:
      case EventKind::kPPkFetch:
        if (e.roundtrip_micros >= 0) {
          model->RecordStatementSplit(e.source, e.roundtrip_micros,
                                      e.transfer_micros, e.rows);
        } else {
          model->RecordStatement(e.source, e.micros);
        }
        if (!e.table.empty()) {
          model->RecordTableScan(e.source, e.table, e.rows, e.micros);
        }
        break;
      case EventKind::kSourceInvoke:
        if (!e.table.empty()) {
          model->RecordTableScan(e.source, e.table, e.rows, e.micros);
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace aldsp::runtime
