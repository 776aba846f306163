#include "observability/source_health.h"

namespace aldsp::observability {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

bool SourceHealthBoard::IsOpen(const std::string& source,
                               int64_t now_micros) const {
  std::lock_guard<std::mutex> lock(mutex_);
  now_micros += clock_skew_micros_;
  auto it = entries_.find(source);
  if (it == entries_.end()) return false;
  const Entry& entry = it->second;
  return entry.state == BreakerState::kOpen &&
         now_micros - entry.opened_at_micros < options_.open_cooldown_micros;
}

bool SourceHealthBoard::AllowRequest(const std::string& source,
                                     int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  now_micros += clock_skew_micros_;
  auto it = entries_.find(source);
  if (it == entries_.end()) return true;
  Entry& entry = it->second;
  switch (entry.state) {
    case BreakerState::kClosed:
    case BreakerState::kHalfOpen:
      return true;
    case BreakerState::kOpen:
      if (now_micros - entry.opened_at_micros >=
          options_.open_cooldown_micros) {
        entry.state = BreakerState::kHalfOpen;
        entry.half_open_successes = 0;
        return true;  // this request is the probe
      }
      return false;
  }
  return true;
}

void SourceHealthBoard::NoteSuccess(const std::string& source,
                                    int64_t latency_micros,
                                    int64_t now_micros) {
  (void)now_micros;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[source];
  entry.successes += 1;
  if (entry.has_ewma) {
    entry.ewma_latency_micros =
        options_.ewma_alpha * static_cast<double>(latency_micros) +
        (1.0 - options_.ewma_alpha) * entry.ewma_latency_micros;
  } else {
    entry.ewma_latency_micros = static_cast<double>(latency_micros);
    entry.has_ewma = true;
  }
  switch (entry.state) {
    case BreakerState::kClosed:
      entry.consecutive_failures = 0;
      break;
    case BreakerState::kHalfOpen:
      entry.half_open_successes += 1;
      if (entry.half_open_successes >= options_.half_open_successes) {
        entry.state = BreakerState::kClosed;
        entry.consecutive_failures = 0;
      }
      break;
    case BreakerState::kOpen:
      // A late completion from an abandoned (timed-out) task; it must
      // not fight the open state, which only a probe may clear.
      break;
  }
}

void SourceHealthBoard::NoteFailureLocked(Entry& entry, int64_t now_micros) {
  entry.consecutive_failures += 1;
  switch (entry.state) {
    case BreakerState::kClosed:
      if (entry.consecutive_failures >= options_.failure_threshold) {
        entry.state = BreakerState::kOpen;
        entry.opened_at_micros = now_micros;
        entry.trips += 1;
      }
      break;
    case BreakerState::kHalfOpen:
      // Probe failed: reopen and restart the cooldown.
      entry.state = BreakerState::kOpen;
      entry.opened_at_micros = now_micros;
      entry.trips += 1;
      break;
    case BreakerState::kOpen:
      break;
  }
}

void SourceHealthBoard::NoteFailure(const std::string& source,
                                    int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[source];
  entry.failures += 1;
  NoteFailureLocked(entry, now_micros + clock_skew_micros_);
}

void SourceHealthBoard::NoteTimeout(const std::string& source,
                                    int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[source];
  entry.timeouts += 1;
  NoteFailureLocked(entry, now_micros + clock_skew_micros_);
}

BreakerState SourceHealthBoard::StateOf(const std::string& source,
                                        int64_t now_micros) const {
  (void)now_micros;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(source);
  return it == entries_.end() ? BreakerState::kClosed : it->second.state;
}

std::vector<SourceHealthSnapshot> SourceHealthBoard::GetSnapshot(
    int64_t now_micros) const {
  (void)now_micros;
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SourceHealthSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [source, entry] : entries_) {
    SourceHealthSnapshot snap;
    snap.source = source;
    snap.state = entry.state;
    snap.ewma_latency_micros = entry.ewma_latency_micros;
    snap.successes = entry.successes;
    snap.failures = entry.failures;
    snap.timeouts = entry.timeouts;
    snap.consecutive_failures = entry.consecutive_failures;
    snap.trips = entry.trips;
    out.push_back(std::move(snap));
  }
  return out;
}

SnapshotDoc SourceHealthBoard::Doc(
    const std::vector<SourceHealthSnapshot>& snap) {
  using D = SnapshotDoc;
  D doc = D::Keyed("source health");
  for (const SourceHealthSnapshot& s : snap) {
    D e = D::Object();
    e.Add("state", D::String(BreakerStateName(s.state)))
        .Add("ewma_latency_micros", D::Real(s.ewma_latency_micros, 1))
        .Add("successes", D::Int(s.successes))
        .Add("failures", D::Int(s.failures))
        .Add("timeouts", D::Int(s.timeouts))
        .Add("consecutive_failures", D::Int(s.consecutive_failures))
        .Add("trips", D::Int(s.trips));
    doc.Add(s.source, std::move(e));
  }
  return doc;
}

void SourceHealthBoard::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void SourceHealthBoard::AdvanceClockForTest(int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_skew_micros_ += micros;
}

}  // namespace aldsp::observability
