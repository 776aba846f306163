#include "observability/stat_statements.h"

#include <algorithm>

namespace aldsp::observability {

int64_t StatementStats::P95WallMicrosEstimate() const {
  return wall.P95UpperMicros();
}

void StatStatements::Record(const QueryCompletion& c) {
  const uint64_t key = c.statement_key();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(key);
  if (it == stats_.end()) {
    if (stats_.size() >= max_entries_) {
      // Evict the entry with the least cumulative wall time.
      auto victim = stats_.begin();
      for (auto jt = stats_.begin(); jt != stats_.end(); ++jt) {
        if (jt->second.total_wall_micros < victim->second.total_wall_micros) {
          victim = jt;
        }
      }
      stats_.erase(victim);
      ++evictions_;
    }
    StatementStats fresh;
    fresh.fingerprint = c.fingerprint;
    fresh.statement_fingerprint = c.statement_fingerprint;
    fresh.query_head = std::string(c.text.head(kQueryHeadChars));
    it = stats_.emplace(key, std::move(fresh)).first;
  }
  StatementStats& s = it->second;
  s.fingerprint = c.fingerprint;  // track the latest plan version
  ++s.calls;
  if (c.error()) ++s.errors;
  if (c.cancelled()) ++s.cancels;
  if (c.shed()) ++s.sheds;
  s.total_wall_micros += c.wall_micros;
  s.wall.Record(c.wall_micros);
  s.rows_returned += c.rows_returned;
  s.max_peak_bytes = std::max(s.max_peak_bytes, c.peak_bytes);
  s.source_wait_micros += c.source_wait_micros;
  s.compute_micros += c.compute_micros;
  s.queue_wait_micros += c.queue_wait_micros;
  if (c.plan_cache_hit) {
    ++s.plan_cache_hits;
  } else {
    ++s.plan_cache_misses;
  }
  s.function_cache_hits += c.function_cache_hits;
  s.function_cache_misses += c.function_cache_misses;
}

int64_t StatStatements::MeanWallMicrosFor(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(key);
  if (it == stats_.end() || it->second.wall.count == 0) return -1;
  return static_cast<int64_t>(it->second.MeanWallMicros());
}

void StatStatements::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
  evictions_ = 0;
}

std::vector<StatementStats> StatStatements::TopK(int top_k) const {
  std::vector<StatementStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(stats_.size());
    for (const auto& [fp, s] : stats_) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const StatementStats& a, const StatementStats& b) {
              if (a.total_wall_micros != b.total_wall_micros) {
                return a.total_wall_micros > b.total_wall_micros;
              }
              return a.fingerprint < b.fingerprint;
            });
  if (top_k > 0 && out.size() > static_cast<size_t>(top_k)) {
    out.resize(static_cast<size_t>(top_k));
  }
  return out;
}

int64_t StatStatements::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(stats_.size());
}

int64_t StatStatements::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

SnapshotDoc StatStatements::Doc(const std::vector<StatementStats>& top,
                                int64_t entry_count, int64_t evictions) {
  using D = SnapshotDoc;
  D statements = D::List();
  for (const StatementStats& s : top) {
    statements.Push(D::Object())
        .Add("fingerprint", D::Fingerprint(s.fingerprint))
        .Add("statement_fingerprint", D::Fingerprint(s.statement_fingerprint))
        .Add("query_head", D::String(s.query_head))
        .Add("calls", D::Int(s.calls))
        .Add("errors", D::Int(s.errors))
        .Add("cancels", D::Int(s.cancels))
        .Add("sheds", D::Int(s.sheds))
        .Add("total_wall_micros", D::Int(s.total_wall_micros))
        .Add("mean_wall_micros",
             D::Int(static_cast<int64_t>(s.MeanWallMicros())))
        .Add("p95_wall_micros_upper", D::Int(s.P95WallMicrosEstimate()))
        .Add("rows_returned", D::Int(s.rows_returned))
        .Add("max_peak_bytes", D::Int(s.max_peak_bytes))
        .Add("source_wait_micros", D::Int(s.source_wait_micros))
        .Add("compute_micros", D::Int(s.compute_micros))
        .Add("queue_wait_micros", D::Int(s.queue_wait_micros))
        .Add("plan_cache_hits", D::Int(s.plan_cache_hits))
        .Add("plan_cache_misses", D::Int(s.plan_cache_misses))
        .Add("function_cache_hits", D::Int(s.function_cache_hits))
        .Add("function_cache_misses", D::Int(s.function_cache_misses));
  }
  return D::Object("statement statistics")
      .Add("entry_count", D::Int(entry_count))
      .Add("evictions", D::Int(evictions))
      .Add("statements", std::move(statements));
}

}  // namespace aldsp::observability
