#include "observability/stat_statements.h"

#include <algorithm>
#include <cstdio>

#include "observability/json_util.h"

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
    fresh.query_head = c.text.substr(0, kQueryHeadChars);
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

std::string StatStatements::RenderText(int top_k) const {
  auto top = TopK(top_k);
  std::string out =
      "statement statistics (top " + std::to_string(top.size()) + ")\n";
  int rank = 0;
  for (const auto& s : top) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  [%d] stmt_fp=%llu plan_fp=%llu calls=%lld errors=%lld "
                  "cancels=%lld sheds=%lld "
                  "total_ms=%.1f mean_ms=%.2f p95_ms<=%.1f rows=%lld "
                  "peak_bytes=%lld\n",
                  ++rank,
                  static_cast<unsigned long long>(s.statement_fingerprint),
                  static_cast<unsigned long long>(s.fingerprint),
                  static_cast<long long>(s.calls),
                  static_cast<long long>(s.errors),
                  static_cast<long long>(s.cancels),
                  static_cast<long long>(s.sheds),
                  s.total_wall_micros / 1000.0, s.MeanWallMicros() / 1000.0,
                  s.P95WallMicrosEstimate() / 1000.0,
                  static_cast<long long>(s.rows_returned),
                  static_cast<long long>(s.max_peak_bytes));
    out += line;
    std::snprintf(line, sizeof(line),
                  "      source_ms=%.1f compute_ms=%.1f queue_ms=%.1f "
                  "plan_cache=%lld/%lld fn_cache=%lld/%lld\n",
                  s.source_wait_micros / 1000.0, s.compute_micros / 1000.0,
                  s.queue_wait_micros / 1000.0,
                  static_cast<long long>(s.plan_cache_hits),
                  static_cast<long long>(s.plan_cache_hits +
                                         s.plan_cache_misses),
                  static_cast<long long>(s.function_cache_hits),
                  static_cast<long long>(s.function_cache_hits +
                                         s.function_cache_misses));
    out += line;
    out += "      " + s.query_head + "\n";
  }
  return out;
}

std::string StatStatements::RenderJson(int top_k) const {
  auto top = TopK(top_k);
  std::string out = "{\"entry_count\":" + std::to_string(entry_count());
  out += ",\"evictions\":" + std::to_string(evictions());
  out += ",\"statements\":[";
  bool first = true;
  for (const auto& s : top) {
    if (!first) out += ",";
    first = false;
    out += "{\"fingerprint\":\"" + std::to_string(s.fingerprint) + "\"";
    out += ",\"statement_fingerprint\":\"" +
           std::to_string(s.statement_fingerprint) + "\"";
    out += ",\"query_head\":";
    AppendJsonString(&out, s.query_head);
    out += ",\"calls\":" + std::to_string(s.calls);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"cancels\":" + std::to_string(s.cancels);
    out += ",\"sheds\":" + std::to_string(s.sheds);
    out += ",\"total_wall_micros\":" + std::to_string(s.total_wall_micros);
    out += ",\"mean_wall_micros\":" +
           std::to_string(static_cast<int64_t>(s.MeanWallMicros()));
    out += ",\"p95_wall_micros_upper\":" +
           std::to_string(s.P95WallMicrosEstimate());
    out += ",\"rows_returned\":" + std::to_string(s.rows_returned);
    out += ",\"max_peak_bytes\":" + std::to_string(s.max_peak_bytes);
    out += ",\"source_wait_micros\":" + std::to_string(s.source_wait_micros);
    out += ",\"compute_micros\":" + std::to_string(s.compute_micros);
    out += ",\"queue_wait_micros\":" + std::to_string(s.queue_wait_micros);
    out += ",\"plan_cache_hits\":" + std::to_string(s.plan_cache_hits);
    out += ",\"plan_cache_misses\":" + std::to_string(s.plan_cache_misses);
    out += ",\"function_cache_hits\":" + std::to_string(s.function_cache_hits);
    out += ",\"function_cache_misses\":" +
           std::to_string(s.function_cache_misses);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace aldsp::observability
