#include "observability/slow_query_log.h"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "observability/json_util.h"

namespace aldsp::observability {

bool SlowQueryLog::IsPromoted(uint64_t statement_key) const {
  std::lock_guard<std::mutex> lock(promoted_mu_);
  return promoted_.count(statement_key) != 0;
}

void SlowQueryLog::Promote(uint64_t statement_key) {
  std::lock_guard<std::mutex> lock(promoted_mu_);
  if (promoted_.size() >= kMaxPromoted && promoted_.count(statement_key) == 0) {
    return;
  }
  promoted_.insert(statement_key);
}

int64_t SlowQueryLog::Append(const QueryCompletion& completion,
                             int64_t threshold_micros, std::string profile_text,
                             std::string profile_json, std::string trace_json) {
  SlowQueryRecord record;
  record.completion = completion;
  record.completion.KeepTextHead();
  record.threshold_micros = threshold_micros;
  record.full_trace = !profile_text.empty();
  if (record.full_trace) {
    record.profile_text = std::move(profile_text);
    record.profile_json = std::move(profile_json);
    record.trace_json = std::move(trace_json);
  } else {
    // First slow sighting: keep the cheap counter summary and promote the
    // statement so its next run executes under a full trace.
    std::ostringstream os;
    os << "counters: rows=" << completion.rows_returned
       << " sql_pushdowns=" << completion.sql_pushdowns
       << " cache_hits=" << completion.function_cache_hits
       << " cache_misses=" << completion.function_cache_misses
       << " timeouts=" << completion.timeouts
       << " failovers=" << completion.failovers << " sources=";
    for (size_t i = 0; i < completion.sources.size(); ++i) {
      if (i != 0) os << ",";
      os << completion.sources[i];
    }
    record.profile_text = os.str();
    Promote(completion.statement_key());
  }
  return ring_.Append(std::move(record));
}

void SlowQueryLog::Clear() {
  ring_.Clear();
  std::lock_guard<std::mutex> lock(promoted_mu_);
  promoted_.clear();
}

std::string SlowQueryLog::RecordJson(const SlowQueryRecord& r) {
  const QueryCompletion& c = r.completion;
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%lld,\"fingerprint\":\"%llu\","
                "\"statement_fingerprint\":\"%llu\",",
                static_cast<long long>(r.seq),
                static_cast<unsigned long long>(c.fingerprint),
                static_cast<unsigned long long>(c.statement_fingerprint));
  out += buf;
  out += "\"query_head\":";
  AppendJsonString(&out, std::string_view(c.text).substr(0, kRetainedTextChars));
  std::snprintf(buf, sizeof(buf),
                ",\"wall_micros\":%lld,\"threshold_micros\":%lld,"
                "\"full_trace\":%s,",
                static_cast<long long>(c.wall_micros),
                static_cast<long long>(r.threshold_micros),
                r.full_trace ? "true" : "false");
  out += buf;
  out += "\"profile_json\":";
  // profile_json is already JSON (or empty); embed as-is when present.
  out += r.profile_json.empty() ? "null" : r.profile_json;
  out += ",\"trace_json\":";
  out += r.trace_json.empty() ? "null" : r.trace_json;
  out += ",\"profile_text\":";
  AppendJsonString(&out, r.profile_text);
  out += "}";
  return out;
}

std::string SlowQueryLog::RenderJson(
    const std::vector<SlowQueryRecord>& records) {
  std::string out = "[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ",";
    out += RecordJson(records[i]);
  }
  out += "]";
  return out;
}

}  // namespace aldsp::observability
