#include "observability/slow_query_log.h"

#include <sstream>

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
  record.threshold_micros = threshold_micros;
  record.full_trace = !profile_text.empty();
  if (record.full_trace) {
    record.profile_text = std::move(profile_text);
    record.profile_json = std::move(profile_json);
    record.trace_json = std::move(trace_json);
  } else {
    // First slow sighting: keep the cheap counter summary and promote the
    // statement so its next run executes under a timeline trace.
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

SnapshotDoc SlowQueryLog::Doc(const std::vector<SlowQueryRecord>& records) {
  using D = SnapshotDoc;
  D doc = D::List("slow queries");
  for (const SlowQueryRecord& r : records) {
    const QueryCompletion& c = r.completion;
    doc.Push(D::Object())
        .Add("seq", D::Int(r.seq))
        .Add("fingerprint", D::Fingerprint(c.fingerprint))
        .Add("statement_fingerprint", D::Fingerprint(c.statement_fingerprint))
        .Add("query_head",
             D::String(std::string(c.text.head(kRetainedTextChars))))
        .Add("wall_micros", D::Int(c.wall_micros))
        .Add("threshold_micros", D::Int(r.threshold_micros))
        .Add("full_trace", D::Bool(r.full_trace))
        .Add("profile_json", D::RawJson(r.profile_json))
        .Add("trace_json", D::RawJson(r.trace_json))
        .Add("profile_text", D::String(r.profile_text));
  }
  return doc;
}

}  // namespace aldsp::observability
