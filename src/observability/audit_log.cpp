#include "observability/audit_log.h"

#include <cstdio>

namespace aldsp::observability {

int64_t ExecutionAuditLog::Append(const QueryCompletion& completion) {
  QueryCompletion record = completion;
  record.query_hash = completion.text.hash();
  return ring_.Append(std::move(record));
}

SnapshotDoc ExecutionAuditLog::Doc(
    const std::vector<QueryCompletion>& records) {
  using D = SnapshotDoc;
  D doc = D::List("execution audit");
  for (const QueryCompletion& r : records) {
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(r.query_hash));
    D sources = D::List();
    for (const std::string& s : r.sources) sources.Push(D::String(s));
    doc.Push(D::Object())
        .Add("seq", D::Int(r.seq))
        .Add("query_hash", D::Quoted(hash))
        .Add("fingerprint", D::Fingerprint(r.fingerprint))
        .Add("statement_fingerprint", D::Fingerprint(r.statement_fingerprint))
        .Add("query_head",
             D::String(std::string(r.text.head(kRetainedTextChars))))
        .Add("principal", D::String(r.principal.name()))
        .Add("outcome", D::String(r.outcome_name()))
        .Add("sources", std::move(sources))
        .Add("sql_pushdowns", D::Int(r.sql_pushdowns))
        .Add("rows_returned", D::Int(r.rows_returned))
        .Add("bytes_returned", D::Int(r.bytes_returned))
        .Add("wall_micros", D::Int(r.wall_micros))
        .Add("compile_micros", D::Int(r.compile_micros))
        .Add("plan_cache_hit", D::Bool(r.plan_cache_hit))
        .Add("function_cache_hits", D::Int(r.function_cache_hits))
        .Add("function_cache_misses", D::Int(r.function_cache_misses))
        .Add("timeouts", D::Int(r.timeouts))
        .Add("failovers", D::Int(r.failovers))
        .Add("security_denials", D::Int(r.security_denials));
  }
  return doc;
}

}  // namespace aldsp::observability
