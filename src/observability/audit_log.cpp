#include "observability/audit_log.h"

#include <cstdio>

#include "observability/json_util.h"

namespace aldsp::observability {

int64_t ExecutionAuditLog::Append(const QueryCompletion& completion) {
  QueryCompletion record = completion;
  record.query_hash = HashQuery(completion.text);
  record.KeepTextHead();
  return ring_.Append(std::move(record));
}

uint64_t ExecutionAuditLog::HashQuery(std::string_view text) {
  // FNV-1a 64-bit.
  uint64_t hash = 14695981039346656037ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string ExecutionAuditLog::RecordJson(const QueryCompletion& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%lld,\"query_hash\":\"%016llx\","
                "\"fingerprint\":\"%llu\","
                "\"statement_fingerprint\":\"%llu\",",
                static_cast<long long>(r.seq),
                static_cast<unsigned long long>(r.query_hash),
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.statement_fingerprint));
  out += buf;
  out += "\"query_head\":";
  AppendJsonString(&out, std::string_view(r.text).substr(0, kRetainedTextChars));
  out += ",\"principal\":";
  AppendJsonString(&out, r.principal);
  out += ",\"outcome\":";
  AppendJsonString(&out, r.outcome_name());
  out += ",\"sources\":[";
  for (size_t i = 0; i < r.sources.size(); ++i) {
    if (i != 0) out += ",";
    AppendJsonString(&out, r.sources[i]);
  }
  out += "]";
  std::snprintf(
      buf, sizeof(buf),
      ",\"sql_pushdowns\":%lld,\"rows_returned\":%lld,"
      "\"bytes_returned\":%lld,\"wall_micros\":%lld,"
      "\"compile_micros\":%lld,\"plan_cache_hit\":%s,"
      "\"function_cache_hits\":%lld,\"function_cache_misses\":%lld,"
      "\"timeouts\":%lld,\"failovers\":%lld,\"security_denials\":%lld}",
      static_cast<long long>(r.sql_pushdowns),
      static_cast<long long>(r.rows_returned),
      static_cast<long long>(r.bytes_returned),
      static_cast<long long>(r.wall_micros),
      static_cast<long long>(r.compile_micros),
      r.plan_cache_hit ? "true" : "false",
      static_cast<long long>(r.function_cache_hits),
      static_cast<long long>(r.function_cache_misses),
      static_cast<long long>(r.timeouts),
      static_cast<long long>(r.failovers),
      static_cast<long long>(r.security_denials));
  out += buf;
  return out;
}

std::string ExecutionAuditLog::RenderJsonl(
    const std::vector<QueryCompletion>& records) {
  std::string out;
  for (const QueryCompletion& r : records) {
    out += RecordJson(r);
    out += "\n";
  }
  return out;
}

}  // namespace aldsp::observability
