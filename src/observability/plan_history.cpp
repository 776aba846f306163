#include "observability/plan_history.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "observability/json_util.h"

namespace aldsp::observability {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int64_t LastSeen(const StatementHistory& s) {
  return s.versions.empty() ? 0 : s.versions.back().last_seen_micros;
}

}  // namespace

const char* CompileTriggerName(CompileTrigger t) {
  switch (t) {
    case CompileTrigger::kColdCompile:
      return "cold compile";
    case CompileTrigger::kCacheEviction:
      return "cache eviction";
    case CompileTrigger::kCostModelAdviceChange:
      return "cost-model-advice change";
  }
  return "unknown";
}

StatementHistory* PlanHistory::FindOrCreateLocked(
    uint64_t statement_fp, const std::string& query_head) {
  auto it = statements_.find(statement_fp);
  if (it != statements_.end()) return &it->second;
  if (statements_.size() >= options_.max_statements) {
    // Evict the statement that has gone longest without a compile or an
    // execution — lifecycle history is only useful for live statements.
    auto victim = statements_.begin();
    for (auto jt = statements_.begin(); jt != statements_.end(); ++jt) {
      if (LastSeen(jt->second) < LastSeen(victim->second)) victim = jt;
    }
    statements_.erase(victim);
    ++statement_evictions_;
  }
  StatementHistory fresh;
  fresh.statement_fingerprint = statement_fp;
  fresh.query_head = query_head;
  return &statements_.emplace(statement_fp, std::move(fresh)).first->second;
}

void PlanHistory::RecordCompile(
    uint64_t statement_fp, uint64_t plan_fp, const std::string& query_head,
    const std::string& advice_snapshot,
    const std::function<std::string()>& render_explain) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  StatementHistory* s = FindOrCreateLocked(statement_fp, query_head);
  if (!s->versions.empty() &&
      s->versions.back().plan_fingerprint == plan_fp) {
    // Recompile landed on the same shape (e.g. eviction with unchanged
    // advice): touch the version, no transition.
    PlanVersion& latest = s->versions.back();
    ++latest.compiles;
    latest.last_seen_micros = now;
    latest.advice_snapshot = advice_snapshot;
    return;
  }
  PlanVersion v;
  v.plan_fingerprint = plan_fp;
  v.first_seen_micros = now;
  v.last_seen_micros = now;
  v.advice_snapshot = advice_snapshot;
  v.explain_text = render_explain();
  if (s->versions.empty()) {
    v.trigger = CompileTrigger::kColdCompile;
  } else {
    // New shape for a known statement: attribute to the cost model when
    // its advice-relevant inputs changed since the previous compile,
    // otherwise to a plan-cache eviction.
    v.trigger = (s->versions.back().advice_snapshot != advice_snapshot)
                    ? CompileTrigger::kCostModelAdviceChange
                    : CompileTrigger::kCacheEviction;
    ++s->plan_changes;
    ++plan_changes_total_;
  }
  if (s->versions.size() >= options_.max_versions_per_statement) {
    s->versions.erase(s->versions.begin());
  }
  s->versions.push_back(std::move(v));
}

std::optional<PlanRegressionEvent> PlanHistory::RecordExecution(
    uint64_t statement_fp, uint64_t plan_fp, int64_t wall_micros) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = statements_.find(statement_fp);
  if (it == statements_.end()) return std::nullopt;
  StatementHistory& s = it->second;
  // Executions almost always run the latest version; search from the back
  // (an older version can still drain during a concurrent flip).
  PlanVersion* v = nullptr;
  for (auto rit = s.versions.rbegin(); rit != s.versions.rend(); ++rit) {
    if (rit->plan_fingerprint == plan_fp) {
      v = &*rit;
      break;
    }
  }
  if (v == nullptr) return std::nullopt;
  ++v->calls;
  v->last_seen_micros = now;
  v->wall.Record(wall_micros);

  // Sentinel: only the latest version is compared, against its immediate
  // predecessor, and it fires at most once per version.
  if (options_.sentinel_min_calls <= 0) return std::nullopt;
  if (s.versions.size() < 2) return std::nullopt;
  PlanVersion& latest = s.versions.back();
  if (v != &latest || latest.regressed) return std::nullopt;
  const PlanVersion& prior = s.versions[s.versions.size() - 2];
  if (latest.calls < options_.sentinel_min_calls ||
      prior.calls < options_.sentinel_min_calls) {
    return std::nullopt;
  }
  const double mean_ratio =
      prior.wall.MeanMicros() > 0.0
          ? latest.wall.MeanMicros() / prior.wall.MeanMicros()
          : 0.0;
  const double p95_ratio =
      prior.wall.P95UpperMicros() > 0
          ? static_cast<double>(latest.wall.P95UpperMicros()) /
                static_cast<double>(prior.wall.P95UpperMicros())
          : 0.0;
  const double worst = std::max(mean_ratio, p95_ratio);
  if (worst < options_.sentinel_ratio) return std::nullopt;

  latest.regressed = true;
  PlanRegressionEvent ev;
  ev.statement_fingerprint = s.statement_fingerprint;
  ev.query_head = s.query_head;
  ev.regressed_plan_fingerprint = latest.plan_fingerprint;
  ev.baseline_plan_fingerprint = prior.plan_fingerprint;
  ev.trigger = latest.trigger;
  ev.regressed_calls = latest.calls;
  ev.baseline_calls = prior.calls;
  ev.regressed_mean_micros = static_cast<int64_t>(latest.wall.MeanMicros());
  ev.baseline_mean_micros = static_cast<int64_t>(prior.wall.MeanMicros());
  ev.regressed_p95_micros = latest.wall.P95UpperMicros();
  ev.baseline_p95_micros = prior.wall.P95UpperMicros();
  ev.ratio = worst;
  ev.regressed_explain = latest.explain_text;
  ev.baseline_explain = prior.explain_text;
  return ev;
}

int64_t PlanHistory::PublishRegression(PlanRegressionEvent event) {
  return regressions_.Append(std::move(event));
}

std::optional<StatementHistory> PlanHistory::Statement(
    uint64_t statement_fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = statements_.find(statement_fp);
  if (it == statements_.end()) return std::nullopt;
  return it->second;
}

std::vector<StatementHistory> PlanHistory::Snapshot() const {
  std::vector<StatementHistory> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(statements_.size());
    for (const auto& [fp, s] : statements_) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const StatementHistory& a, const StatementHistory& b) {
              if (a.plan_changes != b.plan_changes) {
                return a.plan_changes > b.plan_changes;
              }
              return a.statement_fingerprint < b.statement_fingerprint;
            });
  return out;
}

int64_t PlanHistory::statement_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(statements_.size());
}

int64_t PlanHistory::statement_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return statement_evictions_;
}

int64_t PlanHistory::plan_changes_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_changes_total_;
}

void PlanHistory::Reset() {
  regressions_.Clear();
  std::lock_guard<std::mutex> lock(mu_);
  statements_.clear();
  statement_evictions_ = 0;
  plan_changes_total_ = 0;
}

namespace {

void AppendVersionText(std::string* out, const PlanVersion& v, int index) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "    v%d plan_fp=%llu trigger=\"%s\" compiles=%lld "
                "calls=%lld mean_ms=%.2f p95_ms<=%.1f%s\n",
                index, static_cast<unsigned long long>(v.plan_fingerprint),
                CompileTriggerName(v.trigger),
                static_cast<long long>(v.compiles),
                static_cast<long long>(v.calls), v.wall.MeanMicros() / 1000.0,
                v.wall.P95UpperMicros() / 1000.0,
                v.regressed ? " REGRESSED" : "");
  *out += line;
}

void AppendStatementText(std::string* out, const StatementHistory& s) {
  *out += "  stmt_fp=" + std::to_string(s.statement_fingerprint);
  *out += " plan_changes=" + std::to_string(s.plan_changes);
  *out += " versions=" + std::to_string(s.versions.size());
  *out += "  " + s.query_head + "\n";
  int index = 0;
  for (const auto& v : s.versions) AppendVersionText(out, v, ++index);
}

void AppendStatementJson(std::string* out, const StatementHistory& s) {
  *out += "{\"statement_fingerprint\":\"" +
          std::to_string(s.statement_fingerprint) + "\"";
  *out += ",\"query_head\":";
  AppendJsonString(out, s.query_head);
  *out += ",\"plan_changes\":" + std::to_string(s.plan_changes);
  *out += ",\"versions\":[";
  bool first = true;
  for (const auto& v : s.versions) {
    if (!first) *out += ",";
    first = false;
    *out += "{\"plan_fingerprint\":\"" +
            std::to_string(v.plan_fingerprint) + "\"";
    *out += ",\"trigger\":";
    AppendJsonString(out, CompileTriggerName(v.trigger));
    *out += ",\"first_seen_micros\":" + std::to_string(v.first_seen_micros);
    *out += ",\"last_seen_micros\":" + std::to_string(v.last_seen_micros);
    *out += ",\"compiles\":" + std::to_string(v.compiles);
    *out += ",\"calls\":" + std::to_string(v.calls);
    *out += ",\"mean_wall_micros\":" +
            std::to_string(static_cast<int64_t>(v.wall.MeanMicros()));
    *out += ",\"p95_wall_micros_upper\":" +
            std::to_string(v.wall.P95UpperMicros());
    *out += ",\"regressed\":";
    *out += v.regressed ? "true" : "false";
    *out += ",\"explain\":";
    AppendJsonString(out, v.explain_text);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace

std::string PlanHistory::RenderHistoryText(uint64_t statement_fp) const {
  if (statement_fp != 0) {
    auto s = Statement(statement_fp);
    if (!s.has_value()) {
      return "plan history: statement " + std::to_string(statement_fp) +
             " not tracked\n";
    }
    std::string out = "plan history (1 statement)\n";
    AppendStatementText(&out, *s);
    return out;
  }
  auto all = Snapshot();
  std::string out =
      "plan history (" + std::to_string(all.size()) + " statements)\n";
  for (const auto& s : all) AppendStatementText(&out, s);
  return out;
}

std::string PlanHistory::RenderHistoryJson(uint64_t statement_fp) const {
  std::string out = "{\"statement_count\":" + std::to_string(statement_count());
  out += ",\"statement_evictions\":" + std::to_string(statement_evictions());
  out += ",\"plan_changes_total\":" + std::to_string(plan_changes_total());
  out += ",\"statements\":[";
  if (statement_fp != 0) {
    auto s = Statement(statement_fp);
    if (s.has_value()) AppendStatementJson(&out, *s);
  } else {
    bool first = true;
    for (const auto& s : Snapshot()) {
      if (!first) out += ",";
      first = false;
      AppendStatementJson(&out, s);
    }
  }
  out += "]}";
  return out;
}

std::string PlanHistory::RenderRegressionsText() const {
  auto events = Regressions();
  std::string out =
      "plan regressions: " + std::to_string(regressions_total()) +
      " total, " + std::to_string(events.size()) + " retained\n";
  for (const auto& e : events) {
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "  [%lld] stmt_fp=%llu plan_fp %llu -> %llu trigger=\"%s\" "
        "ratio=%.2fx mean_ms %.2f -> %.2f p95_ms <=%.1f -> <=%.1f\n",
        static_cast<long long>(e.seq),
        static_cast<unsigned long long>(e.statement_fingerprint),
        static_cast<unsigned long long>(e.baseline_plan_fingerprint),
        static_cast<unsigned long long>(e.regressed_plan_fingerprint),
        CompileTriggerName(e.trigger), e.ratio,
        e.baseline_mean_micros / 1000.0, e.regressed_mean_micros / 1000.0,
        e.baseline_p95_micros / 1000.0, e.regressed_p95_micros / 1000.0);
    out += line;
    out += "      " + e.query_head + "\n";
    if (!e.explain_diff.empty()) {
      // Indent the diff under the event line.
      size_t start = 0;
      while (start < e.explain_diff.size()) {
        size_t end = e.explain_diff.find('\n', start);
        if (end == std::string::npos) end = e.explain_diff.size();
        out += "      " + e.explain_diff.substr(start, end - start) + "\n";
        start = end + 1;
      }
    }
  }
  return out;
}

std::string PlanHistory::RenderRegressionsJson() const {
  auto events = Regressions();
  std::string out =
      "{\"regressions_total\":" + std::to_string(regressions_total());
  out += ",\"regressions\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"statement_fingerprint\":\"" +
           std::to_string(e.statement_fingerprint) + "\"";
    out += ",\"query_head\":";
    AppendJsonString(&out, e.query_head);
    out += ",\"baseline_plan_fingerprint\":\"" +
           std::to_string(e.baseline_plan_fingerprint) + "\"";
    out += ",\"regressed_plan_fingerprint\":\"" +
           std::to_string(e.regressed_plan_fingerprint) + "\"";
    out += ",\"trigger\":";
    AppendJsonString(&out, CompileTriggerName(e.trigger));
    out += ",\"baseline_calls\":" + std::to_string(e.baseline_calls);
    out += ",\"regressed_calls\":" + std::to_string(e.regressed_calls);
    out += ",\"baseline_mean_micros\":" +
           std::to_string(e.baseline_mean_micros);
    out += ",\"regressed_mean_micros\":" +
           std::to_string(e.regressed_mean_micros);
    out += ",\"baseline_p95_micros\":" + std::to_string(e.baseline_p95_micros);
    out += ",\"regressed_p95_micros\":" +
           std::to_string(e.regressed_p95_micros);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.3f", e.ratio);
    out += ",\"ratio\":" + std::string(ratio);
    out += ",\"explain_diff\":";
    AppendJsonString(&out, e.explain_diff);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace aldsp::observability
