#include "observability/plan_history.h"

#include <algorithm>
#include <chrono>

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

SnapshotDoc PlanHistory::HistoryDoc(
    const std::vector<StatementHistory>& statements, int64_t statement_count,
    int64_t statement_evictions, int64_t plan_changes_total) {
  using D = SnapshotDoc;
  D list = D::List();
  for (const StatementHistory& s : statements) {
    D versions = D::List();
    for (const PlanVersion& v : s.versions) {
      versions.Push(D::Object())
          .Add("plan_fingerprint", D::Fingerprint(v.plan_fingerprint))
          .Add("trigger", D::String(CompileTriggerName(v.trigger)))
          .Add("first_seen_micros", D::Int(v.first_seen_micros))
          .Add("last_seen_micros", D::Int(v.last_seen_micros))
          .Add("compiles", D::Int(v.compiles))
          .Add("calls", D::Int(v.calls))
          .Add("mean_wall_micros",
               D::Int(static_cast<int64_t>(v.wall.MeanMicros())))
          .Add("p95_wall_micros_upper", D::Int(v.wall.P95UpperMicros()))
          .Add("regressed", D::Bool(v.regressed))
          .Add("explain", D::String(v.explain_text));
    }
    list.Push(D::Object())
        .Add("statement_fingerprint", D::Fingerprint(s.statement_fingerprint))
        .Add("query_head", D::String(s.query_head))
        .Add("plan_changes", D::Int(s.plan_changes))
        .Add("versions", std::move(versions));
  }
  return D::Object("plan history")
      .Add("statement_count", D::Int(statement_count))
      .Add("statement_evictions", D::Int(statement_evictions))
      .Add("plan_changes_total", D::Int(plan_changes_total))
      .Add("statements", std::move(list));
}

SnapshotDoc PlanHistory::RegressionsDoc(
    const std::vector<PlanRegressionEvent>& events,
    int64_t regressions_total) {
  using D = SnapshotDoc;
  D list = D::List();
  for (const PlanRegressionEvent& e : events) {
    list.Push(D::Object())
        .Add("seq", D::Int(e.seq))
        .Add("statement_fingerprint", D::Fingerprint(e.statement_fingerprint))
        .Add("query_head", D::String(e.query_head))
        .Add("baseline_plan_fingerprint",
             D::Fingerprint(e.baseline_plan_fingerprint))
        .Add("regressed_plan_fingerprint",
             D::Fingerprint(e.regressed_plan_fingerprint))
        .Add("trigger", D::String(CompileTriggerName(e.trigger)))
        .Add("baseline_calls", D::Int(e.baseline_calls))
        .Add("regressed_calls", D::Int(e.regressed_calls))
        .Add("baseline_mean_micros", D::Int(e.baseline_mean_micros))
        .Add("regressed_mean_micros", D::Int(e.regressed_mean_micros))
        .Add("baseline_p95_micros", D::Int(e.baseline_p95_micros))
        .Add("regressed_p95_micros", D::Int(e.regressed_p95_micros))
        .Add("ratio", D::Real(e.ratio, 3))
        .Add("explain_diff", D::String(e.explain_diff));
  }
  return D::Object("plan regressions")
      .Add("regressions_total", D::Int(regressions_total))
      .Add("regressions", std::move(list));
}

}  // namespace aldsp::observability
