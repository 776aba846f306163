#include "observability/query_registry.h"

#include <algorithm>
#include <chrono>

namespace aldsp::observability {

namespace {
int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kCompiling:
      return "compiling";
    case QueryPhase::kQueued:
      return "queued";
    case QueryPhase::kExecuting:
      return "executing";
    case QueryPhase::kFinishing:
      return "finishing";
  }
  return "unknown";
}

std::shared_ptr<QueryControl> QueryRegistry::Register(
    uint64_t fingerprint, uint64_t statement_fingerprint, Tenant tenant,
    SharedText text) {
  auto ctl = std::make_shared<QueryControl>();
  ctl->query_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ctl->fingerprint = fingerprint;
  ctl->statement_fingerprint = statement_fingerprint;
  ctl->tenant = tenant;
  ctl->text = std::move(text);
  ctl->start_micros = NowMicros();
  total_started_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  live_[ctl->query_id] = ctl;
  peak_live_ = std::max(peak_live_, static_cast<int64_t>(live_.size()));
  TenantGauge& gauge = tenants_[tenant.label()];
  ++gauge.in_flight;
  gauge.peak_in_flight = std::max(gauge.peak_in_flight, gauge.in_flight);
  return ctl;
}

void QueryRegistry::Unregister(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(query_id);
  if (it == live_.end()) return;
  auto tenant_it = tenants_.find(it->second->tenant.label());
  if (tenant_it != tenants_.end() && tenant_it->second.in_flight > 0) {
    --tenant_it->second.in_flight;
  }
  live_.erase(it);
}

bool QueryRegistry::Cancel(uint64_t query_id) {
  std::shared_ptr<QueryControl> ctl;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(query_id);
    if (it == live_.end()) return false;
    ctl = it->second;
  }
  ctl->cancelled.store(true, std::memory_order_relaxed);
  total_cancels_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<LiveQueryInfo> QueryRegistry::Snapshot() const {
  std::vector<std::shared_ptr<QueryControl>> blocks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    blocks.reserve(live_.size());
    for (const auto& [id, ctl] : live_) blocks.push_back(ctl);
  }
  const int64_t now = NowMicros();
  std::vector<LiveQueryInfo> out;
  out.reserve(blocks.size());
  for (const auto& ctl : blocks) {
    LiveQueryInfo info;
    info.query_id = ctl->query_id;
    info.fingerprint = ctl->fingerprint;
    info.statement_fingerprint = ctl->statement_fingerprint;
    info.tenant = ctl->tenant.label();
    info.query_head = std::string(ctl->text.head(kQueryHeadChars));
    info.start_micros = ctl->start_micros;
    info.elapsed_micros = std::max<int64_t>(0, now - ctl->start_micros);
    info.phase =
        static_cast<QueryPhase>(ctl->phase.load(std::memory_order_relaxed));
    info.rows_produced = ctl->rows_produced.load(std::memory_order_relaxed);
    info.peak_bytes = ctl->peak_bytes.load(std::memory_order_relaxed);
    info.memory_budget_bytes =
        ctl->memory_budget_bytes.load(std::memory_order_relaxed);
    info.budget_breached =
        ctl->budget_breached.load(std::memory_order_relaxed);
    info.cancel_requested = ctl->cancelled.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const LiveQueryInfo& a, const LiveQueryInfo& b) {
              return a.query_id < b.query_id;
            });
  return out;
}

int64_t QueryRegistry::live_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(live_.size());
}

int64_t QueryRegistry::peak_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_live_;
}

std::map<std::string, QueryRegistry::TenantGauge> QueryRegistry::TenantGauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_;
}

SnapshotDoc QueryRegistry::Doc(const std::vector<LiveQueryInfo>& live,
                               int64_t total_started,
                               int64_t total_cancel_requests) {
  using D = SnapshotDoc;
  D queries = D::List();
  for (const LiveQueryInfo& q : live) {
    queries.Push(D::Object())
        .Add("query_id", D::Int(static_cast<int64_t>(q.query_id)))
        .Add("fingerprint", D::Fingerprint(q.fingerprint))
        .Add("statement_fingerprint", D::Fingerprint(q.statement_fingerprint))
        .Add("tenant", D::String(q.tenant))
        .Add("query_head", D::String(q.query_head))
        .Add("phase", D::String(QueryPhaseName(q.phase)))
        .Add("elapsed_micros", D::Int(q.elapsed_micros))
        .Add("rows_produced", D::Int(q.rows_produced))
        .Add("peak_bytes", D::Int(q.peak_bytes))
        .Add("memory_budget_bytes", D::Int(q.memory_budget_bytes))
        .Add("budget_breached", D::Bool(q.budget_breached))
        .Add("cancel_requested", D::Bool(q.cancel_requested));
  }
  return D::Object("live queries")
      .Add("live_count", D::Int(static_cast<int64_t>(live.size())))
      .Add("total_started", D::Int(total_started))
      .Add("total_cancel_requests", D::Int(total_cancel_requests))
      .Add("queries", std::move(queries));
}

}  // namespace aldsp::observability
