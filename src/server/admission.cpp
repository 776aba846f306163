#include "server/admission.h"

#include <algorithm>
#include <chrono>

namespace aldsp::server {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How long a queued waiter sleeps between checks of its cancel flag and
/// queue deadline. A CancelQuery against a queued execution is observed
/// within one slice; dispatch itself is cv-signalled, not polled, so the
/// slice only bounds cancel/timeout latency. Every slice wakeup takes the
/// controller mutex, so with hundreds of parked clients on a small host
/// the slice must stay coarse: at 100ms, 256 waiters cost ~2.5k wakeups/s
/// in aggregate instead of the 25k/s a 10ms slice would burn — measurably
/// real throughput on a single-CPU container.
constexpr int64_t kWaitSliceMicros = 100'000;

}  // namespace

const char* QueryClassName(QueryClass cls) {
  return cls == QueryClass::kAnalytics ? "analytics" : "interactive";
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {}

int AdmissionController::analytics_cap() const {
  if (options_.max_concurrent_analytics > 0) {
    return std::min(options_.max_concurrent_analytics,
                    options_.max_concurrent_queries);
  }
  return std::max(1, options_.max_concurrent_queries - 1);
}

double AdmissionController::WeightFor(const std::string& tenant) const {
  auto it = options_.tenant_weights.find(tenant);
  if (it == options_.tenant_weights.end() || it->second <= 0.0) return 1.0;
  return it->second;
}

void AdmissionController::PurgeLane(Lane* lane) {
  for (auto& q : lane->q) {
    while (!q.empty() && q.front()->state == Waiter::State::kShed) {
      q.pop_front();
    }
  }
}

int AdmissionController::EligibleHeadLocked(const Lane& lane) const {
  if (!lane.q[0].empty()) return 0;  // interactive dispatches first
  if (!lane.q[1].empty() && analytics_running_ < analytics_cap()) return 1;
  return -1;
}

void AdmissionController::AdmitSlotLocked(QueryClass cls,
                                          const std::string& tenant,
                                          bool queued, int64_t wait_micros) {
  ++running_;
  if (cls == QueryClass::kAnalytics) ++analytics_running_;
  ++admitted_;
  ++admitted_by_class_[static_cast<int>(cls)];
  if (queued) ++queued_total_;
  wait_.Record(wait_micros);
  auto& t = tenant_counters_[tenant];
  t.weight = WeightFor(tenant);
  ++t.admitted;
  if (queued) ++t.queued;
}

void AdmissionController::DispatchLocked() {
  while (running_ < options_.max_concurrent_queries) {
    // Pick the lane with the smallest virtual time among lanes whose head
    // is dispatchable. O(active tenants) per grant — lanes exist only
    // while a tenant has waiters.
    Lane* best = nullptr;
    const std::string* best_tenant = nullptr;
    int best_cls = -1;
    for (auto it = lanes_.begin(); it != lanes_.end();) {
      PurgeLane(&it->second);
      if (it->second.q[0].empty() && it->second.q[1].empty()) {
        it = lanes_.erase(it);
        continue;
      }
      int cls = EligibleHeadLocked(it->second);
      if (cls >= 0 && (best == nullptr || it->second.vtime < best->vtime)) {
        best = &it->second;
        best_tenant = &it->first;
        best_cls = cls;
      }
      ++it;
    }
    if (best == nullptr) return;  // empty, or analytics-capped heads only
    std::shared_ptr<Waiter> w = best->q[best_cls].front();
    best->q[best_cls].pop_front();
    best->vtime += 1.0 / WeightFor(*best_tenant);
    virtual_time_ = std::max(virtual_time_, best->vtime);
    --waiting_;
    w->state = Waiter::State::kAdmitted;
    // Slot accounting (incl. the wait histogram) happens in Admit when the
    // waiter wakes and knows its own wait; reserve the slot here so this
    // loop and concurrent fast-path admits see consistent occupancy.
    ++running_;
    if (w->cls == QueryClass::kAnalytics) ++analytics_running_;
    w->cv.notify_one();
  }
}

AdmissionController::Ticket AdmissionController::Admit(
    const std::string& tenant, QueryClass cls,
    const observability::QueryControl* ctl) {
  Ticket ticket;
  ticket.cls = cls;
  if (!enabled()) return ticket;

  std::unique_lock<std::mutex> lock(mu_);
  const bool class_has_room =
      cls == QueryClass::kInteractive || analytics_running_ < analytics_cap();
  if (waiting_ == 0 && running_ < options_.max_concurrent_queries &&
      class_has_room) {
    // Uncontended fast path: nobody is queued, so granting immediately
    // cannot reorder anyone. Fairness accounting is moot with an empty
    // queue; lane virtual times only matter while waiters exist.
    AdmitSlotLocked(cls, tenant, /*queued=*/false, /*wait_micros=*/0);
    return ticket;
  }

  if (waiting_ >= options_.max_queue_depth) {
    ++shed_queue_full_;
    auto& t = tenant_counters_[tenant];
    t.weight = WeightFor(tenant);
    ++t.shed;
    ticket.status = Status::ResourceExhausted(
        "admission queue full (" + std::to_string(waiting_) + " waiting, " +
        "max_queue_depth=" + std::to_string(options_.max_queue_depth) + ")");
    return ticket;
  }

  auto w = std::make_shared<Waiter>();
  w->cls = cls;
  Lane& lane = lanes_[tenant];
  if (lane.q[0].empty() && lane.q[1].empty()) {
    // (Re-)activating lane starts at the global virtual clock: an idle
    // tenant must not bank credit and then burst past active ones.
    lane.vtime = std::max(lane.vtime, virtual_time_);
  }
  lane.q[static_cast<int>(cls)].push_back(w);
  ++waiting_;
  const int64_t enqueued_at = NowMicros();
  const int64_t deadline =
      options_.queue_timeout_micros > 0
          ? enqueued_at + options_.queue_timeout_micros
          : 0;
  DispatchLocked();  // a free slot may make us dispatchable right away

  while (w->state == Waiter::State::kWaiting) {
    const int64_t now = NowMicros();
    if (ctl != nullptr && ctl->IsCancelled()) {
      w->state = Waiter::State::kShed;  // lazy-removal marker
      --waiting_;
      ++cancelled_while_queued_;
      ticket.queued = true;
      ticket.wait_micros = now - enqueued_at;
      ticket.status = Status::Cancelled("cancelled while queued for admission");
      return ticket;
    }
    if (deadline != 0 && now >= deadline) {
      w->state = Waiter::State::kShed;
      --waiting_;
      ++shed_timeout_;
      ++tenant_counters_[tenant].shed;
      ticket.queued = true;
      ticket.wait_micros = now - enqueued_at;
      ticket.status = Status::ResourceExhausted(
          "admission queue timeout after " +
          std::to_string(ticket.wait_micros / 1000) + " ms (queue_timeout=" +
          std::to_string(options_.queue_timeout_micros / 1000) + " ms)");
      return ticket;
    }
    int64_t sleep = kWaitSliceMicros;
    if (deadline != 0) sleep = std::min(sleep, deadline - now);
    w->cv.wait_for(lock, std::chrono::microseconds(std::max<int64_t>(sleep, 1)));
  }

  // Admitted by DispatchLocked (slot already reserved there).
  ticket.queued = true;
  ticket.wait_micros = NowMicros() - enqueued_at;
  --running_;  // AdmitSlotLocked re-adds; avoid double-counting the reserve
  if (cls == QueryClass::kAnalytics) --analytics_running_;
  AdmitSlotLocked(cls, tenant, /*queued=*/true, ticket.wait_micros);
  return ticket;
}

void AdmissionController::Release(QueryClass cls) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  if (cls == QueryClass::kAnalytics) --analytics_running_;
  DispatchLocked();
}

AdmissionSnapshot AdmissionController::Snapshot() const {
  AdmissionSnapshot snap;
  snap.enabled = enabled();
  snap.max_concurrent_queries = options_.max_concurrent_queries;
  snap.max_concurrent_analytics = enabled() ? analytics_cap() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  snap.running = running_;
  snap.analytics_running = analytics_running_;
  snap.queue_depth = waiting_;
  snap.admitted = admitted_;
  snap.admitted_interactive = admitted_by_class_[0];
  snap.admitted_analytics = admitted_by_class_[1];
  snap.queued = queued_total_;
  snap.shed_queue_full = shed_queue_full_;
  snap.shed_timeout = shed_timeout_;
  snap.cancelled_while_queued = cancelled_while_queued_;
  snap.wait = wait_;
  snap.tenants = tenant_counters_;
  return snap;
}

void AdmissionController::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  admitted_ = 0;
  admitted_by_class_[0] = 0;
  admitted_by_class_[1] = 0;
  queued_total_ = 0;
  shed_queue_full_ = 0;
  shed_timeout_ = 0;
  cancelled_while_queued_ = 0;
  wait_.Reset();
  tenant_counters_.clear();
}

observability::SnapshotDoc AdmissionSnapshot::Doc() const {
  using D = observability::SnapshotDoc;
  D wait_doc = D::Object();
  wait_doc.Add("count", D::Int(wait.count))
      .Add("mean_micros", D::Int(static_cast<int64_t>(wait.MeanMicros())))
      .Add("p95_micros_upper", D::Int(wait.PercentileUpperMicros(0.95)))
      .Add("p99_micros_upper", D::Int(wait.PercentileUpperMicros(0.99)))
      .Add("max_micros", D::Int(wait.max_micros));
  D tenant_list = D::List();
  for (const auto& [tenant, t] : tenants) {
    tenant_list.Push(D::Object())
        .Add("tenant", D::String(tenant))
        .Add("weight", D::Real(t.weight, 3))
        .Add("admitted", D::Int(t.admitted))
        .Add("queued", D::Int(t.queued))
        .Add("shed", D::Int(t.shed));
  }
  return D::Object("admission control")
      .Add("enabled", D::Bool(enabled))
      .Add("max_concurrent_queries", D::Int(max_concurrent_queries))
      .Add("max_concurrent_analytics", D::Int(max_concurrent_analytics))
      .Add("running", D::Int(running))
      .Add("analytics_running", D::Int(analytics_running))
      .Add("queue_depth", D::Int(queue_depth))
      .Add("admitted", D::Int(admitted))
      .Add("admitted_interactive", D::Int(admitted_interactive))
      .Add("admitted_analytics", D::Int(admitted_analytics))
      .Add("queued", D::Int(queued))
      .Add("shed_queue_full", D::Int(shed_queue_full))
      .Add("shed_timeout", D::Int(shed_timeout))
      .Add("cancelled_while_queued", D::Int(cancelled_while_queued))
      .Add("wait", std::move(wait_doc))
      .Add("tenants", std::move(tenant_list));
}

}  // namespace aldsp::server
