// Admission control & fair scheduling: the concurrent serving plane.
// Controller-level tests pin the scheduling semantics (weighted-fair
// lanes, interactive-first priority, analytics cap, overflow/timeout
// shed, cancel-while-queued); server-level tests drive the gate end to
// end through Execute*/ExecuteStream, the per-query memory budget
// through all four cross-source join methods, and the shed-outcome
// threading through audit log, stat_statements, workload journal and
// metrics. Everything here runs under TSan in the check.sh concurrency
// gate, so the tests use real threads and generous deadlines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "observability/query_registry.h"
#include "observability/replay.h"
#include "observability/stat_statements.h"
#include "optimizer/optimizer.h"
#include "runtime/evaluator.h"
#include "server/admission.h"
#include "server/server.h"
#include "tests/e2e_fixture.h"
#include "tests/test_fixtures.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using aldsp::testing::CompileJoin;
using aldsp::testing::MarkLargeClauses;
using aldsp::testing::RunningExample;
using observability::QueryControl;
using observability::QueryPhase;
using observability::QueryRegistry;
using observability::RenderJson;
using observability::RenderJsonLines;
using observability::RenderText;
using server::AdmissionController;
using server::AdmissionOptions;
using server::AdmissionSnapshot;
using server::DataServicePlatform;
using server::QueryClass;
using server::ServerOptions;
using xquery::Clause;
using xquery::ExprPtr;
using xquery::JoinMethod;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string AuditJsonl(DataServicePlatform& platform) {
  return RenderJsonLines(observability::ExecutionAuditLog::Doc(
      platform.execution_audit().Records()));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Pred>
bool WaitFor(Pred pred, int64_t timeout_ms = 10'000) {
  const int64_t start = NowMs();
  while (!pred()) {
    if (NowMs() - start > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ----- AdmissionController: scheduling semantics --------------------------

TEST(AdmissionControllerTest, DisabledGateAdmitsImmediately) {
  AdmissionController ac;  // max_concurrent_queries = 0
  EXPECT_FALSE(ac.enabled());
  auto t = ac.Admit("anyone", QueryClass::kAnalytics);
  EXPECT_TRUE(t.status.ok());
  EXPECT_EQ(t.wait_micros, 0);
  ac.Release(t.cls);  // no-op, must not underflow anything
  EXPECT_EQ(ac.Snapshot().running, 0);
}

TEST(AdmissionControllerTest, FastPathThenQueueThenRelease) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 30'000'000;
  AdmissionController ac(opts);

  auto t1 = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(t1.status.ok());
  EXPECT_FALSE(t1.queued);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto t2 = ac.Admit("a", QueryClass::kInteractive);
    EXPECT_TRUE(t2.status.ok());
    EXPECT_TRUE(t2.queued);
    admitted.store(true);
    ac.Release(t2.cls);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 1; }));
  EXPECT_FALSE(admitted.load());

  ac.Release(t1.cls);
  waiter.join();
  EXPECT_TRUE(admitted.load());

  AdmissionSnapshot snap = ac.Snapshot();
  EXPECT_EQ(snap.running, 0);
  EXPECT_EQ(snap.queue_depth, 0);
  EXPECT_EQ(snap.admitted, 2);
  EXPECT_EQ(snap.queued, 1);
  EXPECT_GE(snap.wait.count, 2);
}

TEST(AdmissionControllerTest, QueueOverflowShedsImmediately) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queue_depth = 1;
  opts.queue_timeout_micros = 30'000'000;
  AdmissionController ac(opts);

  auto slot = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(slot.status.ok());
  std::thread queued([&] {
    auto t = ac.Admit("a", QueryClass::kInteractive);
    EXPECT_TRUE(t.status.ok());
    if (t.status.ok()) ac.Release(t.cls);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 1; }));

  // Queue is at max_queue_depth: the next arrival is refused on the spot.
  auto shed = ac.Admit("b", QueryClass::kInteractive);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  EXPECT_FALSE(shed.queued);

  ac.Release(slot.cls);
  queued.join();
  AdmissionSnapshot snap = ac.Snapshot();
  EXPECT_EQ(snap.shed_queue_full, 1);
  EXPECT_EQ(snap.tenants.at("b").shed, 1);
}

TEST(AdmissionControllerTest, QueueTimeoutSheds) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 100'000;  // 100ms
  AdmissionController ac(opts);

  auto slot = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(slot.status.ok());
  const int64_t t0 = NowMs();
  auto shed = ac.Admit("a", QueryClass::kInteractive);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  EXPECT_TRUE(shed.queued);
  EXPECT_GE(NowMs() - t0, 90);
  ac.Release(slot.cls);

  AdmissionSnapshot snap = ac.Snapshot();
  EXPECT_EQ(snap.shed_timeout, 1);
  EXPECT_EQ(snap.queue_depth, 0);
  EXPECT_EQ(snap.running, 0);
}

TEST(AdmissionControllerTest, CancelWhileQueuedUnblocksWithCancelled) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 30'000'000;
  AdmissionController ac(opts);
  QueryRegistry registry;

  auto slot = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(slot.status.ok());

  auto ctl = registry.Register(1, 1, "a", "queued query");
  std::atomic<bool> returned{false};
  Status verdict;
  std::thread waiter([&] {
    auto t = ac.Admit("a", QueryClass::kInteractive, ctl.get());
    verdict = t.status;
    returned.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 1; }));
  ASSERT_TRUE(registry.Cancel(ctl->query_id));
  waiter.join();
  ASSERT_TRUE(returned.load());
  EXPECT_EQ(verdict.code(), StatusCode::kCancelled) << verdict.ToString();

  // The cancelled waiter holds no slot and left no queue residue; the
  // slot holder's release must not dispatch a ghost.
  ac.Release(slot.cls);
  AdmissionSnapshot snap = ac.Snapshot();
  EXPECT_EQ(snap.running, 0);
  EXPECT_EQ(snap.queue_depth, 0);
  EXPECT_EQ(snap.cancelled_while_queued, 1);
  registry.Unregister(ctl->query_id);
}

TEST(AdmissionControllerTest, InteractiveDispatchesBeforeQueuedAnalytics) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 30'000'000;
  AdmissionController ac(opts);

  auto slot = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(slot.status.ok());

  std::vector<int> order;
  std::mutex order_mu;
  std::thread analytics([&] {
    auto t = ac.Admit("a", QueryClass::kAnalytics);
    ASSERT_TRUE(t.status.ok());
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(1);
    }
    ac.Release(t.cls);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 1; }));
  std::thread interactive([&] {
    auto t = ac.Admit("a", QueryClass::kInteractive);
    ASSERT_TRUE(t.status.ok());
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(0);
    }
    ac.Release(t.cls);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 2; }));

  // The analytics waiter arrived first, but the lane's interactive head
  // takes the freed slot.
  ac.Release(slot.cls);
  interactive.join();
  analytics.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(AdmissionControllerTest, AnalyticsCapKeepsASlotForInteractive) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 2;  // analytics cap auto-sizes to 1
  opts.queue_timeout_micros = 30'000'000;
  AdmissionController ac(opts);
  EXPECT_EQ(ac.analytics_cap(), 1);

  auto scan1 = ac.Admit("a", QueryClass::kAnalytics);
  ASSERT_TRUE(scan1.status.ok());

  // Second analytics query: a slot is free, but the cap holds it back.
  std::atomic<bool> scan2_admitted{false};
  std::thread scan2([&] {
    auto t = ac.Admit("a", QueryClass::kAnalytics);
    ASSERT_TRUE(t.status.ok());
    scan2_admitted.store(true);
    ac.Release(t.cls);
  });
  ASSERT_TRUE(WaitFor([&] { return ac.Snapshot().queue_depth == 1; }));
  EXPECT_FALSE(scan2_admitted.load());

  // An interactive arrival takes the capped-off slot straight away, past
  // the queued scan.
  auto lookup = ac.Admit("a", QueryClass::kInteractive);
  ASSERT_TRUE(lookup.status.ok());
  EXPECT_FALSE(scan2_admitted.load());
  ac.Release(lookup.cls);

  // Only the first scan's release lets the second one through.
  ac.Release(scan1.cls);
  scan2.join();
  EXPECT_TRUE(scan2_admitted.load());
  EXPECT_EQ(ac.Snapshot().running, 0);
}

// Two tenants, skewed offered load (8 client threads vs 2), one slot:
// weighted-fair lanes with equal weights give near-equal goodput, not
// thread-count-proportional goodput.
TEST(AdmissionControllerTest, FairShareUnderSkewedOfferedLoad) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 60'000'000;
  AdmissionController ac(opts);

  constexpr int kTarget = 300;
  constexpr int kClients = 10;
  std::atomic<int> total{0};
  std::atomic<int> ready{0};
  // Start gate: on one CPU a thread can finish the whole loop before the
  // later threads are even created, so no admission counts until every
  // client is running and both lanes carry offered load.
  auto client = [&](const std::string& tenant) {
    ready.fetch_add(1);
    while (ready.load(std::memory_order_relaxed) < kClients) {
      std::this_thread::yield();
    }
    while (total.load(std::memory_order_relaxed) < kTarget) {
      auto t = ac.Admit(tenant, QueryClass::kInteractive);
      ASSERT_TRUE(t.status.ok()) << t.status.ToString();
      total.fetch_add(1, std::memory_order_relaxed);
      // Hold the slot briefly: queries take time, and the backlog this
      // builds is what routes every grant through the fair scheduler
      // (back-to-back releases would re-admit on the uncontended fast
      // path and measure thread scheduling, not SFQ).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ac.Release(t.cls);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) clients.emplace_back(client, "heavy");
  for (int i = 0; i < 2; ++i) clients.emplace_back(client, "light");
  for (auto& t : clients) t.join();

  AdmissionSnapshot snap = ac.Snapshot();
  const int64_t heavy = snap.tenants.at("heavy").admitted;
  const int64_t light = snap.tenants.at("light").admitted;
  const int64_t all = heavy + light;
  ASSERT_GE(all, kTarget);
  // Near-equal shares despite 4x the offered load (generous TSan bounds:
  // each tenant within [30%, 70%]).
  EXPECT_GE(heavy * 100, all * 30) << "heavy=" << heavy << " light=" << light;
  EXPECT_GE(light * 100, all * 30) << "heavy=" << heavy << " light=" << light;
  EXPECT_EQ(snap.queue_depth, 0);
  EXPECT_EQ(snap.running, 0);
}

TEST(AdmissionControllerTest, TenantWeightsSkewTheShare) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_timeout_micros = 60'000'000;
  opts.tenant_weights["gold"] = 3.0;
  AdmissionController ac(opts);

  constexpr int kTarget = 300;
  constexpr int kClients = 8;
  std::atomic<int> total{0};
  std::atomic<int> ready{0};
  auto client = [&](const std::string& tenant) {
    ready.fetch_add(1);
    while (ready.load(std::memory_order_relaxed) < kClients) {
      std::this_thread::yield();
    }
    while (total.load(std::memory_order_relaxed) < kTarget) {
      auto t = ac.Admit(tenant, QueryClass::kInteractive);
      ASSERT_TRUE(t.status.ok()) << t.status.ToString();
      total.fetch_add(1, std::memory_order_relaxed);
      // Hold the slot briefly: queries take time, and the backlog this
      // builds is what routes every grant through the fair scheduler
      // (back-to-back releases would re-admit on the uncontended fast
      // path and measure thread scheduling, not SFQ).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ac.Release(t.cls);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) clients.emplace_back(client, "gold");
  for (int i = 0; i < 4; ++i) clients.emplace_back(client, "bronze");
  for (auto& t : clients) t.join();

  AdmissionSnapshot snap = ac.Snapshot();
  const int64_t gold = snap.tenants.at("gold").admitted;
  const int64_t bronze = snap.tenants.at("bronze").admitted;
  // Weight 3 vs 1: gold should get roughly 3x; assert comfortably > 1.8x.
  EXPECT_GT(gold * 10, bronze * 18) << "gold=" << gold
                                    << " bronze=" << bronze;
}

TEST(AdmissionControllerTest, SnapshotRenderers) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 2;
  AdmissionController ac(opts);
  auto t = ac.Admit("tenant-x", QueryClass::kInteractive);
  ASSERT_TRUE(t.status.ok());
  std::string text = RenderText(ac.Snapshot().Doc());
  EXPECT_TRUE(Contains(text, "admission control")) << text;
  EXPECT_TRUE(Contains(text, "tenant-x")) << text;
  std::string json = RenderJson(ac.Snapshot().Doc());
  EXPECT_EQ(json.front(), '{');
  EXPECT_TRUE(Contains(json, "\"admitted\":1")) << json;
  EXPECT_TRUE(Contains(json, "\"tenant\":\"tenant-x\"")) << json;
  ac.Release(t.cls);
  ac.ResetStats();
  EXPECT_EQ(ac.Snapshot().admitted, 0);
}

// ----- Memory budget: breach mid-stream, all four join methods ------------

struct BudgetCase {
  JoinMethod method;
  int dop;
};

class BudgetBreachTest : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetBreachTest, BreachFailsFastWithResourceExhausted) {
  const BudgetCase& param = GetParam();
  RunningExample env(60, 3);
  ExprPtr plan = CompileJoin(env, param.method, /*k=*/10);
  MarkLargeClauses(*plan);
  env.ctx.max_query_dop = param.dop;

  QueryRegistry registry;
  auto ctl = registry.Register(1, 0, "test", "join");
  // Any blocking materialization (build side, PP-k block, sort buffer)
  // exceeds 64 bytes, so the breach fires at the first watermark note and
  // the next cooperative poll stops the stream.
  ctl->SetMemoryBudget(64);
  env.ctx.exec = ctl.get();
  env.ctx.exec_owner = ctl;

  const int64_t t0 = NowMs();
  Status st = runtime::EvaluateStream(*plan, env.ctx,
                                      [&](const xml::Item&) -> Status {
                                        return Status::OK();
                                      });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(ctl->BudgetBreached());
  EXPECT_LT(NowMs() - t0, 10'000);  // fails fast, never hangs
  // Pool tasks drained through the normal cancel/Close paths.
  EXPECT_EQ(env.pool.queue_depth(), 0);

  // The same plan runs to completion without a budget: the breach did not
  // poison shared state.
  env.ctx.exec = nullptr;
  env.ctx.exec_owner.reset();
  auto again = runtime::Evaluate(*plan, env.ctx);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->size(), 0u);
  registry.Unregister(ctl->query_id);
}

std::string BudgetCaseName(const ::testing::TestParamInfo<BudgetCase>& info) {
  std::string name;
  switch (info.param.method) {
    case JoinMethod::kNestedLoop:
      name = "NestedLoop";
      break;
    case JoinMethod::kIndexNestedLoop:
      name = "IndexNestedLoop";
      break;
    case JoinMethod::kPPkNestedLoop:
      name = "PPkNestedLoop";
      break;
    case JoinMethod::kPPkIndexNestedLoop:
      name = "PPkIndexNestedLoop";
      break;
    default:
      name = "Auto";
      break;
  }
  return name + "Dop" + std::to_string(info.param.dop);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndDops, BudgetBreachTest,
    ::testing::Values(BudgetCase{JoinMethod::kNestedLoop, 1},
                      BudgetCase{JoinMethod::kNestedLoop, 8},
                      BudgetCase{JoinMethod::kIndexNestedLoop, 1},
                      BudgetCase{JoinMethod::kIndexNestedLoop, 8},
                      BudgetCase{JoinMethod::kPPkNestedLoop, 1},
                      BudgetCase{JoinMethod::kPPkNestedLoop, 8},
                      BudgetCase{JoinMethod::kPPkIndexNestedLoop, 1},
                      BudgetCase{JoinMethod::kPPkIndexNestedLoop, 8}),
    BudgetCaseName);

// ----- Server end to end --------------------------------------------------

class AdmissionServer {
 public:
  explicit AdmissionServer(ServerOptions opts = {})
      : platform(std::move(opts)) {
    auto cdb =
        std::shared_ptr<relational::Database>(MakeCustomerDb(30, 3).release());
    customer_db = cdb.get();
    auto bdb =
        std::shared_ptr<relational::Database>(MakeCreditCardDb(30).release());
    EXPECT_TRUE(platform.RegisterRelationalSource("ns3", cdb, "oracle").ok());
    EXPECT_TRUE(platform.RegisterRelationalSource("ns2", bdb, "db2").ok());
  }
  DataServicePlatform platform;
  relational::Database* customer_db = nullptr;
};

constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <R><C>{fn:data($c/CID)}</C><L>{fn:data($cc/LIMIT_AMT)}</L></R>";

constexpr const char* kLookup =
    "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
    "return fn:data($c/LAST_NAME)";

TEST(AdmissionServerTest, BudgetBreachThreadsShedOutcomeEverywhere) {
  ServerOptions opts;
  opts.query_memory_budget_bytes = 1024;  // any join build side exceeds this
  AdmissionServer env(std::move(opts));

  auto r = env.platform.Execute(kCrossJoin);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_TRUE(Contains(r.status().message(), "memory budget"))
      << r.status().ToString();

  // Outcome threading: audit log, stat_statements, workload journal and
  // per-tenant metrics all classify the run as shed, not as an error.
  EXPECT_TRUE(Contains(AuditJsonl(env.platform),
                       "\"outcome\":\"ResourceExhausted\""));
  auto top = env.platform.stat_statements().TopK(0);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].sheds, 1);
  EXPECT_EQ(top[0].errors, 0);
  EXPECT_TRUE(Contains(
      RenderJsonLines(observability::WorkloadJournal::Doc(
                          env.platform.workload_journal().Records(), 0, 0)
                          .Member("entries")),
      "\"outcome\":\"ResourceExhausted\""));
  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.windowed_counters.at("tenant.(anonymous).sheds").total,
            1);
  // The breached run unregistered cleanly.
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);

  // A point lookup under the same budget stays under it and succeeds.
  auto ok = env.platform.Execute(kLookup);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(AdmissionServerTest, ExplainShowsClassAndBudget) {
  ServerOptions opts;
  opts.max_concurrent_queries = 4;
  opts.analytics_threshold_micros = 25'000;
  opts.query_memory_budget_bytes = 1 << 20;
  AdmissionServer env(std::move(opts));

  // Never-run statement: no cost history, defaults to interactive.
  auto lookup_explain = env.platform.Explain(kLookup);
  ASSERT_TRUE(lookup_explain.ok());
  EXPECT_TRUE(Contains(*lookup_explain, "class=interactive"))
      << *lookup_explain;
  EXPECT_TRUE(Contains(*lookup_explain, "memory_budget_bytes=1048576"))
      << *lookup_explain;

  // Feed the join's statement history a slow sample: it crosses the
  // analytics threshold and the gate reclassifies it.
  auto plan = env.platform.Prepare(kCrossJoin);
  ASSERT_TRUE(plan.ok());
  observability::QueryCompletion slow;
  slow.fingerprint = (*plan)->fingerprint;
  slow.statement_fingerprint = (*plan)->statement_fingerprint;
  slow.text = "join";
  slow.wall_micros = 100'000;
  env.platform.stat_statements().Record(slow);
  auto join_explain = env.platform.Explain(kCrossJoin);
  ASSERT_TRUE(join_explain.ok());
  EXPECT_TRUE(Contains(*join_explain, "class=analytics")) << *join_explain;
}

TEST(AdmissionServerTest, QueueTimeoutShedsAndCancelWhileQueuedCancels) {
  ServerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.admission_queue_timeout_micros = 300'000;  // 300ms
  AdmissionServer env(std::move(opts));

  // Hold the only slot deterministically: a streaming query whose sink
  // blocks until released.
  std::atomic<bool> holder_started{false};
  std::atomic<bool> release_holder{false};
  std::thread holder([&] {
    Status st = env.platform.ExecuteStream(
        kLookup, [&](const xml::Item&) -> Status {
          holder_started.store(true);
          while (!release_holder.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return holder_started.load(); }));

  // (1) Queue-wait timeout: a second query sheds after ~300ms.
  auto shed = env.platform.Execute(kCrossJoin);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status().ToString();
  EXPECT_TRUE(Contains(AuditJsonl(env.platform),
                       "\"outcome\":\"ResourceExhausted\""));
  // The admission audit trail names the gate.
  bool saw_admission_event = false;
  for (const auto& e : env.platform.audit_log().Events()) {
    if (e.category == "admission") saw_admission_event = true;
  }
  EXPECT_TRUE(saw_admission_event);

  // (2) Cancel while queued: find the queued query in the live registry
  // and cancel it; the waiter returns kCancelled well before its timeout.
  Status queued_verdict;
  std::thread queued([&] {
    auto r = env.platform.Execute(kCrossJoin);
    queued_verdict = r.ok() ? Status::OK() : r.status();
  });
  uint64_t queued_id = 0;
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& q : env.platform.query_registry().Snapshot()) {
      if (q.phase == QueryPhase::kQueued) {
        queued_id = q.query_id;
        return true;
      }
    }
    return false;
  }));
  EXPECT_TRUE(env.platform.CancelQuery(queued_id));
  queued.join();
  EXPECT_EQ(queued_verdict.code(), StatusCode::kCancelled)
      << queued_verdict.ToString();

  release_holder.store(true);
  holder.join();

  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.counters.at("admission.shed_timeout"), 1);
  EXPECT_EQ(snapshot.counters.at("admission.cancelled_while_queued"), 1);
  EXPECT_EQ(snapshot.counters.at("admission.depth"), 0);
  EXPECT_EQ(snapshot.counters.at("admission.running"), 0);
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);
}

TEST(AdmissionServerTest, ConcurrentMixedLoadDrainsCleanly) {
  ServerOptions opts;
  opts.max_concurrent_queries = 2;
  opts.admission_queue_timeout_micros = 60'000'000;
  AdmissionServer env(std::move(opts));

  // Eight client threads hammer lookups and joins through one two-slot
  // gate, rotating over the materialized, streamed and profiled entry
  // points; everything must succeed and the gate must drain to zero.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      for (int op = 0; op < 6; ++op) {
        const char* q = (i + op) % 3 == 0 ? kCrossJoin : kLookup;
        Status st;
        switch ((i + 2 * op) % 3) {
          case 0:
            st = env.platform.Execute(q).status();
            break;
          case 1:
            st = env.platform.ExecuteStream(
                q, [](const xml::Item&) { return Status::OK(); });
            break;
          default:
            st = env.platform.ExecuteProfiled(q).status();
            break;
        }
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.counters.at("admission.depth"), 0);
  EXPECT_EQ(snapshot.counters.at("admission.running"), 0);
  EXPECT_EQ(snapshot.counters.at("admission.admitted"), 48);
  // The saturation gauge is clamped to a percentage; inline-steal
  // overshoot reports separately.
  EXPECT_LE(snapshot.counters.at("worker_pool.saturation_pct"), 100);
  EXPECT_GE(snapshot.counters.at("worker_pool.oversubscription_pct"), 0);
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);
}

// ----- Replay: sheds are not errors ---------------------------------------

TEST(ReplayShedTest, ShedExecutionsCountApartFromErrors) {
  std::vector<observability::WorkloadJournalEntry> entries(3);
  for (int i = 0; i < 3; ++i) {
    entries[i].statement_fingerprint = 7;
    entries[i].text = "q";
    entries[i].wall_micros = 100;
  }
  std::atomic<int> n{0};
  observability::ReplayDriver driver(
      entries, [&](const observability::WorkloadJournalEntry&) {
        observability::ReplayExecution exec;
        exec.statement_fingerprint = 7;
        const int i = n.fetch_add(1);
        if (i == 0) {
          exec.ok = true;
          exec.outcome = "ok";
        } else if (i == 1) {
          exec.shed = true;
          exec.outcome = "ResourceExhausted";
        } else {
          exec.outcome = "RuntimeError";
        }
        return exec;
      });
  observability::ReplayOptions opts;
  opts.clients = 1;
  observability::ReplayReport report = driver.Run(opts);
  EXPECT_EQ(report.ops, 3);
  EXPECT_EQ(report.sheds, 1);
  EXPECT_EQ(report.errors, 1);
  EXPECT_TRUE(Contains(RenderJson(report.Doc()), "\"sheds\":1"))
      << RenderJson(report.Doc());
}

}  // namespace
}  // namespace aldsp
