#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "observability/replay.h"
#include "observability/workload_journal.h"
#include "runtime/metrics.h"
#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using observability::ReplayDriver;
using observability::ReplayExecution;
using observability::ReplayOptions;
using observability::RenderJson;
using observability::RenderText;
using observability::ReplayReport;
using observability::WorkloadJournal;
using observability::QueryCompletion;
using observability::WorkloadJournalEntry;
using server::DataServicePlatform;
using server::ServerOptions;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// The JSONL export: the journal document's entries, one per line.
std::string Jsonl(const std::vector<WorkloadJournalEntry>& entries) {
  return observability::RenderJsonLines(
      WorkloadJournal::Doc(entries, 0, 0).Member("entries"));
}

std::string Jsonl(const WorkloadJournal& journal) {
  return Jsonl(journal.Records());
}

class WorkloadServer {
 public:
  explicit WorkloadServer(ServerOptions opts = {}) : platform(std::move(opts)) {
    auto cdb =
        std::shared_ptr<relational::Database>(MakeCustomerDb(30, 3).release());
    auto bdb =
        std::shared_ptr<relational::Database>(MakeCreditCardDb(30).release());
    EXPECT_TRUE(platform.RegisterRelationalSource("ns3", cdb, "oracle").ok());
    EXPECT_TRUE(platform.RegisterRelationalSource("ns2", bdb, "db2").ok());
  }

  // A small mixed workload: one statement shape with varied literals,
  // an aggregate under a named principal, and a cross-source join.
  void RunCapturedWorkload() {
    for (const char* cid : {"CUST001", "CUST002", "CUST003"}) {
      std::string q = "for $c in ns3:CUSTOMER() where $c/CID eq \"" +
                      std::string(cid) + "\" return fn:data($c/LAST_NAME)";
      auto r = platform.Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    security::Principal analyst{"analyst", {"support"}};
    ASSERT_TRUE(platform.ExecuteAs("fn:count(ns2:CREDIT_CARD())", analyst).ok());
    ASSERT_TRUE(platform
                    .Execute("for $c in ns3:CUSTOMER(), $cc in "
                             "ns2:CREDIT_CARD() where $c/CID eq $cc/CID "
                             "return fn:data($cc/LIMIT_AMT)")
                    .ok());
  }

  DataServicePlatform platform;
};

// ----- Journal capture ---------------------------------------------------

TEST(WorkloadJournalTest, CaptureRecordsEveryObservedExecute) {
  WorkloadServer env;
  env.RunCapturedWorkload();

  auto entries = env.platform.workload_journal().Records();
  ASSERT_EQ(entries.size(), 5u);
  // Sequence numbers ascend and offsets never run backwards.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, static_cast<int64_t>(i));
    EXPECT_GE(entries[i].offset_micros, 0);
    if (i > 0) {
      EXPECT_GE(entries[i].offset_micros, entries[i - 1].offset_micros);
    }
    EXPECT_EQ(entries[i].outcome, "ok");
    EXPECT_NE(entries[i].statement_fingerprint, 0u);
    EXPECT_NE(entries[i].plan_fingerprint, 0u);
    EXPECT_FALSE(entries[i].text.empty());
  }
  // Literal-varied runs of one statement share the statement fingerprint
  // but keep their verbatim text.
  EXPECT_EQ(entries[0].statement_fingerprint,
            entries[1].statement_fingerprint);
  EXPECT_NE(entries[0].text, entries[1].text);
  EXPECT_TRUE(Contains(entries[0].text, "CUST001"));
  // The principal rides along for per-tenant replay.
  EXPECT_EQ(entries[3].principal, "analyst");
  EXPECT_EQ(entries[0].principal, "");

  // The capture matches what Prepare reports for the same text.
  auto plan = env.platform.Prepare(entries[4].text);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(entries[4].statement_fingerprint, (*plan)->statement_fingerprint);
  EXPECT_EQ(entries[4].plan_fingerprint, (*plan)->fingerprint);
}

TEST(WorkloadJournalTest, CaptureCanBeDisabled) {
  ServerOptions opts;
  opts.workload_capture = false;
  WorkloadServer env(std::move(opts));
  ASSERT_TRUE(env.platform.Execute("fn:count(ns3:CUSTOMER())").ok());
  EXPECT_EQ(env.platform.workload_journal().total_appended(), 0);

  env.platform.SetWorkloadCapture(true);
  ASSERT_TRUE(env.platform.Execute("fn:count(ns3:CUSTOMER())").ok());
  EXPECT_EQ(env.platform.workload_journal().total_appended(), 1);
}

TEST(WorkloadJournalTest, RingEvictsOldestAtCapacity) {
  WorkloadJournal journal(3);
  for (int i = 0; i < 7; ++i) {
    QueryCompletion c;
    c.text = std::string("q") + std::to_string(i);
    journal.Append(c);
  }
  EXPECT_EQ(journal.total_appended(), 7);
  auto entries = journal.Records();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].text, "q4");
  EXPECT_EQ(entries[2].text, "q6");
  EXPECT_EQ(entries[2].seq, 6);

  journal.Clear();
  EXPECT_TRUE(journal.Records().empty());
  QueryCompletion c;
  c.text = "fresh";
  journal.Append(c);
  // Clear re-arms the epoch, so the first post-clear offset is ~0 again.
  EXPECT_LT(journal.Records()[0].offset_micros, 1'000'000);
}

// ----- JSONL round trip --------------------------------------------------

TEST(WorkloadJournalTest, JsonlRoundTripPreservesEveryField) {
  std::vector<WorkloadJournalEntry> entries;
  WorkloadJournalEntry a;
  a.seq = 12;
  a.offset_micros = 345678;
  a.statement_fingerprint = 0xdeadbeefcafe1234ull;  // needs 64-bit fidelity
  a.plan_fingerprint = 18446744073709551615ull;     // uint64 max
  a.text = "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" return $c";
  a.principal = "analyst";
  a.outcome = StatusCode::kOk;
  a.wall_micros = 4321;
  a.rows = 17;
  a.peak_bytes = 65536;
  entries.push_back(a);
  WorkloadJournalEntry b;
  b.seq = 13;
  b.text = "quote \" backslash \\ slash / tab \t newline \n control \x01 end";
  b.principal = "";
  b.outcome = StatusCode::kCancelled;
  entries.push_back(b);

  const std::string jsonl = Jsonl(entries);
  auto parsed = WorkloadJournal::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const WorkloadJournalEntry& ra = (*parsed)[0];
  EXPECT_EQ(ra.seq, a.seq);
  EXPECT_EQ(ra.offset_micros, a.offset_micros);
  EXPECT_EQ(ra.statement_fingerprint, a.statement_fingerprint);
  EXPECT_EQ(ra.plan_fingerprint, a.plan_fingerprint);
  EXPECT_EQ(ra.text, a.text);
  EXPECT_EQ(ra.principal, a.principal);
  EXPECT_EQ(ra.outcome, a.outcome);
  EXPECT_EQ(ra.wall_micros, a.wall_micros);
  EXPECT_EQ(ra.rows, a.rows);
  EXPECT_EQ(ra.peak_bytes, a.peak_bytes);
  EXPECT_EQ((*parsed)[1].text, b.text);
  EXPECT_EQ((*parsed)[1].outcome, b.outcome);
}

TEST(WorkloadJournalTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(WorkloadJournal::ParseJsonl("not json\n").ok());
  EXPECT_FALSE(WorkloadJournal::ParseJsonl("{\"seq\":1,\"text\":\"q\"").ok());
  // Missing text makes an entry unreplayable.
  EXPECT_FALSE(WorkloadJournal::ParseJsonl("{\"seq\":1}\n").ok());
  // Blank lines are tolerated (trailing newline, copy-paste).
  auto ok = WorkloadJournal::ParseJsonl("\n{\"seq\":1,\"text\":\"q\"}\n\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 1u);
}

// ----- Capture -> export -> import -> replay round trip ------------------

TEST(ReplayTest, ClosedLoopRoundTripVerifiesFingerprints) {
  WorkloadServer env;
  env.RunCapturedWorkload();
  const int64_t captured = env.platform.workload_journal().total_appended();

  // Export, then import as a second operator would on another box.
  auto imported =
      WorkloadJournal::ParseJsonl(Jsonl(env.platform.workload_journal()));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  ASSERT_EQ(imported->size(), 5u);

  ReplayOptions opts;
  opts.mode = ReplayOptions::Mode::kClosedLoop;
  opts.clients = 4;
  opts.total_ops = 40;
  ReplayReport report = env.platform.ReplayWorkload(*imported, opts);

  EXPECT_EQ(report.ops, 40);
  EXPECT_EQ(report.errors, 0);
  // The replayed statements compile to the captured identities.
  EXPECT_EQ(report.fingerprint_mismatches, 0);
  EXPECT_EQ(report.plan_changes, 0);
  EXPECT_GT(report.throughput_qps, 0.0);
  EXPECT_GT(report.wall_micros, 0);
  EXPECT_GE(report.p99_micros, report.p50_micros);
  EXPECT_GE(report.p999_micros, report.p99_micros);
  EXPECT_GE(report.max_micros, report.p999_micros);

  // Per-statement latency comparison vs the captured baseline exists for
  // every captured statement shape.
  ASSERT_GE(report.statements.size(), 3u);
  int64_t replayed_total = 0;
  for (const auto& s : report.statements) {
    EXPECT_GT(s.captured_calls, 0);
    EXPECT_GT(s.replayed_calls, 0);
    EXPECT_GT(s.replayed_mean_micros, 0);
    replayed_total += s.replayed_calls;
  }
  EXPECT_EQ(replayed_total, 40);

  // The replay suspended capture: the journal still holds the original
  // workload only, and capture resumed afterwards.
  EXPECT_EQ(env.platform.workload_journal().total_appended(), captured);
  EXPECT_TRUE(env.platform.workload_capture());
  ASSERT_TRUE(env.platform.Execute("fn:count(ns3:ORDER())").ok());
  EXPECT_EQ(env.platform.workload_journal().total_appended(), captured + 1);

  const std::string text = RenderText(report.Doc());
  EXPECT_TRUE(Contains(text, "ops=40")) << text;
  const std::string json = RenderJson(report.Doc());
  EXPECT_TRUE(Contains(json, "\"fingerprint_mismatches\":0")) << json;
}

TEST(ReplayTest, OpenLoopReplaysOnePassInOffsetOrder) {
  WorkloadServer env;
  env.RunCapturedWorkload();
  auto entries = env.platform.workload_journal().Records();

  ReplayOptions opts;
  opts.mode = ReplayOptions::Mode::kOpenLoop;
  opts.speed = 1000.0;  // compress the captured gaps to ~nothing
  opts.clients = 2;
  ReplayReport report = env.platform.ReplayWorkload(entries, opts);
  EXPECT_EQ(report.ops, static_cast<int64_t>(entries.size()));
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.fingerprint_mismatches, 0);
}

TEST(ReplayTest, DetectsTamperedStatementFingerprint) {
  WorkloadServer env;
  env.RunCapturedWorkload();
  auto entries = env.platform.workload_journal().Records();
  // Simulate a stale capture: the workload file claims an identity the
  // deployed services no longer produce.
  for (auto& e : entries) e.statement_fingerprint ^= 0x1;

  ReplayOptions opts;
  opts.clients = 1;
  ReplayReport report = env.platform.ReplayWorkload(entries, opts);
  EXPECT_EQ(report.fingerprint_mismatches, report.ops);
}

// Replay runs under the captured principal but without its roles, so a
// function ACL the captured run would have passed refuses the replayed op.
TEST(ReplayTest, ReplayEnforcesFunctionAcls) {
  WorkloadServer env;
  const std::string q = "fn:count(ns2:CREDIT_CARD())";
  security::Principal analyst{"analyst", {"support"}};
  ASSERT_TRUE(env.platform.ExecuteAs(q, analyst).ok());
  auto entries = env.platform.workload_journal().Records();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_EQ(entries[0].principal, "analyst");

  env.platform.access_control().AddFunctionAcl({"ns2:CREDIT_CARD", {"support"}});
  // The role-carrying caller still passes the new ACL.
  ASSERT_TRUE(env.platform.ExecuteAs(q, analyst).ok());

  ReplayOptions opts;
  opts.clients = 1;
  ReplayReport report = env.platform.ReplayWorkload(entries, opts);
  EXPECT_EQ(report.ops, 1);
  EXPECT_EQ(report.errors, 1);
  EXPECT_EQ(report.sheds, 0);
  const auto record = env.platform.execution_audit().Records().back();
  EXPECT_EQ(record.principal, "analyst");
  EXPECT_EQ(record.outcome, StatusCode::kSecurityError);
  EXPECT_EQ(record.rows_returned, 0);
  auto denied = env.platform.audit_log().EventsInCategory("access-denied");
  ASSERT_EQ(denied.size(), 1u);
  EXPECT_EQ(denied[0].user, "analyst");
}

TEST(ReplayTest, FlagsRegressionAgainstCapturedBaseline) {
  // Synthetic driver: 8 captured calls at 10us mean; the executor takes
  // >= 200us, so the replayed mean breaches the 1.5x sentinel gate.
  std::vector<WorkloadJournalEntry> entries;
  for (int i = 0; i < 8; ++i) {
    WorkloadJournalEntry e;
    e.statement_fingerprint = 7;
    e.plan_fingerprint = 9;
    e.text = "q";
    e.wall_micros = 10;
    entries.push_back(e);
  }
  ReplayDriver driver(entries, [](const WorkloadJournalEntry&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ReplayExecution exec;
    exec.ok = true;
    exec.outcome = "ok";
    exec.statement_fingerprint = 7;
    exec.plan_fingerprint = 9;
    return exec;
  });
  ReplayOptions opts;
  opts.clients = 2;
  ReplayReport report = driver.Run(opts);
  ASSERT_EQ(report.statements.size(), 1u);
  EXPECT_TRUE(report.statements[0].regressed);
  EXPECT_GE(report.statements[0].ratio, 1.5);
  EXPECT_TRUE(Contains(RenderText(report.Doc()), "regressed=true"));

  // Same capture, but too few calls for the gate: no flag.
  ReplayOptions strict = opts;
  strict.min_calls = 100;
  EXPECT_FALSE(driver.Run(strict).statements[0].regressed);
}

// ----- Concurrency observability -----------------------------------------

// Two streamed queries hold each other live via their sinks, so both are
// provably in flight at once: the registry's peak gauges must see 2.
TEST(ConcurrencyGaugesTest, PeakInFlightSeesConcurrentStreams) {
  WorkloadServer env;
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_started{false};
  auto wait_for = [](std::atomic<bool>& flag) {
    for (int i = 0; i < 4000 && !flag.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const std::string scan = "for $c in ns3:CUSTOMER() return $c";
  std::thread ta([&] {
    (void)env.platform.ExecuteStream(scan, [&](const xml::Item&) {
      a_started.store(true);
      wait_for(b_started);
      return Status::OK();
    });
  });
  std::thread tb([&] {
    (void)env.platform.ExecuteStream(scan, [&](const xml::Item&) {
      b_started.store(true);
      wait_for(a_started);
      return Status::OK();
    });
  });
  ta.join();
  tb.join();

  EXPECT_GE(env.platform.query_registry().peak_live(), 2);
  EXPECT_EQ(env.platform.query_registry().live_count(), 0);
  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_GE(snapshot.counters.at("server.peak_in_flight"), 2);
  EXPECT_EQ(snapshot.counters.at("server.in_flight"), 0);
  auto tenants = env.platform.query_registry().TenantGauges();
  ASSERT_TRUE(tenants.count("(anonymous)"));
  EXPECT_GE(tenants["(anonymous)"].peak_in_flight, 2);
  EXPECT_EQ(tenants["(anonymous)"].in_flight, 0);
  EXPECT_EQ(snapshot.counters.at("tenant.(anonymous).in_flight"), 0);
  EXPECT_GE(snapshot.counters.at("tenant.(anonymous).peak_in_flight"), 2);
}

// Deterministic per-tenant accounting at the registry level.
TEST(ConcurrencyGaugesTest, TenantGaugesTrackLiveAndPeak) {
  observability::QueryRegistry reg;
  auto c1 = reg.Register(1, 1, "alpha", "q1");
  auto c2 = reg.Register(2, 2, "alpha", "q2");
  auto c3 = reg.Register(3, 3, "beta", "q3");
  auto gauges = reg.TenantGauges();
  EXPECT_EQ(gauges["alpha"].in_flight, 2);
  EXPECT_EQ(gauges["alpha"].peak_in_flight, 2);
  EXPECT_EQ(gauges["beta"].in_flight, 1);
  EXPECT_EQ(reg.peak_live(), 3);

  reg.Unregister(c1->query_id);
  reg.Unregister(c3->query_id);
  gauges = reg.TenantGauges();
  EXPECT_EQ(gauges["alpha"].in_flight, 1);
  EXPECT_EQ(gauges["alpha"].peak_in_flight, 2);  // peak survives the drain
  EXPECT_EQ(gauges["beta"].in_flight, 0);
  EXPECT_EQ(gauges["beta"].peak_in_flight, 1);
  reg.Unregister(c2->query_id);
  EXPECT_EQ(reg.peak_live(), 3);
  EXPECT_EQ(reg.live_count(), 0);
}

// Genuinely concurrent ExecuteAs calls from two tenants: rolling-window
// attribution and the in-flight gauges must stay consistent (run under
// TSan via scripts/check.sh).
TEST(ConcurrencyGaugesTest, TenantWindowsUnderConcurrentExecute) {
  WorkloadServer env;
  constexpr int kPerTenant = 12;
  auto run_tenant = [&](const char* user, const char* query) {
    security::Principal p{user, {"support"}};
    for (int i = 0; i < kPerTenant; ++i) {
      auto r = env.platform.ExecuteAs(query, p);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  };
  std::thread ta(run_tenant, "alpha", "fn:count(ns3:CUSTOMER())");
  std::thread tb(run_tenant, "beta", "fn:count(ns2:CREDIT_CARD())");
  ta.join();
  tb.join();

  auto snapshot = env.platform.MetricsSnapshot();
  EXPECT_EQ(snapshot.windowed_counters.at("tenant.alpha.queries").total,
            kPerTenant);
  EXPECT_EQ(snapshot.windowed_counters.at("tenant.beta.queries").total,
            kPerTenant);
  EXPECT_EQ(snapshot.windows.at("tenant.alpha.wall_micros").total.count,
            kPerTenant);
  EXPECT_EQ(snapshot.counters.at("tenant.alpha.in_flight"), 0);
  EXPECT_GE(snapshot.counters.at("tenant.alpha.peak_in_flight"), 1);
  // Both tenants' executions were captured in the shared journal.
  EXPECT_EQ(env.platform.workload_journal().total_appended(), 2 * kPerTenant);
}

// Journal capture racing the JSONL export: appends from Execute threads
// while another thread exports and re-imports. TSan-visible if the ring
// snapshot is unsynchronized; every export must also stay parseable.
TEST(ConcurrencyGaugesTest, JournalCaptureRacesExport) {
  WorkloadServer env;
  std::atomic<bool> done{false};
  std::thread exporter([&] {
    while (!done.load()) {
      auto parsed =
          WorkloadJournal::ParseJsonl(Jsonl(env.platform.workload_journal()));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    }
  });
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(env.platform.Execute("fn:count(ns3:ORDER())").ok());
  }
  done.store(true);
  exporter.join();
  EXPECT_EQ(env.platform.workload_journal().total_appended(), 30);
}

// ----- Prometheus exposition ---------------------------------------------

TEST(PrometheusTest, RendersCountersTenantsHistogramsAndWindows) {
  WorkloadServer env;
  env.RunCapturedWorkload();
  const std::string text = env.platform.MetricsPrometheusText();

  // Plain counters become aldsp_ gauges with HELP/TYPE headers.
  EXPECT_TRUE(Contains(text, "# TYPE aldsp_plan_cache_hits gauge")) << text;
  EXPECT_TRUE(Contains(text, "aldsp_server_peak_in_flight "));
  EXPECT_TRUE(Contains(text, "aldsp_workload_journal_records 5"));
  // Per-tenant gauges fold into one labelled family.
  EXPECT_TRUE(Contains(text, "# TYPE aldsp_tenant_in_flight gauge"));
  EXPECT_TRUE(Contains(text, "aldsp_tenant_in_flight{tenant=\"analyst\"} 0"));
  EXPECT_TRUE(
      Contains(text, "aldsp_tenant_peak_in_flight{tenant=\"(anonymous)\"}"));
  // Source histograms render as cumulative le buckets with sum/count.
  EXPECT_TRUE(Contains(text, "# TYPE aldsp_source_latency_micros histogram"));
  EXPECT_TRUE(Contains(text, "le=\"+Inf\""));
  EXPECT_TRUE(Contains(text, "aldsp_source_latency_micros_count{source="));
  // Windows and windowed counters carry series + span labels.
  EXPECT_TRUE(Contains(
      text, "aldsp_window_count{series=\"query.latency_micros\",span=\"1m\"}"));
  EXPECT_TRUE(Contains(
      text, "aldsp_windowed_total{series=\"query.ok\",span=\"total\"} 5"));

  // No un-sanitized metric names: every sample line starts with aldsp_
  // or a comment.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("aldsp_", 0), 0u) << line;
  }
}

TEST(PrometheusTest, CumulativeBucketsAreMonotonic) {
  runtime::MetricsRegistry metrics;
  metrics.RecordSourceLatency("db", 50);
  metrics.RecordSourceLatency("db", 5000);
  metrics.RecordSourceLatency("db", 50'000'000);  // overflow bucket
  const std::string text =
      runtime::MetricsRegistry::RenderPrometheusText(metrics.GetSnapshot());
  // le="100" sees 1, le="10000" sees 2, +Inf sees all 3.
  EXPECT_TRUE(Contains(text, "le=\"100\"} 1")) << text;
  EXPECT_TRUE(Contains(text, "le=\"10000\"} 2")) << text;
  EXPECT_TRUE(Contains(text, "le=\"+Inf\"} 3")) << text;
  EXPECT_TRUE(Contains(text, "aldsp_source_latency_micros_count{source=\"db\"} 3"));
}

}  // namespace
}  // namespace aldsp
