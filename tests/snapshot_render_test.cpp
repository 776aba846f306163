// Golden and parity tests for the observability planes' snapshot
// documents (observability/json_util.h). Each plane builds one document
// from its typed snapshot; its JSON, JSON Lines and text are all rendered
// from that document.
//
// The JSON/JSONL literals below are the output of the hand-written
// per-plane renderers these documents replaced, run on the same typed
// inputs, so the goldens pin every export byte for byte. Timestamps and
// elapsed times the planes read off the clock are fixed in the typed
// snapshot before the document is built.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "observability/audit_log.h"
#include "observability/json_util.h"
#include "observability/plan_history.h"
#include "observability/query_registry.h"
#include "observability/replay.h"
#include "observability/slow_query_log.h"
#include "observability/source_health.h"
#include "observability/stat_statements.h"
#include "observability/workload_journal.h"
#include "server/admission.h"

namespace aldsp {
namespace {

using observability::BreakerState;
using observability::CompileTrigger;
using observability::ExecutionAuditLog;
using observability::PlanHistory;
using observability::PlanRegressionEvent;
using observability::QueryCompletion;
using observability::QueryPhase;
using observability::QueryRegistry;
using observability::RenderJson;
using observability::RenderJsonLines;
using observability::RenderText;
using observability::ReplayReport;
using observability::ReplayStatementReport;
using observability::SlowQueryLog;
using observability::SnapshotDoc;
using observability::SourceHealthBoard;
using observability::SourceHealthSnapshot;
using observability::StatStatements;
using observability::WorkloadJournal;
using observability::WorkloadJournalEntry;
using server::AdmissionSnapshot;

// ----- Fixed typed inputs --------------------------------------------------

QueryCompletion StatsCompletionA() {
  QueryCompletion a;
  a.fingerprint = 7;
  a.statement_fingerprint = 70;
  a.text = "for $c in \"quoted\" \\ back\nslash\ttab";
  a.wall_micros = 1234;
  a.rows_returned = 3;
  a.peak_bytes = 4096;
  a.source_wait_micros = 100;
  a.compute_micros = 200;
  a.queue_wait_micros = 5;
  a.plan_cache_hit = true;
  a.function_cache_hits = 2;
  a.function_cache_misses = 1;
  return a;
}

void FillStats(StatStatements* stats) {
  QueryCompletion a = StatsCompletionA();
  stats->Record(a);
  a.plan_cache_hit = false;
  a.wall_micros = 3000;
  a.outcome = StatusCode::kCancelled;
  stats->Record(a);
  QueryCompletion b;
  b.fingerprint = 8;
  b.text = "fn:count(ns2:CREDIT_CARD())";
  b.wall_micros = 50000;
  b.outcome = StatusCode::kResourceExhausted;
  stats->Record(b);
  b.outcome = StatusCode::kSourceError;
  b.wall_micros = 20;
  stats->Record(b);
}

void FillRegistry(QueryRegistry* reg) {
  auto a = reg->Register(42, 7042, "al\"ice",
                         "for $c in ns3:CUSTOMER()\nreturn $c");
  a->SetPhase(QueryPhase::kExecuting);
  a->AddRows(5);
  a->SetMemoryBudget(4096);
  a->NotePeakBytes(8192);
  reg->Cancel(a->query_id);
  auto b = reg->Register(43, 0, "(anonymous)", "fn:count(1)");
  (void)b;
}

void FillHistory(PlanHistory* h) {
  h->RecordCompile(5, 50, "some \"query\"", "a", [] { return "plan\ntext"; });
  h->RecordExecution(5, 50, 1234);
  h->RecordCompile(5, 51, "some \"query\"", "b", [] { return "plan2"; });
  h->RecordExecution(5, 51, 2000);
  h->RecordExecution(5, 51, 250000);
  h->RecordCompile(6, 60, "fn:count(1)", "a", [] { return "p"; });
}

PlanRegressionEvent RegressionEvent() {
  PlanRegressionEvent ev;
  ev.statement_fingerprint = 5;
  ev.query_head = "some \"query\"";
  ev.regressed_plan_fingerprint = 51;
  ev.baseline_plan_fingerprint = 50;
  ev.trigger = CompileTrigger::kCostModelAdviceChange;
  ev.regressed_calls = 9;
  ev.baseline_calls = 8;
  ev.regressed_mean_micros = 2500;
  ev.baseline_mean_micros = 1000;
  ev.regressed_p95_micros = 10000;
  ev.baseline_p95_micros = 1000;
  ev.ratio = 2.3456;
  ev.regressed_explain = "plan2";
  ev.baseline_explain = "plan\ntext";
  ev.explain_diff = "  plan\n- text\n+ plan2";
  return ev;
}

std::vector<WorkloadJournalEntry> JournalEntries() {
  std::vector<WorkloadJournalEntry> entries;
  WorkloadJournalEntry a;
  a.seq = 12;
  a.offset_micros = 3400;
  a.statement_fingerprint = 18446744073709551615ull;
  a.plan_fingerprint = 9;
  a.text = "for $c in ns3:CUSTOMER() return $c";
  a.principal = "alice";
  a.outcome = StatusCode::kOk;
  a.wall_micros = 1500;
  a.rows = 6;
  a.peak_bytes = 2048;
  entries.push_back(a);
  WorkloadJournalEntry b;
  b.seq = 13;
  b.offset_micros = 9100;
  b.statement_fingerprint = 70;
  b.plan_fingerprint = 7;
  b.text = "quote \" backslash \\ tab \t newline \n control \x01 end";
  b.outcome = StatusCode::kCancelled;
  b.wall_micros = 20;
  entries.push_back(b);
  return entries;
}

void FillAudit(ExecutionAuditLog* log) {
  QueryCompletion a;
  a.fingerprint = 7;
  a.statement_fingerprint = 70;
  a.text = "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() where $c/CID eq "
           "$cc/CID\nreturn <CO name=\"x\">{$c/CID}</CO>";
  a.principal = "alice";
  a.plan_cache_hit = true;
  a.sources = {"credit_db", "customer_db"};
  a.sql_pushdowns = 2;
  a.rows_returned = 3;
  a.bytes_returned = 120;
  a.wall_micros = 1500;
  a.compile_micros = 300;
  a.function_cache_hits = 1;
  a.function_cache_misses = 2;
  a.timeouts = 1;
  a.failovers = 1;
  log->Append(a);
  QueryCompletion b;
  b.text = "ns3:CUSTOMER()/NO_SUCH";
  b.outcome = StatusCode::kRuntimeError;
  b.wall_micros = 10;
  b.security_denials = 1;
  log->Append(b);
}

void FillSlow(SlowQueryLog* log) {
  QueryCompletion c;
  c.fingerprint = 7;
  c.statement_fingerprint = 70;
  c.text = "fn:count(ns3:CUSTOMER())";
  c.wall_micros = 1500;
  c.rows_returned = 1;
  c.sql_pushdowns = 1;
  c.sources = {"customer_db"};
  log->Append(c, 1000);
  c.wall_micros = 2500;
  log->Append(c, 1000, "=== profile ===\n  span a\n", "{\"spans\":[]}",
              "{\"traceEvents\":[\n{\"ph\":\"M\"}\n]}");
}

std::vector<SourceHealthSnapshot> HealthSnapshot() {
  std::vector<SourceHealthSnapshot> snap(2);
  snap[0].source = "customer_db";
  snap[0].ewma_latency_micros = 120.0;
  snap[0].successes = 2;
  snap[1].source = "w\"s";
  snap[1].state = BreakerState::kOpen;
  snap[1].ewma_latency_micros = 1234.56;
  snap[1].successes = 1;
  snap[1].failures = 5;
  snap[1].timeouts = 2;
  snap[1].consecutive_failures = 5;
  snap[1].trips = 1;
  return snap;
}

AdmissionSnapshot Admission() {
  AdmissionSnapshot s;
  s.enabled = true;
  s.max_concurrent_queries = 3;
  s.max_concurrent_analytics = 2;
  s.running = 2;
  s.analytics_running = 1;
  s.queue_depth = 4;
  s.admitted = 10;
  s.admitted_interactive = 7;
  s.admitted_analytics = 3;
  s.queued = 5;
  s.shed_queue_full = 1;
  s.shed_timeout = 2;
  s.cancelled_while_queued = 1;
  s.wait.Record(0);
  s.wait.Record(1500);
  s.wait.Record(250000);
  s.tenants["alice"] = {6, 3, 1, 2.0};
  s.tenants["bo\"b"] = {4, 2, 2, 0.5};
  return s;
}

ReplayReport Replay() {
  ReplayReport r;
  r.ops = 40;
  r.errors = 1;
  r.sheds = 2;
  r.plan_changes = 1;
  r.wall_micros = 123456;
  r.throughput_qps = 324.0123;
  r.mean_micros = 2000;
  r.p50_micros = 1500;
  r.p95_micros = 4000;
  r.p99_micros = 8000;
  r.p999_micros = 9000;
  r.max_micros = 9500;
  ReplayStatementReport a;
  a.statement_fingerprint = 70;
  a.query_head = "for $c in \"q\"\nreturn $c";
  a.captured_calls = 20;
  a.replayed_calls = 20;
  a.captured_mean_micros = 1000;
  a.replayed_mean_micros = 2500;
  a.ratio = 2.5;
  a.regressed = true;
  a.errors = 1;
  a.plan_changes = 1;
  r.statements.push_back(a);
  ReplayStatementReport b;
  b.statement_fingerprint = 80;
  b.query_head = "fn:count(1)";
  b.captured_calls = 10;
  b.replayed_calls = 20;
  b.captured_mean_micros = 500;
  b.replayed_mean_micros = 250;
  b.ratio = 0.5;
  b.sheds = 2;
  r.statements.push_back(b);
  return r;
}
// ----- The plane documents -------------------------------------------------

SnapshotDoc StatsDoc(int top_k) {
  StatStatements stats;
  FillStats(&stats);
  return StatStatements::Doc(stats.TopK(top_k), stats.entry_count(),
                             stats.evictions());
}

SnapshotDoc LiveDoc() {
  QueryRegistry registry;
  FillRegistry(&registry);
  std::vector<observability::LiveQueryInfo> live = registry.Snapshot();
  live[0].elapsed_micros = 7;
  live[1].elapsed_micros = 2;
  return QueryRegistry::Doc(live, registry.total_started(),
                            registry.total_cancel_requests());
}

/// The filled history's statements, with the clock readings of the run
/// the goldens were captured from.
std::vector<observability::StatementHistory> HistorySnapshot(
    const PlanHistory& history) {
  std::vector<observability::StatementHistory> snap = history.Snapshot();
  snap[0].versions[0].first_seen_micros = 1792242836729706;
  snap[0].versions[0].last_seen_micros = 1792242836729708;
  snap[0].versions[1].first_seen_micros = 1792242836729708;
  snap[0].versions[1].last_seen_micros = 1792242836729709;
  snap[1].versions[0].first_seen_micros = 1792242836729709;
  snap[1].versions[0].last_seen_micros = 1792242836729709;
  return snap;
}

SnapshotDoc HistoryDoc(const PlanHistory& history,
                       const std::vector<observability::StatementHistory>& s) {
  return PlanHistory::HistoryDoc(s, history.statement_count(),
                                 history.statement_evictions(),
                                 history.plan_changes_total());
}

SnapshotDoc RegressionsDoc() {
  PlanHistory history;
  history.PublishRegression(RegressionEvent());
  return PlanHistory::RegressionsDoc(history.Regressions(),
                                     history.regressions_total());
}

SnapshotDoc JournalDoc() {
  return WorkloadJournal::Doc(JournalEntries(), 40, 4096);
}

SnapshotDoc AuditDoc() {
  ExecutionAuditLog log(4);
  FillAudit(&log);
  return ExecutionAuditLog::Doc(log.Records());
}

SnapshotDoc SlowDoc() {
  SlowQueryLog log;
  FillSlow(&log);
  return SlowQueryLog::Doc(log.Records());
}

// ----- Goldens: JSON and JSONL byte-identical to the replaced renderers ----

TEST(SnapshotGoldenTest, StatementStatistics) {
  EXPECT_EQ(RenderJson(StatsDoc(10)),
            "{\"entry_count\":2,\"evictions\":0,\"statements\":[{\"fingerpri"
            "nt\":\"8\",\"statement_fingerprint\":\"0\",\"query_head\":\"fn:"
            "count(ns2:CREDIT_CARD())\",\"calls\":2,\"errors\":1,\"cancels\""
            ":0,\"sheds\":1,\"total_wall_micros\":50020,\"mean_wall_micros\""
            ":25010,\"p95_wall_micros_upper\":50000,\"rows_returned\":0,\"ma"
            "x_peak_bytes\":0,\"source_wait_micros\":0,\"compute_micros\":0,"
            "\"queue_wait_micros\":0,\"plan_cache_hits\":0,\"plan_cache_miss"
            "es\":2,\"function_cache_hits\":0,\"function_cache_misses\":0},{"
            "\"fingerprint\":\"7\",\"statement_fingerprint\":\"70\",\"query_"
            "head\":\"for $c in \\\"quoted\\\" \\\\ back\\nslash\\ttab\",\"c"
            "alls\":2,\"errors\":0,\"cancels\":1,\"sheds\":0,\"total_wall_mi"
            "cros\":4234,\"mean_wall_micros\":2117,\"p95_wall_micros_upper\""
            ":3000,\"rows_returned\":6,\"max_peak_bytes\":4096,\"source_wait"
            "_micros\":200,\"compute_micros\":400,\"queue_wait_micros\":10,"
            "\"plan_cache_hits\":1,\"plan_cache_misses\":1,\"function_cache_"
            "hits\":4,\"function_cache_misses\":2}]}");
  EXPECT_EQ(RenderJson(StatsDoc(1)),
            "{\"entry_count\":2,\"evictions\":0,\"statements\":[{\"fingerpri"
            "nt\":\"8\",\"statement_fingerprint\":\"0\",\"query_head\":\"fn:"
            "count(ns2:CREDIT_CARD())\",\"calls\":2,\"errors\":1,\"cancels\""
            ":0,\"sheds\":1,\"total_wall_micros\":50020,\"mean_wall_micros\""
            ":25010,\"p95_wall_micros_upper\":50000,\"rows_returned\":0,\"ma"
            "x_peak_bytes\":0,\"source_wait_micros\":0,\"compute_micros\":0,"
            "\"queue_wait_micros\":0,\"plan_cache_hits\":0,\"plan_cache_miss"
            "es\":2,\"function_cache_hits\":0,\"function_cache_misses\":0}]}");
  StatStatements empty;
  EXPECT_EQ(RenderJson(StatStatements::Doc(empty.TopK(10), 0, 0)),
            "{\"entry_count\":0,\"evictions\":0,\"statements\":[]}");
}

TEST(SnapshotGoldenTest, LiveQueries) {
  EXPECT_EQ(RenderJson(LiveDoc()),
            "{\"live_count\":2,\"total_started\":2,\"total_cancel_requests\""
            ":1,\"queries\":[{\"query_id\":1,\"fingerprint\":\"42\",\"statem"
            "ent_fingerprint\":\"7042\",\"tenant\":\"al\\\"ice\",\"query_hea"
            "d\":\"for $c in ns3:CUSTOMER()\\nreturn $c\",\"phase\":\"execut"
            "ing\",\"elapsed_micros\":7,\"rows_produced\":5,\"peak_bytes\":8"
            "192,\"memory_budget_bytes\":4096,\"budget_breached\":true,\"can"
            "cel_requested\":true},{\"query_id\":2,\"fingerprint\":\"43\",\""
            "statement_fingerprint\":\"0\",\"tenant\":\"(anonymous)\",\"quer"
            "y_head\":\"fn:count(1)\",\"phase\":\"compiling\",\"elapsed_micr"
            "os\":2,\"rows_produced\":0,\"peak_bytes\":0,\"memory_budget_byt"
            "es\":0,\"budget_breached\":false,\"cancel_requested\":false}]}");
  QueryRegistry registry;
  auto ctl = registry.Register(1, 2, "t", "q");
  registry.Cancel(ctl->query_id);
  registry.Unregister(ctl->query_id);
  EXPECT_EQ(RenderJson(QueryRegistry::Doc(registry.Snapshot(),
                                          registry.total_started(),
                                          registry.total_cancel_requests())),
            "{\"live_count\":0,\"total_started\":1,\"total_cancel_requests\""
            ":1,\"queries\":[]}");
}

TEST(SnapshotGoldenTest, PlanHistory) {
  PlanHistory history;
  EXPECT_EQ(RenderJson(HistoryDoc(history, history.Snapshot())),
            "{\"statement_count\":0,\"statement_evictions\":0,\"plan_changes"
            "_total\":0,\"statements\":[]}");
  FillHistory(&history);
  const auto snap = HistorySnapshot(history);
  EXPECT_EQ(RenderJson(HistoryDoc(history, snap)),
            "{\"statement_count\":2,\"statement_evictions\":0,\"plan_changes"
            "_total\":1,\"statements\":[{\"statement_fingerprint\":\"5\",\"q"
            "uery_head\":\"some \\\"query\\\"\",\"plan_changes\":1,\"version"
            "s\":[{\"plan_fingerprint\":\"50\",\"trigger\":\"cold compile\","
            "\"first_seen_micros\":1792242836729706,\"last_seen_micros\":179"
            "2242836729708,\"compiles\":1,\"calls\":1,\"mean_wall_micros\":1"
            "234,\"p95_wall_micros_upper\":1234,\"regressed\":false,\"explai"
            "n\":\"plan\\ntext\"},{\"plan_fingerprint\":\"51\",\"trigger\":"
            "\"cost-model-advice change\",\"first_seen_micros\":179224283672"
            "9708,\"last_seen_micros\":1792242836729709,\"compiles\":1,\"cal"
            "ls\":2,\"mean_wall_micros\":126000,\"p95_wall_micros_upper\":25"
            "0000,\"regressed\":false,\"explain\":\"plan2\"}]},{\"statement_"
            "fingerprint\":\"6\",\"query_head\":\"fn:count(1)\",\"plan_chang"
            "es\":0,\"versions\":[{\"plan_fingerprint\":\"60\",\"trigger\":"
            "\"cold compile\",\"first_seen_micros\":1792242836729709,\"last_"
            "seen_micros\":1792242836729709,\"compiles\":1,\"calls\":0,\"mea"
            "n_wall_micros\":0,\"p95_wall_micros_upper\":0,\"regressed\":fal"
            "se,\"explain\":\"p\"}]}]}");
  // One statement, and a statement the history does not track.
  EXPECT_EQ(RenderJson(HistoryDoc(history, {snap[1]})),
            "{\"statement_count\":2,\"statement_evictions\":0,\"plan_changes"
            "_total\":1,\"statements\":[{\"statement_fingerprint\":\"6\",\"q"
            "uery_head\":\"fn:count(1)\",\"plan_changes\":0,\"versions\":[{"
            "\"plan_fingerprint\":\"60\",\"trigger\":\"cold compile\",\"firs"
            "t_seen_micros\":1792242836729709,\"last_seen_micros\":179224283"
            "6729709,\"compiles\":1,\"calls\":0,\"mean_wall_micros\":0,\"p95"
            "_wall_micros_upper\":0,\"regressed\":false,\"explain\":\"p\"}]}"
            "]}");
  EXPECT_FALSE(history.Statement(999).has_value());
  EXPECT_EQ(RenderJson(HistoryDoc(history, {})),
            "{\"statement_count\":2,\"statement_evictions\":0,\"plan_changes"
            "_total\":1,\"statements\":[]}");
}

TEST(SnapshotGoldenTest, PlanRegressions) {
  EXPECT_EQ(RenderJson(RegressionsDoc()),
            "{\"regressions_total\":1,\"regressions\":[{\"seq\":0,\"statemen"
            "t_fingerprint\":\"5\",\"query_head\":\"some \\\"query\\\"\",\"b"
            "aseline_plan_fingerprint\":\"50\",\"regressed_plan_fingerprint"
            "\":\"51\",\"trigger\":\"cost-model-advice change\",\"baseline_c"
            "alls\":8,\"regressed_calls\":9,\"baseline_mean_micros\":1000,\""
            "regressed_mean_micros\":2500,\"baseline_p95_micros\":1000,\"reg"
            "ressed_p95_micros\":10000,\"ratio\":2.346,\"explain_diff\":\"  "
            "plan\\n- text\\n+ plan2\"}]}");
  EXPECT_EQ(RenderJson(PlanHistory::RegressionsDoc({}, 0)),
            "{\"regressions_total\":0,\"regressions\":[]}");
}

TEST(SnapshotGoldenTest, WorkloadJournal) {
  const SnapshotDoc doc = JournalDoc();
  EXPECT_EQ(RenderJson(doc),
            "{\"total_appended\":40,\"capacity\":4096,\"retained\":2,\"entri"
            "es\":[{\"seq\":12,\"offset_micros\":3400,\"statement_fingerprin"
            "t\":\"18446744073709551615\",\"plan_fingerprint\":\"9\",\"text"
            "\":\"for $c in ns3:CUSTOMER() return $c\",\"principal\":\"alice"
            "\",\"outcome\":\"ok\",\"wall_micros\":1500,\"rows\":6,\"peak_by"
            "tes\":2048},{\"seq\":13,\"offset_micros\":9100,\"statement_fing"
            "erprint\":\"70\",\"plan_fingerprint\":\"7\",\"text\":\"quote \\"
            "\" backslash \\\\ tab \\t newline \\n control \\u0001 end\",\"p"
            "rincipal\":\"\",\"outcome\":\"Cancelled\",\"wall_micros\":20,\""
            "rows\":0,\"peak_bytes\":0}]}");
  const std::string jsonl = RenderJsonLines(doc.Member("entries"));
  EXPECT_EQ(jsonl,
            "{\"seq\":12,\"offset_micros\":3400,\"statement_fingerprint\":\""
            "18446744073709551615\",\"plan_fingerprint\":\"9\",\"text\":\"fo"
            "r $c in ns3:CUSTOMER() return $c\",\"principal\":\"alice\",\"ou"
            "tcome\":\"ok\",\"wall_micros\":1500,\"rows\":6,\"peak_bytes\":2"
            "048}\n{\"seq\":13,\"offset_micros\":9100,\"statement_fingerprin"
            "t\":\"70\",\"plan_fingerprint\":\"7\",\"text\":\"quote \\\" bac"
            "kslash \\\\ tab \\t newline \\n control \\u0001 end\",\"princip"
            "al\":\"\",\"outcome\":\"Cancelled\",\"wall_micros\":20,\"rows\""
            ":0,\"peak_bytes\":0}\n");
  // The JSONL export is the import format.
  auto parsed = WorkloadJournal::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].text, JournalEntries()[1].text);
  EXPECT_EQ(RenderJson(WorkloadJournal::Doc({}, 0, 4096)),
            "{\"total_appended\":0,\"capacity\":4096,\"retained\":0,\"entrie"
            "s\":[]}");
}

TEST(SnapshotGoldenTest, ExecutionAudit) {
  EXPECT_EQ(RenderJsonLines(AuditDoc()),
            "{\"seq\":0,\"query_hash\":\"8b6a3bb3747e3423\",\"fingerprint\":"
            "\"7\",\"statement_fingerprint\":\"70\",\"query_head\":\"for $c "
            "in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() where $c/CID eq $cc"
            "/CID\\nretur\",\"principal\":\"alice\",\"outcome\":\"ok\",\"sou"
            "rces\":[\"credit_db\",\"customer_db\"],\"sql_pushdowns\":2,\"ro"
            "ws_returned\":3,\"bytes_returned\":120,\"wall_micros\":1500,\"c"
            "ompile_micros\":300,\"plan_cache_hit\":true,\"function_cache_hi"
            "ts\":1,\"function_cache_misses\":2,\"timeouts\":1,\"failovers\""
            ":1,\"security_denials\":0}\n{\"seq\":1,\"query_hash\":\"e623877"
            "7f9fbcb10\",\"fingerprint\":\"0\",\"statement_fingerprint\":\"0"
            "\",\"query_head\":\"ns3:CUSTOMER()/NO_SUCH\",\"principal\":\"\""
            ",\"outcome\":\"RuntimeError\",\"sources\":[],\"sql_pushdowns\":"
            "0,\"rows_returned\":0,\"bytes_returned\":0,\"wall_micros\":10,"
            "\"compile_micros\":0,\"plan_cache_hit\":false,\"function_cache_"
            "hits\":0,\"function_cache_misses\":0,\"timeouts\":0,\"failovers"
            "\":0,\"security_denials\":1}\n");
  EXPECT_EQ(RenderJsonLines(ExecutionAuditLog::Doc({})), "");
}

TEST(SnapshotGoldenTest, SlowQueries) {
  // The first record is a counters-only first offense: no profile JSON.
  EXPECT_EQ(RenderJson(SlowDoc()),
            "[{\"seq\":0,\"fingerprint\":\"7\",\"statement_fingerprint\":\"7"
            "0\",\"query_head\":\"fn:count(ns3:CUSTOMER())\",\"wall_micros\""
            ":1500,\"threshold_micros\":1000,\"full_trace\":false,\"profile_"
            "json\":null,\"trace_json\":null,\"profile_text\":\"counters: ro"
            "ws=1 sql_pushdowns=1 cache_hits=0 cache_misses=0 timeouts=0 fai"
            "lovers=0 sources=customer_db\"},{\"seq\":1,\"fingerprint\":\"7"
            "\",\"statement_fingerprint\":\"70\",\"query_head\":\"fn:count(n"
            "s3:CUSTOMER())\",\"wall_micros\":2500,\"threshold_micros\":1000"
            ",\"full_trace\":true,\"profile_json\":{\"spans\":[]},\"trace_js"
            "on\":{\"traceEvents\":[\n{\"ph\":\"M\"}\n]},\"profile_text\":\""
            "=== profile ===\\n  span a\\n\"}]");
  EXPECT_EQ(RenderJson(SlowQueryLog::Doc({})), "[]");
}

TEST(SnapshotGoldenTest, SourceHealth) {
  EXPECT_EQ(RenderJson(SourceHealthBoard::Doc(HealthSnapshot())),
            "{\"customer_db\":{\"state\":\"closed\",\"ewma_latency_micros\":"
            "120.0,\"successes\":2,\"failures\":0,\"timeouts\":0,\"consecuti"
            "ve_failures\":0,\"trips\":0},\"w\\\"s\":{\"state\":\"open\",\"e"
            "wma_latency_micros\":1234.6,\"successes\":1,\"failures\":5,\"ti"
            "meouts\":2,\"consecutive_failures\":5,\"trips\":1}}");
  EXPECT_EQ(RenderJson(SourceHealthBoard::Doc({})), "{}");
}

TEST(SnapshotGoldenTest, Admission) {
  EXPECT_EQ(RenderJson(Admission().Doc()),
            "{\"enabled\":true,\"max_concurrent_queries\":3,\"max_concurrent"
            "_analytics\":2,\"running\":2,\"analytics_running\":1,\"queue_de"
            "pth\":4,\"admitted\":10,\"admitted_interactive\":7,\"admitted_a"
            "nalytics\":3,\"queued\":5,\"shed_queue_full\":1,\"shed_timeout"
            "\":2,\"cancelled_while_queued\":1,\"wait\":{\"count\":3,\"mean_"
            "micros\":83833,\"p95_micros_upper\":250000,\"p99_micros_upper\""
            ":250000,\"max_micros\":250000},\"tenants\":[{\"tenant\":\"alice"
            "\",\"weight\":2.000,\"admitted\":6,\"queued\":3,\"shed\":1},{\""
            "tenant\":\"bo\\\"b\",\"weight\":0.500,\"admitted\":4,\"queued\""
            ":2,\"shed\":2}]}");
  EXPECT_EQ(RenderJson(AdmissionSnapshot{}.Doc()),
            "{\"enabled\":false,\"max_concurrent_queries\":0,\"max_concurren"
            "t_analytics\":0,\"running\":0,\"analytics_running\":0,\"queue_d"
            "epth\":0,\"admitted\":0,\"admitted_interactive\":0,\"admitted_a"
            "nalytics\":0,\"queued\":0,\"shed_queue_full\":0,\"shed_timeout"
            "\":0,\"cancelled_while_queued\":0,\"wait\":{\"count\":0,\"mean_"
            "micros\":0,\"p95_micros_upper\":0,\"p99_micros_upper\":0,\"max_"
            "micros\":0},\"tenants\":[]}");
}

TEST(SnapshotGoldenTest, Replay) {
  EXPECT_EQ(RenderJson(Replay().Doc()),
            "{\"ops\":40,\"errors\":1,\"sheds\":2,\"fingerprint_mismatches\""
            ":0,\"plan_changes\":1,\"wall_micros\":123456,\"throughput_qps\""
            ":324.01,\"mean_micros\":2000,\"p50_micros\":1500,\"p95_micros\""
            ":4000,\"p99_micros\":8000,\"p999_micros\":9000,\"max_micros\":9"
            "500,\"statements\":[{\"statement_fingerprint\":\"70\",\"query_h"
            "ead\":\"for $c in \\\"q\\\"\\nreturn $c\",\"captured_calls\":20"
            ",\"replayed_calls\":20,\"captured_mean_micros\":1000,\"replayed"
            "_mean_micros\":2500,\"ratio\":2.500,\"regressed\":true,\"errors"
            "\":1,\"sheds\":0,\"fingerprint_mismatches\":0,\"plan_changes\":"
            "1},{\"statement_fingerprint\":\"80\",\"query_head\":\"fn:count("
            "1)\",\"captured_calls\":10,\"replayed_calls\":20,\"captured_mea"
            "n_micros\":500,\"replayed_mean_micros\":250,\"ratio\":0.500,\"r"
            "egressed\":false,\"errors\":0,\"sheds\":2,\"fingerprint_mismatc"
            "hes\":0,\"plan_changes\":0}]}");
  EXPECT_EQ(RenderJson(ReplayReport{}.Doc()),
            "{\"ops\":0,\"errors\":0,\"sheds\":0,\"fingerprint_mismatches\":"
            "0,\"plan_changes\":0,\"wall_micros\":0,\"throughput_qps\":0.00,"
            "\"mean_micros\":0,\"p50_micros\":0,\"p95_micros\":0,\"p99_micro"
            "s\":0,\"p999_micros\":0,\"max_micros\":0,\"statements\":[]}");
}

// ----- Text: the generic rendering of the same documents ------------------

std::string Indent(int depth) { return std::string(2 * depth, ' '); }

bool IsBlock(const SnapshotDoc& v) {
  return (v.kind() == SnapshotDoc::Kind::kString ||
          v.kind() == SnapshotDoc::Kind::kRawJson) &&
         v.text().find('\n') != std::string::npos;
}

/// Walks `node`, whose text line opens at `start` at nesting `depth`, and
/// checks the text rule against `text`: every scalar field prints on that
/// line as ` name=value` (nested objects as `parent.name=value`), the
/// value spelled as in the JSON; every multi-line value prints below as
/// `name:` and its lines indented one level deeper; every list element
/// and keyed member opens its own line, `[i]` or its key, one level
/// deeper, in document order.
class TextParity {
 public:
  explicit TextParity(const std::string& text) : text_(text) {}

  void CheckLine(const SnapshotDoc& node, size_t start, int depth) {
    const size_t end = text_.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = text_.substr(start, end - start) + " ";
    std::vector<const SnapshotDoc*> children;
    if (node.kind() == SnapshotDoc::Kind::kObject) {
      CheckFields(node, "", line, end, depth, &children);
    } else if (node.is_container()) {
      children.push_back(&node);
    } else {
      EXPECT_NE(line.find(" " + RenderJson(node) + " "), std::string::npos)
          << line;
    }
    size_t cursor = end;
    for (const SnapshotDoc* c : children) {
      for (size_t i = 0; i < c->size(); ++i) {
        const std::string head =
            "\n" + Indent(depth + 1) +
            (c->kind() == SnapshotDoc::Kind::kList
                 ? "[" + std::to_string(i) + "]"
                 : c->name(i));
        const size_t at = text_.find(head, cursor);
        ASSERT_NE(at, std::string::npos) << "missing line " << head;
        CheckLine(c->value(i), at + 1, depth + 1);
        cursor = at + 1;
      }
    }
  }

 private:
  void CheckFields(const SnapshotDoc& object, const std::string& prefix,
                   const std::string& line, size_t line_end, int depth,
                   std::vector<const SnapshotDoc*>* children) {
    for (size_t i = 0; i < object.size(); ++i) {
      const SnapshotDoc& v = object.value(i);
      const std::string name = prefix + object.name(i);
      if (v.kind() == SnapshotDoc::Kind::kObject) {
        CheckFields(v, name + ".", line, line_end, depth, children);
      } else if (v.is_container()) {
        children->push_back(&v);
      } else if (IsBlock(v)) {
        std::string block = Indent(depth + 1) + name + ":\n";
        const std::string& s = v.text();
        for (size_t at = 0; at < s.size();) {
          size_t end = s.find('\n', at);
          if (end == std::string::npos) end = s.size();
          block += Indent(depth + 2) + s.substr(at, end - at) + "\n";
          at = end + 1;
        }
        EXPECT_NE(text_.find(block, line_end), std::string::npos)
            << "missing block:\n" << block;
      } else {
        const std::string field = " " + name + "=" + RenderJson(v) + " ";
        EXPECT_NE(line.find(field), std::string::npos)
            << "missing" << field << "on: " << line;
      }
    }
  }

  const std::string& text_;
};

void ExpectTextCovers(const SnapshotDoc& doc, const std::string& title) {
  const std::string text = RenderText(doc);
  SCOPED_TRACE(text);
  ASSERT_EQ(text.compare(0, title.size(), title), 0);
  ASSERT_TRUE(text.size() == title.size() + 1 || text[title.size()] == ' ' ||
              text[title.size()] == '\n');
  TextParity(text).CheckLine(doc, 0, 0);
}

TEST(SnapshotTextTest, EveryLeafOfEveryPlaneAppearsInItsText) {
  ExpectTextCovers(StatsDoc(10), "statement statistics");
  ExpectTextCovers(LiveDoc(), "live queries");
  ExpectTextCovers(Admission().Doc(), "admission control");
  ExpectTextCovers(AdmissionSnapshot{}.Doc(), "admission control");
  PlanHistory history;
  FillHistory(&history);
  ExpectTextCovers(HistoryDoc(history, HistorySnapshot(history)),
                   "plan history");
  ExpectTextCovers(RegressionsDoc(), "plan regressions");
  ExpectTextCovers(JournalDoc(), "workload journal");
  ExpectTextCovers(Replay().Doc(), "replay");
  ExpectTextCovers(SourceHealthBoard::Doc(HealthSnapshot()), "source health");
  ExpectTextCovers(SlowDoc(), "slow queries");
  ExpectTextCovers(AuditDoc(), "execution audit");
}

TEST(SnapshotTextTest, TitleScalarsEntriesAndBlocks) {
  EXPECT_EQ(RenderText(RegressionsDoc()),
            "plan regressions regressions_total=1\n"
            "  [0] seq=0 statement_fingerprint=\"5\" query_head=\"some "
            "\\\"query\\\"\" baseline_plan_fingerprint=\"50\" "
            "regressed_plan_fingerprint=\"51\" "
            "trigger=\"cost-model-advice change\" baseline_calls=8 "
            "regressed_calls=9 baseline_mean_micros=1000 "
            "regressed_mean_micros=2500 baseline_p95_micros=1000 "
            "regressed_p95_micros=10000 ratio=2.346\n"
            "    explain_diff:\n"
            "        plan\n"
            "      - text\n"
            "      + plan2\n");
  EXPECT_EQ(RenderText(SourceHealthBoard::Doc(HealthSnapshot())),
            "source health\n"
            "  customer_db state=\"closed\" ewma_latency_micros=120.0 "
            "successes=2 failures=0 timeouts=0 consecutive_failures=0 "
            "trips=0\n"
            "  w\"s state=\"open\" ewma_latency_micros=1234.6 successes=1 "
            "failures=5 timeouts=2 consecutive_failures=5 trips=1\n");
  EXPECT_EQ(RenderText(SourceHealthBoard::Doc({})), "source health\n");
  // Nested objects flatten; empty lists print no lines.
  const std::string disabled = RenderText(AdmissionSnapshot{}.Doc());
  EXPECT_EQ(disabled.find('\n'), disabled.size() - 1) << disabled;
  EXPECT_NE(disabled.find(" enabled=false "), std::string::npos) << disabled;
  EXPECT_NE(disabled.find(" wait.count=0 "), std::string::npos) << disabled;
}

TEST(SnapshotTextTest, AdmissionTenantNamesAreNeverTruncated) {
  AdmissionSnapshot s;
  s.enabled = true;
  const std::string long_name(300, 't');
  s.tenants[long_name] = {1, 2, 3, 1.0};
  s.tenants["u"] = {4, 5, 6, 2.0};
  const std::string text = RenderText(s.Doc());
  EXPECT_NE(text.find("\n  [0] tenant=\"" + long_name +
                      "\" weight=1.000 admitted=1 queued=2 shed=3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  [1] tenant=\"u\" weight=2.000 admitted=4 "
                      "queued=5 shed=6\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace aldsp
