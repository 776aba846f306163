#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "adaptors/webservice_adaptor.h"
#include "observability/audit_log.h"
#include "observability/json_util.h"
#include "observability/rolling_window.h"
#include "observability/slow_query_log.h"
#include "observability/source_health.h"
#include "runtime/metrics.h"
#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCustomerDb;
using observability::BreakerOptions;
using observability::BreakerState;
using observability::ExecutionAuditLog;
using observability::RenderJson;
using observability::RenderJsonLines;
using observability::RenderText;
using observability::RollingCounter;
using observability::RollingWindow;
using observability::SourceHealthBoard;

// ----- Circuit breaker state machine -------------------------------------

TEST(SourceHealthBoardTest, TripsAfterConsecutiveFailures) {
  BreakerOptions opts;
  opts.failure_threshold = 3;
  SourceHealthBoard board(opts);
  EXPECT_TRUE(board.AllowRequest("db", 0));
  board.NoteFailure("db", 0);
  board.NoteFailure("db", 0);
  EXPECT_EQ(board.StateOf("db", 0), BreakerState::kClosed);
  // A success in between resets the consecutive count.
  board.NoteSuccess("db", 100, 0);
  board.NoteFailure("db", 0);
  board.NoteFailure("db", 0);
  EXPECT_EQ(board.StateOf("db", 0), BreakerState::kClosed);
  board.NoteFailure("db", 0);
  EXPECT_EQ(board.StateOf("db", 0), BreakerState::kOpen);
  EXPECT_TRUE(board.IsOpen("db", 0));
  EXPECT_FALSE(board.AllowRequest("db", 0));
  EXPECT_EQ(board.GetSnapshot(0)[0].trips, 1);
}

TEST(SourceHealthBoardTest, OpenHalfOpenReclose) {
  BreakerOptions opts;
  opts.failure_threshold = 2;
  opts.open_cooldown_micros = 1'000'000;
  opts.half_open_successes = 2;
  SourceHealthBoard board(opts);
  board.NoteFailure("ws", 0);
  board.NoteFailure("ws", 0);
  ASSERT_EQ(board.StateOf("ws", 0), BreakerState::kOpen);
  // Cooldown not yet elapsed: rejected and still open to IsOpen.
  EXPECT_FALSE(board.AllowRequest("ws", 500'000));
  EXPECT_TRUE(board.IsOpen("ws", 500'000));
  // Cooldown elapsed: IsOpen reports admissible, AllowRequest admits the
  // probe and moves to half-open.
  EXPECT_FALSE(board.IsOpen("ws", 1'500'000));
  EXPECT_TRUE(board.AllowRequest("ws", 1'500'000));
  EXPECT_EQ(board.StateOf("ws", 1'500'000), BreakerState::kHalfOpen);
  // One success is not enough to reclose.
  board.NoteSuccess("ws", 50, 1'600'000);
  EXPECT_EQ(board.StateOf("ws", 1'600'000), BreakerState::kHalfOpen);
  board.NoteSuccess("ws", 50, 1'700'000);
  EXPECT_EQ(board.StateOf("ws", 1'700'000), BreakerState::kClosed);
  EXPECT_TRUE(board.AllowRequest("ws", 1'800'000));
}

TEST(SourceHealthBoardTest, HalfOpenProbeFailureReopens) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_cooldown_micros = 1'000'000;
  SourceHealthBoard board(opts);
  board.NoteFailure("ws", 0);
  ASSERT_EQ(board.StateOf("ws", 0), BreakerState::kOpen);
  ASSERT_TRUE(board.AllowRequest("ws", 1'000'000));  // probe
  board.NoteFailure("ws", 1'100'000);                // probe failed
  EXPECT_EQ(board.StateOf("ws", 1'100'000), BreakerState::kOpen);
  EXPECT_EQ(board.GetSnapshot(0)[0].trips, 2);
  // The cooldown restarted at the probe failure.
  EXPECT_FALSE(board.AllowRequest("ws", 1'500'000));
  EXPECT_TRUE(board.AllowRequest("ws", 2'200'000));
}

TEST(SourceHealthBoardTest, LateSuccessWhileOpenDoesNotClose) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  SourceHealthBoard board(opts);
  board.NoteFailure("ws", 0);
  ASSERT_EQ(board.StateOf("ws", 0), BreakerState::kOpen);
  // An abandoned (timed-out) task completing late must not reset the
  // breaker; only an admitted probe may do that.
  board.NoteSuccess("ws", 100, 10);
  board.NoteSuccess("ws", 100, 20);
  EXPECT_EQ(board.StateOf("ws", 20), BreakerState::kOpen);
}

TEST(SourceHealthBoardTest, VirtualClockExpiresCooldown) {
  BreakerOptions opts;
  opts.failure_threshold = 1;
  opts.open_cooldown_micros = 5'000'000;
  SourceHealthBoard board(opts);
  board.NoteFailure("ws", 0);
  EXPECT_FALSE(board.AllowRequest("ws", 0));
  board.AdvanceClockForTest(6'000'000);
  EXPECT_TRUE(board.AllowRequest("ws", 0));
  EXPECT_EQ(board.StateOf("ws", 0), BreakerState::kHalfOpen);
}

TEST(SourceHealthBoardTest, EwmaAndJsonRendering) {
  SourceHealthBoard board;
  board.NoteSuccess("db", 100, 0);
  board.NoteSuccess("db", 200, 0);
  auto snap = board.GetSnapshot(0);
  ASSERT_EQ(snap.size(), 1u);
  // alpha = 0.2: 0.2 * 200 + 0.8 * 100 = 120.
  EXPECT_NEAR(snap[0].ewma_latency_micros, 120.0, 0.01);
  std::string json = RenderJson(SourceHealthBoard::Doc(snap));
  EXPECT_NE(json.find("\"db\":{\"state\":\"closed\""), std::string::npos);
  EXPECT_NE(json.find("\"ewma_latency_micros\":120.0"), std::string::npos);
  EXPECT_NE(json.find("\"successes\":2"), std::string::npos);
}

// ----- Rolling windows ---------------------------------------------------

TEST(RollingWindowTest, BucketsRotateOutOfTheWindows) {
  RollingWindow w;
  int64_t t0 = 1'000'000'000;  // arbitrary steady-clock origin
  w.Record(500, t0);
  auto s = w.GetSnapshot(t0);
  EXPECT_EQ(s.last_1m.count, 1);
  EXPECT_EQ(s.last_5m.count, 1);
  EXPECT_EQ(s.total.count, 1);
  // Two minutes later the sample left the 1m window but not the 5m one.
  int64_t t1 = t0 + 2 * 60 * 1'000'000LL;
  w.Record(700, t1);
  s = w.GetSnapshot(t1);
  EXPECT_EQ(s.last_1m.count, 1);
  EXPECT_EQ(s.last_1m.sum_micros, 700);
  EXPECT_EQ(s.last_5m.count, 2);
  EXPECT_EQ(s.total.count, 2);
  // Six more minutes: both samples are gone from the windows, the total
  // survives.
  s = w.GetSnapshot(t1 + 6 * 60 * 1'000'000LL);
  EXPECT_EQ(s.last_1m.count, 0);
  EXPECT_EQ(s.last_5m.count, 0);
  EXPECT_EQ(s.total.count, 2);
  EXPECT_EQ(s.total.sum_micros, 1200);
}

TEST(RollingWindowTest, StaleSlotIsReusedAfterWrapAround) {
  RollingWindow w;
  int64_t t0 = 50'000'000;
  w.Record(100, t0);
  // Exactly one full ring later the same slot index is hit again; the
  // stale epoch must be evicted, not merged.
  int64_t t1 = t0 + RollingWindow::kSlots * RollingWindow::kSlotMicros;
  w.Record(900, t1);
  auto s = w.GetSnapshot(t1);
  EXPECT_EQ(s.last_5m.count, 1);
  EXPECT_EQ(s.last_5m.sum_micros, 900);
  EXPECT_EQ(s.total.count, 2);
}

TEST(RollingWindowTest, EpochRolloverAtWindowBoundaries) {
  RollingWindow w;
  int64_t t0 = 7'000'000'000;
  w.Record(100, t0);
  // Just inside the 1m window: the sample's 10s slot still overlaps it.
  auto s = w.GetSnapshot(t0 + RollingWindow::kMinuteMicros - 1);
  EXPECT_EQ(s.last_1m.count, 1);
  // Slot-aligned clocks age out deterministically: one minute past the
  // *end* of the sample's slot, that slot is outside the 1m horizon.
  int64_t slot_end = (t0 / RollingWindow::kSlotMicros + 1) *
                     RollingWindow::kSlotMicros;
  s = w.GetSnapshot(slot_end + RollingWindow::kMinuteMicros);
  EXPECT_EQ(s.last_1m.count, 0);
  EXPECT_EQ(s.last_5m.count, 1);
  // ...and five minutes past it, the 5m horizon too.
  s = w.GetSnapshot(slot_end + 5 * RollingWindow::kMinuteMicros);
  EXPECT_EQ(s.last_5m.count, 0);
  EXPECT_EQ(s.total.count, 1);
}

TEST(RollingWindowTest, MultipleRingWrapsNeverDoubleCount) {
  RollingWindow w;
  int64_t t0 = 123'456'789;
  // Hit the same slot index across three full ring revolutions; each
  // revolution must evict the stale epoch, so a snapshot only ever sees
  // the newest sample in the windows while the total keeps all of them.
  int64_t ring = RollingWindow::kSlots * RollingWindow::kSlotMicros;
  for (int rev = 0; rev < 3; ++rev) {
    w.Record(100 + rev, t0 + rev * ring);
  }
  auto s = w.GetSnapshot(t0 + 2 * ring);
  EXPECT_EQ(s.last_1m.count, 1);
  EXPECT_EQ(s.last_1m.sum_micros, 102);
  EXPECT_EQ(s.last_5m.count, 1);
  EXPECT_EQ(s.total.count, 3);
  EXPECT_EQ(s.total.sum_micros, 303);
}

TEST(RollingCounterTest, StaleSlotIsEvictedAfterWrapAround) {
  RollingCounter c;
  int64_t t0 = 90'000'000;
  c.Add(7, t0);
  // One full ring later the same slot is reused: the old sum must not
  // leak into the new epoch's windows.
  int64_t t1 = t0 + RollingWindow::kSlots * RollingWindow::kSlotMicros;
  c.Add(5, t1);
  auto s = c.GetSnapshot(t1);
  EXPECT_EQ(s.last_1m, 5);
  EXPECT_EQ(s.last_5m, 5);
  EXPECT_EQ(s.total, 12);
}

TEST(RollingCounterTest, WindowedSums) {
  RollingCounter c;
  int64_t t0 = 10'000'000;
  c.Add(3, t0);
  c.Add(2, t0 + 1'000'000);
  auto s = c.GetSnapshot(t0 + 1'000'000);
  EXPECT_EQ(s.last_1m, 5);
  EXPECT_EQ(s.total, 5);
  s = c.GetSnapshot(t0 + 3 * 60 * 1'000'000LL);
  EXPECT_EQ(s.last_1m, 0);
  EXPECT_EQ(s.last_5m, 5);
  EXPECT_EQ(s.total, 5);
}

TEST(MetricsRegistryTest, WindowRotationViaVirtualClock) {
  runtime::MetricsRegistry reg;
  reg.RecordWindowed("query.latency_micros", 500);
  reg.AddWindowedCounter("plan_cache.hits");
  auto s1 = reg.GetSnapshot();
  EXPECT_EQ(s1.windows.at("query.latency_micros").last_1m.count, 1);
  EXPECT_EQ(s1.windowed_counters.at("plan_cache.hits").last_1m, 1);
  reg.AdvanceClockForTest(2 * 60 * 1'000'000LL);
  reg.RecordWindowed("query.latency_micros", 900);
  auto s2 = reg.GetSnapshot();
  EXPECT_EQ(s2.windows.at("query.latency_micros").last_1m.count, 1);
  EXPECT_EQ(s2.windows.at("query.latency_micros").last_5m.count, 2);
  EXPECT_EQ(s2.windows.at("query.latency_micros").total.count, 2);
  EXPECT_EQ(s2.windowed_counters.at("plan_cache.hits").last_1m, 0);
  EXPECT_EQ(s2.windowed_counters.at("plan_cache.hits").total, 1);
  std::string text = runtime::MetricsRegistry::RenderText(s2);
  EXPECT_NE(text.find("window{query.latency_micros}"), std::string::npos);
  EXPECT_NE(text.find("windowed_counter{plan_cache.hits}"),
            std::string::npos);
}

// ----- Audit log ---------------------------------------------------------

TEST(ExecutionAuditLogTest, BoundedRingAndJsonl) {
  ExecutionAuditLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    observability::QueryCompletion r;
    r.text = std::string("q").append(std::to_string(i));
    r.rows_returned = i;
    log.Append(r);
  }
  EXPECT_EQ(log.total_appended(), 5);
  auto records = log.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().seq, 2);
  EXPECT_EQ(records.back().seq, 4);
  // The log stamps the hash of the full text.
  EXPECT_EQ(records.back().query_hash, ExecutionAuditLog::HashQuery("q4"));
  std::string jsonl = RenderJsonLines(ExecutionAuditLog::Doc(records));
  // One JSON object per line, schema-stable keys.
  int lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(jsonl.find("\"query_hash\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"wall_micros\""), std::string::npos);
}

TEST(ExecutionAuditLogTest, ControlCharactersStayOnOneJsonlLine) {
  // Regression: a query head containing newlines, tabs and raw control
  // bytes must not break the one-record-per-line JSONL contract or leak
  // unescaped bytes into the JSON string literal.
  ExecutionAuditLog log(/*capacity=*/4);
  observability::QueryCompletion r;
  r.text = "for $c in\nns3:CUSTOMER()\treturn\r$c \x01\x1f end";
  log.Append(r);
  std::string jsonl = RenderJsonLines(ExecutionAuditLog::Doc(log.Records()));
  // Exactly one line (one trailing newline) despite the embedded \n.
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.back(), '\n');
  int newlines = 0;
  for (char c : jsonl) {
    if (c == '\n') {
      // The only permitted control character is the record separator.
      ++newlines;
      continue;
    }
    EXPECT_GE(static_cast<unsigned char>(c), 0x20)
        << "raw control byte " << static_cast<int>(c);
  }
  EXPECT_EQ(newlines, 1);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_NE(jsonl.find("\\t"), std::string::npos);
  EXPECT_NE(jsonl.find("\\r"), std::string::npos);
  EXPECT_NE(jsonl.find("\\u0001"), std::string::npos);
  EXPECT_NE(jsonl.find("\\u001f"), std::string::npos);
}

TEST(JsonUtilTest, EveryControlCharacterIsEscaped) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\plain";
  std::string out;
  observability::AppendJsonString(&out, raw);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front(), '"');
  EXPECT_EQ(out.back(), '"');
  for (char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20)
        << "raw control byte " << static_cast<int>(c);
  }
  // Quotes and backslashes escaped, printable text untouched.
  EXPECT_NE(out.find("\\\""), std::string::npos);
  EXPECT_NE(out.find("\\\\"), std::string::npos);
  EXPECT_NE(out.find("plain"), std::string::npos);
  EXPECT_NE(out.find("\\u0000"), std::string::npos);
  EXPECT_NE(out.find("\\u000b"), std::string::npos);
}

TEST(ExecutionAuditLogTest, HashIsStableAndSensitive) {
  EXPECT_EQ(ExecutionAuditLog::HashQuery("abc"),
            ExecutionAuditLog::HashQuery("abc"));
  EXPECT_NE(ExecutionAuditLog::HashQuery("abc"),
            ExecutionAuditLog::HashQuery("abd"));
}

TEST(ExecutionAuditLogTest, ConcurrentAppendHammer) {
  ExecutionAuditLog log(/*capacity=*/64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        observability::QueryCompletion r;
        r.text = "thread " + std::to_string(t);
        log.Append(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.total_appended(), kThreads * kPerThread);
  auto records = log.Records();
  ASSERT_EQ(records.size(), 64u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
}

// ----- Slow-query log ----------------------------------------------------

TEST(SlowQueryLogTest, PromotionAndBoundedRing) {
  observability::SlowQueryLog log(/*capacity=*/2);
  EXPECT_FALSE(log.IsPromoted(42));
  log.Promote(42);
  EXPECT_TRUE(log.IsPromoted(42));
  for (int i = 0; i < 3; ++i) {
    observability::QueryCompletion c;
    c.statement_fingerprint = 42;
    c.wall_micros = 1000 + i;
    log.Append(c, /*threshold_micros=*/1000, "=== profile ===");
  }
  EXPECT_EQ(log.total_appended(), 3);
  auto records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records.back().full_trace);
  EXPECT_EQ(records.back().completion.wall_micros, 1002);
  std::string json = RenderJson(observability::SlowQueryLog::Doc(records));
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"wall_micros\":1002"), std::string::npos);
}

// ----- Server-level always-on plane --------------------------------------

class ObservabilityServerTest : public ::testing::Test {
 protected:
  explicit ObservabilityServerTest(server::ServerOptions options = {})
      : platform_(std::move(options)) {}

  void SetUp() override {
    auto db =
        std::shared_ptr<relational::Database>(MakeCustomerDb(6, 3).release());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", db, "oracle").ok());

    ws_ = std::make_shared<adaptors::SimulatedWebService>("ws");
    ws_->RegisterOperation(
        "tns:rate",
        [](const std::vector<xml::Sequence>& args) -> Result<xml::Sequence> {
          (void)args;
          return xml::Sequence{xml::Item(xml::AtomicValue::Integer(7))};
        },
        /*latency_millis=*/0);
    ASSERT_TRUE(platform_.RegisterAdaptor(ws_).ok());
    ASSERT_TRUE(platform_
                    .RegisterFunctionalSource(
                        "tns:rate", "ws", "webservice",
                        {xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))},
                        xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger)))
                    .ok());
  }

  server::DataServicePlatform platform_;
  std::shared_ptr<adaptors::SimulatedWebService> ws_;
};

TEST_F(ObservabilityServerTest, CompletionsAuditedPerExecution) {
  const char* q = "ns3:CUSTOMER()";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  auto records = platform_.execution_audit().Records();
  ASSERT_EQ(records.size(), 2u);
  const auto& first = records[0];
  EXPECT_EQ(first.outcome, StatusCode::kOk);
  EXPECT_EQ(first.rows_returned, 6);
  EXPECT_GT(first.bytes_returned, 0);
  EXPECT_GE(first.sql_pushdowns, 1);
  ASSERT_EQ(first.sources.size(), 1u);
  EXPECT_EQ(first.sources[0], "customer_db");
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_GT(first.compile_micros, 0);
  EXPECT_EQ(first.query_hash,
            ExecutionAuditLog::HashQuery(q));
  const auto& second = records[1];
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(second.compile_micros, 0);

  // The JSONL API renders both records.
  std::string jsonl = RenderJsonLines(
      ExecutionAuditLog::Doc(platform_.execution_audit().Records()));
  EXPECT_NE(jsonl.find("\"sources\":[\"customer_db\"]"), std::string::npos);
  EXPECT_NE(jsonl.find("\"plan_cache_hit\":true"), std::string::npos);
}

TEST_F(ObservabilityServerTest, FailedExecutionAuditedWithStatusCode) {
  EXPECT_FALSE(platform_.Execute("ns3:CUSTOMER()/NO_SUCH_CHILD").ok());
  // Compile errors never reach execution; use a runtime failure instead.
  ws_->FailNextCalls(1);
  EXPECT_FALSE(platform_.Execute("tns:rate(1)").ok());
  auto records = platform_.execution_audit().Records();
  ASSERT_FALSE(records.empty());
  EXPECT_NE(records.back().outcome, StatusCode::kOk);
}

TEST_F(ObservabilityServerTest, RollingMetricsFedByExecutions) {
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:CUSTOMER())").ok());
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:CUSTOMER())").ok());
  auto snap = platform_.MetricsSnapshot();
  EXPECT_EQ(snap.windows.at("query.latency_micros").total.count, 2);
  EXPECT_GE(snap.windows.at("compile.total_micros").total.count, 1);
  EXPECT_EQ(snap.windowed_counters.at("query.ok").total, 2);
  EXPECT_EQ(snap.windowed_counters.at("plan_cache.hits").total, 1);
  EXPECT_EQ(snap.windowed_counters.at("plan_cache.misses").total, 1);
  EXPECT_GE(snap.counters.at("worker_pool.size"), 1);
  EXPECT_EQ(snap.counters.at("audit_log.records"), 2);
  std::string json = platform_.MetricsJson();
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"query.latency_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"windowed_counters\""), std::string::npos);
}

TEST_F(ObservabilityServerTest, AclDenialIsAudited) {
  platform_.access_control().AddFunctionAcl(
      {"ns3:CUSTOMER", {"admin"}});
  security::Principal alex{"alex", {"browser"}};
  EXPECT_FALSE(platform_.ExecuteAs("ns3:CUSTOMER()", alex).ok());
  auto records = platform_.execution_audit().Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].principal, "alex");
  EXPECT_EQ(records[0].security_denials, 1);
  EXPECT_NE(records[0].outcome, StatusCode::kOk);
  EXPECT_EQ(records[0].rows_returned, 0);
}

TEST_F(ObservabilityServerTest, RedactionsCountedAsSecurityDenials) {
  platform_.access_control().AddElementPolicy(
      {"CUSTOMER/SSN", {"admin"}, security::RedactionAction::kRemove, {}});
  security::Principal alex{"alex", {"browser"}};
  auto r = platform_.ExecuteAs("ns3:CUSTOMER()", alex);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto records = platform_.execution_audit().Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].principal, "alex");
  EXPECT_EQ(records[0].security_denials, 6);  // one SSN per customer
  EXPECT_EQ(records[0].outcome, StatusCode::kOk);
}

TEST_F(ObservabilityServerTest, StreamedExecutionsAreAudited) {
  int seen = 0;
  ASSERT_TRUE(platform_
                  .ExecuteStream("ns3:CUSTOMER()",
                                 [&](const xml::Item&) {
                                   ++seen;
                                   return Status::OK();
                                 })
                  .ok());
  EXPECT_EQ(seen, 6);
  auto records = platform_.execution_audit().Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rows_returned, 6);
  EXPECT_EQ(records[0].outcome, StatusCode::kOk);
}

TEST_F(ObservabilityServerTest, ExplainRendersSourceHealth) {
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:CUSTOMER())").ok());
  auto text = platform_.Explain("fn:count(ns3:CUSTOMER())");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("\nsource health\n"), std::string::npos) << *text;
  const size_t line = text->find("\n  customer_db ");
  ASSERT_NE(line, std::string::npos) << *text;
  EXPECT_LT(text->find("state=\"closed\"", line), text->find('\n', line + 1))
      << *text;
  auto json = platform_.ExplainJson("fn:count(ns3:CUSTOMER())");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"source_health\":" +
                       RenderJson(platform_.SourceHealthDoc()) + "}"),
            std::string::npos);
  EXPECT_EQ(json->back(), '}');
  // The standalone health document renders the same scoreboard.
  EXPECT_NE(RenderJson(platform_.SourceHealthDoc()).find("\"customer_db\""),
            std::string::npos);
}

TEST_F(ObservabilityServerTest, FunctionCacheHitOnWorkerPoolPathIsTraced) {
  platform_.function_cache().EnableFor("tns:rate", /*ttl_millis=*/60'000);
  // fn-bea:timeout evaluates its primary on a pool thread: the cache hit
  // there must still reach the execution's counters trace (the context
  // copy handed to the pool task carries the trace).
  const char* q = "fn-bea:timeout(tns:rate(1), 5000, -1)";
  auto r1 = platform_.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->front().atomic().AsInteger(), 7);
  auto r2 = platform_.Execute(q);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto records = platform_.execution_audit().Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].function_cache_misses, 1);
  EXPECT_EQ(records[0].function_cache_hits, 0);
  EXPECT_EQ(records[1].function_cache_hits, 1);
  EXPECT_EQ(records[1].function_cache_misses, 0);
  ASSERT_EQ(records[1].sources.size(), 1u);
  EXPECT_EQ(records[1].sources[0], "ws");
}

TEST_F(ObservabilityServerTest, ConcurrentExecutionsUnderThePlane) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());  // warm the plan cache
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!platform_.Execute(q).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(platform_.execution_audit().total_appended(),
            1 + kThreads * kPerThread);
}

// ----- Slow-query capture ------------------------------------------------

class SlowQueryServerTest : public ObservabilityServerTest {
 protected:
  SlowQueryServerTest()
      : ObservabilityServerTest([] {
          server::ServerOptions options;
          // Every execution counts as slow: promotion is deterministic.
          options.slow_query_threshold_micros = 1;
          return options;
        }()) {}
};

TEST_F(SlowQueryServerTest, FirstSlowRunPromotesSecondCapturesFullTrace) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform_.Execute(q).ok());
  ASSERT_TRUE(platform_.Execute(q).ok());
  auto records = platform_.slow_query_log().Records();
  ASSERT_EQ(records.size(), 2u);
  // First sighting ran under counters; it promoted the hash.
  EXPECT_FALSE(records[0].full_trace);
  EXPECT_NE(records[0].profile_text.find("counters:"), std::string::npos);
  EXPECT_TRUE(platform_.slow_query_log().IsPromoted(
      records[0].completion.statement_fingerprint));
  // Second run executed under a full trace and kept the rendered profile.
  EXPECT_TRUE(records[1].full_trace);
  EXPECT_NE(records[1].profile_text.find("=== profile ==="),
            std::string::npos);
  EXPECT_FALSE(records[1].profile_json.empty());

  using observability::SlowQueryLog;
  std::string json = RenderJson(SlowQueryLog::Doc(records));
  EXPECT_NE(json.find("\"full_trace\":true"), std::string::npos);
  std::string text = RenderText(SlowQueryLog::Doc(records));
  EXPECT_NE(text.find("seq=0"), std::string::npos);
  EXPECT_NE(text.find("full_trace=true"), std::string::npos);
  // Selecting one record by sequence number leaves the rest out.
  std::string one = RenderText(SlowQueryLog::Doc({records[0]}));
  EXPECT_NE(one.find("full_trace=false"), std::string::npos);
  EXPECT_EQ(one.find("full_trace=true"), std::string::npos);

  // Promotion keys on the statement, not the text: once one literal of a
  // statement ran slow, a different literal runs under a timeline the
  // first time it executes.
  ASSERT_TRUE(platform_
                  .Execute("for $c in ns3:CUSTOMER() where $c/CID eq "
                           "\"CUST001\" return $c/FIRST_NAME")
                  .ok());
  ASSERT_TRUE(platform_
                  .Execute("for $c in ns3:CUSTOMER() where $c/CID eq "
                           "\"CUST002\" return $c/FIRST_NAME")
                  .ok());
  records = platform_.slow_query_log().Records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[2].full_trace);
  EXPECT_EQ(records[3].completion.statement_fingerprint,
            records[2].completion.statement_fingerprint);
  EXPECT_NE(records[3].completion.text, records[2].completion.text);
  EXPECT_TRUE(records[3].full_trace);
  EXPECT_FALSE(records[3].trace_json.empty());
}

TEST_F(SlowQueryServerTest, ProfiledExecutionsFeedTheSlowLogToo) {
  auto r = platform_.ExecuteProfiled("fn:count(ns3:CUSTOMER())");
  ASSERT_TRUE(r.ok());
  auto records = platform_.slow_query_log().Records();
  ASSERT_EQ(records.size(), 1u);
  // ExecuteProfiled always runs a full trace, so even the first slow
  // sighting captures a rendered profile.
  EXPECT_TRUE(records[0].full_trace);
}

// ----- Breaker integration: trip on timeouts, immediate failover ---------

class BreakerServerTest : public ObservabilityServerTest {
 protected:
  BreakerServerTest()
      : ObservabilityServerTest([] {
          server::ServerOptions options;
          options.circuit_breaker.failure_threshold = 2;
          options.circuit_breaker.open_cooldown_micros = 5'000'000;
          options.circuit_breaker.half_open_successes = 2;
          return options;
        }()) {}
};

TEST_F(BreakerServerTest, RepeatedTimeoutsTripImmediateFailoverThenRecovery) {
  // A latency far above the sum of both timed-out runs keeps the late
  // completions from landing (and resetting the consecutive-timeout
  // count) before the breaker trips, even on slow sanitizer builds.
  ws_->SetLatency("tns:rate", 400);
  const char* q = "fn-bea:timeout(tns:rate(1), 10, 0)";
  for (int i = 0; i < 2; ++i) {
    auto r = platform_.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->front().atomic().AsInteger(), 0);  // alternate
  }
  EXPECT_EQ(platform_.stats().timeouts_fired.load(), 2);
  // Two consecutive timeouts tripped the breaker.
  auto& health = platform_.source_health();
  EXPECT_EQ(health.StateOf("ws", 0), BreakerState::kOpen);
  EXPECT_EQ(health.GetSnapshot(0)[0].timeouts, 2);
  EXPECT_EQ(health.GetSnapshot(0)[0].trips, 1);
  EXPECT_NE(
      RenderJson(platform_.SourceHealthDoc()).find("\"state\":\"open\""),
      std::string::npos);

  // With the breaker open the timeout combinator takes the alternate
  // immediately instead of re-paying the deadline.
  int64_t before = platform_.stats().failovers_fired.load();
  auto t0 = std::chrono::steady_clock::now();
  auto fast = platform_.Execute("fn-bea:timeout(tns:rate(1), 2000, 0)");
  int64_t elapsed_millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->front().atomic().AsInteger(), 0);
  EXPECT_LT(elapsed_millis, 1000);  // far below the 2s deadline
  EXPECT_GT(platform_.stats().failovers_fired.load(), before);
  // The skipped primary counts as a fail-over in the audit record too.
  EXPECT_GE(platform_.execution_audit().Records().back().failovers, 1);

  // Let the abandoned slow invocations drain before driving recovery so
  // their late completions land while the breaker is still open (where
  // the state machine ignores them).
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_EQ(health.StateOf("ws", 0), BreakerState::kOpen);

  // Cooldown expiry (virtual clock) admits probes; two successes reclose.
  health.AdvanceClockForTest(6'000'000);
  ws_->SetLatency("tns:rate", 0);
  for (int i = 0; i < 2; ++i) {
    auto r = platform_.Execute("tns:rate(1)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->front().atomic().AsInteger(), 7);
  }
  EXPECT_EQ(health.StateOf("ws", 0), BreakerState::kClosed);
}

TEST_F(BreakerServerTest, OpenBreakerRejectsDirectInvocations) {
  ws_->FailNextCalls(2);
  EXPECT_FALSE(platform_.Execute("tns:rate(1)").ok());
  EXPECT_FALSE(platform_.Execute("tns:rate(1)").ok());
  ASSERT_EQ(platform_.source_health().StateOf("ws", 0), BreakerState::kOpen);
  // The source is healthy again, but the open breaker fails fast without
  // a round trip.
  auto r = platform_.Execute("tns:rate(1)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(ws_->invocation_count(), 2);
  // fn-bea:fail-over consults the breaker before evaluating the primary.
  auto failover = platform_.Execute("fn-bea:fail-over(tns:rate(1), -1)");
  ASSERT_TRUE(failover.ok()) << failover.status().ToString();
  EXPECT_EQ(failover->front().atomic().AsInteger(), -1);
  EXPECT_EQ(ws_->invocation_count(), 2);  // still no round trip
}

}  // namespace
}  // namespace aldsp
