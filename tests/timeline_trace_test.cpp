// Tests for timeline tracing: timestamped spans with thread lanes and
// queue-wait attribution (runtime::QueryTrace Mode::kTimeline), the
// critical-path analyzer, and the Chrome/Perfetto trace_event exporter.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "observability/critical_path.h"
#include "observability/timeline.h"
#include "observability/trace_export.h"
#include "runtime/query_trace.h"
#include "server/explain.h"
#include "server/server.h"
#include "tests/e2e_fixture.h"
#include "tests/test_fixtures.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using aldsp::testing::RunningExample;
using observability::AnalyzeCriticalPath;
using observability::CriticalPathReport;
using observability::Timeline;
using observability::TimelineEvent;
using observability::TimelineSpan;
using runtime::QueryTrace;
using server::DataServicePlatform;

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

// ----- Minimal JSON parser (round-trip validation) ------------------------
//
// Just enough JSON to re-parse the exporter's output: objects, arrays,
// strings with escapes, numbers, true/false/null. Strict about structure
// so malformed output (trailing commas, bad escapes, raw control chars)
// fails the parse.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  bool Has(const std::string& key) const { return fields.count(key) != 0; }
  const JsonValue& At(const std::string& key) const {
    return fields.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 5 >= text_.size()) return false;
            for (int i = 2; i < 6; ++i) {
              if (!std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + i]))) {
                return false;
              }
            }
            out->push_back('?');  // decoded value irrelevant to the tests
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
        pos_ += 2;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (Literal("true")) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::kBool;
      out->boolean = false;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::kNull;
      return true;
    }
    // Number.
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->fields[key] = std::move(value);
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ----- Critical-path analyzer on a hand-built timeline --------------------

// One driving lane, one awaited pool task, one inline source round trip:
//
//   lane 0 (main):  [0 ......... wait on task [100,600] ......... 1000]
//                                                        src2 [900,1000]
//   lane 1 (task):        queued [100,300] | run [300,600]
//                                            src1 [350,600]
//
// The 500us stall decomposes into 200us queue wait, 250us source wait
// (src1) and 50us task run (compute); the inline round trip adds 100us
// source wait; the remaining 400us on lane 0 is mid-tier compute.
Timeline MakeSyntheticTimeline() {
  Timeline t;
  t.root = 0;
  t.wall_micros = 1000;
  t.lanes = {"main", "worker-0"};

  TimelineSpan root;
  root.id = 0;
  root.name = "query";
  root.lane = 0;
  root.begin_micros = 0;
  root.end_micros = 1000;
  t.spans.push_back(root);

  TimelineSpan task;
  task.id = 1;
  task.parent = 0;
  task.name = "task[async]";
  task.lane = 1;
  task.begin_micros = 100;
  task.end_micros = 600;
  task.queue_micros = 200;
  t.spans.push_back(task);

  TimelineEvent wait;
  wait.name = "task-wait";
  wait.span = 0;
  wait.lane = 0;
  wait.at_micros = 600;
  wait.dur_micros = 500;
  wait.ref_span = 1;
  wait.is_wait = true;
  t.events.push_back(wait);

  TimelineEvent src1;
  src1.name = "sql";
  src1.source = "db1";
  src1.span = 1;
  src1.lane = 1;
  src1.at_micros = 600;
  src1.dur_micros = 250;
  src1.is_source = true;
  t.events.push_back(src1);

  TimelineEvent src2;
  src2.name = "invoke";
  src2.source = "db2";
  src2.span = 0;
  src2.lane = 0;
  src2.at_micros = 1000;
  src2.dur_micros = 100;
  src2.is_source = true;
  t.events.push_back(src2);
  return t;
}

TEST(CriticalPathTest, StallDecomposesIntoQueueSourceAndRun) {
  CriticalPathReport r = AnalyzeCriticalPath(MakeSyntheticTimeline());
  EXPECT_EQ(r.wall_micros, 1000);
  EXPECT_EQ(r.queue_wait_micros, 200);
  EXPECT_EQ(r.source_wait_micros, 350);  // 250 awaited + 100 inline
  EXPECT_EQ(r.compute_micros, 450);      // 50 task run + 400 on lane 0
  EXPECT_EQ(r.other_micros, 0);
  EXPECT_EQ(r.accounted_micros(), r.wall_micros);
  EXPECT_DOUBLE_EQ(r.coverage_pct(), 100.0);
  EXPECT_EQ(r.source_wait_by_source.at("db1"), 250);
  EXPECT_EQ(r.source_wait_by_source.at("db2"), 100);
  // The awaited task's round trip stalled the driving thread: nothing
  // was hidden behind compute.
  EXPECT_EQ(r.prefetch_hidden_micros, 0);
}

TEST(CriticalPathTest, UnawaitedOffLaneSourceTimeIsPrefetchHidden) {
  Timeline t = MakeSyntheticTimeline();
  // A prefetch round trip on a worker lane the driving thread never
  // blocked on: it must show up as hidden time, not as source wait.
  TimelineSpan prefetch;
  prefetch.id = 2;
  prefetch.parent = 0;
  prefetch.name = "task[ppk-prefetch]";
  prefetch.lane = 1;
  prefetch.begin_micros = 700;
  prefetch.end_micros = 950;
  t.spans.push_back(prefetch);
  TimelineEvent src;
  src.name = "ppk-fetch";
  src.source = "db3";
  src.span = 2;
  src.lane = 1;
  src.at_micros = 950;
  src.dur_micros = 240;
  src.is_source = true;
  t.events.push_back(src);

  CriticalPathReport r = AnalyzeCriticalPath(t);
  EXPECT_EQ(r.prefetch_hidden_micros, 240);
  EXPECT_EQ(r.source_wait_micros, 350);  // unchanged
  EXPECT_EQ(r.accounted_micros(), r.wall_micros);
  EXPECT_EQ(r.source_wait_by_source.count("db3"), 0u);
}

TEST(CriticalPathTest, OverlappingStallsDoNotDoubleCount) {
  Timeline t = MakeSyntheticTimeline();
  // A second wait on the same task covering a sub-range of the first
  // stall: the overlap must be attributed exactly once.
  TimelineEvent wait2 = t.events[0];
  wait2.at_micros = 500;
  wait2.dur_micros = 150;  // [350, 500] nested inside [100, 600]
  t.events.push_back(wait2);
  CriticalPathReport r = AnalyzeCriticalPath(t);
  EXPECT_EQ(r.accounted_micros(), r.wall_micros);
  EXPECT_EQ(r.queue_wait_micros, 200);
  EXPECT_EQ(r.source_wait_micros, 350);
}

TEST(CriticalPathTest, EmptyTimelineYieldsEmptyReport) {
  Timeline t;
  CriticalPathReport r = AnalyzeCriticalPath(t);
  EXPECT_EQ(r.wall_micros, 0);
  EXPECT_EQ(r.accounted_micros(), 0);
  EXPECT_DOUBLE_EQ(r.coverage_pct(), 100.0);
}

TEST(CriticalPathTest, RenderersEmitBucketsAndPerSourceBreakdown) {
  CriticalPathReport r = AnalyzeCriticalPath(MakeSyntheticTimeline());
  std::string text = observability::RenderCriticalPathText(r);
  EXPECT_TRUE(Contains(text, "=== critical path ===")) << text;
  EXPECT_TRUE(Contains(text, "source-wait")) << text;
  EXPECT_TRUE(Contains(text, "queue-wait")) << text;
  EXPECT_TRUE(Contains(text, "compute")) << text;
  EXPECT_TRUE(Contains(text, "prefetch-hidden")) << text;
  EXPECT_TRUE(Contains(text, "wait on db1: 250 us")) << text;
  EXPECT_TRUE(Contains(text, "accounted")) << text;

  std::string json = observability::RenderCriticalPathJson(r);
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(json).Parse(&parsed)) << json;
  EXPECT_EQ(parsed.At("wall_micros").number, 1000);
  EXPECT_EQ(parsed.At("queue_wait_micros").number, 200);
  EXPECT_EQ(parsed.At("source_wait_micros").number, 350);
  EXPECT_EQ(parsed.At("coverage_pct").number, 100.0);
  EXPECT_EQ(parsed.At("source_wait_by_source").At("db1").number, 250);
}

// ----- End-to-end: profiled PP-k join under real source latency -----------

constexpr const char* kCrossJoin =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <X>{fn:data($cc/CCN)}</X>";

class TimelineE2ETest : public ::testing::Test {
 protected:
  explicit TimelineE2ETest(server::ServerOptions options = {})
      : platform(std::move(options)) {}

  void SetUp() override {
    customer_db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(100, 0).release());
    billing_db = std::shared_ptr<relational::Database>(
        MakeCreditCardDb(40).release());
    // Real (sleeping) latency so the timeline contains actual intervals:
    // every statement costs ~1ms of wall time on whichever thread runs it.
    for (auto* db : {customer_db.get(), billing_db.get()}) {
      db->latency_model().roundtrip_micros = 1000;
      db->latency_model().per_row_micros = 5;
      db->latency_model().sleep = true;
    }
    ASSERT_TRUE(
        platform.RegisterRelationalSource("ns3", customer_db, "oracle").ok());
    ASSERT_TRUE(
        platform.RegisterRelationalSource("ns2", billing_db, "db2").ok());
  }

  DataServicePlatform platform;
  std::shared_ptr<relational::Database> customer_db;
  std::shared_ptr<relational::Database> billing_db;
};

// Lane assertions need a span to actually execute on a pool worker, and a
// cold ObservedCostModel makes that racy: AdvisePrefetchDepth() returns 1
// with no split observations, so PPkJoinOp::Refill enqueues exactly one
// fetch and immediately Wait()s on it — and Task::Wait work-steals, so the
// driving thread claims every fetch inline and the whole trace collapses
// onto lane 0. Pinning ppk_prefetch_depth = 2 removes the race: each
// inline-stolen fetch sleeps ~1ms of modeled source latency while the
// second queued fetch sits available to a parked worker, so a worker lane
// is registered on the first profiled run — no retry needed.
class TimelineLaneTest : public TimelineE2ETest {
 protected:
  TimelineLaneTest()
      : TimelineE2ETest([] {
          server::ServerOptions options;
          options.ppk_prefetch_depth = 2;
          return options;
        }()) {}
};

TEST_F(TimelineLaneTest, ProfiledSpansCarryTimestampsAndLanes) {
  // Warm-up gate: prove a pool worker is scheduled and dequeuing before
  // the profiled run. Task::WaitFor never work-steals, so the no-op task
  // below can only complete on a worker thread.
  auto gate = platform.worker_pool().Submit([] {});
  ASSERT_TRUE(gate.WaitFor(std::chrono::seconds(30)))
      << "worker pool never scheduled a task";

  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  ASSERT_TRUE(prof->trace->has_timeline());

  auto spans = prof->trace->spans();
  ASSERT_FALSE(spans.empty());
  // Root span: lane 0 (the driving thread), begins at/near the origin.
  EXPECT_EQ(spans[0].kind, "query");
  EXPECT_EQ(spans[0].lane, 0);
  EXPECT_GE(spans[0].begin_micros, 0);
  EXPECT_GT(spans[0].end_micros, spans[0].begin_micros);
  bool saw_task = false, saw_row_marks = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.begin_micros, 0) << s.kind;
    EXPECT_GE(s.end_micros, s.begin_micros) << s.kind;
    EXPECT_GE(s.lane, 0) << s.kind;
    if (s.kind.rfind("task[", 0) == 0) {
      saw_task = true;
      // Pool tasks record how long they sat queued before running.
      EXPECT_GE(s.queue_micros, 0) << s.kind;
    }
    if (s.first_row_micros >= 0) {
      saw_row_marks = true;
      EXPECT_GE(s.last_row_micros, s.first_row_micros) << s.kind;
      EXPECT_GE(s.first_row_micros, s.begin_micros) << s.kind;
    }
  }
  // The default-prefetching PP-k join hoists block fetches to the pool.
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_row_marks);

  // Events carry completion timestamps, and relational round trips are
  // split into round-trip vs per-row transfer by the latency model.
  bool saw_split = false;
  for (const auto& ev : prof->trace->events()) {
    EXPECT_GE(ev.at_micros, 0);
    if (ev.kind == QueryTrace::EventKind::kSql ||
        ev.kind == QueryTrace::EventKind::kPPkFetch) {
      ASSERT_GE(ev.roundtrip_micros, 0) << ev.detail;
      EXPECT_LE(ev.roundtrip_micros + ev.transfer_micros, ev.micros);
      if (ev.transfer_micros > 0) saw_split = true;
    }
  }
  EXPECT_TRUE(saw_split);

  // The timeline has the driving lane plus at least one worker lane.
  Timeline timeline = prof->trace->BuildTimeline();
  EXPECT_EQ(timeline.root, spans[0].id);
  ASSERT_GE(timeline.lanes.size(), 2u);
  EXPECT_EQ(timeline.lanes[0], "main");
}

TEST_F(TimelineE2ETest, CriticalPathBucketsCoverTheWall) {
  auto prof = platform.ExecuteProfiled(kCrossJoin);
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  Timeline timeline = prof->trace->BuildTimeline();
  CriticalPathReport r = AnalyzeCriticalPath(timeline);
  ASSERT_GT(r.wall_micros, 0);
  // The buckets must account for (at least) 95% of the profiled wall
  // time; with 1ms round trips the dominant bucket is source wait.
  EXPECT_GE(r.coverage_pct(), 95.0)
      << observability::RenderCriticalPathText(r);
  EXPECT_GT(r.source_wait_micros, 0);
  EXPECT_FALSE(r.source_wait_by_source.empty());

  // EXPLAIN ANALYZE renders the report for timeline traces.
  std::string text = server::RenderProfileText(*prof->plan, *prof->trace);
  EXPECT_TRUE(Contains(text, "=== critical path ===")) << text;
  std::string json = server::RenderProfileJson(*prof->plan, *prof->trace);
  EXPECT_TRUE(Contains(json, "\"critical_path\":")) << json;
  JsonValue parsed;
  ASSERT_TRUE(JsonParser(json).Parse(&parsed));
  ASSERT_TRUE(parsed.Has("critical_path"));
  EXPECT_GE(parsed.At("critical_path").At("coverage_pct").number, 95.0);
}

TEST_F(TimelineE2ETest, ChromeTraceRoundTripsThroughAParser) {
  auto trace = platform.ChromeTraceJson(kCrossJoin);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  JsonValue doc;
  ASSERT_TRUE(JsonParser(*trace).Parse(&doc)) << *trace;
  ASSERT_TRUE(doc.Has("traceEvents"));
  const auto& events = doc.At("traceEvents").items;
  ASSERT_FALSE(events.empty());

  bool saw_query_slice = false, saw_main_lane = false, saw_source = false,
       saw_queued = false;
  for (const auto& ev : events) {
    // Every record identifies its phase and lane.
    ASSERT_TRUE(ev.Has("ph"));
    ASSERT_TRUE(ev.Has("tid"));
    ASSERT_TRUE(ev.Has("name"));
    const std::string& ph = ev.At("ph").str;
    if (ph == "M") {
      if (ev.At("name").str == "thread_name" &&
          ev.At("args").At("name").str == "main") {
        saw_main_lane = true;
      }
      continue;
    }
    // Non-metadata records are timestamped; complete slices have dur.
    ASSERT_TRUE(ev.Has("ts")) << ev.At("name").str;
    EXPECT_GE(ev.At("ts").number, 0);
    if (ph == "X") {
      ASSERT_TRUE(ev.Has("dur")) << ev.At("name").str;
      EXPECT_GE(ev.At("dur").number, 0);
    }
    const std::string& name = ev.At("name").str;
    if (name == "query") saw_query_slice = true;
    if (Contains(name, "[queued]")) saw_queued = true;
    if (ev.Has("cat") && ev.At("cat").str == "source") saw_source = true;
  }
  EXPECT_TRUE(saw_query_slice);
  EXPECT_TRUE(saw_main_lane);
  EXPECT_TRUE(saw_source);
  EXPECT_TRUE(saw_queued);
}

// ----- Slow-query promotion stores the exported timeline ------------------

class SlowQueryTimelineTest : public TimelineE2ETest {
 protected:
  SlowQueryTimelineTest()
      : TimelineE2ETest([] {
          server::ServerOptions options;
          options.slow_query_threshold_micros = 1;  // everything is slow
          return options;
        }()) {}
};

TEST_F(SlowQueryTimelineTest, PromotedRunRetainsChromeTrace) {
  const char* q = "fn:count(ns3:CUSTOMER())";
  ASSERT_TRUE(platform.Execute(q).ok());
  ASSERT_TRUE(platform.Execute(q).ok());
  auto records = platform.slow_query_log().Records();
  ASSERT_EQ(records.size(), 2u);
  // First sighting ran under counters: no timeline to export.
  EXPECT_TRUE(records[0].trace_json.empty());
  // The promoted second run executed under a timeline trace and kept
  // the Chrome export alongside the rendered profile.
  ASSERT_TRUE(records[1].full_trace);
  ASSERT_FALSE(records[1].trace_json.empty());
  JsonValue doc;
  ASSERT_TRUE(JsonParser(records[1].trace_json).Parse(&doc));
  EXPECT_FALSE(doc.At("traceEvents").items.empty());

  // Retrieval by sequence number, and embedding in the JSON rendering.
  EXPECT_EQ(platform.SlowQueryChromeTrace(records[1].seq),
            records[1].trace_json);
  EXPECT_EQ(platform.SlowQueryChromeTrace(records[0].seq), "");
  EXPECT_EQ(platform.SlowQueryChromeTrace(999'999), "");
  EXPECT_TRUE(Contains(observability::RenderJson(
                           observability::SlowQueryLog::Doc(records)),
                       "\"trace_json\":{"));
}

// ----- Batch accounting: spans report rows, never batches ------------------

TEST(TimelineRowAccountingTest, SpanRowsCountRowsNotBatches) {
  // The batch runtime moves whole TupleBatches between operators, but
  // every observability surface still reports per-row numbers. With 30
  // result rows crossing each operator in 8-row batches, a regression
  // that tallied NextBatch calls instead of rows would report 4.
  RunningExample env(30, 3);
  env.ctx.batch_size = 8;
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  auto result = env.Run("for $c in ns3:CUSTOMER() return fn:data($c/CID)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto n = static_cast<int64_t>(result->size());
  ASSERT_EQ(n, 30);

  bool saw_scan = false;
  bool saw_return = false;
  for (const auto& s : trace.spans()) {
    if (s.kind == "for $c") {
      saw_scan = true;
      EXPECT_EQ(s.rows, n) << "scan span must count rows, not batches";
    }
    if (s.kind == "return") {
      saw_return = true;
      EXPECT_EQ(s.rows, n) << "return span must count rows, not batches";
      // Row timestamps mark actual row production, so they only ever
      // move when a non-empty batch came back.
      EXPECT_GE(s.first_row_micros, 0);
      EXPECT_GE(s.last_row_micros, s.first_row_micros);
    }
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_return);
  env.ctx.batch_size = 1024;
}

// ----- Async task spans: queue-wait + join-stall attribution ---------------

TEST(TimelineAsyncTest, AsyncTasksGetSpansQueueTimeAndWaitEvents) {
  RunningExample env(3);
  QueryTrace trace(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &trace;
  // Slow the service enough that while the launching thread claims one
  // task inline (Task::Wait work-stealing), a pool worker picks up the
  // other: the timeline deterministically spans at least two lanes.
  env.rating_ws->SetLatency("ns4:getRating", 20);
  std::string body =
      "fn:data(ns4:getRating(<ns5:getRating><ns5:lName>Smith</ns5:lName>"
      "<ns5:ssn>1</ns5:ssn></ns5:getRating>)/ns5:getRatingResult)";
  auto r = env.Run("<R><A>{fn-bea:async(" + body + ")}</A><B>{fn-bea:async(" +
                   body + ")}</B></R>");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  int task_spans = 0;
  for (const auto& s : trace.spans()) {
    if (s.kind.rfind("task[async]", 0) != 0) continue;
    ++task_spans;
    EXPECT_TRUE(s.finished);
    EXPECT_GE(s.queue_micros, 0);
    EXPECT_GE(s.begin_micros, 0);
    EXPECT_GE(s.end_micros, s.begin_micros);
  }
  EXPECT_GE(task_spans, 2);

  // The launching thread recorded a join stall per awaited task, each
  // pointing back at the task span it blocked on.
  EXPECT_GE(trace.CountEvents(QueryTrace::EventKind::kTaskWait), 2);
  auto spans = trace.spans();
  for (const auto& ev : trace.events()) {
    if (ev.kind != QueryTrace::EventKind::kTaskWait) continue;
    ASSERT_GE(ev.ref_span, 0);
    ASSERT_LT(ev.ref_span, static_cast<int>(spans.size()));
    EXPECT_EQ(spans[static_cast<size_t>(ev.ref_span)].kind.rfind("task[", 0),
              0u);
  }

  // Worker execution registered extra lanes beyond the driving thread.
  Timeline timeline = trace.BuildTimeline();
  EXPECT_GE(timeline.lanes.size(), 2u);
}

TEST(TimelineAsyncTest, CountersModeRecordsNoTimeline) {
  RunningExample env(2);
  QueryTrace trace(QueryTrace::Mode::kCounters);
  env.ctx.trace = &trace;
  ASSERT_TRUE(env.Run("fn:count(ns3:CUSTOMER())").ok());
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.events().empty());
  // The atomic tallies still work without an event list.
  EXPECT_EQ(trace.CountEvents(QueryTrace::EventKind::kSourceInvoke), 1);
  EXPECT_EQ(trace.SourcesTouched(),
            std::vector<std::string>{"customer_db"});
  // Interned from the set, it is the one interned from the list.
  EXPECT_EQ(&trace.SourceSetTouched().names(),
            &observability::SourceSet(trace.SourcesTouched()).names());
  // And a timeline trace keeps events with timestamps and lanes.
  QueryTrace timeline(QueryTrace::Mode::kTimeline);
  env.ctx.trace = &timeline;
  ASSERT_TRUE(env.Run("for $c in ns3:CUSTOMER() return $c").ok());
  ASSERT_FALSE(timeline.spans().empty());
  EXPECT_GE(timeline.spans()[0].begin_micros, 0);
  EXPECT_GE(timeline.spans()[0].lane, 0);
}

}  // namespace
}  // namespace aldsp
