// Streaming a PP-k join (paper §4.2, §5.2): when the next block's fetch
// has not finished, the join hands the rows it already holds to the
// consumer as a short batch, and a SQL region scan builds its row
// elements one batch at a time. Every streamed and materialized result
// is held byte for byte against a platform that evaluates the simplest
// way (no pushdown, one row per batch, serial), and an interpreted
// return costs one web-service call per result row on both paths.
// Early delivery is checked as block counts at the first sink call. A
// sink error or a cancel mid-stream, with fetches in flight, must end
// with its own status, deliver nothing more, and leave every gauge at
// zero. Streaming on behalf of a principal filters each item as
// ExecuteAs filters its result.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adaptors/webservice_adaptor.h"
#include "examples/example_env.h"
#include "tests/e2e_fixture.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

using xquery::JoinMethod;

const security::Principal kAnalyst{"amy", {"analyst", "admin"}};
const security::Principal kSupport{"sam", {"support"}};
const security::Principal kOutsider{"oz", {"browser"}};
// Three PP-k blocks at the default k = 20.
constexpr int kCustomers = 60;

// The end-to-end benchmark's join panel: a cross-source PP-k join over a
// bare CUSTOMER scan.
constexpr const char* kJoinPanel =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
// A same-source join, which pushdown would fold into one statement;
// the knob matrix runs it with pushdown off so it stays a PP-k join.
constexpr const char* kOrderJoin =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($o/OID)}</CO>";
// A positional variable over a SQL region scan.
constexpr const char* kPositionalScan =
    "for $c at $p in ns3:CUSTOMER() "
    "return <P>{$p}{fn:data($c/CID)}</P>";
// An interpreted return that calls the rating web service once per
// customer.
constexpr const char* kRatingReturn =
    "for $c in ns3:CUSTOMER() return <R>{fn:data($c/CID)}{"
    "fn:data(ns4:getRating(<ns5:getRating>"
    "<ns5:lName>{fn:data($c/LAST_NAME)}</ns5:lName>"
    "<ns5:ssn>{fn:data($c/SSN)}</ns5:ssn>"
    "</ns5:getRating>)/ns5:getRatingResult)}</R>";

std::unique_ptr<DataServicePlatform> MakePlatform(ServerOptions options) {
  auto platform = std::make_unique<DataServicePlatform>(std::move(options));
  examples::WireRunningExample(*platform, kCustomers);
  EXPECT_TRUE(platform->LoadDataService(examples::ProfileDataService()).ok());
  security::AccessControl& ac = platform->access_control();
  ac.AddFunctionAcl({"tns:getProfile", {"admin", "analyst", "support"}});
  ac.AddElementPolicy({"PROFILE/RATING",
                       {"analyst"},
                       security::RedactionAction::kReplace,
                       xml::AtomicValue::Integer(-1)});
  ac.AddElementPolicy({"PROFILE/CREDIT_CARDS",
                       {"admin"},
                       security::RedactionAction::kRemove,
                       {}});
  return platform;
}

// Gives the named source a round trip that really sleeps.
void SetRoundTrip(DataServicePlatform& platform, const std::string& source,
                  int64_t micros) {
  relational::Database* db = platform.adaptors().FindDatabase(source);
  ASSERT_NE(db, nullptr) << source;
  db->latency_model() = relational::LatencyModel{micros, 0, true};
}

using testing::Executed;
using testing::Streamed;

// Rating web-service calls made so far.
int64_t RatingCalls(DataServicePlatform& platform) {
  auto* ws = dynamic_cast<adaptors::SimulatedWebService*>(
      platform.adaptors().Find("ratingWS"));
  EXPECT_NE(ws, nullptr);
  return ws != nullptr ? ws->invocation_count() : -1;
}

bool IsPPk(JoinMethod m) {
  return m == JoinMethod::kPPkNestedLoop || m == JoinMethod::kPPkIndexNestedLoop;
}

// Polls `done` for up to two seconds: pool gauges settle just after the
// task that moved them reports completion.
bool Eventually(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ----- Byte-identical output across the knob space -------------------------

class StreamShortBatchKnobTest
    : public ::testing::TestWithParam<testing::ServerKnobs> {};

TEST_P(StreamShortBatchKnobTest, StreamAndExecuteMatchReference) {
  static const std::unique_ptr<DataServicePlatform> reference =
      MakePlatform(testing::ReferenceOptions());
  const testing::ServerKnobs& k = GetParam();
  auto platform = testing::KnobPlatform(MakePlatform, k);
  auto unpushed = testing::KnobPlatform(MakePlatform, k, /*pushdown=*/false);
  const std::string label = k.Name();
  struct Case {
    DataServicePlatform* platform;
    const char* query;
  };
  // The interpreted-shape queries join on a function call, which no PP-k
  // fetch can parameterize, so their joins run as INL.
  for (const Case& c : {Case{platform.get(), kJoinPanel},
                        Case{unpushed.get(), kOrderJoin},
                        Case{platform.get(), kPositionalScan},
                        Case{platform.get(), testing::kInterpretedJoinQuery},
                        Case{unpushed.get(), testing::kInterpretedJoinQuery},
                        Case{unpushed.get(), testing::kInterpretedGroupQuery}}) {
    if (IsPPk(k.method) && (c.query == kJoinPanel || c.query == kOrderJoin)) {
      auto explain = c.platform->Explain(c.query);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      EXPECT_NE(explain->find("join[ppk"), std::string::npos)
          << c.query << "\n" << *explain;
    }
    testing::ExpectMatchesReference(*c.platform, *reference, c.query, nullptr,
                                    label);
  }

  // Both server paths evaluate the interpreted return once per result
  // row, and a stream stopped at its first item made one call.
  const std::string expected = Executed(*reference, kRatingReturn);
  platform->function_cache().Clear();
  int64_t before = RatingCalls(*platform);
  EXPECT_EQ(Streamed(*platform, kRatingReturn), expected) << label;
  EXPECT_EQ(RatingCalls(*platform) - before, kCustomers) << label;
  platform->function_cache().Clear();
  before = RatingCalls(*platform);
  EXPECT_EQ(Executed(*platform, kRatingReturn), expected) << label;
  EXPECT_EQ(RatingCalls(*platform) - before, kCustomers) << label;
  platform->function_cache().Clear();
  before = RatingCalls(*platform);
  Status st = platform->ExecuteStream(kRatingReturn, [](const xml::Item&) {
    return Status::InvalidArgument("stop after the first item");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(RatingCalls(*platform) - before, 1) << label;
}

INSTANTIATE_TEST_SUITE_P(Matrix, StreamShortBatchKnobTest,
                         ::testing::ValuesIn(testing::ServerKnobMatrix()),
                         testing::KnobName);

TEST(StreamShortBatchTest, PositionalScanIsASqlRegion) {
  auto platform = MakePlatform({});
  auto explain = platform->Explain(kPositionalScan);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("at $p sql-region"), std::string::npos) << *explain;
}

// ----- Early delivery ------------------------------------------------------

// PP-k blocks read when the first item reaches the sink, and in total.
struct BlockCounts {
  int64_t at_first_item = -1;
  int64_t total = 0;
};

BlockCounts StreamJoinPanel(DataServicePlatform& platform) {
  BlockCounts counts;
  const int64_t before = platform.stats().ppk_blocks.load();
  Status st = platform.ExecuteStream(kJoinPanel, [&](const xml::Item&) {
    if (counts.at_first_item < 0) {
      counts.at_first_item = platform.stats().ppk_blocks.load() - before;
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  counts.total = platform.stats().ppk_blocks.load() - before;
  return counts;
}

ServerOptions PPkOptions() {
  ServerOptions options;
  options.optimizer.forced_join_method = JoinMethod::kPPkIndexNestedLoop;
  options.max_query_dop = 1;
  options.worker_pool_size = 4;
  return options;
}

TEST(StreamShortBatchTest, WithoutPrefetchTheFirstItemFollowsOneBlock) {
  auto platform = MakePlatform(PPkOptions());
  platform->runtime_context().ppk_prefetch = false;
  BlockCounts counts = StreamJoinPanel(*platform);
  EXPECT_EQ(counts.at_first_item, 1);
  EXPECT_EQ(counts.total, 3);
}

// The second block's fetch starts before the first block is joined, so
// the bound holds only while that join is shorter than a round trip: a
// 2 ms round trip was exceeded under the sanitizers with suites running
// in parallel, so the test sleeps 20 ms.
TEST(StreamShortBatchTest, WithDepthOneTheFirstItemPrecedesTheThirdBlock) {
  ServerOptions options = PPkOptions();
  options.ppk_prefetch_depth = 1;
  auto platform = MakePlatform(options);
  SetRoundTrip(*platform, "billing_db", 20'000);
  BlockCounts counts = StreamJoinPanel(*platform);
  EXPECT_GE(counts.at_first_item, 1);
  EXPECT_LE(counts.at_first_item, 2);
  EXPECT_EQ(counts.total, 3);
}

// ----- Error and cancel mid-stream -----------------------------------------

// Depth 4 schedules all three fetches before the first item. The pool's
// one thread is held by a gate task until the test opens it, so the
// consumer claims the first fetch and runs it inline (Task::Wait), and
// the second and third fetches are still queued behind the gate when the
// first item reaches the sink, however the threads are scheduled.
class StreamShortBatchStopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options = PPkOptions();
    options.ppk_prefetch_depth = 4;
    options.worker_pool_size = 1;
    options.max_concurrent_queries = 2;
    platform_ = MakePlatform(options);
    runtime::WorkerPool& pool = platform_->worker_pool();
    gate_task_ = pool.Submit([this] {
      std::unique_lock<std::mutex> lock(gate_mutex_);
      gate_cv_.wait(lock, [this] { return gate_open_; });
    });
    ASSERT_TRUE(Eventually([&] { return pool.running_tasks() == 1; }));
  }

  void TearDown() override { OpenGate(); }

  // Lets the pool thread go, and with it any fetch still queued.
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
    gate_task_.Wait();
  }

  // Fetches running or queued on the pool.
  int64_t FetchesInFlight() {
    runtime::WorkerPool& pool = platform_->worker_pool();
    return pool.running_tasks() + pool.queue_depth();
  }

  // Every gauge a stopped stream could leave behind is back at zero once
  // the gate is open.
  void ExpectDrained() {
    OpenGate();
    EXPECT_EQ(platform_->query_registry().live_count(), 0);
    AdmissionSnapshot admission = platform_->admission().Snapshot();
    EXPECT_EQ(admission.running, 0);
    EXPECT_EQ(admission.queue_depth, 0);
    runtime::WorkerPool& pool = platform_->worker_pool();
    EXPECT_TRUE(Eventually([&] {
      return pool.queue_depth() == 0 && pool.running_tasks() == 0;
    })) << "queue " << pool.queue_depth() << " running "
        << pool.running_tasks();
  }

  std::unique_ptr<DataServicePlatform> platform_;
  runtime::WorkerPool::Task gate_task_;
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_open_ = false;
};

TEST_F(StreamShortBatchStopTest, SinkErrorAfterFirstItemStopsTheStream) {
  int items = 0;
  int64_t blocks_at_error = -1;
  int64_t in_flight_at_error = -1;
  int64_t queued_at_error = -1;
  const int64_t before = platform_->stats().ppk_blocks.load();
  Status st = platform_->ExecuteStream(kJoinPanel, [&](const xml::Item&) {
    ++items;
    blocks_at_error = platform_->stats().ppk_blocks.load() - before;
    in_flight_at_error = FetchesInFlight();
    queued_at_error = platform_->worker_pool().queue_depth();
    return Status::InvalidArgument("consumer is full");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(items, 1);
  EXPECT_EQ(blocks_at_error, 3);
  EXPECT_GT(in_flight_at_error, 0);
  EXPECT_EQ(queued_at_error, 2);
  ExpectDrained();
}

TEST_F(StreamShortBatchStopTest, CancelAfterFirstItemStopsTheStream) {
  int items = 0;
  uint64_t cancelled_id = 0;
  int64_t in_flight_at_cancel = -1;
  int64_t queued_at_cancel = -1;
  Status st = platform_->ExecuteStream(kJoinPanel, [&](const xml::Item&) {
    if (++items == 1) {
      in_flight_at_cancel = FetchesInFlight();
      queued_at_cancel = platform_->worker_pool().queue_depth();
      auto live = platform_->query_registry().Snapshot();
      EXPECT_EQ(live.size(), 1u);
      if (!live.empty()) {
        cancelled_id = live[0].query_id;
        EXPECT_TRUE(platform_->CancelQuery(cancelled_id));
      }
    }
    return Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_NE(cancelled_id, 0u);
  EXPECT_EQ(items, 1);
  EXPECT_GT(in_flight_at_cancel, 0);
  EXPECT_EQ(queued_at_cancel, 2);
  ExpectDrained();
}

// ----- Streaming on behalf of a principal ----------------------------------

TEST(StreamAsTest, StreamedProfilesEqualExecuteAs) {
  auto platform = MakePlatform({});
  const std::string q = "tns:getProfile()";
  for (const security::Principal& who : {kAnalyst, kSupport}) {
    auto expected = platform->ExecuteAs(q, who);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->empty());
    xml::Sequence items;
    Status st = platform->ExecuteStreamAs(q, who, [&](const xml::Item& item) {
      items.push_back(item);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(xml::SerializeSequence(items),
              xml::SerializeSequence(*expected))
        << who.user;
  }
  // The policies did apply: support sees no credit cards, and the
  // unfiltered stream differs from what the support principal sees.
  xml::Sequence support;
  ASSERT_TRUE(platform
                  ->ExecuteStreamAs(q, kSupport,
                                    [&](const xml::Item& item) {
                                      support.push_back(item);
                                      return Status::OK();
                                    })
                  .ok());
  const std::string support_text = xml::SerializeSequence(support);
  EXPECT_EQ(support_text.find("<CREDIT_CARDS"), std::string::npos);
  EXPECT_NE(Streamed(*platform, q), support_text);
}

TEST(StreamAsTest, FunctionAclDenialIsTheSameFromBothEntryPoints) {
  auto platform = MakePlatform({});
  const std::string q = "tns:getProfile()";
  auto materialized = platform->ExecuteAs(q, kOutsider);
  ASSERT_FALSE(materialized.ok());
  int items = 0;
  Status streamed =
      platform->ExecuteStreamAs(q, kOutsider, [&](const xml::Item&) {
        ++items;
        return Status::OK();
      });
  EXPECT_EQ(streamed.code(), materialized.status().code());
  EXPECT_EQ(streamed.code(), StatusCode::kSecurityError);
  EXPECT_EQ(items, 0);
  EXPECT_EQ(platform->query_registry().live_count(), 0);
}

}  // namespace
}  // namespace aldsp::server
