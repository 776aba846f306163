// Completion parity: every server execution — through any entry point,
// refused or run — produces one QueryCompletion, and every observability
// sink reads that one record. The tests drive each entry point and each
// refusal exit once with a distinct statement, then check that the
// execution audit log, the stat_statements entry, the workload journal
// and the slow-query log agree on the statement and plan fingerprints,
// the principal, the outcome and the row count. The concurrent case runs
// under TSan in the check.sh concurrency gate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "adaptors/webservice_adaptor.h"
#include "server/server.h"
#include "tests/test_fixtures.h"

namespace aldsp {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;
using observability::QueryCompletion;
using observability::QueryPhase;
using observability::SlowQueryRecord;
using observability::StatementStats;
using observability::WorkloadJournalEntry;
using server::DataServicePlatform;
using server::ServerOptions;

constexpr int kCustomers = 8;
// MakeCreditCardDb: a card for every second customer, two for the first.
constexpr int kCards = kCustomers / 2 + 1;
constexpr int64_t kSlowThresholdMicros = 50'000;

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

ServerOptions ParityOptions() {
  ServerOptions options;
  // One slot and a one-deep queue: a held slot queues the next arrival
  // and sheds the one after it, with no deadline racing the cancel.
  options.max_concurrent_queries = 1;
  options.admission_queue_depth = 1;
  options.admission_queue_timeout_micros = 0;
  options.slow_query_threshold_micros = kSlowThresholdMicros;
  return options;
}

class CompletionParityTest : public ::testing::Test {
 protected:
  explicit CompletionParityTest(ServerOptions options = ParityOptions())
      : platform_(std::move(options)) {}

  void SetUp() override {
    auto cdb = std::shared_ptr<relational::Database>(
        MakeCustomerDb(kCustomers, 2).release());
    auto bdb = std::shared_ptr<relational::Database>(
        MakeCreditCardDb(kCustomers).release());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", cdb, "oracle").ok());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns2", bdb, "db2").ok());
    // A source slower than the slow-query threshold.
    auto ws = std::make_shared<adaptors::SimulatedWebService>("ws");
    ws->RegisterOperation(
        "tns:slow",
        [](const std::vector<xml::Sequence>&) -> Result<xml::Sequence> {
          return xml::Sequence{xml::Item(xml::AtomicValue::Integer(7))};
        },
        /*latency_millis=*/kSlowThresholdMicros / 1000 + 20);
    ASSERT_TRUE(platform_.RegisterAdaptor(ws).ok());
    const xsd::TypePtr integer = xsd::XType::Atomic(xml::AtomicType::kInteger);
    ASSERT_TRUE(platform_
                    .RegisterFunctionalSource("tns:slow", "ws", "webservice",
                                              {xsd::One(integer)},
                                              xsd::One(integer))
                    .ok());
  }

  uint64_t StatementFp(const std::string& query) {
    auto plan = platform_.Prepare(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? (*plan)->statement_fingerprint : 0;
  }

  /// Statement fingerprint of the most recent audit record.
  uint64_t LastAuditedFp() {
    auto records = platform_.execution_audit().Records();
    EXPECT_FALSE(records.empty());
    return records.empty() ? 0 : records.back().statement_fingerprint;
  }

  /// Checks that every sink saw exactly one execution of the statement and
  /// that they agree with each other and with the expectation.
  void ExpectSinksAgree(uint64_t stmt_fp, const std::string& principal,
                        StatusCode outcome, int64_t rows,
                        bool journaled = true) {
    ASSERT_NE(stmt_fp, 0u);
    std::vector<QueryCompletion> audit;
    for (const auto& r : platform_.execution_audit().Records()) {
      if (r.statement_fingerprint == stmt_fp) audit.push_back(r);
    }
    ASSERT_EQ(audit.size(), 1u);
    const QueryCompletion& a = audit[0];
    EXPECT_NE(a.fingerprint, 0u);
    EXPECT_EQ(a.principal, principal);
    EXPECT_EQ(a.outcome, outcome);
    EXPECT_EQ(a.rows_returned, rows);

    const StatementStats* stats = nullptr;
    const auto top = platform_.stat_statements().TopK(0);
    for (const auto& s : top) {
      if (s.statement_fingerprint == stmt_fp) stats = &s;
    }
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->calls, 1);
    EXPECT_EQ(stats->fingerprint, a.fingerprint);
    EXPECT_EQ(stats->rows_returned, rows);
    EXPECT_EQ(stats->errors, a.error() ? 1 : 0);
    EXPECT_EQ(stats->cancels, a.cancelled() ? 1 : 0);
    EXPECT_EQ(stats->sheds, a.shed() ? 1 : 0);
    EXPECT_EQ(stats->total_wall_micros, a.wall_micros);

    std::vector<WorkloadJournalEntry> journal;
    for (const auto& e : platform_.workload_journal().Records()) {
      if (e.statement_fingerprint == stmt_fp) journal.push_back(e);
    }
    if (journaled) {
      ASSERT_EQ(journal.size(), 1u);
      EXPECT_EQ(journal[0].plan_fingerprint, a.fingerprint);
      EXPECT_EQ(journal[0].principal, a.principal);
      EXPECT_EQ(journal[0].outcome, a.outcome_name());
      EXPECT_EQ(journal[0].rows, rows);
      EXPECT_EQ(journal[0].wall_micros, a.wall_micros);
    } else {
      EXPECT_TRUE(journal.empty());
    }

    std::vector<SlowQueryRecord> slow;
    for (const auto& r : platform_.slow_query_log().Records()) {
      if (r.completion.statement_fingerprint == stmt_fp) slow.push_back(r);
    }
    if (a.wall_micros < kSlowThresholdMicros) {
      EXPECT_TRUE(slow.empty());
      return;
    }
    ASSERT_EQ(slow.size(), 1u);
    const QueryCompletion& s = slow[0].completion;
    EXPECT_EQ(s.fingerprint, a.fingerprint);
    EXPECT_EQ(s.principal, a.principal);
    EXPECT_EQ(s.outcome, a.outcome);
    EXPECT_EQ(s.rows_returned, rows);
    EXPECT_EQ(s.wall_micros, a.wall_micros);
    EXPECT_EQ(s.text, a.text);  // both retain the same head
    EXPECT_EQ(s.seq, a.seq);    // the slow record names its audit record
  }

  DataServicePlatform platform_;
};

TEST_F(CompletionParityTest, EveryEntryPointAndRefusalFeedsOneRecord) {
  // --- Refusal exits around a held slot ------------------------------
  // ExecuteStream holds the only slot: its sink blocks on the first item.
  const std::string held = "for $c in ns3:CUSTOMER() return fn:data($c/CID)";
  const std::string queued = "for $cc in ns2:CREDIT_CARD() return $cc/CID";
  const std::string shed = "fn:count(ns2:CREDIT_CARD())";
  const uint64_t held_fp = StatementFp(held);
  const uint64_t queued_fp = StatementFp(queued);
  const uint64_t shed_fp = StatementFp(shed);

  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    Status st = platform_.ExecuteStream(held, [&](const xml::Item&) {
      holding.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return holding.load(); }));

  Status queued_verdict;
  std::thread waiter([&] {
    auto r = platform_.Execute(queued);
    queued_verdict = r.ok() ? Status::OK() : r.status();
  });
  uint64_t queued_id = 0;
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& q : platform_.query_registry().Snapshot()) {
      if (q.phase == QueryPhase::kQueued) queued_id = q.query_id;
    }
    return queued_id != 0;
  }));
  // The queue is full: the next arrival is shed at the door.
  auto shed_result = platform_.Execute(shed);
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), StatusCode::kResourceExhausted);
  // Cancel while queued.
  EXPECT_TRUE(platform_.CancelQuery(queued_id));
  waiter.join();
  EXPECT_EQ(queued_verdict.code(), StatusCode::kCancelled);
  release.store(true);
  holder.join();

  ExpectSinksAgree(held_fp, "", StatusCode::kOk, kCustomers);
  ExpectSinksAgree(queued_fp, "", StatusCode::kCancelled, 0);
  ExpectSinksAgree(shed_fp, "", StatusCode::kResourceExhausted, 0);

  // --- Function-ACL refusal ------------------------------------------
  platform_.access_control().AddFunctionAcl({"ns3:ORDER", {"admin"}});
  security::Principal analyst{"analyst", {"support"}};
  auto denied = platform_.ExecuteAs("fn:count(ns3:ORDER())", analyst);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kSecurityError);
  ExpectSinksAgree(LastAuditedFp(), "analyst", StatusCode::kSecurityError, 0);
  EXPECT_EQ(platform_.execution_audit().Records().back().security_denials, 1);

  // --- Every entry point, run ----------------------------------------
  ASSERT_TRUE(platform_.Execute("fn:count(ns3:CUSTOMER())").ok());
  ExpectSinksAgree(LastAuditedFp(), "", StatusCode::kOk, 1);

  auto as = platform_.ExecuteAs(
      "for $c in ns3:CUSTOMER() where $c/CID eq \"CUST001\" "
      "return $c/LAST_NAME",
      analyst);
  ASSERT_TRUE(as.ok()) << as.status().ToString();
  ExpectSinksAgree(LastAuditedFp(), "analyst", StatusCode::kOk, 1);

  auto plan =
      platform_.Prepare("for $c in ns3:CUSTOMER() return $c/FIRST_NAME");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(platform_.ExecutePlan(**plan).ok());
  ExpectSinksAgree((*plan)->statement_fingerprint, "", StatusCode::kOk,
                   kCustomers);

  DataServicePlatform::MethodCriteria criteria;
  criteria.filter_child = "CID";
  criteria.filter_op = "eq";
  criteria.filter_value = "CUST002";
  criteria.filter_is_string = true;
  auto method = platform_.CallMethod("ns3:CUSTOMER", {}, criteria);
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  ExpectSinksAgree(LastAuditedFp(), "", StatusCode::kOk, 1);

  // Replay runs under the captured principal and suspends capture, so
  // its execution reaches every sink but the journal.
  WorkloadJournalEntry entry;
  entry.text = "ns2:CREDIT_CARD()";
  entry.principal = "auditor";
  observability::ReplayOptions replay_options;
  replay_options.clients = 1;
  const int64_t journaled = platform_.workload_journal().total_appended();
  auto report = platform_.ReplayWorkload({entry}, replay_options);
  EXPECT_EQ(report.ops, 1);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(platform_.workload_journal().total_appended(), journaled);
  ExpectSinksAgree(LastAuditedFp(), "auditor", StatusCode::kOk, kCards,
                   /*journaled=*/false);

  // --- A run over the slow threshold ---------------------------------
  ASSERT_TRUE(platform_.Execute("tns:slow(1)").ok());
  const uint64_t slow_fp = LastAuditedFp();
  EXPECT_GE(platform_.execution_audit().Records().back().wall_micros,
            kSlowThresholdMicros);
  ExpectSinksAgree(slow_fp, "", StatusCode::kOk, 1);
  EXPECT_TRUE(platform_.slow_query_log().IsPromoted(slow_fp));
}

class ConcurrentParityTest : public CompletionParityTest {
 protected:
  ConcurrentParityTest() : CompletionParityTest([] {
    ServerOptions options;
    options.max_concurrent_queries = 2;
    options.admission_queue_timeout_micros = 0;
    return options;
  }()) {}
};

TEST_F(ConcurrentParityTest, SinksAgreeUnderConcurrentExecutions) {
  const std::vector<std::string> queries = {
      "fn:count(ns3:CUSTOMER())",
      "for $c in ns3:CUSTOMER() return fn:data($c/CID)",
      "for $cc in ns2:CREDIT_CARD() return $cc/CID",
  };
  constexpr int kThreads = 4;
  constexpr int kPerThread = 9;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      security::Principal tenant{"tenant" + std::to_string(t), {}};
      for (int i = 0; i < kPerThread; ++i) {
        const std::string& q = queries[(t + i) % queries.size()];
        Status st;
        switch (i % 3) {
          case 0:
            st = platform_.Execute(q).status();
            break;
          case 1:
            st = platform_.ExecuteAs(q, tenant).status();
            break;
          default:
            st = platform_.ExecuteStream(
                q, [](const xml::Item&) { return Status::OK(); });
            break;
        }
        if (!st.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Per statement, every sink counted the same executions and rows, and
  // the audit and journal agree on who ran what.
  struct Tally {
    int64_t calls = 0;
    int64_t rows = 0;
    std::map<std::string, int64_t> principals;
  };
  std::map<uint64_t, Tally> audit, journal;
  for (const auto& r : platform_.execution_audit().Records()) {
    Tally& t = audit[r.statement_fingerprint];
    ++t.calls;
    t.rows += r.rows_returned;
    ++t.principals[r.principal];
    EXPECT_EQ(r.outcome, StatusCode::kOk);
  }
  for (const auto& e : platform_.workload_journal().Records()) {
    Tally& t = journal[e.statement_fingerprint];
    ++t.calls;
    t.rows += e.rows;
    ++t.principals[e.principal];
    EXPECT_EQ(e.outcome, "ok");
  }
  ASSERT_EQ(audit.size(), queries.size());
  ASSERT_EQ(journal.size(), queries.size());
  int64_t total = 0;
  for (const auto& s : platform_.stat_statements().TopK(0)) {
    SCOPED_TRACE(s.query_head);
    ASSERT_EQ(audit.count(s.statement_fingerprint), 1u);
    const Tally& a = audit[s.statement_fingerprint];
    const Tally& j = journal[s.statement_fingerprint];
    EXPECT_EQ(s.calls, a.calls);
    EXPECT_EQ(s.rows_returned, a.rows);
    EXPECT_EQ(j.calls, a.calls);
    EXPECT_EQ(j.rows, a.rows);
    EXPECT_EQ(j.principals, a.principals);
    total += s.calls;
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_EQ(platform_.execution_audit().total_appended(), total);
  EXPECT_EQ(platform_.workload_journal().total_appended(), total);
}

}  // namespace
}  // namespace aldsp
