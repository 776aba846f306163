// The retained form of the observability history: audit, journal and
// security records hold no string of their own. A record points at its
// plan's shared text and at interned names, so an execution retains a
// fixed-size record per ring, its text outlives the plan, and every
// rendered byte stays what a copied string would have rendered.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "examples/example_env.h"
#include "server/server.h"

// Live heap bytes over every scalar new and delete, on every thread: an
// execution's retained records may be freed by another thread's append.
namespace {
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// Out of line, so the compiler does not pair an inlined malloc() or free()
// with the new and delete at call sites (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                            const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  CountedFree(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  CountedFree(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  CountedFree(p);
}

namespace aldsp::server {
namespace {

constexpr int kCustomers = 10;

std::string ProfileText(int i) {
  char cid[16];
  std::snprintf(cid, sizeof(cid), "CUST%03d", i % kCustomers + 1);
  return std::string("tns:getProfileByID(\"") + cid + "\")";
}

/// The running example with the paper §7 policies the end-to-end bench
/// reads under: support sees RATING replaced and CREDIT_CARDS removed
/// (two redaction events per read), analyst sees everything.
class ProfileServer {
 public:
  ProfileServer() {
    examples::WireRunningExample(platform, kCustomers);
    EXPECT_TRUE(platform.LoadDataService(examples::ProfileDataService()).ok());
    examples::AddProfilePolicies(platform);
  }

  /// Read `i`: alternately as support and as analyst.
  bool Read(int i) {
    return platform.ExecuteAs(ProfileText(i), i % 2 == 0 ? support : analyst)
        .ok();
  }

  DataServicePlatform platform;
  security::Principal support{"sam", {"support"}};
  security::Principal analyst{"amy", {"analyst", "admin"}};
};

// The live heap one retained profile read adds, below every ring's
// capacity: its execution-audit record, its journal entry and its two
// redaction events. Copied strings (an 80-char head per audit record, the
// full text, principal and outcome name per journal entry, a vector of
// source names per execution, a detail string per redaction) retained
// 752 bytes per read on glibc x86-64; shared and interned ones must
// retain at most half of that.
TEST(RetainedHistoryTest, AReadRetainsAtMostHalfTheCopiedStringsBytes) {
  constexpr int64_t kCopiedStringsBytes = 752;
  constexpr int kReads = 400;
  ProfileServer env;
  // Warm every text's plan, the statement statistics, the plan history
  // and the per-tenant state, then empty the rings.
  for (int i = 0; i < 4 * kCustomers; ++i) ASSERT_TRUE(env.Read(i));
  env.platform.execution_audit().Clear();
  env.platform.workload_journal().Clear();
  env.platform.audit_log().Clear();

  const int64_t before = g_live_bytes.load();
  for (int i = 0; i < kReads; ++i) ASSERT_TRUE(env.Read(i));
  const int64_t per_read = (g_live_bytes.load() - before) / kReads;

  ASSERT_EQ(env.platform.execution_audit().Records().size(), size_t{kReads});
  ASSERT_EQ(env.platform.workload_journal().Records().size(), size_t{kReads});
  ASSERT_EQ(env.platform.audit_log().size(), size_t{kReads});
  std::printf("retained bytes per read: %lld\n",
              static_cast<long long>(per_read));
  EXPECT_LE(per_read, kCopiedStringsBytes / 2);
}

std::string AuditJsonl(DataServicePlatform& platform) {
  return observability::RenderJsonLines(
      observability::ExecutionAuditLog::Doc(
          platform.execution_audit().Records()));
}

std::string JournalJsonl(const observability::WorkloadJournal& journal) {
  return observability::RenderJsonLines(
      observability::WorkloadJournal::Doc(journal.Records(), 0, 0)
          .Member("entries"));
}

// A record owns its plan's text jointly with the plan: evicting the plan
// leaves the audit and the journal rendering the full text and its head.
TEST(RetainedHistoryTest, RecordsKeepTheirTextAfterThePlanIsEvicted) {
  ProfileServer env;
  const std::string long_text =
      "for $p in tns:getProfileByID(\"CUST003\") "
      "return <P><ID>{fn:data($p/CID)}</ID><LAST>{fn:data($p/LAST_NAME)}"
      "</LAST></P>";
  ASSERT_GT(long_text.size(), observability::kRetainedTextChars);
  ASSERT_TRUE(env.platform.ExecuteAs(long_text, env.analyst).ok());
  env.platform.ClearPlanCache();
  // Reuse the freed memory with other plans.
  for (int i = 0; i < kCustomers; ++i) ASSERT_TRUE(env.Read(i));

  const observability::QueryCompletion first =
      env.platform.execution_audit().Records().front();
  EXPECT_EQ(first.text, long_text);
  EXPECT_EQ(first.query_hash,
            observability::ExecutionAuditLog::HashQuery(long_text));
  std::string head = "\"query_head\":";
  observability::AppendJsonString(
      &head, std::string_view(long_text).substr(
                 0, observability::kRetainedTextChars));
  EXPECT_NE(AuditJsonl(env.platform).find(head), std::string::npos);
  EXPECT_EQ(env.platform.workload_journal().Records().front().text,
            long_text);
  std::string text = "\"text\":";
  observability::AppendJsonString(&text, long_text);
  EXPECT_NE(JournalJsonl(env.platform.workload_journal()).find(text),
            std::string::npos);
}

// A 300-char text renders an 80-char query_head in the audit and the slow
// log, and a 120-char one in the live registry, as the copied heads did.
TEST(RetainedHistoryTest, LongTextsRenderHeadsOfTheRetainedLength) {
  std::string text;
  while (text.size() < 300) text += "abcdefghij";
  observability::QueryCompletion c;
  c.text = text;
  c.wall_micros = 10;

  observability::ExecutionAuditLog audit;
  audit.Append(c);
  const std::string audit_json = observability::RenderJsonLines(
      observability::ExecutionAuditLog::Doc(audit.Records()));
  EXPECT_NE(audit_json.find("\"query_head\":\"" + text.substr(0, 80) + "\","),
            std::string::npos)
      << audit_json;

  observability::SlowQueryLog slow;
  slow.Append(c, 1);
  const std::string slow_json = observability::RenderJson(
      observability::SlowQueryLog::Doc(slow.Records()));
  EXPECT_NE(slow_json.find("\"query_head\":\"" + text.substr(0, 80) + "\","),
            std::string::npos)
      << slow_json;

  observability::QueryRegistry registry;
  auto ctl = registry.Register(1, 2, "t", text);
  const auto live = registry.Snapshot();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].query_head, text.substr(0, 120));
  registry.Unregister(ctl->query_id);
}

// Export -> import -> export of a captured workload is byte-identical,
// outcome names included: the entries store status codes, and the import
// maps each exported name back to its code.
TEST(RetainedHistoryTest, JournalJsonlRoundTripsByteForByte) {
  ProfileServer env;
  // A refused execution: a caller with none of the function ACL's roles.
  security::Principal nobody{"nobody", {}};
  ASSERT_TRUE(env.Read(0));
  ASSERT_TRUE(env.Read(1));
  auto refused = env.platform.ExecuteAs(ProfileText(2), nobody);
  ASSERT_FALSE(refused.ok());
  ASSERT_TRUE(env.platform.Execute("fn:count(ns3:CUSTOMER())").ok());

  const std::string jsonl = JournalJsonl(env.platform.workload_journal());
  EXPECT_NE(jsonl.find("\"outcome\":\"SecurityError\""), std::string::npos);
  auto parsed = observability::WorkloadJournal::ParseJsonl(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 4u);
  EXPECT_EQ((*parsed)[2].outcome, StatusCode::kSecurityError);
  EXPECT_EQ((*parsed)[2].principal, "nobody");
  EXPECT_EQ((*parsed)[3].principal, observability::Tenant());
  const std::string reexport = observability::RenderJsonLines(
      observability::WorkloadJournal::Doc(*parsed, 0, 0).Member("entries"));
  EXPECT_EQ(reexport, jsonl);

  // An outcome that names no status code is not a journal this server
  // wrote.
  EXPECT_FALSE(observability::WorkloadJournal::ParseJsonl(
                   "{\"text\":\"q\",\"outcome\":\"Exploded\"}\n")
                   .ok());
}

}  // namespace
}  // namespace aldsp::server
