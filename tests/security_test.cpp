#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "security/security.h"
#include "server/server.h"
#include "tests/test_fixtures.h"
#include "xml/serializer.h"

namespace aldsp::security {
namespace {

using aldsp::testing::MakeCustomerDb;
using server::DataServicePlatform;

Principal Admin() { return {"alice", {"admin", "analyst"}}; }
Principal Clerk() { return {"bob", {"clerk"}}; }

TEST(AccessControlTest, FunctionAclAllowsAndDenies) {
  AccessControl ac;
  AuditLog audit;
  ac.AddFunctionAcl({"tns:getProfile", {"admin"}});
  EXPECT_TRUE(ac.CheckFunctionAccess(Admin(), {"tns:getProfile"}, &audit).ok());
  Status denied = ac.CheckFunctionAccess(Clerk(), {"tns:getProfile"}, &audit);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kSecurityError);
  // Unlisted functions are open.
  EXPECT_TRUE(ac.CheckFunctionAccess(Clerk(), {"tns:other"}, &audit).ok());
  EXPECT_EQ(audit.EventsInCategory("access-denied").size(), 1u);
}

xml::Sequence MakeProfiles() {
  xml::Sequence seq;
  for (int i = 0; i < 2; ++i) {
    xml::NodePtr p = xml::XNode::Element("PROFILE");
    p->AddChild(xml::XNode::TypedElement(
        "CID", xml::AtomicValue::String("C" + std::to_string(i))));
    p->AddChild(xml::XNode::TypedElement(
        "SSN", xml::AtomicValue::String("123-45-678" + std::to_string(i))));
    p->AddChild(xml::XNode::TypedElement("RATING",
                                         xml::AtomicValue::Integer(700 + i)));
    seq.emplace_back(std::move(p));
  }
  return seq;
}

TEST(AccessControlTest, ElementRemovalPolicy) {
  AccessControl ac;
  ac.AddElementPolicy({"PROFILE/SSN", {"admin"}, RedactionAction::kRemove, {}});
  xml::Sequence in = MakeProfiles();
  xml::Sequence admin_view = ac.FilterResult(Admin(), in);
  EXPECT_NE(xml::SerializeSequence(admin_view).find("SSN"), std::string::npos);
  xml::Sequence clerk_view = ac.FilterResult(Clerk(), in);
  EXPECT_EQ(xml::SerializeSequence(clerk_view).find("SSN"), std::string::npos);
  // The input was not mutated (copy-on-filter).
  EXPECT_NE(xml::SerializeSequence(in).find("SSN"), std::string::npos);
}

TEST(AccessControlTest, ElementReplacementPolicy) {
  AccessControl ac;
  ac.AddElementPolicy({"PROFILE/RATING",
                       {"analyst"},
                       RedactionAction::kReplace,
                       xml::AtomicValue::Integer(-1)});
  xml::Sequence clerk_view = ac.FilterResult(Clerk(), MakeProfiles());
  for (const auto& item : clerk_view) {
    EXPECT_EQ(
        item.node()->FirstChildNamed("RATING")->TypedValue().AsInteger(), -1);
  }
  xml::Sequence analyst_view = ac.FilterResult(Admin(), MakeProfiles());
  EXPECT_EQ(
      analyst_view[0].node()->FirstChildNamed("RATING")->TypedValue().AsInteger(),
      700);
}

TEST(AccessControlTest, WholeItemRemoval) {
  AccessControl ac;
  ac.AddElementPolicy({"PROFILE", {"admin"}, RedactionAction::kRemove, {}});
  EXPECT_EQ(ac.FilterResult(Clerk(), MakeProfiles()).size(), 0u);
  EXPECT_EQ(ac.FilterResult(Admin(), MakeProfiles()).size(), 2u);
}

// The §7 policies: SSN for admins only (removed), RATING for analysts
// only (replaced).
void AddSection7Policies(AccessControl* ac) {
  ac->AddElementPolicy(
      {"PROFILE/SSN", {"admin"}, RedactionAction::kRemove, {}});
  ac->AddElementPolicy({"PROFILE/RATING",
                        {"analyst"},
                        RedactionAction::kReplace,
                        xml::AtomicValue::Integer(-1)});
}

TEST(AccessControlTest, NothingToRedactReturnsTheItemUncopied) {
  AccessControl ac;
  AddSection7Policies(&ac);
  xml::Sequence in = MakeProfiles();
  const std::string before = xml::SerializeSequence(in);
  AuditLog audit;
  // Admin() holds every role both policies allow.
  int64_t redactions = 0;
  std::optional<xml::Item> kept = ac.FilterItem(Admin(), in[0], &audit,
                                                &redactions);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->node(), in[0].node());
  EXPECT_EQ(redactions, 0);
  EXPECT_EQ(audit.size(), 0u);
  // A clerk gets a redacted copy; the original stays untouched.
  kept = ac.FilterItem(Clerk(), in[0], &audit, &redactions);
  ASSERT_TRUE(kept.has_value());
  EXPECT_NE(kept->node(), in[0].node());
  EXPECT_EQ(redactions, 2);
  EXPECT_EQ(kept->node()->FirstChildNamed("SSN"), nullptr);
  EXPECT_EQ(
      kept->node()->FirstChildNamed("RATING")->TypedValue().AsInteger(), -1);
  EXPECT_EQ(xml::SerializeSequence(in), before);
  // An analyst without admin may see the rating, not the SSN.
  kept = ac.FilterItem({"carol", {"analyst"}}, in[1], &audit, &redactions);
  ASSERT_TRUE(kept.has_value());
  EXPECT_NE(kept->node(), in[1].node());
  EXPECT_EQ(redactions, 3);
  // A policy on another root cannot touch a PROFILE item.
  AccessControl other;
  other.AddElementPolicy({"ORDER/AMOUNT", {"admin"}, RedactionAction::kRemove,
                          {}});
  kept = other.FilterItem(Clerk(), in[0]);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->node(), in[0].node());
}

TEST(AuditLogTest, RetainsTheNewestEventsAndCountsAll) {
  AccessControl ac;
  ac.AddElementPolicy({"PROFILE/SSN", {"admin"}, RedactionAction::kRemove, {}});
  AuditLog audit(4);
  int64_t redactions = 0;
  for (int i = 0; i < 5; ++i) {
    ac.FilterResult(Clerk(), MakeProfiles(), &audit, &redactions);
  }
  EXPECT_EQ(redactions, 10);
  EXPECT_EQ(audit.size(), 4u);
  EXPECT_EQ(audit.total_recorded(), 10);
  auto events = audit.EventsInCategory("redaction");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 6);
  EXPECT_EQ(events.back().seq, 9);
}

TEST(AuditLogTest, RecordsSequencedEvents) {
  AuditLog audit;
  audit.Record("query", "alice", "q1");
  audit.Record("redaction", "bob", "PROFILE/SSN");
  audit.Record("query", "bob", "q2");
  EXPECT_EQ(audit.size(), 3u);
  auto queries = audit.EventsInCategory("query");
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_LT(queries[0].seq, queries[1].seq);
  audit.Clear();
  EXPECT_EQ(audit.size(), 0u);
}

class ServerSecurityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db =
        std::shared_ptr<relational::Database>(MakeCustomerDb(4).release());
    ASSERT_TRUE(platform_.RegisterRelationalSource("ns3", db, "oracle").ok());
    ASSERT_TRUE(platform_
                    .LoadDataService(R"(
declare function tns:profiles() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID><SSN>{fn:data($c/SSN)}</SSN></P>
};)")
                    .ok());
  }
  DataServicePlatform platform_;
};

TEST_F(ServerSecurityTest, FunctionAclEnforcedDespiteViewUnfolding) {
  // The optimizer inlines tns:profiles away; the ACL must still apply to
  // the function the query named (paper §7).
  platform_.access_control().AddFunctionAcl({"tns:profiles", {"admin"}});
  auto denied = platform_.ExecuteAs("tns:profiles()", Clerk());
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kSecurityError);
  auto allowed = platform_.ExecuteAs("tns:profiles()", Admin());
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->size(), 4u);
}

TEST_F(ServerSecurityTest, LateFilteringKeepsPlansShared) {
  platform_.access_control().AddElementPolicy(
      {"P/SSN", {"admin"}, RedactionAction::kRemove, {}});
  auto admin_view = platform_.ExecuteAs("tns:profiles()", Admin());
  ASSERT_TRUE(admin_view.ok());
  EXPECT_NE(xml::SerializeSequence(*admin_view).find("SSN"),
            std::string::npos);
  auto clerk_view = platform_.ExecuteAs("tns:profiles()", Clerk());
  ASSERT_TRUE(clerk_view.ok());
  EXPECT_EQ(xml::SerializeSequence(*clerk_view).find("SSN"),
            std::string::npos);
  // One compile served both users: the plan cache stayed user-agnostic.
  EXPECT_EQ(platform_.plan_cache_misses(), 1);
  EXPECT_GE(platform_.plan_cache_hits(), 1);
  EXPECT_GE(platform_.audit_log().EventsInCategory("redaction").size(), 4u);
}

// Concurrent callers share one security audit: every redaction lands as
// one intact event naming its caller and the policy's resource.
TEST_F(ServerSecurityTest, ConcurrentRedactionsAuditEveryEvent) {
  platform_.access_control().AddElementPolicy(
      {"P/SSN", {"admin"}, RedactionAction::kRemove, {}});
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      // Even threads run as support (redacted), odd ones as analyst.
      const Principal who = t % 2 == 0 ? Clerk() : Admin();
      for (int i = 0; i < kRunsPerThread; ++i) {
        auto r = platform_.ExecuteAs("tns:profiles()", who);
        if (!r.ok() || r->size() != 4u) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Four profiles per support run, one SSN each.
  const int64_t expected = (kThreads / 2) * kRunsPerThread * 4;
  EXPECT_EQ(platform_.audit_log().total_recorded(), expected);
  auto events = platform_.audit_log().EventsInCategory("redaction");
  ASSERT_EQ(static_cast<int64_t>(events.size()), expected);
  for (const auto& e : events) {
    EXPECT_EQ(e.user, Clerk().user);
    EXPECT_EQ(e.detail, "resource P/SSN");
  }
}

}  // namespace
}  // namespace aldsp::security
