// Tests the extensible pushdown framework (paper §9: "an extensible
// pushdown framework for use in teaching the ALDSP query processor to
// push work down to queryable data sources such as LDAP"). An LDAP-like
// directory source declares which comparison operators it can evaluate;
// the pushdown phase ships exactly those conjuncts, keeps the rest in
// the mid-tier, and results match the unpushed plan.

#include <gtest/gtest.h>

#include "adaptors/directory_adaptor.h"
#include "server/server.h"
#include "xml/serializer.h"

namespace aldsp::sql {
namespace {

using adaptors::DirectoryAdaptor;
using server::DataServicePlatform;
using xml::AtomicValue;

class CustomPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = std::make_shared<DirectoryAdaptor>(
        "corp_ldap", "PERSON",
        std::set<std::string>{"eq", "le", "ge"});  // LDAP-ish matches
    static const char* kDepts[] = {"eng", "sales", "hr"};
    for (int i = 1; i <= 60; ++i) {
      directory_->AddEntry(
          {{"UID",
            AtomicValue::String(std::string("u").append(std::to_string(i)))},
           {"DEPT", AtomicValue::String(kDepts[i % 3])},
           {"LEVEL", AtomicValue::Integer(i % 10)}});
    }
    ASSERT_TRUE(platform_.RegisterAdaptor(directory_).ok());
    xsd::TypePtr person = xsd::XType::ComplexElement(
        "PERSON",
        {{"UID", xsd::One(xsd::XType::SimpleElement(
                     "UID", xml::AtomicType::kString))},
         {"DEPT", xsd::One(xsd::XType::SimpleElement(
                      "DEPT", xml::AtomicType::kString))},
         {"LEVEL", xsd::One(xsd::XType::SimpleElement(
                       "LEVEL", xml::AtomicType::kInteger))}});
    ASSERT_TRUE(platform_
                    .RegisterFunctionalSource(
                        "ldap:PERSON", "corp_ldap", "custom-queryable", {},
                        xsd::Star(person), {{"pushdown_ops", "eq,le,ge"}})
                    .ok());
  }

  // Runs with and without pushdown; asserts identical XML; returns the
  // number of entries shipped by the pushed run.
  int64_t CheckEquivalent(const std::string& query) {
    DataServicePlatform plain;
    // Share the directory so data matches; the plain platform compiles
    // without pushdown.
    (void)plain.RegisterAdaptor(directory_);
    (void)plain.RegisterFunctionalSource(
        "ldap:PERSON", "corp_ldap", "custom-queryable", {},
        platform_.functions().FindExternal("ldap:PERSON")->return_type,
        {{"pushdown_ops", "eq,le,ge"}});
    plain.options().enable_pushdown = false;

    auto slow = plain.Execute(query);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
    directory_->ResetStats();
    auto fast = platform_.Execute(query);
    EXPECT_TRUE(fast.ok()) << fast.status().ToString();
    if (slow.ok() && fast.ok()) {
      EXPECT_EQ(xml::SerializeSequence(*slow), xml::SerializeSequence(*fast))
          << query;
    }
    return directory_->entries_shipped();
  }

  DataServicePlatform platform_;
  std::shared_ptr<DirectoryAdaptor> directory_;
};

TEST_F(CustomPushdownTest, EqualityFilterShipsOnlyMatches) {
  int64_t shipped = CheckEquivalent(
      "for $p in ldap:PERSON()[DEPT eq \"eng\"] return fn:data($p/UID)");
  EXPECT_EQ(shipped, 20);  // 60 entries, one third in eng
  EXPECT_EQ(directory_->filtered_invocations(), 1);
  auto plan = platform_.Prepare(
      "for $p in ldap:PERSON()[DEPT eq \"eng\"] return fn:data($p/UID)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.custom_filters_pushed, 1);
}

TEST_F(CustomPushdownTest, ConjunctionAndFlippedComparisons) {
  int64_t shipped = CheckEquivalent(
      "for $p in ldap:PERSON()[DEPT eq \"eng\" and 7 le LEVEL] "
      "return fn:data($p/UID)");
  // DEPT=eng (20) further restricted to LEVEL >= 7.
  EXPECT_LT(shipped, 20);
  EXPECT_GT(shipped, 0);
}

TEST_F(CustomPushdownTest, UnsupportedOperatorStaysInMidTier) {
  // "ne" is not in the source's declared operators: the eq conjunct
  // pushes; the ne conjunct remains a mid-tier filter.
  directory_->ResetStats();
  auto plan = platform_.Prepare(
      "for $p in ldap:PERSON()[DEPT eq \"eng\"][LEVEL ne 3] "
      "return fn:data($p/UID)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.custom_filters_pushed, 1);
  std::string printed = xquery::DebugString(*(*plan)->plan);
  EXPECT_NE(printed.find("custom["), std::string::npos) << printed;
  EXPECT_NE(printed.find("["), std::string::npos);
  int64_t shipped = CheckEquivalent(
      "for $p in ldap:PERSON()[DEPT eq \"eng\"][LEVEL ne 3] "
      "return fn:data($p/UID)");
  EXPECT_EQ(shipped, 20);  // eq pushed; ne applied after shipping
}

TEST_F(CustomPushdownTest, NoPushableConjunctLeavesPlanAlone) {
  auto plan = platform_.Prepare(
      "for $p in ldap:PERSON()[LEVEL ne 3] return fn:data($p/UID)");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->pushdown.custom_filters_pushed, 0);
  int64_t shipped = CheckEquivalent(
      "for $p in ldap:PERSON()[LEVEL ne 3] return fn:data($p/UID)");
  EXPECT_EQ(shipped, 60);  // full scan
}

TEST_F(CustomPushdownTest, ParameterizedCorrelatedFilter) {
  // The filter value comes from an outer variable: it ships as a pushed
  // parameter, evaluated per outer iteration.
  int64_t shipped = CheckEquivalent(
      "for $d in (\"eng\", \"hr\") "
      "return <G dept=\"{$d}\">{ "
      "fn:count(ldap:PERSON()[DEPT eq $d]) }</G>");
  EXPECT_EQ(shipped, 40);  // 20 eng + 20 hr, nothing else
  EXPECT_EQ(directory_->filtered_invocations(), 2);
}

TEST_F(CustomPushdownTest, DirectoryAdaptorFallbackAndErrors) {
  auto all = directory_->Invoke("ldap:PERSON", {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 60u);
  // A conjunct with an unsupported operator is a source error.
  xquery::CustomQuerySpec spec;
  spec.source = "corp_ldap";
  spec.function = "ldap:PERSON";
  spec.conjuncts.push_back({"DEPT", "ne", 0});
  EXPECT_FALSE(
      directory_->InvokeFiltered(spec, {AtomicValue::String("eng")}).ok());
  // Absent attributes match nothing.
  xquery::CustomQuerySpec absent;
  absent.source = "corp_ldap";
  absent.function = "ldap:PERSON";
  absent.conjuncts.push_back({"NO_SUCH", "eq", 0});
  auto none = directory_->InvokeFiltered(absent, {AtomicValue::String("x")});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->size(), 0u);
}

}  // namespace
}  // namespace aldsp::sql
