// Key predicates through unfolded views and region fallbacks (paper §4.2,
// Fig. 5): tns:getProfileByID($id) is tns:getProfile()[CID eq $id], and the
// CID predicate must reach the CUSTOMER SQL although the PROFILE view also
// reads a second database and a web service. Two rewrites get it there:
// the optimizer replaces `$item/CID` in the where by the content of the
// let-bound PROFILE's <CID> child, and pushdown folds the leading where
// conjuncts of a FLWOR that cannot push as a whole into its scan. Every
// result is held byte for byte against a platform that evaluates the
// simplest way (no pushdown, one row per batch, serial).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "examples/example_env.h"
#include "optimizer/expr_utils.h"
#include "sql/dialect.h"
#include "xml/serializer.h"

namespace aldsp::server {
namespace {

const security::Principal kAnalyst{"amy", {"analyst", "admin"}};
const security::Principal kSupport{"sam", {"support"}};
constexpr int kCustomers = 12;

// View variants for the cases where navigation must not be replaced by
// the child's content. Each also reads ORDERS, so the constructor is not
// cheap enough for RuleSubstituteCtorLets.
constexpr const char* kVariantsModule = R"(
declare function tns:twoCids() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID><CID>{fn:data($c/FIRST_NAME)}</CID>
            <ORDERS>{ns3:getORDER($c)}</ORDERS></P>
};
declare function tns:optionalCid() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID?>{fn:data($c/CID)}</CID><ORDERS>{ns3:getORDER($c)}</ORDERS></P>
};
declare function tns:names() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P><CID>{fn:data($c/CID)}</CID><LAST_NAME>{fn:data($c/LAST_NAME)}</LAST_NAME>
            <ORDERS>{ns3:getORDER($c)}</ORDERS></P>
};
declare function tns:enclosedCid() as element(P)* {
  for $c in ns3:CUSTOMER()
  return <P>{$c/CID}<CID>{fn:data($c/CID)}</CID>
            <ORDERS>{ns3:getORDER($c)}</ORDERS></P>
};
)";

std::unique_ptr<DataServicePlatform> MakePlatform(
    bool reference, bool optimize = true) {
  ServerOptions options;
  if (reference) {
    options.enable_pushdown = false;
    options.batch_size = 1;
    options.max_query_dop = 1;
  }
  options.enable_optimizer = optimize;
  auto platform = std::make_unique<DataServicePlatform>(options);
  examples::WireRunningExample(*platform, kCustomers);
  EXPECT_TRUE(platform->LoadDataService(examples::ProfileDataService()).ok());
  EXPECT_TRUE(platform->LoadDataService(kVariantsModule).ok());
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

std::string Cid(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "CUST%03d", i);
  return buf;
}

std::string ProfileById(const std::string& cid) {
  return "tns:getProfileByID(\"" + cid + "\")";
}

std::string CustomerSummary(const std::string& cid) {
  return "for $c in ns3:CUSTOMER() where $c/CID eq \"" + cid +
         "\" return <C>{fn:data($c/LAST_NAME)}{fn:count(ns3:getORDER($c))}</C>";
}

constexpr const char* kSmithPanel =
    "for $c in ns3:CUSTOMER() where $c/LAST_NAME eq \"Smith\" "
    "return <S>{fn:data($c/CID)}{fn:count(ns3:getORDER($c))}</S>";

class PushdownPrefixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform_ = MakePlatform(false);
    reference_ = MakePlatform(true);
  }

  std::string Run(DataServicePlatform& platform, const std::string& q,
                  const security::Principal& who) {
    auto r = platform.ExecuteAs(q, who);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    return r.ok() ? xml::SerializeSequence(*r) : "<error>";
  }

  // Runs `q` on both platforms and expects byte-identical results.
  void ExpectSameAsReference(const std::string& q,
                             const security::Principal& who = kAnalyst) {
    EXPECT_EQ(Run(*platform_, q, who), Run(*reference_, q, who)) << q;
  }

  // Relational statements the platform under test sends while running `q`.
  int64_t Statements(const std::string& q,
                     const security::Principal& who = kAnalyst) {
    int64_t before = TotalStatements();
    Run(*platform_, q, who);
    return TotalStatements() - before;
  }

  int64_t TotalStatements() {
    int64_t n = 0;
    for (const char* id : {"customer_db", "billing_db"}) {
      n += platform_->adaptors().FindDatabase(id)->stats().statements;
    }
    return n;
  }

  std::shared_ptr<const CompiledPlan> Plan(const std::string& q) {
    auto plan = platform_->Prepare(q);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << q;
    return plan.ok() ? *plan : nullptr;
  }

  // The Oracle SQL of every statement over CUSTOMER in `q`'s plan.
  std::string CustomerSql(const std::string& q) {
    auto plan = Plan(q);
    std::string out;
    if (plan != nullptr) CollectCustomerSql(plan->plan, &out);
    return out;
  }

  static void CollectCustomerSql(const xquery::ExprPtr& e, std::string* out) {
    if (e->kind == xquery::ExprKind::kSqlQuery && e->sql && e->sql->select &&
        e->sql->select->from.table_name == "CUSTOMER") {
      auto text = sql::RenderSql(*e->sql->select, sql::SqlDialect::kOracle);
      if (text.ok()) *out += *text + "\n";
    }
    xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
      if (c) CollectCustomerSql(c, out);
    });
  }

  // True if some where clause of `q`'s plan reads variable `var` (or a
  // renamed copy `var#n` of it, as unfolded view bodies bind).
  bool WhereReads(const std::string& q, const std::string& var) {
    auto plan = Plan(q);
    return plan != nullptr && WhereReads(plan->plan, var);
  }

  static bool WhereReads(const xquery::ExprPtr& e, const std::string& var) {
    bool found = false;
    if (e->kind == xquery::ExprKind::kFLWOR) {
      for (const auto& cl : e->clauses) {
        if (cl.kind != xquery::Clause::Kind::kWhere) continue;
        for (const std::string& v : optimizer::FreeVars(*cl.expr)) {
          found |= v == var || v.rfind(var + "#", 0) == 0;
        }
      }
    }
    xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
      if (c && !found) found = WhereReads(c, var);
    });
    return found;
  }

  std::unique_ptr<DataServicePlatform> platform_;
  std::unique_ptr<DataServicePlatform> reference_;
};

// ----- The running example -------------------------------------------------

TEST_F(PushdownPrefixTest, ProfileByIdMatchesReferenceForEveryKeyAndPrincipal) {
  // CUST004/008/012 have no orders; even keys have no credit card.
  for (int i = 1; i <= kCustomers; ++i) {
    const std::string q = ProfileById(Cid(i));
    ExpectSameAsReference(q, kAnalyst);
    ExpectSameAsReference(q, kSupport);
  }
  ExpectSameAsReference(ProfileById("CUST999"), kAnalyst);
  ExpectSameAsReference(ProfileById("CUST999"), kSupport);
}

TEST_F(PushdownPrefixTest, ProfileByIdPushesTheKeyIntoTheCustomerSql) {
  for (int i : {1, 4, 7, 12}) {
    const std::string cid = Cid(i);
    EXPECT_NE(CustomerSql(ProfileById(cid))
                  .find("FROM \"CUSTOMER\" t1 WHERE (t1.\"CID\" = '" + cid +
                        "')"),
              std::string::npos)
        << CustomerSql(ProfileById(cid));
    // CUSTOMER, the getORDER navigation and the CREDIT_CARD lookup; the
    // rating is a web-service call, not a statement.
    EXPECT_LE(Statements(ProfileById(cid)), 3);
    EXPECT_LE(Statements(ProfileById(cid), kSupport), 3);
  }
  // A missing key reads CUSTOMER once and builds nothing.
  EXPECT_EQ(Statements(ProfileById("CUST999")), 1);
  EXPECT_FALSE(WhereReads(ProfileById("CUST001"), "item"));
}

TEST_F(PushdownPrefixTest, CustomerSummaryFiltersTheScan) {
  for (int i = 1; i <= kCustomers; ++i) {
    ExpectSameAsReference(CustomerSummary(Cid(i)));
  }
  ExpectSameAsReference(CustomerSummary("CUST999"));
  EXPECT_NE(CustomerSql(CustomerSummary("CUST005"))
                .find("WHERE (t1.\"CID\" = 'CUST005')"),
            std::string::npos);
  EXPECT_LE(Statements(CustomerSummary("CUST005")), 2);
}

TEST_F(PushdownPrefixTest, SmithPanelFiltersTheScan) {
  ExpectSameAsReference(kSmithPanel);
  EXPECT_NE(CustomerSql(kSmithPanel)
                .find("WHERE (t1.\"LAST_NAME\" = 'Smith')"),
            std::string::npos)
      << CustomerSql(kSmithPanel);
}

// ----- Navigation through a let-bound constructor: must not fire ----------

TEST_F(PushdownPrefixTest, ChildBuiltFromASourceCallStaysInTheLet) {
  // RATING is getRating's answer; ORDERS/ORDER/AMOUNT navigates below
  // getORDER's rows.
  for (const char* q :
       {"tns:getProfile()[RATING eq 650]",
        "tns:getProfile()[ORDERS/ORDER/AMOUNT = 50.0]",
        "fn:count(tns:getProfile()[ORDERS/ORDER/AMOUNT >= 75.0])"}) {
    ExpectSameAsReference(q);
    EXPECT_TRUE(WhereReads(q, "item")) << q;
    EXPECT_EQ(CustomerSql(q).find("WHERE"), std::string::npos) << q;
  }
}

TEST_F(PushdownPrefixTest, AmbiguousOrConditionalChildStaysInTheLet) {
  for (const char* q :
       {"tns:twoCids()[CID = \"CUST003\"]",
        "tns:twoCids()[CID = \"Dan\"]",
        "tns:optionalCid()[CID eq \"CUST003\"]",
        "tns:enclosedCid()[CID = \"CUST003\"]"}) {
    ExpectSameAsReference(q);
    EXPECT_TRUE(WhereReads(q, "item")) << q;
    EXPECT_EQ(CustomerSql(q).find("WHERE"), std::string::npos) << q;
  }
}

TEST_F(PushdownPrefixTest, NonAtomizingUsesKeepTheConstructedNode) {
  // The dialect has no `is`, `..` or fn:root; these are the uses of $p/CID
  // it has that do not atomize: an existence test, a count, returning the
  // node and copying it into a new element.
  const std::string let =
      "for $c in ns3:CUSTOMER() "
      "let $p := <P><CID>{fn:data($c/CID)}</CID>"
      "<O>{ns3:getORDER($c)}</O></P> ";
  for (const std::string& q :
       {let + "where fn:exists($p/CID) return fn:data($p/CID)",
        let + "where fn:count($p/CID) eq 1 return fn:data($p/CID)",
        let + "return $p/CID", let + "return <R>{$p/CID}</R>"}) {
    ExpectSameAsReference(q);
  }
  EXPECT_TRUE(WhereReads(let + "where fn:exists($p/CID) return $p", "p"));
  EXPECT_TRUE(
      WhereReads(let + "where fn:count($p/CID) eq 1 return $p", "p"));
  // The atomizing form of the same query does fire.
  const std::string fires = let + "where $p/CID eq \"CUST002\" return $p";
  ExpectSameAsReference(fires);
  EXPECT_FALSE(WhereReads(fires, "p"));
  EXPECT_NE(CustomerSql(fires).find("WHERE (t1.\"CID\" = 'CUST002')"),
            std::string::npos);
}

TEST_F(PushdownPrefixTest, OptionalChildContentStaysInTheLet) {
  // A NULL LAST_NAME still builds <LAST_NAME/>, which atomizes to "", so
  // `ne "Smith"` keeps that profile; its content alone would be ().
  auto unoptimized = MakePlatform(/*reference=*/true, /*optimize=*/false);
  for (DataServicePlatform* p : {platform_.get(), unoptimized.get()}) {
    ASSERT_TRUE(p->adaptors()
                    .FindDatabase("customer_db")
                    ->InsertRow("CUSTOMER",
                                {relational::Cell::Str("CUST013"),
                                 relational::Cell::Null(),
                                 relational::Cell::Null(),
                                 relational::Cell::Str("SSN-13"),
                                 relational::Cell::Int(1000000000)})
                    .ok());
  }
  for (const char* q : {"tns:names()[LAST_NAME ne \"Smith\"]",
                        "tns:names()[LAST_NAME eq \"\"]"}) {
    EXPECT_EQ(Run(*platform_, q, kAnalyst), Run(*unoptimized, q, kAnalyst))
        << q;
    EXPECT_NE(Run(*platform_, q, kAnalyst).find("CUST013"),
              std::string::npos)
        << q;
    EXPECT_TRUE(WhereReads(q, "item")) << q;
  }
}

TEST_F(PushdownPrefixTest, RebindingTheContentsVariableStopsTheRewrite) {
  // $p's <CID> reads the outer $c; at the use, $c names another row.
  const std::string let =
      "for $c in ns3:CUSTOMER() "
      "let $p := <P><CID>{fn:data($c/CID)}</CID>"
      "<O>{ns3:getORDER($c)}</O></P> ";
  for (const std::string& q :
       {let + "for $c in ns3:CUSTOMER() where $p/CID eq $c/CID "
              "return fn:data($c/LAST_NAME)",
        let + "return <R>{ for $c in ns3:CUSTOMER() "
              "where $c/CID eq $p/CID return fn:data($c/LAST_NAME) }</R>"}) {
    ExpectSameAsReference(q);
  }
}

// ----- Prefix pushdown: must not fold ---------------------------------------

TEST_F(PushdownPrefixTest, PositionalVariableBlocksTheFold) {
  const std::string q =
      "for $c at $i in ns3:CUSTOMER() where $c/CID eq \"CUST003\" "
      "return <C>{$i}{fn:count(ns3:getORDER($c))}</C>";
  ExpectSameAsReference(q);
  EXPECT_EQ(CustomerSql(q).find("WHERE"), std::string::npos);
}

TEST_F(PushdownPrefixTest, CorrelatedConjunctIsNotFolded) {
  const std::string q =
      "for $cc in ns2:CREDIT_CARD() return <X>{ "
      "for $c in ns3:CUSTOMER() where $c/CID eq $cc/CID "
      "return fn:count(ns3:getORDER($c)) }</X>";
  ExpectSameAsReference(q);
  EXPECT_EQ(CustomerSql(q).find("WHERE"), std::string::npos);
}

TEST_F(PushdownPrefixTest, ConjunctsHoistedAboveANonPushableLetFold) {
  // The where over $n stays in the mid-tier; the two over $c alone move
  // above the let and both reach the CUSTOMER SQL.
  const std::string q =
      "for $c in ns3:CUSTOMER() where $c/CID ne \"CUST001\" "
      "let $n := fn:count(ns3:getORDER($c)) "
      "where $n ge 1 where $c/LAST_NAME eq \"Kim\" "
      "return <C>{fn:data($c/CID)}{$n}</C>";
  ExpectSameAsReference(q);
  const std::string sql = CustomerSql(q);
  EXPECT_NE(sql.find("t1.\"CID\" <> 'CUST001'"), std::string::npos) << sql;
  EXPECT_NE(sql.find("t1.\"LAST_NAME\" = 'Kim'"), std::string::npos) << sql;
  EXPECT_TRUE(WhereReads(q, "n"));
}

}  // namespace
}  // namespace aldsp::server
