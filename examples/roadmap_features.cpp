// The paper's §9 roadmap, demonstrated live: (1) the extensible pushdown
// framework shipping filters to an LDAP-like directory source, (2)
// observed-cost join-method adaptation fed by runtime instrumentation,
// and (3) declarative hints that survive through layers of views.
//
// Build & run:   ./build/examples/roadmap_features

#include <cstdio>

#include "adaptors/directory_adaptor.h"
#include "examples/example_env.h"
#include "xml/serializer.h"

using namespace aldsp;

namespace {

const xquery::Clause* FindJoin(const xquery::ExprPtr& plan) {
  if (plan->kind != xquery::ExprKind::kFLWOR) return nullptr;
  for (const auto& cl : plan->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) return &cl;
  }
  return nullptr;
}

}  // namespace

int main() {
  server::DataServicePlatform aldsp;
  examples::WireRunningExample(aldsp, /*customers=*/400);

  // ----- 1. Extensible pushdown to an LDAP-like directory --------------
  auto directory = std::make_shared<adaptors::DirectoryAdaptor>(
      "corp_ldap", "PERSON", std::set<std::string>{"eq", "le", "ge"});
  static const char* kDepts[] = {"eng", "sales", "hr", "legal"};
  for (int i = 1; i <= 200; ++i) {
    directory->AddEntry(
        {{"UID",
          xml::AtomicValue::String(std::string("u").append(std::to_string(i)))},
         {"DEPT", xml::AtomicValue::String(kDepts[i % 4])},
         {"LEVEL", xml::AtomicValue::Integer(i % 10)}});
  }
  (void)aldsp.RegisterAdaptor(directory);
  xsd::TypePtr person = xsd::XType::ComplexElement(
      "PERSON",
      {{"UID", xsd::One(xsd::XType::SimpleElement("UID",
                                                  xml::AtomicType::kString))},
       {"DEPT", xsd::One(xsd::XType::SimpleElement("DEPT",
                                                   xml::AtomicType::kString))},
       {"LEVEL", xsd::One(xsd::XType::SimpleElement(
                     "LEVEL", xml::AtomicType::kInteger))}});
  (void)aldsp.RegisterFunctionalSource("ldap:PERSON", "corp_ldap",
                                       "custom-queryable", {},
                                       xsd::Star(person),
                                       {{"pushdown_ops", "eq,le,ge"}});

  std::printf("== 1. extensible pushdown (LDAP-like source) ==\n");
  const char* ldap_query =
      "for $p in ldap:PERSON()[DEPT eq \"eng\" and LEVEL ge 8] "
      "return fn:data($p/UID)";
  auto plan = aldsp.Prepare(ldap_query);
  if (!plan.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("  plan: %s\n", xquery::DebugString(*(*plan)->plan).c_str());
  directory->ResetStats();
  auto r = aldsp.ExecutePlan(**plan);
  std::printf("  matches: %zu, entries shipped: %lld (directory holds 200)\n\n",
              r.ok() ? r->size() : 0,
              static_cast<long long>(directory->entries_shipped()));

  // ----- 2. Observed-cost adaptation ------------------------------------
  std::printf("== 2. observed-cost join-method selection ==\n");
  const char* join_query =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID return <X>{fn:data($cc/CCN)}</X>";
  auto cold = aldsp.Prepare(join_query);
  const xquery::Clause* join = FindJoin((*cold)->plan);
  std::printf("  before observation: method=%s k=%d (the paper's default)\n",
              xquery::JoinMethodName(join->method), join->ppk_block_size);
  (void)aldsp.Execute("fn:count(ns3:CUSTOMER())");
  (void)aldsp.Execute("fn:count(ns2:CREDIT_CARD())");
  std::printf("  observed: CUSTOMER=%lld rows, CREDIT_CARD=%lld rows\n",
              static_cast<long long>(
                  aldsp.observed_cost().ObservedRows("customer_db", "CUSTOMER")),
              static_cast<long long>(aldsp.observed_cost().ObservedRows(
                  "billing_db", "CREDIT_CARD")));
  aldsp.ClearPlanCache();
  aldsp.view_plan_cache().Clear();
  auto warm = aldsp.Prepare(join_query);
  join = FindJoin((*warm)->plan);
  std::printf("  after observation:  method=%s (outer ~ inner: full fetch "
              "beats PP-k)\n\n",
              xquery::JoinMethodName(join->method));

  // ----- 3. Declarative hints that survive view layers ------------------
  std::printf("== 3. declarative hints through view layers ==\n");
  (void)aldsp.LoadDataService(R"(
(::pragma hint join_method="ppk-inl" ppk_k="50" ::)
declare function tns:custOrders() as element(CO)* {
  for $c in ns3:CUSTOMER(), $o in ns3:ORDER()
  where $c/CID eq $o/CID
  return <CO>{fn:data($o/OID)}</CO>
};
declare function tns:layer2() as element(CO)* { tns:custOrders() };
declare function tns:layer3() as element(CO)* { tns:layer2() };
)");
  aldsp.options().enable_pushdown = false;  // keep the join observable
  auto hinted = aldsp.Prepare("tns:layer3()");
  join = FindJoin((*hinted)->plan);
  if (join != nullptr) {
    std::printf("  through three view layers: method=%s k=%d "
                "(hinted on the innermost function)\n",
                xquery::JoinMethodName(join->method), join->ppk_block_size);
  }
  auto result = aldsp.Execute("fn:count(tns:layer3())");
  if (result.ok()) {
    std::printf("  result count: %s\n",
                xml::SerializeSequence(*result).c_str());
  }
  return 0;
}
