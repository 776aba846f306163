// The paper's running example end-to-end (§3.4 / Figures 1 and 3): the
// tns:getProfile logical data service integrates two relational
// databases and a credit-rating web service into nested customer
// profiles; tns:getProfileByID reuses the view and the compiler pushes
// its predicate through the unfolded view into SQL.
//
// Build & run:   ./build/examples/customer_profile

#include <cstdio>

#include "examples/example_env.h"
#include "sql/dialect.h"
#include "xml/serializer.h"

using namespace aldsp;

namespace {

// `slots`: the literal values a rebound plan carries (null for a plan
// compiled in full).
void PrintSqlRegions(const xquery::ExprPtr& e, const xquery::SlotValues* slots,
                     int depth = 0) {
  if (e->kind == xquery::ExprKind::kSqlQuery && e->sql && e->sql->select) {
    auto text =
        sql::RenderSql(*e->sql->select, sql::SqlDialect::kOracle, slots);
    std::printf("  [SQL -> %s] %s\n", e->sql->source.c_str(),
                text.ok() ? text->c_str() : "<render error>");
  }
  xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
    if (c) PrintSqlRegions(c, slots, depth + 1);
  });
}

}  // namespace

int main() {
  server::DataServicePlatform aldsp;
  examples::WireRunningExample(aldsp, /*customers=*/6);
  if (Status st = aldsp.LoadDataService(examples::ProfileDataService());
      !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // --- 1. The integrated "get all" view -------------------------------
  std::printf("== tns:getProfile(): integrated profiles ==\n");
  auto all = aldsp.Execute("tns:getProfile()");
  if (!all.ok()) {
    std::fprintf(stderr, "query failed: %s\n", all.status().ToString().c_str());
    return 1;
  }
  xml::SerializeOptions pretty;
  pretty.indent = true;
  std::printf("%s\n\n", xml::SerializeSequence(*all, pretty).c_str());

  // --- 2. View reuse with predicate pushdown --------------------------
  std::printf("== tns:getProfileByID(\"CUST003\") ==\n");
  auto one = aldsp.Execute("tns:getProfileByID(\"CUST003\")");
  if (!one.ok()) {
    std::fprintf(stderr, "query failed: %s\n", one.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n\n", xml::SerializeSequence(*one, pretty).c_str());

  // --- 3. What the compiler produced ----------------------------------
  auto plan = aldsp.Prepare("tns:getProfileByID(\"CUST003\")");
  std::printf("== compiled plan for tns:getProfileByID ==\n");
  std::printf("  phases (us): parse=%lld analyze=%lld optimize=%lld pushdown=%lld\n",
              static_cast<long long>((*plan)->parse_micros),
              static_cast<long long>((*plan)->analyze_micros),
              static_cast<long long>((*plan)->optimize_micros),
              static_cast<long long>((*plan)->pushdown_micros));
  std::printf("  SQL regions generated:\n");
  xquery::ExprPtr root = (*plan)->plan;
  PrintSqlRegions(root, (*plan)->literals.get());

  // --- 4. An ad hoc grouping query (the §3.1 FLWGOR extension) --------
  std::printf("\n== FLWGOR: customer ids per last name ==\n");
  auto grouped = aldsp.Execute(
      "for $c in ns3:CUSTOMER() "
      "let $cid := $c/CID "
      "group $cid as $ids by $c/LAST_NAME as $name "
      "order by $name "
      "return <CUSTOMER_IDS name=\"{$name}\">{ $ids }</CUSTOMER_IDS>");
  if (!grouped.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 grouped.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", xml::SerializeSequence(*grouped, pretty).c_str());
  return 0;
}
