// Fine-grained data security (§7): function-level ACLs control who may
// call a data service; element-level policies remove or replace
// protected subtrees per caller. Filtering runs at the last stage of
// query processing, so compiled plans and cached function results stay
// shared across users; every decision lands in the audit log.
//
// Build & run:   ./build/examples/secure_views

#include <cstdio>

#include "examples/example_env.h"
#include "xml/serializer.h"

using namespace aldsp;

int main() {
  server::DataServicePlatform aldsp;
  examples::WireRunningExample(aldsp, 3);
  if (Status st = aldsp.LoadDataService(examples::ProfileDataService());
      !st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Policies: admin, analyst and support call getProfile; credit ratings
  // visible to analysts (replaced by -1 otherwise); credit cards
  // admin-only (silently removed otherwise).
  examples::AddProfilePolicies(aldsp);

  security::Principal analyst{"amy", {"analyst", "admin"}};
  security::Principal support{"sam", {"support"}};
  security::Principal intern{"ivy", {"intern"}};

  xml::SerializeOptions pretty;
  pretty.indent = true;
  const char* query = "tns:getProfileByID(\"CUST001\")";

  std::printf("== analyst view (full) ==\n");
  auto a = aldsp.ExecuteAs(query, analyst);
  std::printf("%s\n\n", a.ok() ? xml::SerializeSequence(*a, pretty).c_str()
                               : a.status().ToString().c_str());

  std::printf("== support view (rating replaced, cards removed) ==\n");
  auto s = aldsp.ExecuteAs(query, support);
  std::printf("%s\n\n", s.ok() ? xml::SerializeSequence(*s, pretty).c_str()
                               : s.status().ToString().c_str());

  std::printf("== intern (no access to the function at all) ==\n");
  auto i = aldsp.ExecuteAs(query, intern);
  std::printf("%s\n\n", i.ok() ? xml::SerializeSequence(*i, pretty).c_str()
                               : i.status().ToString().c_str());

  // One shared compiled plan served every caller.
  std::printf("plan cache: %lld misses, %lld hits across the three users\n\n",
              static_cast<long long>(aldsp.plan_cache_misses()),
              static_cast<long long>(aldsp.plan_cache_hits()));

  std::printf("== audit log ==\n");
  for (const auto& e : aldsp.audit_log().Events()) {
    std::printf("  #%lld %-14s user=%-4s %s\n",
                static_cast<long long>(e.seq),
                std::string(e.category).c_str(), e.user.name().c_str(),
                e.detail.str().c_str());
  }
  return 0;
}
