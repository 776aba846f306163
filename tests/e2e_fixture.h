#ifndef ALDSP_TESTS_E2E_FIXTURE_H_
#define ALDSP_TESTS_E2E_FIXTURE_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaptors/external_function_adaptor.h"
#include "adaptors/relational_adaptor.h"
#include "adaptors/webservice_adaptor.h"
#include "compiler/analyzer.h"
#include "compiler/function_table.h"
#include "optimizer/optimizer.h"
#include "runtime/context.h"
#include "runtime/evaluator.h"
#include "runtime/worker_pool.h"
#include "server/server.h"
#include "service/introspect.h"
#include "tests/test_fixtures.h"
#include "xml/node.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace aldsp::testing {

/// The full running-example environment of paper §3.4 / Figure 3:
/// customer_db (CUSTOMER + ORDER with a foreign key) introspected as
/// source functions ns3:*, billing_db (CREDIT_CARD) as ns2:*, a simulated
/// credit-rating web service ns4:getRating, and the int2date/date2int
/// external functions of §4.5.
class RunningExample {
 public:
  explicit RunningExample(int customers = 5, int max_orders = 3) {
    customer_db = std::shared_ptr<relational::Database>(
        MakeCustomerDb(customers, max_orders).release());
    billing_db = std::shared_ptr<relational::Database>(
        MakeCreditCardDb(customers).release());

    customer_adaptor = std::make_shared<adaptors::RelationalAdaptor>(
        customer_db->name(), customer_db);
    billing_adaptor = std::make_shared<adaptors::RelationalAdaptor>(
        billing_db->name(), billing_db);
    (void)service::IntrospectRelationalSource("ns3", customer_db,
                                              customer_adaptor.get(),
                                              &functions, &schemas, "oracle");
    (void)service::IntrospectRelationalSource("ns2", billing_db,
                                              billing_adaptor.get(),
                                              &functions, &schemas, "db2");

    // Credit-rating web service: rating = 600 + 10 * |lName|.
    rating_ws = std::make_shared<adaptors::SimulatedWebService>("ratingWS");
    rating_ws->RegisterOperation(
        "ns4:getRating",
        [](const std::vector<xml::Sequence>& args) -> Result<xml::Sequence> {
          if (args.size() != 1 || args[0].empty() || !args[0].front().is_node()) {
            return Status::InvalidArgument("getRating: bad request document");
          }
          const xml::NodePtr& req = args[0].front().node();
          xml::NodePtr lname = req->FirstChildNamed("lName");
          int64_t rating =
              600 + 10 * static_cast<int64_t>(
                             lname ? lname->StringValue().size() : 0);
          xml::NodePtr resp = xml::XNode::Element("ns5:getRatingResponse");
          resp->AddChild(xml::XNode::TypedElement(
              "ns5:getRatingResult", xml::AtomicValue::Integer(rating)));
          return xml::Sequence{xml::Item(std::move(resp))};
        },
        /*latency_millis=*/0);
    xsd::TypePtr req_type = xsd::XType::ComplexElement(
        "ns5:getRating",
        {{"ns5:lName",
          xsd::One(xsd::XType::SimpleElement("ns5:lName",
                                             xml::AtomicType::kString))},
         {"ns5:ssn", xsd::One(xsd::XType::SimpleElement(
                         "ns5:ssn", xml::AtomicType::kString))}});
    xsd::TypePtr resp_type = xsd::XType::ComplexElement(
        "ns5:getRatingResponse",
        {{"ns5:getRatingResult",
          xsd::One(xsd::XType::SimpleElement("ns5:getRatingResult",
                                             xml::AtomicType::kInteger))}});
    schemas.Register("ns5:getRating", req_type);
    schemas.Register("ns5:getRatingResponse", resp_type);
    (void)service::RegisterFunctionalSource(
        "ns4:getRating", "ratingWS", "webservice", {xsd::One(req_type)},
        xsd::One(resp_type), &functions);

    // External value-transformation functions (paper §4.5).
    externals = std::make_shared<adaptors::ExternalFunctionAdaptor>("native");
    externals->Register("ns1:int2date", adaptors::MakeInt2DateHandler());
    externals->Register("ns1:date2int", adaptors::MakeDate2IntHandler());
    (void)service::RegisterFunctionalSource(
        "ns1:int2date", "native", "external",
        {xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))},
        xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime)), &functions);
    (void)service::RegisterFunctionalSource(
        "ns1:date2int", "native", "external",
        {xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime))},
        xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger)), &functions);
    (void)functions.RegisterInverse("ns1:int2date", "ns1:date2int");

    (void)adaptor_registry.Register(customer_adaptor);
    (void)adaptor_registry.Register(billing_adaptor);
    (void)adaptor_registry.Register(rating_ws);
    (void)adaptor_registry.Register(externals);

    ctx.functions = &functions;
    ctx.adaptors = &adaptor_registry;
    ctx.function_cache = &cache;
    ctx.stats = &stats;
    ctx.pool = &pool;
  }

  /// Parses, analyzes and evaluates an ad hoc query (no optimizer).
  Result<xml::Sequence> Run(const std::string& query) {
    ALDSP_ASSIGN_OR_RETURN(xquery::ExprPtr expr, xquery::ParseExpression(query));
    DiagnosticBag bag;
    compiler::Analyzer analyzer(&functions, &schemas, &bag);
    ALDSP_RETURN_NOT_OK(analyzer.Analyze(expr, {}));
    last_expr = expr;
    return runtime::Evaluate(*expr, ctx);
  }

  /// Parses and analyzes a module, registering its functions.
  Status LoadModule(const std::string& text) {
    ALDSP_ASSIGN_OR_RETURN(xquery::Module module, xquery::ParseModule(text));
    DiagnosticBag bag;
    compiler::Analyzer analyzer(&functions, &schemas, &bag);
    return analyzer.AnalyzeModule(module, &functions);
  }

  std::shared_ptr<relational::Database> customer_db;
  std::shared_ptr<relational::Database> billing_db;
  std::shared_ptr<adaptors::RelationalAdaptor> customer_adaptor;
  std::shared_ptr<adaptors::RelationalAdaptor> billing_adaptor;
  std::shared_ptr<adaptors::SimulatedWebService> rating_ws;
  std::shared_ptr<adaptors::ExternalFunctionAdaptor> externals;

  compiler::FunctionTable functions;
  xsd::SchemaRegistry schemas;
  runtime::AdaptorRegistry adaptor_registry;
  runtime::FunctionCache cache;
  runtime::RuntimeStats stats;
  runtime::RuntimeContext ctx;
  xquery::ExprPtr last_expr;

  // Declared last so it is destroyed first: the pool drains or joins any
  // task abandoned by fn-bea:timeout while the function table, adaptors
  // and caches above are still alive (same ordering the server uses).
  runtime::WorkerPool pool;
};

/// The running example's customer/order join, which the join-method
/// suites compile with a forced method.
inline constexpr const char* kJoinQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where $c/CID eq $o/CID "
    "return <CO><C>{fn:data($c/CID)}</C><O>{fn:data($o/OID)}</O></CO>";

/// The join query again with every operator input the batch kernel does
/// not cover, so each operator takes its interpreter path at any batch
/// width: a let binding, both operands of the residual where, the INL
/// equi key and an order key are function calls.
inline constexpr const char* kInterpretedJoinQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "let $n := fn:upper-case(fn:data($c/LAST_NAME)) "
    "where fn:string($c/CID) eq fn:string($o/CID) "
    "and fn:upper-case(fn:data($c/FIRST_NAME)) ne fn:string($o/OID) "
    "order by $n, fn:string($o/OID) descending "
    "return <CO>{$n}{fn:data($o/OID)}{$n}</CO>";

/// A join feeding a group-by whose key is a function call.
inline constexpr const char* kInterpretedGroupQuery =
    "for $c in ns3:CUSTOMER(), $o in ns3:ORDER() "
    "where fn:string($c/CID) eq fn:string($o/CID) "
    "group $o as $p by fn:upper-case(fn:data($c/LAST_NAME)) as $k "
    "return <G>{$k}{fn:count($p)}</G>";

/// Parses, analyzes and optimizes `query` with `method` forced on its
/// join clause and PP-k block size `k` (PP-k conversion only for the
/// PP-k methods, so the other methods keep the join mid-tier).
inline xquery::ExprPtr CompileJoin(RunningExample& env,
                                   xquery::JoinMethod method, int k = 20,
                                   const std::string& query = kJoinQuery) {
  using xquery::JoinMethod;
  auto parsed = xquery::ParseExpression(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return nullptr;
  xquery::ExprPtr e = *parsed;
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&env.functions, &env.schemas, &bag);
  EXPECT_TRUE(analyzer.Analyze(e, {}).ok());
  optimizer::OptimizerOptions options;
  options.cross_source_method = method;
  options.ppk_k = k;
  options.convert_ppk = method == JoinMethod::kPPkNestedLoop ||
                        method == JoinMethod::kPPkIndexNestedLoop;
  optimizer::Optimizer opt(&env.functions, &env.schemas, nullptr, options);
  EXPECT_TRUE(opt.Optimize(e).ok());
  for (auto& cl : e->clauses) {
    if (cl.kind == xquery::Clause::Kind::kJoin) {
      cl.method = method;
      cl.ppk_block_size = k;
    }
  }
  return e;
}

/// Patches the cardinality annotations the observed-cost post-pass would
/// produce, so a plan built at dop > 1 inserts its exchanges without
/// warming a model.
inline void MarkLargeClauses(xquery::Expr& flwor) {
  for (auto& cl : flwor.clauses) {
    if (cl.kind == xquery::Clause::Kind::kFor ||
        cl.kind == xquery::Clause::Kind::kJoin) {
      cl.estimated_rows = 100000;
    }
  }
}

// ----- Server-level knob matrix ---------------------------------------------

/// One point of the server's knob space: join method, batch width, dop and
/// PP-k prefetch depth (0 turns prefetch off). Every point must give
/// results byte-identical to ReferenceOptions().
struct ServerKnobs {
  xquery::JoinMethod method;
  int batch_size;
  int dop;
  int prefetch_depth;

  /// "ppk_inl_w7_dop8_d4": the gtest parameter name and failure label.
  std::string Name() const {
    std::string name = xquery::JoinMethodName(method);
    for (char& c : name) {
      if (c == '-') c = '_';
    }
    return name + "_w" + std::to_string(batch_size) + "_dop" +
           std::to_string(dop) + "_d" + std::to_string(prefetch_depth);
  }
};

/// Four join methods x widths {1, 3, 7, 1024} x dop {1, 8} x depth {0, 1, 4}.
inline std::vector<ServerKnobs> ServerKnobMatrix() {
  using xquery::JoinMethod;
  std::vector<ServerKnobs> out;
  for (JoinMethod m :
       {JoinMethod::kNestedLoop, JoinMethod::kIndexNestedLoop,
        JoinMethod::kPPkNestedLoop, JoinMethod::kPPkIndexNestedLoop}) {
    for (int width : {1, 3, 7, 1024}) {
      for (int dop : {1, 8}) {
        for (int depth : {0, 1, 4}) out.push_back({m, width, dop, depth});
      }
    }
  }
  return out;
}

inline std::string KnobName(const ::testing::TestParamInfo<ServerKnobs>& info) {
  return info.param.Name();
}

/// The plan every knob point is held to: no pushdown, one row per batch,
/// serial.
inline server::ServerOptions ReferenceOptions() {
  server::ServerOptions options;
  options.enable_pushdown = false;
  options.batch_size = 1;
  options.max_query_dop = 1;
  return options;
}

/// The platform `make(options)` builds at knob point `k`.
template <typename Make>
auto KnobPlatform(const Make& make, const ServerKnobs& k,
                  bool pushdown = true) {
  server::ServerOptions options;
  options.optimizer.forced_join_method = k.method;
  options.batch_size = k.batch_size;
  options.max_query_dop = k.dop;
  options.ppk_prefetch_depth = k.prefetch_depth;
  options.enable_pushdown = pushdown;
  auto platform = make(options);
  platform->runtime_context().ppk_prefetch = k.prefetch_depth > 0;
  return platform;
}

/// Serialized result of Execute, or of ExecuteAs when `who` is set.
inline std::string Executed(server::DataServicePlatform& platform,
                            const std::string& q,
                            const security::Principal* who = nullptr) {
  auto r = who != nullptr ? platform.ExecuteAs(q, *who) : platform.Execute(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
  return r.ok() ? xml::SerializeSequence(*r) : "<error>";
}

/// Serialized items of ExecuteStream, or of ExecuteStreamAs.
inline std::string Streamed(server::DataServicePlatform& platform,
                            const std::string& q,
                            const security::Principal* who = nullptr) {
  xml::Sequence items;
  auto sink = [&](const xml::Item& item) {
    items.push_back(item);
    return Status::OK();
  };
  Status st = who != nullptr ? platform.ExecuteStreamAs(q, *who, sink)
                             : platform.ExecuteStream(q, sink);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\n" << q;
  return st.ok() ? xml::SerializeSequence(items) : "<error>";
}

/// Holds both result paths of `platform` to the reference's bytes.
inline void ExpectMatchesReference(server::DataServicePlatform& platform,
                                   server::DataServicePlatform& reference,
                                   const std::string& q,
                                   const security::Principal* who,
                                   const std::string& label) {
  const std::string expected = Executed(reference, q, who);
  EXPECT_EQ(Streamed(platform, q, who), expected) << q << "\n" << label;
  EXPECT_EQ(Executed(platform, q, who), expected) << q << "\n" << label;
}

}  // namespace aldsp::testing

#endif  // ALDSP_TESTS_E2E_FIXTURE_H_
