#ifndef ALDSP_EXAMPLES_EXAMPLE_ENV_H_
#define ALDSP_EXAMPLES_EXAMPLE_ENV_H_

// Shared setup for the example programs: the paper's running example
// (§3.4 / Figure 3) on top of the server API. Two relational databases
// (customer_db with CUSTOMER + ORDER, billing_db with CREDIT_CARD), a
// simulated credit-rating web service, and the int2date/date2int
// external transformation functions of §4.5.

#include <memory>
#include <string>

#include "adaptors/external_function_adaptor.h"
#include "adaptors/webservice_adaptor.h"
#include "server/server.h"

namespace aldsp::examples {

inline std::shared_ptr<relational::Database> MakeCustomerDb(int customers) {
  using namespace relational;
  auto db = std::make_shared<Database>("customer_db");
  TableDef customer;
  customer.name = "CUSTOMER";
  customer.columns = {{"CID", ColumnType::kVarchar, false},
                      {"FIRST_NAME", ColumnType::kVarchar, true},
                      {"LAST_NAME", ColumnType::kVarchar, true},
                      {"SSN", ColumnType::kVarchar, true},
                      {"SINCE", ColumnType::kBigInt, true}};
  customer.primary_key = {"CID"};
  (void)db->CreateTable(customer);
  TableDef order;
  order.name = "ORDER";
  order.columns = {{"OID", ColumnType::kInteger, false},
                   {"CID", ColumnType::kVarchar, false},
                   {"AMOUNT", ColumnType::kDouble, true}};
  order.primary_key = {"OID"};
  order.foreign_keys = {{{"CID"}, "CUSTOMER", {"CID"}}};
  (void)db->CreateTable(order);

  static const char* kFirst[] = {"Ann", "Bob", "Carol", "Dan", "Eve"};
  static const char* kLast[] = {"Jones", "Smith", "Lee", "Kim", "Novak"};
  int oid = 1;
  for (int i = 1; i <= customers; ++i) {
    char cid[16];
    std::snprintf(cid, sizeof(cid), "CUST%03d", i);
    (void)db->InsertRow(
        "CUSTOMER",
        {Cell::Str(cid), Cell::Str(kFirst[i % 5]), Cell::Str(kLast[i % 5]),
         Cell::Str("SSN-" + std::to_string(1000 + i)),
         Cell::Int(1000000000LL + i * 86400LL)});
    for (int j = 0; j < i % 4; ++j) {
      (void)db->InsertRow("ORDER", {Cell::Int(oid++), Cell::Str(cid),
                                    Cell::Dbl(25.0 * (j + 1))});
    }
  }
  return db;
}

inline std::shared_ptr<relational::Database> MakeBillingDb(int customers) {
  using namespace relational;
  auto db = std::make_shared<Database>("billing_db");
  TableDef cc;
  cc.name = "CREDIT_CARD";
  cc.columns = {{"CCN", ColumnType::kVarchar, false},
                {"CID", ColumnType::kVarchar, false},
                {"LIMIT_AMT", ColumnType::kDouble, true}};
  cc.primary_key = {"CCN"};
  (void)db->CreateTable(cc);
  for (int i = 1; i <= customers; i += 2) {
    char cid[16];
    std::snprintf(cid, sizeof(cid), "CUST%03d", i);
    (void)db->InsertRow("CREDIT_CARD",
                        {Cell::Str("CC-" + std::to_string(i)), Cell::Str(cid),
                         Cell::Dbl(1000.0 * i)});
  }
  return db;
}

/// Registers all running-example sources with a platform. Returns the
/// rating web service for latency/fault injection.
inline std::shared_ptr<adaptors::SimulatedWebService> WireRunningExample(
    server::DataServicePlatform& aldsp, int customers,
    int64_t rating_latency_millis = 0) {
  (void)aldsp.RegisterRelationalSource("ns3", MakeCustomerDb(customers),
                                       "oracle");
  (void)aldsp.RegisterRelationalSource("ns2", MakeBillingDb(customers), "db2");

  auto rating_ws = std::make_shared<adaptors::SimulatedWebService>("ratingWS");
  rating_ws->RegisterOperation(
      "ns4:getRating",
      [](const std::vector<xml::Sequence>& args) -> Result<xml::Sequence> {
        if (args.size() != 1 || args[0].empty() || !args[0].front().is_node()) {
          return Status::InvalidArgument("getRating: bad request");
        }
        xml::NodePtr lname = args[0].front().node()->FirstChildNamed("lName");
        int64_t rating =
            600 + 10 * static_cast<int64_t>(
                           lname ? lname->StringValue().size() : 0);
        xml::NodePtr resp = xml::XNode::Element("ns5:getRatingResponse");
        resp->AddChild(xml::XNode::TypedElement(
            "ns5:getRatingResult", xml::AtomicValue::Integer(rating)));
        return xml::Sequence{xml::Item(std::move(resp))};
      },
      rating_latency_millis);
  (void)aldsp.RegisterAdaptor(rating_ws);
  xsd::TypePtr req_type = xsd::XType::ComplexElement(
      "ns5:getRating",
      {{"ns5:lName", xsd::One(xsd::XType::SimpleElement(
                         "ns5:lName", xml::AtomicType::kString))},
       {"ns5:ssn", xsd::One(xsd::XType::SimpleElement(
                       "ns5:ssn", xml::AtomicType::kString))}});
  xsd::TypePtr resp_type = xsd::XType::ComplexElement(
      "ns5:getRatingResponse",
      {{"ns5:getRatingResult",
        xsd::One(xsd::XType::SimpleElement("ns5:getRatingResult",
                                           xml::AtomicType::kInteger))}});
  aldsp.schemas().Register("ns5:getRating", req_type);
  aldsp.schemas().Register("ns5:getRatingResponse", resp_type);
  (void)aldsp.RegisterFunctionalSource("ns4:getRating", "ratingWS",
                                       "webservice", {xsd::One(req_type)},
                                       xsd::One(resp_type));

  auto native = std::make_shared<adaptors::ExternalFunctionAdaptor>("native");
  native->Register("ns1:int2date", adaptors::MakeInt2DateHandler());
  native->Register("ns1:date2int", adaptors::MakeDate2IntHandler());
  (void)aldsp.RegisterAdaptor(native);
  (void)aldsp.RegisterFunctionalSource(
      "ns1:int2date", "native", "external",
      {xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger))},
      xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime)));
  (void)aldsp.RegisterFunctionalSource(
      "ns1:date2int", "native", "external",
      {xsd::One(xsd::XType::Atomic(xml::AtomicType::kDateTime))},
      xsd::One(xsd::XType::Atomic(xml::AtomicType::kInteger)));
  (void)aldsp.functions().RegisterInverse("ns1:int2date", "ns1:date2int");
  return rating_ws;
}

/// The Figure 3 logical data service, as XQuery source.
inline const char* ProfileDataService() {
  return R"(
xquery version "1.0" encoding "UTF8";

declare namespace tns="urn:profile";

(::pragma function kind="read" isPrimary="true" ::)
declare function tns:getProfile() as element(PROFILE)* {
  for $CUSTOMER in ns3:CUSTOMER()
  return
    <PROFILE>
      <CID>{fn:data($CUSTOMER/CID)}</CID>
      <LAST_NAME>{ fn:data($CUSTOMER/LAST_NAME) }</LAST_NAME>
      <SINCE>{ ns1:int2date($CUSTOMER/SINCE) }</SINCE>
      <ORDERS>{ ns3:getORDER($CUSTOMER) }</ORDERS>
      <CREDIT_CARDS>{ ns2:CREDIT_CARD()[CID eq $CUSTOMER/CID] }</CREDIT_CARDS>
      <RATING>{
        fn:data(ns4:getRating(
          <ns5:getRating>
            <ns5:lName>{ fn:data($CUSTOMER/LAST_NAME) }</ns5:lName>
            <ns5:ssn>{ fn:data($CUSTOMER/SSN) }</ns5:ssn>
          </ns5:getRating>)/ns5:getRatingResult)
      }</RATING>
    </PROFILE>
};

(::pragma function kind="read" ::)
declare function tns:getProfileByID($id as xs:string) as element(PROFILE)* {
  tns:getProfile()[CID eq $id]
};
)";
}

/// The paper §7 policies on the profile service: getProfile callable by
/// admin, analyst and support; RATING visible to analysts (replaced by -1
/// otherwise); CREDIT_CARDS admin-only (removed otherwise).
inline void AddProfilePolicies(server::DataServicePlatform& aldsp) {
  security::AccessControl& ac = aldsp.access_control();
  ac.AddFunctionAcl({"tns:getProfile", {"admin", "analyst", "support"}});
  ac.AddElementPolicy({"PROFILE/RATING",
                       {"analyst"},
                       security::RedactionAction::kReplace,
                       xml::AtomicValue::Integer(-1)});
  ac.AddElementPolicy({"PROFILE/CREDIT_CARDS",
                       {"admin"},
                       security::RedactionAction::kRemove,
                       {}});
}

}  // namespace aldsp::examples

#endif  // ALDSP_EXAMPLES_EXAMPLE_ENV_H_
