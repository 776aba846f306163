// End-to-end benchmark of the data services platform on the paper's
// running example (Fig. 3 sources + the Fig. 5 PROFILE data service).
// Every op goes through the public server API (Execute, ExecuteAs,
// ExecuteStream, Submit); layers are measured from outside, as deltas of
// their public counters over the measured window, and -- in a traced
// run -- as spans around calls into each layer's public functions.
//
//   aldsp_bench --workload W --seed N --seconds S --trace 0|1
//               [--smoke] [--out DIR] [--commit C]
//
// One process runs one workload: an untimed reference pass on a second
// platform (pushdown off, batch size 1, dop 1) that fixes the expected
// results, set-up (timed several times, median reported), a warm-up under
// the workload's own load, then the measured window. Every op's result is
// checked. Prints `<workload> <metric> <value> <unit>` lines, then one
// JSON line: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits non-zero on any wrong result or undrained gauge. See README.md.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "examples/example_env.h"
#include "load.h"
#include "runtime/evaluator.h"
#include "trace.h"
#include "update/engine.h"
#include "update/sdo.h"
#include "xml/serializer.h"

#ifndef ALDSP_BENCH_BUILD_TYPE
#define ALDSP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ALDSP_BENCH_COMPILER
#define ALDSP_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace aldsp;
using namespace aldsp::bench;

// ----- Workloads -----------------------------------------------------------

// Op kinds. Each workload has one primary op, whose latency is reported
// as p50_ms, mean_ms and p95_ms, and for reads also p99_ms.
enum Kind { kRead, kWrite, kDashboard, kJoin, kNumKinds };
const char* const kKindNames[kNumKinds] = {"read", "write", "dashboard", "join"};

enum class Mix { kProfileLookup, kProfileUpdate, kFederatedReport, kContendedMix };

struct Spec {
  const char* name;
  Mix mix;
  int customers;
  Kind primary;
  /// Read latency limit for slo_miss_ratio; 0 when the workload has none.
  double slo_ms;
  /// Admission gate width (0 = gate off).
  int max_concurrent_queries;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
const Spec kSpecs[] = {
    {"profile_lookup", Mix::kProfileLookup, 100, kRead, 100, 0},
    {"profile_update", Mix::kProfileUpdate, 100, kRead, 100, 0},
    {"federated_report", Mix::kFederatedReport, 1000, kDashboard, 0, 0},
    {"contended_mix", Mix::kContendedMix, 1000, kRead, 50, 3},
};

constexpr int64_t kRoundtripMicros = 100;
constexpr int64_t kPerRowMicros = 1;
constexpr int64_t kRatingLatencyMillis = 1;
constexpr int64_t kRatingCacheTtlMillis = 10 * 60 * 1000;
constexpr size_t kSetupMinReps = 9;
constexpr double kSetupMinSeconds = 0.5;

std::string Cid(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "CUST%03d", i);
  return buf;
}

std::string ProfileText(int i) {
  return "tns:getProfileByID(\"" + Cid(i) + "\")";
}

// customer_summary: a point read whose navigation call in `return` keeps
// the `where` from being pushed into SQL (see README.md).
std::string SummaryText(int i) {
  return "for $c in ns3:CUSTOMER() where $c/CID eq \"" + Cid(i) +
         "\" return <C>{fn:data($c/LAST_NAME)}{fn:count(ns3:getORDER($c))}</C>";
}

// The three dashboard panels of federated_report; kJoinPanel is also the
// analytics op of contended_mix.
const char* const kJoinPanel =
    "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
    "where $c/CID eq $cc/CID "
    "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
const char* const kGroupPanel =
    "for $o in ns3:ORDER() group $o as $g by $o/CID as $k "
    "return <G>{fn:data($k)}{fn:sum($g/AMOUNT)}</G>";
const char* const kSmithPanel =
    "for $c in ns3:CUSTOMER() where $c/LAST_NAME eq \"Smith\" "
    "return <S>{fn:data($c/CID)}{fn:count(ns3:getORDER($c))}</S>";

const security::Principal kAnalyst{"amy", {"analyst", "admin"}};
const security::Principal kSupport{"sam", {"support"}};

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 30;
  double warmup = 3;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

// ----- Platform ------------------------------------------------------------

struct Platform {
  std::unique_ptr<server::DataServicePlatform> aldsp;
  std::shared_ptr<adaptors::SimulatedWebService> rating;
  std::vector<relational::Database*> dbs;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "aldsp_bench: %s\n", what.c_str());
  std::exit(2);
}

/// The running example wired as the paper describes it. The reference
/// platform evaluates the simplest way (no pushdown, row at a time,
/// serial) with no simulated latency.
Platform MakePlatform(const Spec& spec, bool reference) {
  server::ServerOptions o;
  if (reference) {
    o.enable_pushdown = false;
    o.batch_size = 1;
    o.max_query_dop = 1;
  } else {
    o.max_concurrent_queries = spec.max_concurrent_queries;
  }
  Platform p;
  p.aldsp = std::make_unique<server::DataServicePlatform>(o);
  p.rating = examples::WireRunningExample(*p.aldsp, spec.customers,
                                          reference ? 0 : kRatingLatencyMillis);
  if (Status st = p.aldsp->LoadDataService(examples::ProfileDataService());
      !st.ok()) {
    Die("loading the profile data service failed: " + st.ToString());
  }
  for (const char* id : {"customer_db", "billing_db"}) {
    relational::Database* db = p.aldsp->adaptors().FindDatabase(id);
    if (db == nullptr) Die(std::string("no database ") + id);
    if (!reference) {
      db->latency_model() = {kRoundtripMicros, kPerRowMicros, /*sleep=*/true};
    }
    p.dbs.push_back(db);
  }
  p.aldsp->function_cache().EnableFor("ns4:getRating", kRatingCacheTtlMillis);
  // Paper §7 policies, as in examples/secure_views.cpp.
  security::AccessControl& ac = p.aldsp->access_control();
  ac.AddFunctionAcl({"tns:getProfile", {"admin", "analyst", "support"}});
  ac.AddElementPolicy({"PROFILE/RATING",
                       {"analyst"},
                       security::RedactionAction::kReplace,
                       xml::AtomicValue::Integer(-1)});
  ac.AddElementPolicy(
      {"PROFILE/CREDIT_CARDS", {"admin"}, security::RedactionAction::kRemove, {}});
  return p;
}

// ----- Result checks ---------------------------------------------------------

std::string ItemText(const xml::Item& item) {
  return item.is_node() ? xml::SerializeNode(*item.node()) : item.atomic().Lexical();
}

/// Order-sensitive digest of a result, folded one item at a time so a
/// streamed result digests the same as a materialized one.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(const xml::Item& item) {
    for (unsigned char c : ItemText(item) + "\n") {
      h = (h ^ c) * 1099511628211ULL;
    }
  }
};

uint64_t DigestOf(const xml::Sequence& seq) {
  Digest d;
  for (const xml::Item& item : seq) d.Add(item);
  return d.h;
}

/// The generator's data, read back from the reference platform's tables.
struct Truth {
  std::map<std::string, std::string> last_name;  // CID -> LAST_NAME
  std::map<std::string, int> orders;             // CID -> order count
};

Truth ReadTruth(Platform& ref) {
  Truth t;
  auto customers = ref.dbs[0]->TableData("CUSTOMER");
  auto orders = ref.dbs[0]->TableData("ORDER");
  if (!customers.ok() || !orders.ok()) Die("cannot read generator tables");
  for (const auto& row : *customers) {
    t.last_name[row[0].ToString()] = row[2].ToString();
    t.orders[row[0].ToString()] = 0;
  }
  for (const auto& row : *orders) ++t.orders[row[1].ToString()];
  return t;
}

xml::NodePtr OnlyElement(const xml::Sequence& seq, const char* name,
                         std::string* why) {
  if (seq.size() != 1 || !seq.front().is_node() ||
      seq.front().node()->name() != name) {
    *why = std::string("expected one <") + name + ">, got " +
           std::to_string(seq.size()) + " items";
    return nullptr;
  }
  return seq.front().node();
}

std::string ChildText(const xml::NodePtr& n, const char* name) {
  xml::NodePtr c = n->FirstChildNamed(name);
  return c ? c->StringValue() : "<missing>";
}

// ----- The benchmark run ---------------------------------------------------

/// Cumulative public counters of every layer, read just before and just
/// after the measured window.
using Counters = std::map<std::string, double>;

double ProcessCpuMillis() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// The process's resident-set high-water mark (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

/// Restarts the high-water mark from the current resident set, so that
/// PeakRssMb() covers only what runs after this call.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

Counters ReadCounters(Platform& p) {
  server::DataServicePlatform& s = *p.aldsp;
  const runtime::RuntimeStats& rs = s.stats();
  const runtime::WorkerPool& pool = s.worker_pool();
  Counters c = {
      {"plan_hits", s.plan_cache_hits()},
      {"plan_misses", s.plan_cache_misses()},
      {"ws_calls", p.rating->invocation_count()},
      {"fc_hits", s.function_cache().stats().hits},
      {"fc_misses", s.function_cache().stats().misses},
      {"source_invocations", rs.source_invocations},
      {"sql_pushdowns", rs.sql_pushdowns},
      {"join_probe_rows", rs.join_probe_rows},
      {"ppk_blocks", rs.ppk_blocks},
      {"exchange_chunks", rs.exchange_chunks},
      {"pool_tasks", pool.tasks_completed()},
      {"pool_queue_wait_us", pool.total_queue_wait_micros()},
      {"pool_run_us", pool.total_run_micros()},
      {"pool_inline", pool.inline_runs()},
      {"cpu_ms", ProcessCpuMillis()},
  };
  for (relational::Database* db : p.dbs) {
    c["statements"] += db->stats().statements;
    c["rows_shipped"] += db->stats().rows_shipped;
    c["rows_scanned"] += db->stats().rows_scanned;
    c["source_wait_us"] += db->stats().simulated_latency_micros;
  }
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (auto& [name, v] : d) v -= before.at(name);
  return d;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for text-only metrics: per-layer times that are structurally 0
  /// on some workload stay out of the JSON summary (and BENCHMARK.json).
  bool summary = true;
};

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), spec_(*opt.spec), tracer_(opt.trace) {}

  int Run();

 private:
  // Phases.
  void ReferencePass();
  void SetUp();
  std::vector<Stream> BuildStreams();
  std::vector<Metric> Probe();
  std::vector<std::string> DrainCheck();
  int64_t CheckFinalState();

  // Ops.
  OpResult ReadProfile(int key, const security::Principal& who);
  OpResult WriteProfile(int key, int64_t cycle);
  OpResult Dashboard();
  OpResult ReadSummary(int key);
  OpResult JoinPanel();
  /// Runs `query` through Execute or ExecuteStream and compares it with
  /// the reference pass.
  Outcome Panel(const char* query, bool stream);

  OpResult Wrong(const std::string& why);
  OpResult Failed(const Status& st);
  server::DataServicePlatform& aldsp() { return *platform_.aldsp; }

  const Options opt_;
  const Spec& spec_;
  Tracer tracer_;
  Platform platform_;
  Truth truth_;
  /// Reference digests by statement ("text" or "text|principal").
  std::map<std::string, uint64_t> reference_;
  std::vector<double> setup_s_;

  std::mutex problems_mutex_;
  std::vector<std::string> problems_;  // first few wrong results / errors
  /// profile_update: the last LAST_NAME the writer submitted, per CID.
  std::map<std::string, std::string> written_;
};

void Bench::ReferencePass() {
  Platform ref = MakePlatform(spec_, /*reference=*/true);
  truth_ = ReadTruth(ref);
  auto record = [&](const std::string& key, const Result<xml::Sequence>& r) {
    if (!r.ok()) Die("reference pass failed on " + key + ": " + r.status().ToString());
    reference_[key] = DigestOf(*r);
  };
  if (spec_.mix == Mix::kProfileLookup) {
    // getProfileByID($id) is getProfile()[CID eq $id]: one unfiltered
    // getProfile() call gives every key's expected PROFILE; the support
    // view is that item through the same element policies.
    Result<xml::Sequence> all = ref.aldsp->ExecuteAs("tns:getProfile()", kAnalyst);
    if (!all.ok()) Die("reference pass failed: " + all.status().ToString());
    for (const xml::Item& item : *all) {
      if (!item.is_node()) Die("reference pass: getProfile() returned an atomic value");
      const xml::Sequence one{item};
      const int key = std::atoi(ChildText(item.node(), "CID").c_str() + 4);
      record(ProfileText(key) + "|analyst", one);
      record(ProfileText(key) + "|support",
             ref.aldsp->access_control().FilterResult(kSupport, one));
    }
  }
  for (const char* q : {kJoinPanel, kGroupPanel, kSmithPanel}) {
    record(q, ref.aldsp->Execute(q));
  }
}

void Bench::SetUp() {
  std::vector<std::string> precompile = {kJoinPanel};  // contended_mix
  if (spec_.mix == Mix::kProfileLookup || spec_.mix == Mix::kProfileUpdate) {
    // Every view-query text is compiled here, one at a time: concurrent
    // cold compiles of view queries are unsafe (optimizer::ViewPlanCache
    // has no lock), and the 100 texts fit the 256-entry plan cache.
    precompile.clear();
    for (int i = 1; i <= spec_.customers; ++i) precompile.push_back(ProfileText(i));
  } else if (spec_.mix == Mix::kFederatedReport) {
    precompile = {kJoinPanel, kGroupPanel, kSmithPanel};
  }
  // Set-up takes milliseconds, and on a shared host a spell of slowness can
  // last a few hundred of them. So set-up is repeated for at least
  // kSetupMinSeconds (tear-downs included) and the median is reported; the
  // last platform is kept.
  const Clock::time_point phase = Clock::now();
  while (setup_s_.size() < kSetupMinReps ||
         MillisBetween(phase, Clock::now()) < kSetupMinSeconds * 1e3) {
    platform_ = Platform();  // tear the previous one down first
    const Clock::time_point t0 = Clock::now();
    platform_ = MakePlatform(spec_, /*reference=*/false);
    for (const std::string& q : precompile) {
      if (auto plan = aldsp().Prepare(q); !plan.ok()) {
        Die("compiling " + q + " failed: " + plan.status().ToString());
      }
    }
    setup_s_.push_back(MillisBetween(t0, Clock::now()) / 1e3);
  }
}

OpResult Bench::Wrong(const std::string& why) {
  std::lock_guard<std::mutex> lock(problems_mutex_);
  if (problems_.size() < 8) problems_.push_back("wrong result: " + why);
  return {Outcome::kWrong};
}

OpResult Bench::Failed(const Status& st) {
  std::lock_guard<std::mutex> lock(problems_mutex_);
  if (problems_.size() < 8) problems_.push_back("error: " + st.ToString());
  return {Outcome::kError};
}

OpResult Bench::ReadProfile(int key, const security::Principal& who) {
  const std::string text = ProfileText(key);
  Result<xml::Sequence> r = [&] {
    Tracer::Scope s(tracer_, "server.ExecuteAs");
    return aldsp().ExecuteAs(text, who);
  }();
  if (!r.ok()) return Failed(r.status());
  const bool support = &who == &kSupport;
  auto it = reference_.find(text + (support ? "|support" : "|analyst"));
  if (it != reference_.end()) {
    // Static data: the result must equal the reference pass byte for byte.
    if (DigestOf(*r) != it->second) return Wrong(text + " differs from the reference");
    return {};
  }
  // profile_update renames customers, so check what the writer cannot
  // change: identity, order count and the security redactions.
  std::string why;
  xml::NodePtr profile = OnlyElement(*r, "PROFILE", &why);
  if (profile == nullptr) return Wrong(text + ": " + why);
  const std::string cid = Cid(key);
  if (ChildText(profile, "CID") != cid) return Wrong(text + ": wrong CID");
  xml::NodePtr orders = profile->FirstChildNamed("ORDERS");
  if (orders == nullptr ||
      static_cast<int>(orders->ChildrenNamed("ORDER").size()) != truth_.orders.at(cid)) {
    return Wrong(text + ": wrong order count");
  }
  const std::string rating = ChildText(profile, "RATING");
  const bool cards = profile->FirstChildNamed("CREDIT_CARDS") != nullptr;
  if (support ? (rating != "-1" || cards) : (rating == "-1" || !cards)) {
    return Wrong(text + ": security filtering wrong for " + who.user);
  }
  return {};
}

OpResult Bench::WriteProfile(int key, int64_t cycle) {
  const std::string text = ProfileText(key);
  Result<xml::Sequence> r = [&] {
    Tracer::Scope s(tracer_, "server.Execute");
    return aldsp().Execute(text);
  }();
  if (!r.ok()) return Failed(r.status());
  std::string why;
  xml::NodePtr profile = OnlyElement(*r, "PROFILE", &why);
  if (profile == nullptr) return Wrong(text + ": " + why);
  update::DataObject sdo(profile);
  const std::string name = "W" + std::to_string(cycle);
  if (!sdo.Set("LAST_NAME", xml::AtomicValue::String(name)).ok() ||
      !sdo.Set("ORDERS/ORDER[1]/AMOUNT",
               xml::AtomicValue::Double(static_cast<double>(cycle % 1000) + 0.5))
           .ok()) {
    return Wrong(text + ": SDO has no LAST_NAME or ORDER[1]");
  }
  Tracer::Scope s(tracer_, "server.Submit");
  Result<update::SubmitReport> report = aldsp().Submit("tns", sdo);
  const double submit_ms = s.ElapsedMicros() / 1e3;
  if (!report.ok()) return Failed(report.status());
  if (report->statements.empty()) return Wrong(text + ": submit ran no statement");
  written_[Cid(key)] = name;  // single writer thread
  return {Outcome::kOk, submit_ms};
}

Outcome Bench::Panel(const char* query, bool stream) {
  Digest digest;
  Status st;
  if (stream) {
    Tracer::Scope s(tracer_, "server.ExecuteStream");
    st = aldsp().ExecuteStream(query, [&](const xml::Item& item) {
      digest.Add(item);
      return Status::OK();
    });
  } else {
    Tracer::Scope s(tracer_, "server.Execute");
    Result<xml::Sequence> r = aldsp().Execute(query);
    st = r.status();
    if (r.ok()) digest.h = DigestOf(*r);
  }
  if (!st.ok()) return Failed(st).outcome;
  if (digest.h != reference_.at(query)) {
    return Wrong(std::string(query).substr(0, 60) + "... differs from the reference")
        .outcome;
  }
  return Outcome::kOk;
}

OpResult Bench::Dashboard() {
  for (auto [query, stream] : {std::pair{kJoinPanel, true}, std::pair{kGroupPanel, false},
                               std::pair{kSmithPanel, false}}) {
    if (Outcome o = Panel(query, stream); o != Outcome::kOk) return {o};
  }
  return {};
}

OpResult Bench::JoinPanel() { return {Panel(kJoinPanel, /*stream=*/true)}; }

OpResult Bench::ReadSummary(int key) {
  const std::string text = SummaryText(key);
  Result<xml::Sequence> r = [&] {
    Tracer::Scope s(tracer_, "server.Execute");
    return aldsp().Execute(text);
  }();
  if (!r.ok()) return Failed(r.status());
  std::string why;
  xml::NodePtr c = OnlyElement(*r, "C", &why);
  if (c == nullptr) return Wrong(text + ": " + why);
  const std::string cid = Cid(key);
  if (c->StringValue() != truth_.last_name.at(cid) + " " + std::to_string(truth_.orders.at(cid))) {
    return Wrong(text + ": got " + c->StringValue());
  }
  return {};
}

// Rates and client counts per workload; README.md explains the choice.
std::vector<Stream> Bench::BuildStreams() {
  auto open = [&](Kind kind, double rate, int workers, uint64_t rng_id) {
    std::mt19937_64 rng = StreamRng(opt_.seed, rng_id);
    Stream s;
    s.kind = kind;
    s.workers = workers;
    s.due_us = PoissonSchedule(rate, opt_.warmup + opt_.seconds, rng);
    return s;
  };
  auto closed = [&](Kind kind, int clients) {
    Stream s;
    s.kind = kind;
    s.open_loop = false;
    s.workers = clients;
    return s;
  };
  // Keys are drawn per arrival from their own stream, so they do not
  // depend on which worker serves the arrival.
  auto zipf_keys = [&](size_t n, int universe, uint64_t rng_id) {
    Zipf zipf(universe, 0.99);
    std::mt19937_64 rng = StreamRng(opt_.seed, rng_id);
    auto keys = std::make_shared<std::vector<int>>(n);
    for (int& k : *keys) k = zipf.Sample(rng);
    return keys;
  };

  std::vector<Stream> streams;
  switch (spec_.mix) {
    case Mix::kProfileLookup:
    case Mix::kProfileUpdate: {
      const bool update = spec_.mix == Mix::kProfileUpdate;
      Stream reads = open(kRead, update ? 35 : 40, update ? 3 : 4, 1);
      auto keys = zipf_keys(reads.due_us.size(), spec_.customers, 2);
      reads.op = [this, keys](int64_t i) {
        // Principals alternate by arrival, so both redaction paths run.
        return ReadProfile((*keys)[i] + 1, i % 2 == 0 ? kAnalyst : kSupport);
      };
      streams.push_back(std::move(reads));
      if (!update) break;
      // Only customers with at least one order, so ORDER[1] exists.
      auto candidates = std::make_shared<std::vector<int>>();
      for (int i = 1; i <= spec_.customers; ++i) {
        if (truth_.orders.at(Cid(i)) > 0) candidates->push_back(i);
      }
      Stream writes = open(kWrite, 10, 1, 3);
      auto wkeys = zipf_keys(writes.due_us.size(), static_cast<int>(candidates->size()), 4);
      writes.op = [this, wkeys, candidates](int64_t i) {
        return WriteProfile((*candidates)[(*wkeys)[i]], i);
      };
      streams.push_back(std::move(writes));
      break;
    }
    case Mix::kFederatedReport: {
      Stream dash = closed(kDashboard, 2);
      dash.op = [this](int64_t) { return Dashboard(); };
      streams.push_back(std::move(dash));
      break;
    }
    case Mix::kContendedMix: {
      Stream reads = open(kRead, 50, 2, 5);
      std::uniform_int_distribution<int> uniform(1, spec_.customers);
      std::mt19937_64 rng = StreamRng(opt_.seed, 6);
      auto keys = std::make_shared<std::vector<int>>(reads.due_us.size());
      for (int& k : *keys) k = uniform(rng);
      reads.op = [this, keys](int64_t i) { return ReadSummary((*keys)[i]); };
      streams.push_back(std::move(reads));
      Stream joins = closed(kJoin, 2);
      joins.op = [this](int64_t) { return JoinPanel(); };
      streams.push_back(std::move(joins));
      break;
    }
  }
  for (Stream& s : streams) {
    s.op = [this, inner = std::move(s.op), span = std::string("op.") + kKindNames[s.kind]](int64_t i) {
      Tracer::Scope scope(tracer_, span);
      return inner(i);
    };
  }
  return streams;
}

/// Gauges that must read zero once the load has stopped; returns the ones
/// that do not.
std::vector<std::string> Bench::DrainCheck() {
  std::vector<std::string> bad;
  // Pool tasks may finish a moment after the query that owned them.
  for (int i = 0; i < 100; ++i) {
    bad.clear();
    server::AdmissionSnapshot adm = aldsp().admission().Snapshot();
    if (aldsp().query_registry().live_count() != 0) bad.push_back("live queries");
    if (adm.running != 0) bad.push_back("admission running");
    if (adm.queue_depth != 0) bad.push_back("admission queue depth");
    if (aldsp().worker_pool().queue_depth() != 0) bad.push_back("pool queue depth");
    if (aldsp().worker_pool().running_tasks() != 0) bad.push_back("pool running tasks");
    if (bad.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return bad;
}

/// profile_update: each renamed customer's LAST_NAME must be the writer's
/// last submitted value, read back through the server. Returns the number
/// of mismatches.
int64_t Bench::CheckFinalState() {
  if (written_.empty()) return 0;
  Result<xml::Sequence> r = aldsp().Execute(
      "for $c in ns3:CUSTOMER() return <R><I>{fn:data($c/CID)}</I>"
      "<L>{fn:data($c/LAST_NAME)}</L></R>");
  if (!r.ok()) {
    Failed(r.status());
    return 1;
  }
  std::map<std::string, std::string> now;
  for (const xml::Item& item : *r) {
    if (item.is_node()) now[ChildText(item.node(), "I")] = ChildText(item.node(), "L");
  }
  int64_t mismatches = 0;
  for (const auto& [cid, name] : written_) {
    if (now[cid] != name) {
      Wrong(cid + " LAST_NAME is " + now[cid] + ", last written " + name);
      ++mismatches;
    }
  }
  return mismatches;
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Sequential decomposition of the workload's representative statement
/// into calls on each layer's public functions (traced run only).
std::vector<Metric> Bench::Probe() {
  const int reps = opt_.smoke ? 5 : 50;
  enum class Api { kExecuteAs, kExecuteStream, kExecute };
  std::string text = ProfileText(1);
  Api api = Api::kExecuteAs;
  if (spec_.mix == Mix::kFederatedReport) {
    text = kJoinPanel;
    api = Api::kExecuteStream;
  } else if (spec_.mix == Mix::kContendedMix) {
    text = SummaryText(1);
    api = Api::kExecute;
  }
  const char* api_name = api == Api::kExecuteAs       ? "server.ExecuteAs"
                         : api == Api::kExecuteStream ? "server.ExecuteStream"
                                                      : "server.Execute";
  auto source_wait = [&] {
    int64_t us = 0;
    for (relational::Database* db : platform_.dbs) us += db->stats().simulated_latency_micros;
    return us;
  };
  auto timed = [&](const char* span, auto&& fn) {
    Tracer::Scope s(tracer_, span);
    fn();
    return s.ElapsedMicros();
  };

  // The SDO the update probe submits, and a policy without the
  // optimistic-concurrency guard so repeated submits of one object apply.
  auto read = aldsp().Execute(ProfileText(1));
  std::string why;
  xml::NodePtr profile = read.ok() ? OnlyElement(*read, "PROFILE", &why) : nullptr;
  if (profile == nullptr) Die("probe: cannot read the SDO");
  update::SubmitOptions unguarded;
  unguarded.policy = update::ConcurrencyPolicy::kDesignatedFields;
  update::UpdateEngine engine(&aldsp().functions(), &aldsp().adaptors());

  std::vector<double> parse, analyze, optimize, pushdown, prepare_hit, evaluate, filter,
      call, lineage, engine_submit, statements;
  double eval_total = 0, wait_total = 0;
  for (int i = 0; i < reps; ++i) {
    Tracer::Scope rep(tracer_, "probe.rep");
    std::shared_ptr<const server::CompiledPlan> plan;
    {
      // A fresh comment makes a new plan-cache key: a cold compile of the
      // same statement.
      const std::string cold = text + " (: probe " + std::to_string(i) + " :)";
      Tracer::Scope s(tracer_, "server.Prepare");
      s.Arg("cold", 1);
      auto p = aldsp().Prepare(cold);
      if (!p.ok()) Die("probe: " + p.status().ToString());
      plan = *p;
    }
    parse.push_back(static_cast<double>(plan->parse_micros));
    analyze.push_back(static_cast<double>(plan->analyze_micros));
    optimize.push_back(static_cast<double>(plan->optimize_micros));
    pushdown.push_back(static_cast<double>(plan->pushdown_micros));
    prepare_hit.push_back(timed("server.Prepare", [&] {
      auto p = aldsp().Prepare(text);
      if (!p.ok()) Die("probe: " + p.status().ToString());
      plan = *p;
    }));

    Result<xml::Sequence> result = xml::Sequence{};
    const int64_t wait0 = source_wait();
    {
      Tracer::Scope s(tracer_, "runtime.Evaluate");
      result = runtime::Evaluate(*plan->plan, aldsp().runtime_context());
      const int64_t waited = source_wait() - wait0;
      s.Arg("source_wait_us", static_cast<double>(waited));
      evaluate.push_back(s.ElapsedMicros());
      eval_total += evaluate.back();
      wait_total += static_cast<double>(waited);
    }
    if (!result.ok()) Die("probe: " + result.status().ToString());
    filter.push_back(timed("security.FilterResult", [&] {
      (void)aldsp().access_control().FilterResult(kSupport, *result);
    }));
    call.push_back(timed(api_name, [&] {
      Status st;
      if (api == Api::kExecuteAs) st = aldsp().ExecuteAs(text, kSupport).status();
      if (api == Api::kExecute) st = aldsp().Execute(text).status();
      if (api == Api::kExecuteStream) {
        st = aldsp().ExecuteStream(text, [](const xml::Item&) { return Status::OK(); });
      }
      if (!st.ok()) Die("probe: " + st.ToString());
    }));

    update::LineageMap map;
    lineage.push_back(timed("update.LineageFor", [&] {
      auto l = aldsp().LineageFor("tns");
      if (!l.ok()) Die("probe: " + l.status().ToString());
      map = std::move(*l);
    }));
    update::DataObject first(profile), second(profile);
    (void)first.Set("LAST_NAME", xml::AtomicValue::String("P" + std::to_string(i) + "a"));
    (void)second.Set("LAST_NAME", xml::AtomicValue::String("P" + std::to_string(i) + "b"));
    engine_submit.push_back(timed("update.UpdateEngine::Submit", [&] {
      auto r = engine.Submit(first, map, unguarded);
      if (!r.ok()) Die("probe: " + r.status().ToString());
    }));
    timed("server.Submit", [&] {
      auto r = aldsp().Submit("tns", second, unguarded);
      if (!r.ok()) Die("probe: " + r.status().ToString());
      statements.push_back(static_cast<double>(r->statements.size()));
    });
  }
  const double filtered = api == Api::kExecuteAs ? Median(filter) : 0.0;
  return {
      {"xquery.parse_us", Mean(parse), "us"},
      {"compiler.analyze_us", Mean(analyze), "us"},
      {"optimizer.optimize_us", Mean(optimize), "us"},
      {"sql.pushdown_us", Mean(pushdown), "us"},
      {"runtime.evaluate_us", Median(evaluate), "us"},
      {"runtime.source_wait_share", Ratio(wait_total, eval_total), "ratio"},
      {"security.filter_us", Median(filter), "us"},
      {"server.prepare_hit_us", Median(prepare_hit), "us"},
      {"server.exec_overhead_us",
       Median(call) - Median(prepare_hit) - Median(evaluate) - filtered, "us"},
      {"update.lineage_us", Median(lineage), "us"},
      {"update.engine_submit_us", Median(engine_submit), "us"},
      {"update.statements_per_submit", Mean(statements), "count"},
  };
}

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << ms[i].value
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

/// Reads one metric back from a result file this program wrote.
bool ReadResultMetric(const std::string& path, const std::string& name, double* value) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"" + name + "\": {\"value\": ";
  size_t at = text.find(key);
  if (at == std::string::npos) return false;
  *value = std::strtod(text.c_str() + at + key.size(), nullptr);
  return true;
}

int Bench::Run() {
  const Clock::time_point start = Clock::now();
  ReferencePass();
  std::fprintf(stderr, "aldsp_bench: %s reference pass %.2f s\n", spec_.name,
               MillisBetween(start, Clock::now()) / 1e3);
  SetUp();
  // Hand the freed memory of the reference pass and the earlier set-ups
  // back to the OS, so the window's peak starts from the kept platform.
  malloc_trim(0);

  std::vector<Stream> streams = BuildStreams();
  const int64_t begin_us = static_cast<int64_t>(opt_.warmup * 1e6);
  const int64_t end_us = static_cast<int64_t>((opt_.warmup + opt_.seconds) * 1e6);
  Counters before;
  double peak_rss_before_window_mb = 0;
  bool rss_reset = false;
  std::vector<OpRecord> records = RunStreams(
      streams, begin_us, end_us, [](int lane) { Tracer::SetLane(lane + 1); },
      [&] {
        aldsp().admission().ResetStats();
        before = ReadCounters(platform_);
        peak_rss_before_window_mb = PeakRssMb();
        rss_reset = ResetPeakRss();
      });
  const Counters d = Delta(ReadCounters(platform_), before);
  auto delta = [&](const char* name) { return d.at(name); };
  const double peak_rss_mb = PeakRssMb();
  if (!rss_reset) {
    std::fprintf(stderr,
                 "aldsp_bench: cannot reset the RSS high-water mark; peak_rss_mb "
                 "covers the whole process\n");
  }
  const server::AdmissionSnapshot adm = aldsp().admission().Snapshot();
  const std::vector<std::string> undrained = DrainCheck();

  // ---- End-to-end metrics over the measured window.
  int64_t attempted = 0, failed = 0, primary_n = 0, slo_miss = 0;
  int64_t wrong = CheckFinalState();
  int64_t kind_done[kNumKinds] = {};
  std::vector<double> primary_ms, submit_ms, late_ms;
  double latency_total_ms = 0;
  for (const OpRecord& r : records) {
    // A wrong result fails the run even when it happened in the warm-up.
    wrong += r.outcome == Outcome::kWrong ? 1 : 0;
    if (!r.measured) continue;
    ++attempted;
    const bool ok = r.outcome == Outcome::kOk;
    failed += ok ? 0 : 1;
    if (ok) ++kind_done[r.kind];
    if (r.late_ms >= 0) late_ms.push_back(r.late_ms);
    const double ms = r.latency_ms;
    latency_total_ms += ms;
    if (r.kind == spec_.primary) {
      ++primary_n;
      if (ok) primary_ms.push_back(ms);
      if (!ok || (spec_.slo_ms > 0 && ms > spec_.slo_ms)) ++slo_miss;
    }
    if (r.kind == kWrite && ok) submit_ms.push_back(r.inner_ms);
  }
  for (const std::string& s : problems_) std::fprintf(stderr, "aldsp_bench: %s\n", s.c_str());
  const int64_t ops = std::max<int64_t>(1, attempted - failed);
  const double gen_late_p99 = Percentile(late_ms, 0.99);
  const bool valid = gen_late_p99 <= 2.0;

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s_), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // End-to-end numbers kept out of BENCHMARK.json, so not gated: those that
  // exist only on some workloads, and those whose run-to-run spread on a
  // shared host exceeds their bound (README.md, "Bounds").
  std::vector<Metric> extra = {
      {"p50_ms", Percentile(primary_ms, 0.50), "ms"},
      {"mean_ms", Mean(primary_ms), "ms"},
      {"p95_ms", Percentile(primary_ms, 0.95), "ms"},
      {"cpu_ms_per_op", delta("cpu_ms") / static_cast<double>(ops), "ms"},
      {"samples", static_cast<double>(primary_ms.size()), "count"},
      {"setup_reps", static_cast<double>(setup_s_.size()), "count"},
      // Reference pass, set-ups and warm-up: shows which phase would set a
      // whole-process peak.
      {"peak_rss_before_window_mb", peak_rss_before_window_mb, "MB"},
      {"failed_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"},
  };
  if (spec_.primary == kRead) {
    // A 30 s window gives 1000-1500 reads: at least ten beyond the p99.
    extra.push_back({"p99_ms", Percentile(primary_ms, 0.99), "ms"});
  }
  if (spec_.slo_ms > 0) {
    extra.push_back({"slo_miss_ratio",
                     Ratio(static_cast<double>(slo_miss), static_cast<double>(primary_n)),
                     "ratio"});
  }
  if (!submit_ms.empty()) {
    extra.push_back({"submit_p50_ms", Percentile(submit_ms, 0.50), "ms"});
    extra.push_back({"submit_p95_ms", Percentile(submit_ms, 0.95), "ms"});
  }
  if (kind_done[kDashboard] + kind_done[kJoin] > 0) {
    extra.push_back({"report_qps",
                     static_cast<double>(kind_done[kDashboard] + kind_done[kJoin]) / opt_.seconds,
                     "1/s"});
  }

  // ---- Per-layer metrics: counter deltas over the window.
  std::vector<std::string> shapes = {ProfileText(1)};  // one text per statement
  if (spec_.mix == Mix::kFederatedReport) shapes = {kJoinPanel, kGroupPanel, kSmithPanel};
  if (spec_.mix == Mix::kContendedMix) shapes = {SummaryText(1), kJoinPanel};
  double regions = 0, bare = 0;
  for (const std::string& q : shapes) {
    auto plan = aldsp().Prepare(q);
    if (!plan.ok()) Die("compiling " + q + " failed");
    regions += (*plan)->pushdown.regions_pushed;
    bare += (*plan)->pushdown.bare_scans_pushed;
  }
  const double n_ops = static_cast<double>(ops);
  const double n_shapes = static_cast<double>(shapes.size());
  std::vector<Metric> layers = {
      {"server.plan_cache_hit_ratio",
       Ratio(delta("plan_hits"), delta("plan_hits") + delta("plan_misses")), "ratio"},
      {"sql.regions_per_stmt", regions / n_shapes, "count"},
      {"sql.bare_scans_per_stmt", bare / n_shapes, "count"},
      {"relational.roundtrips_per_op", delta("statements") / n_ops, "count"},
      {"relational.rows_shipped_per_op", delta("rows_shipped") / n_ops, "rows"},
      {"relational.rows_scanned_per_op", delta("rows_scanned") / n_ops, "rows"},
      {"relational.wait_ms_per_op", delta("source_wait_us") / 1e3 / n_ops, "ms"},
      {"adaptors.ws_calls_per_op", delta("ws_calls") / n_ops, "count"},
      {"runtime.fcache_hit_ratio",
       Ratio(delta("fc_hits"), delta("fc_hits") + delta("fc_misses")), "ratio"},
      {"runtime.source_invocations_per_op", delta("source_invocations") / n_ops, "count"},
      {"runtime.sql_pushdowns_per_op", delta("sql_pushdowns") / n_ops, "count"},
      {"runtime.join_probe_rows_per_op", delta("join_probe_rows") / n_ops, "rows"},
      {"runtime.ppk_blocks_per_op", delta("ppk_blocks") / n_ops, "count"},
      {"runtime.exchange_chunks_per_op", delta("exchange_chunks") / n_ops, "count"},
      {"runtime.peak_operator_kb",
       static_cast<double>(aldsp().stats().peak_operator_bytes.load()) / 1024.0, "kB"},
      {"runtime.pool_tasks_per_op", delta("pool_tasks") / n_ops, "count"},
      {"runtime.pool_queue_wait_us_per_task",
       Ratio(delta("pool_queue_wait_us"), delta("pool_tasks")), "us", false},
      {"runtime.pool_run_us_per_task", Ratio(delta("pool_run_us"), delta("pool_tasks")), "us",
       false},
      {"runtime.pool_queue_wait_share",
       Ratio(delta("pool_queue_wait_us"), delta("pool_queue_wait_us") + delta("pool_run_us")),
       "ratio"},
      {"runtime.pool_inline_ratio", Ratio(delta("pool_inline"), delta("pool_tasks")), "ratio"},
      // The gate's own p95 is a decade-bucket bound, too coarse to compare
      // runs with; its exact mean and its share of op latency are not.
      {"server.admission_wait_mean_us", adm.wait.MeanMicros(), "us", false},
      {"server.admission_wait_share",
       Ratio(static_cast<double>(adm.wait.sum_micros) / 1e3, latency_total_ms), "ratio"},
      {"server.admission_queued_ratio",
       Ratio(static_cast<double>(adm.queued), static_cast<double>(adm.admitted)), "ratio"},
      {"server.shed_ratio",
       Ratio(static_cast<double>(adm.shed_queue_full + adm.shed_timeout),
             static_cast<double>(attempted)),
       "ratio"},
      {"bench.gen_late_p99_ms", gen_late_p99, "ms"},
  };

  std::map<std::string, double> self_us;
  if (opt_.trace) {
    {
      // Window counter deltas, attached to one span for the trace viewer.
      Tracer::Scope s(tracer_, "window.counters");
      for (const auto& [name, v] : d) s.Arg(name, v);
      s.Arg("ops", n_ops);
    }
    const std::vector<Metric> probe = Probe();
    layers.insert(layers.end(), probe.begin(), probe.end());
    self_us = tracer_.MeanSelfMicros();
  }

  const bool correct = wrong == 0 && undrained.empty();
  for (const std::string& g : undrained) {
    std::fprintf(stderr, "aldsp_bench: gauge not drained: %s\n", g.c_str());
  }
  if (!valid) {
    std::fprintf(stderr,
                 "aldsp_bench: INVALID run: generator p99 lateness %.3f ms > 2 ms\n",
                 gen_late_p99);
  }

  // ---- Output: text lines, the result file, the trace, the JSON line.
  auto print = [&](const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("%s %s %.10g %s\n", spec_.name, m.name.c_str(), m.value, m.unit.c_str());
    }
  };
  print(e2e);
  print(extra);
  print(layers);
  for (const auto& [span, us] : self_us) {
    std::printf("%s self_us.%s %.10g us\n", spec_.name, span.c_str(), us);
  }

  const std::string base = opt_.out_dir + "/" + spec_.name;
  std::vector<Metric> all = e2e;
  all.insert(all.end(), extra.begin(), extra.end());
  if (opt_.trace) {
    double untraced = 0;
    for (const Metric& m : all) {
      if (m.unit != "count" && ReadResultMetric(base + ".json", m.name, &untraced) &&
          untraced > 0) {
        std::printf("%s trace_overhead.%s %+.2f %%\n", spec_.name, m.name.c_str(),
                    100.0 * (m.value / untraced - 1.0));
      }
    }
    if (!tracer_.WriteChromeTrace(base + ".trace.json")) {
      std::fprintf(stderr, "aldsp_bench: cannot write %s.trace.json\n", base.c_str());
    }
  }
  all.insert(all.end(), layers.begin(), layers.end());
  std::string streams_json;
  for (const Stream& s : streams) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"op\": \"%s\", \"loop\": \"%s\", \"workers\": %d, \"rate_per_s\": %.6g}",
                  streams_json.empty() ? "" : ", ", kKindNames[s.kind],
                  s.open_loop ? "open" : "closed", s.workers,
                  s.open_loop ? static_cast<double>(s.due_us.size()) / (opt_.warmup + opt_.seconds)
                              : 0.0);
    streams_json += buf;
  }
  if (std::FILE* f = std::fopen((base + (opt_.trace ? ".traced.json" : ".json")).c_str(), "w")) {
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"traced\": %s, \"smoke\": %s,\n"
        " \"valid\": %s, \"correct\": %s, \"attempted\": %lld, \"failed\": %lld,\n"
        " \"host\": {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"commit\": \"%s\", \"seed\": %" PRIu64 ", \"customers\": %d, \"warmup_s\": %g, "
        "\"window_s\": %g, \"max_concurrent_queries\": %d, \"streams\": [%s]},\n"
        " \"metrics\": %s}\n",
        spec_.name, opt_.trace ? "true" : "false", opt_.smoke ? "true" : "false",
        valid ? "true" : "false", correct ? "true" : "false",
        static_cast<long long>(attempted), static_cast<long long>(failed),
        std::thread::hardware_concurrency(), ALDSP_BENCH_COMPILER, ALDSP_BENCH_BUILD_TYPE,
        opt_.commit.c_str(), opt_.seed, spec_.customers, opt_.warmup, opt_.seconds,
        spec_.max_concurrent_queries, streams_json.c_str(), JsonMetrics(all).c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "aldsp_bench: cannot write results under %s\n", opt_.out_dir.c_str());
  }

  std::vector<Metric> reported;
  for (const Metric& m : opt_.trace ? layers : e2e) {
    if (m.summary) reported.push_back(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), JsonMetrics(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: aldsp_bench --workload profile_lookup|profile_update|"
               "federated_report|contended_mix --seed N --seconds S --trace 0|1\n"
               "                   [--smoke] [--out DIR] [--commit C]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string w = value();
      for (const Spec& s : kSpecs) {
        if (w == s.name) o.spec = &s;
      }
      if (o.spec == nullptr) Usage();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") Usage();
      o.trace = t == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out") {
      o.out_dir = value();
    } else if (a == "--commit") {
      o.commit = value();
    } else {
      Usage();
    }
  }
  // The arrival schedules are materialized, so the window is capped.
  if (o.spec == nullptr || !(o.seconds > 0 && o.seconds <= 3600)) Usage();
  if (o.smoke) {
    o.seconds = 2;
    o.warmup = 0.5;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  // The simulated sources sleep 100 us per round trip. The default 50 us
  // timer slack would stretch every such sleep by a load-dependent amount;
  // 1 ns keeps the sleeps at the modelled latency. Threads created later
  // (load threads, the platform's worker pool) inherit it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (std::strcmp(ALDSP_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "aldsp_bench: refusing to measure a %s build; build Release\n",
                 ALDSP_BENCH_BUILD_TYPE);
    return 2;
  }
  Bench bench(opt);
  return bench.Run();
}
