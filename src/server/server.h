#ifndef ALDSP_SERVER_SERVER_H_
#define ALDSP_SERVER_SERVER_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "adaptors/file_adaptor.h"
#include "adaptors/relational_adaptor.h"
#include "compiler/analyzer.h"
#include "compiler/function_table.h"
#include "observability/audit_log.h"
#include "observability/plan_history.h"
#include "observability/query_completion.h"
#include "observability/query_registry.h"
#include "observability/replay.h"
#include "observability/slow_query_log.h"
#include "observability/source_health.h"
#include "observability/stat_statements.h"
#include "observability/workload_journal.h"
#include "optimizer/optimizer.h"
#include "runtime/context.h"
#include "runtime/evaluator.h"
#include "runtime/worker_pool.h"
#include "security/security.h"
#include "server/admission.h"
#include "service/data_service.h"
#include "service/introspect.h"
#include "sql/pushdown.h"
#include "update/engine.h"
#include "xquery/parser.h"

namespace aldsp::server {

/// A compiled, executable query plan (the output of code generation,
/// paper §3.3 step 6). Plans are immutable after compilation and safe to
/// share across executions and threads.
struct CompiledPlan {
  /// The query text, built once when Prepare compiles or rebinds the
  /// plan. Every record of the plan's executions shares it, and keeps it
  /// alive after the plan is evicted.
  observability::SharedText text;
  xquery::ExprPtr plan;
  sql::PushdownStats pushdown;
  /// User/data-service functions the original query calls — recorded
  /// before view unfolding so function-level access control still sees
  /// them (paper §7).
  std::vector<std::string> called_functions;
  /// Stable fingerprint of the normalized plan shape (literals stripped):
  /// which plan *version* this compile produced. Computed once at
  /// compilation, so it survives plan-cache round trips by construction.
  uint64_t fingerprint = 0;
  /// Stable fingerprint of the normalized pre-optimization AST (literals
  /// stripped): which *statement* this is, independent of the plan the
  /// optimizer picked. One statement fingerprint maps to a history of
  /// plan fingerprints as the cost model adapts (see PlanHistory).
  uint64_t statement_fingerprint = 0;
  /// Microseconds spent in each compilation phase, for the §3.3 bench.
  int64_t parse_micros = 0;
  int64_t analyze_micros = 0;
  int64_t optimize_micros = 0;
  int64_t pushdown_micros = 0;
  /// True when Prepare built this plan by rebinding a verified template
  /// of the same statement shape to this text's literals instead of
  /// compiling it: parse_micros is the real parse, bind_micros the rest
  /// (shape key and template lookup), and analyze/optimize/pushdown are 0.
  bool rebound = false;
  int64_t bind_micros = 0;
  /// A rebound plan's own literal values, by slot. `plan` is then the
  /// template's tree, shared, and each slotted literal in it reads its
  /// value here when the plan executes or renders (xquery::LiteralValue).
  /// Null for a plan compiled in full, whose tree holds its own values.
  std::shared_ptr<const xquery::SlotValues> literals;
};

struct ServerOptions {
  optimizer::OptimizerOptions optimizer;
  bool enable_optimizer = true;
  bool enable_pushdown = true;
  size_t plan_cache_size = 256;
  size_t view_plan_cache_size = 256;
  /// Threads in the shared runtime worker pool (fn-bea:async, timeout
  /// evaluation, PP-k prefetch); <= 0 means hardware_concurrency.
  int worker_pool_size = 0;
  /// Maximum intra-query degree of parallelism: the planner may insert
  /// exchange operators running up to this many probe/scan partitions
  /// concurrently. 0 sizes it to the worker pool; 1 forces serial plans.
  int max_query_dop = 0;
  /// PP-k prefetch pipeline depth: 0 adapts per source from observed
  /// round-trip/transfer times (capped at 8); >= 1 forces that depth
  /// (1 reproduces the classic double-buffered overlap).
  int ppk_prefetch_depth = 0;
  /// Rows per TupleBatch in the vectorized runtime (clamped to
  /// [1, 16384] at operator Open). 1 degenerates to row-at-a-time
  /// execution — useful for isolating batch-effects in benchmarks.
  int batch_size = 1024;

  // ----- Always-on observability plane ---------------------------------

  /// Retained records of each audit ring: the execution audit and the
  /// security audit log (redactions, denials, updates, cancels).
  size_t audit_log_capacity = 1024;
  /// Retained slow-query captures (bounded ring).
  size_t slow_query_log_capacity = 64;
  /// Executions at least this slow are captured: the first slow run of a
  /// query stores its counter summary and promotes the query hash; later
  /// runs of a promoted hash execute under a timeline trace whose rendered
  /// profile is stored. <= 0 disables capture.
  int64_t slow_query_threshold_micros = 250'000;
  /// Circuit-breaker tuning for the per-source health scoreboard.
  observability::BreakerOptions circuit_breaker;
  /// Distinct statements tracked by the cumulative statement statistics;
  /// the least expensive entry is evicted on overflow.
  size_t stat_statements_capacity = 512;
  /// Retained workload-journal entries (bounded ring): every observed
  /// Execute* is recorded for later JSONL export and replay.
  size_t workload_journal_capacity = 4096;
  /// Capture executions into the workload journal. Flipped off during
  /// ReplayWorkload so a replay does not journal itself; also togglable
  /// at runtime via SetWorkloadCapture.
  bool workload_capture = true;

  // ----- Plan lifecycle plane ------------------------------------------

  /// Distinct statements tracked by the plan-version history; the least
  /// recently seen statement is evicted on overflow.
  size_t plan_history_statements = 256;
  /// Plan versions retained per statement (oldest roll off).
  size_t plan_history_versions = 8;
  /// Executions a new plan version and its predecessor must each
  /// accumulate before the regression sentinel compares their latency
  /// baselines. <= 0 disables the sentinel.
  int64_t plan_regression_min_calls = 8;
  /// Sentinel breach threshold: new mean (or p95 upper bound) at least
  /// this multiple of the prior version's fires a plan_regression event.
  double plan_regression_ratio = 1.5;
  /// Retained plan_regression events (bounded ring).
  size_t plan_regression_capacity = 64;

  // ----- Concurrent serving plane (admission control) -------------------

  /// Executions allowed to run concurrently; arrivals beyond this wait in
  /// per-tenant weighted-fair lanes at the execution front door. 0 (the
  /// default) disables admission control entirely — every Execute* runs
  /// immediately, the pre-admission behavior. On a machine with few cores
  /// a small value (~4) tames the tail: 256 clients queue at the door in
  /// microsecond-cheap lanes instead of oversubscribing the scheduler.
  int max_concurrent_queries = 0;
  /// Of those slots, how many analytics-class executions may hold at
  /// once; 0 auto-sizes to max(1, max_concurrent_queries - 1) so one slot
  /// always stays reachable for point lookups.
  int max_concurrent_analytics = 0;
  /// Queued executions beyond which arrivals are shed immediately with
  /// kResourceExhausted.
  int admission_queue_depth = 1024;
  /// Longest an execution waits in its lane before being shed with
  /// kResourceExhausted; <= 0 waits without a deadline.
  int64_t admission_queue_timeout_micros = 2'000'000;
  /// Statements whose observed mean wall time (stat_statements, falling
  /// back to the plan-history baseline) reaches this are classified as
  /// analytics at the admission gate; unknown statements default to
  /// interactive.
  int64_t analytics_threshold_micros = 25'000;
  /// Relative admission shares per tenant under contention (absent = 1.0).
  std::map<std::string, double> tenant_weights;
  /// Per-query memory budget: a single blocking operator materializing
  /// more than this many bytes fails the query fast with
  /// kResourceExhausted at the next cooperative poll. 0 = unlimited.
  /// Enforced through the existing QueryControl::NotePeakBytes watermark,
  /// surfaced in EXPLAIN and the live-query registry.
  int64_t query_memory_budget_bytes = 0;
};

/// The result of ExecuteProfiled: the materialized result plus the plan
/// and the per-execution trace that RenderProfileText/Json merge into an
/// EXPLAIN ANALYZE-style tree. The trace must outlive any evaluation a
/// fn-bea:timeout abandoned (holding this struct does).
struct ProfiledExecution {
  xml::Sequence result;
  std::shared_ptr<const CompiledPlan> plan;
  std::shared_ptr<runtime::QueryTrace> trace;
};

/// The ALDSP server (paper Fig. 2): data service metadata, the query
/// compiler (analysis, optimization, SQL pushdown), the plan cache, the
/// runtime with its adaptor framework, and the mid-tier function cache.
/// Client results are fully materialized (the paper's client APIs are
/// stateless); `ExecuteStream` exposes the server-side incremental API.
class DataServicePlatform {
 public:
  explicit DataServicePlatform(ServerOptions options = {});

  // ----- Source registration (design-time) ----------------------------

  /// Introspects a relational database and registers its physical data
  /// services under `fn_prefix` (one read function per table, navigation
  /// functions from foreign keys).
  Status RegisterRelationalSource(const std::string& fn_prefix,
                                  std::shared_ptr<relational::Database> db,
                                  const std::string& vendor = "base-sql92");

  /// Registers a functional/file source adaptor; its functions must be
  /// declared separately via RegisterFunctionalSource.
  Status RegisterAdaptor(std::shared_ptr<runtime::Adaptor> adaptor);

  Status RegisterFunctionalSource(
      const std::string& function_name, const std::string& source_id,
      const std::string& kind, std::vector<xsd::SequenceType> param_types,
      xsd::SequenceType return_type,
      std::map<std::string, std::string> extra_properties = {});

  /// Registers a non-queryable XML document source (paper §2.2): the
  /// content is parsed, validated against `item_schema` (which is also
  /// added to the schema registry), and surfaced as the zero-argument
  /// function `function_name`.
  Status RegisterXmlSource(const std::string& function_name,
                           const std::string& xml_text,
                           const xsd::TypePtr& item_schema);

  /// Registers a delimited-file source: records become <row_name>
  /// elements with header-named, typed children.
  Status RegisterCsvSource(const std::string& function_name,
                           const std::string& csv_text,
                           const std::string& row_name,
                           const std::vector<std::string>& column_names,
                           const std::vector<xml::AtomicType>& column_types);

  /// Loads a data service file (XQuery module) in fail-fast mode.
  Status LoadDataService(const std::string& xquery_text);
  /// Design-time load (paper §4.1): collects all diagnostics, keeps valid
  /// functions.
  Status LoadDataServiceWithRecovery(const std::string& xquery_text,
                                     DiagnosticBag* bag);

  // ----- Data services and updates (paper §2.1 / §6) -------------------

  /// Deployed data services (populated by LoadDataService: the functions
  /// of each namespace prefix form one service, with methods classified
  /// by pragma kind and a designated lineage provider).
  const service::ServiceCatalog& services() const { return services_; }

  /// Lineage of a data service, computed from its lineage provider.
  Result<update::LineageMap> LineageFor(const std::string& service_name);

  /// Submits a changed SDO back through the service's lineage: the unit
  /// of update execution, run as one (simulated) XA transaction across
  /// the affected sources.
  Result<update::SubmitReport> Submit(const std::string& service_name,
                                      const update::DataObject& object,
                                      const update::SubmitOptions& options = {});

  // ----- Query API ------------------------------------------------------

  /// Compiles a query through every phase; plans are cached by query text
  /// (the paper's query plan cache). A text miss whose statement shape
  /// (statement fingerprint plus literal types) already has a verified
  /// plan template is rebound instead of compiled (see DESIGN.md).
  /// `cache_hit`, when non-null, reports whether the plan came from the
  /// text cache; a rebind counts as a miss.
  Result<std::shared_ptr<const CompiledPlan>> Prepare(const std::string& query,
                                                     bool* cache_hit = nullptr);

  /// Prepares (or reuses) a plan and executes it, returning the fully
  /// materialized result.
  Result<xml::Sequence> Execute(const std::string& query);

  /// Filtering and sorting criteria a mediator-API client may attach to a
  /// data service method call (paper §2.2: "the mediator API permits
  /// clients to include result filtering and sorting criteria along with
  /// their request"). The criteria compose into the generated query, so
  /// they benefit from view unfolding and SQL pushdown like any
  /// hand-written predicate.
  struct MethodCriteria {
    /// Child element of each result item to filter on (empty = none).
    std::string filter_child;
    std::string filter_op = "eq";  // eq, ne, lt, le, gt, ge
    std::string filter_value;      // literal, quoted per `filter_is_string`
    bool filter_is_string = true;
    /// Child element to sort by (empty = source order).
    std::string sort_child;
    bool sort_descending = false;
  };

  /// Invokes a data service method with literal arguments and optional
  /// client criteria.
  Result<xml::Sequence> CallMethod(const std::string& function,
                                   const std::vector<std::string>& args,
                                   const MethodCriteria& criteria);
  Result<xml::Sequence> CallMethod(const std::string& function,
                                   const std::vector<std::string>& args) {
    return CallMethod(function, args, MethodCriteria());
  }

  Result<xml::Sequence> ExecutePlan(const CompiledPlan& plan);

  /// Executes on behalf of a principal: function ACLs are enforced
  /// against the query's (pre-unfolding) function calls, and
  /// element-level policies filter the result at the last stage, after
  /// plan and function caches, so those stay shared across users
  /// (paper §7).
  Result<xml::Sequence> ExecuteAs(const std::string& query,
                                  const security::Principal& principal);

  /// Server-side streaming API: invokes `sink` per result item without
  /// materializing the full sequence in one buffer first.
  Status ExecuteStream(const std::string& query,
                       const std::function<Status(const xml::Item&)>& sink);

  /// ExecuteStream on behalf of a principal: function ACLs as for
  /// ExecuteAs, and element-level policies applied to each item before
  /// `sink` sees it, so the streamed items equal ExecuteAs's result.
  Status ExecuteStreamAs(const std::string& query,
                         const security::Principal& principal,
                         const std::function<Status(const xml::Item&)>& sink);

  // ----- Observability (EXPLAIN / PROFILE / metrics) -------------------

  /// Compiles (or reuses) the plan and renders the annotated operator
  /// tree: compile-phase micros, pushdown SQL, join methods. No execution.
  Result<std::string> Explain(const std::string& query);
  Result<std::string> ExplainJson(const std::string& query);

  /// Executes with a per-execution QueryTrace attached: every operator
  /// instance gets a span (rows, micros, bytes) and every source
  /// interaction an event. The completed trace feeds the observed-cost
  /// model, closing the §9 observe -> optimize loop; ordinary Execute
  /// runs under a counters-mode trace that keeps only per-kind tallies.
  /// Admission, budgets, cancellation and observation are the same as
  /// for every other entry point.
  Result<ProfiledExecution> ExecuteProfiled(const std::string& query);

  /// Runs `query` under a timeline trace and renders it as Chrome
  /// trace_event JSON (one lane per engine thread; spans, queue waits
  /// and source round trips as slices). Open in chrome://tracing or
  /// ui.perfetto.dev.
  Result<std::string> ChromeTraceJson(const std::string& query);

  /// Server-wide metrics: per-source latency histograms and rolling
  /// 1m/5m windows recorded by the runtime and the execution wrapper,
  /// with runtime/cache counters and pool gauges folded in at snapshot
  /// time.
  runtime::MetricsRegistry& metrics() { return metrics_; }
  runtime::MetricsRegistry::Snapshot MetricsSnapshot();
  std::string MetricsText();
  std::string MetricsJson();
  /// The same snapshot in Prometheus text exposition format, for scrape
  /// endpoints (per-tenant gauges as labelled families, source latency
  /// as cumulative `le` buckets).
  std::string MetricsPrometheusText();

  // ----- Always-on observability plane ---------------------------------
  //
  // Each plane renders its own snapshot document: for example
  // RenderJsonLines(ExecutionAuditLog::Doc(execution_audit().Records()))
  // is the audit JSONL, and RenderText(SlowQueryLog::Doc(...)) the slow
  // query report (observability/json_util.h).

  /// The per-source health scoreboard document, read at the server's
  /// clock; Explain and ExplainJson embed the same document.
  observability::SnapshotDoc SourceHealthDoc() const;
  /// Chrome trace_event JSON stored with the slow-query capture `seq`
  /// (promoted runs execute under a timeline trace whose exported
  /// timeline is retained), or "" when the record is absent or was a
  /// counters-only first offense.
  std::string SlowQueryChromeTrace(int64_t seq);

  observability::ExecutionAuditLog& execution_audit() { return exec_audit_; }
  observability::SlowQueryLog& slow_query_log() { return slow_queries_; }
  observability::SourceHealthBoard& source_health() { return health_; }

  // ----- Statement-level insight plane ---------------------------------

  /// Cumulative per-fingerprint statement statistics (pg_stat_statements
  /// style) in stat_statements(), TopK ordered by total wall time; the
  /// live queries (id, fingerprint, tenant, phase, rows produced so far,
  /// peak bytes, elapsed time) in query_registry().
  void ResetStatStatements();

  /// Requests cooperative cancellation of an in-flight query (ids appear
  /// in query_registry().Snapshot()). The query fails with
  /// StatusCode::kCancelled within one operator scheduling quantum;
  /// prefetch and exchange tasks drain through their normal
  /// Close/CancelAndWait paths. Returns false when the id is not (or no
  /// longer) running. Audited either way it lands: the cancel request in
  /// the security audit log, the cancelled execution in the execution
  /// audit log.
  bool CancelQuery(uint64_t query_id);

  observability::StatStatements& stat_statements() { return stat_statements_; }
  observability::QueryRegistry& query_registry() { return query_registry_; }

  // ----- Concurrent serving plane (admission control) ------------------

  /// Admission gate state (slots, lanes, shed counters, wait histogram)
  /// via admission().Snapshot().
  AdmissionController& admission() { return admission_; }

  // ----- Plan lifecycle plane ------------------------------------------

  /// Per-statement plan-version history: every plan fingerprint a
  /// statement has compiled into, with its compile trigger (cold compile,
  /// cache eviction, cost-model-advice change), per-version latency
  /// baseline and retained EXPLAIN snapshot; and the regression
  /// sentinel's events (a new plan version whose latency baseline
  /// breached the prior version's, with a structural EXPLAIN diff).
  observability::PlanHistory& plan_history() { return plan_history_; }

  // ----- Workload capture & replay plane --------------------------------

  /// Re-runs a captured workload against this server in open loop
  /// (recorded arrival offsets, scaled by options.speed) or closed loop
  /// (options.clients simulated clients). Capture is suspended for the
  /// duration so the replay does not journal itself. The report carries
  /// throughput, exact p50/p99/p999 latency, and the per-statement
  /// comparison vs the captured baseline with fingerprint verification.
  observability::ReplayReport ReplayWorkload(
      const std::vector<observability::WorkloadJournalEntry>& entries,
      const observability::ReplayOptions& options);

  /// Runtime toggle for journal capture (see options().workload_capture).
  void SetWorkloadCapture(bool on) {
    workload_capture_.store(on, std::memory_order_relaxed);
  }
  bool workload_capture() const {
    return workload_capture_.load(std::memory_order_relaxed);
  }

  /// The captured workload: every observed Execute* lands in a bounded
  /// journal (statement + plan fingerprint, text, principal, arrival
  /// offset, wall micros, rows, peak bytes, outcome). The JSONL export of
  /// WorkloadJournal::Doc's entries round-trips through ParseJsonl for
  /// capture-on-one-server, replay-on-another.
  observability::WorkloadJournal& workload_journal() {
    return workload_journal_;
  }

  // ----- Introspection of internals (tests, benchmarks, console) ------

  compiler::FunctionTable& functions() { return functions_; }
  xsd::SchemaRegistry& schemas() { return schemas_; }
  runtime::AdaptorRegistry& adaptors() { return adaptors_; }
  runtime::FunctionCache& function_cache() { return function_cache_; }
  runtime::RuntimeStats& stats() { return stats_; }
  runtime::RuntimeContext& runtime_context() { return ctx_; }
  runtime::WorkerPool& worker_pool() { return pool_; }
  optimizer::ViewPlanCache& view_plan_cache() { return view_cache_; }
  security::AccessControl& access_control() { return access_control_; }
  security::AuditLog& audit_log() { return audit_; }
  runtime::ObservedCostModel& observed_cost() { return observed_; }
  ServerOptions& options() { return options_; }

  int64_t plan_cache_hits() const {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    return plan_cache_hits_;
  }
  int64_t plan_cache_misses() const {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    return plan_cache_misses_;
  }
  /// Text misses served by rebinding a verified plan template.
  int64_t plan_cache_rebinds() const {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    return plan_cache_rebinds_;
  }
  /// Drops every cached plan and every plan template.
  void ClearPlanCache();

  /// The administration console's view of the server (paper Fig. 2): a
  /// human-readable report of registered sources and functions, deployed
  /// data services, cache and runtime statistics.
  std::string Describe() const;

 private:
  /// Runs analysis, optimization and pushdown over a parsed query.
  /// `read_slotted_literal` reports whether a rewrite used the value of a
  /// query literal (a folded constant, a LIKE pattern, a row range).
  Result<std::shared_ptr<const CompiledPlan>> Compile(
      const std::string& query, xquery::ExprPtr expr, uint64_t statement_fp,
      int64_t parse_micros, bool* read_slotted_literal);

  /// Plan template of one statement shape, keyed by ShapeKey. A shape
  /// moves candidate -> verified (a second text's fresh plan equals the
  /// candidate rebound to that text) or -> not rebindable (a rewrite
  /// read a slot's value, a slot vanished, or the rebound plan differed,
  /// which is final); a changed cost-model advice snapshot restarts a
  /// candidate or verified shape.
  struct PlanTemplate {
    enum class State { kCandidate, kVerified, kNotRebindable };
    State state = State::kCandidate;
    std::shared_ptr<const CompiledPlan> plan;  // null when not rebindable
    std::vector<xml::AtomicValue> literals;    // `plan`'s slot values
    std::string advice;  // ObservedCostModel::AdviceSnapshot at compile
  };

  /// The shape's verified template when its advice snapshot is `advice`.
  std::shared_ptr<const CompiledPlan> VerifiedTemplate(
      const std::string& shape, const std::string& advice);

  /// Advances the shape's template state with a plan just compiled in
  /// full from a text whose slot values are `literals`.
  void LearnTemplate(const std::string& shape,
                     std::vector<xml::AtomicValue> literals,
                     const std::string& advice,
                     const std::shared_ptr<const CompiledPlan>& plan,
                     bool read_slotted_literal);

  // Plan-cache bookkeeping; both helpers require plan_cache_mutex_.
  struct LruSlot {
    const std::string* key;  // the map key, stable while the entry lives
    bool is_template;
  };
  using LruList = std::list<LruSlot>;
  /// Moves an entry to the most-recently-used end.
  void TouchLocked(LruList::iterator it) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it);
  }
  /// Evicts least-recently-used entries until one more fits.
  void MakeRoomLocked();

  /// Creates the per-execution trace for the always-on plane: cheap
  /// counters normally, a timeline when an earlier slow run promoted
  /// this statement (any literal variant of it).
  std::shared_ptr<runtime::QueryTrace> MakeObservedTrace(
      const CompiledPlan& plan) const;

  /// Closes out one observed execution: completes `done` from the trace
  /// (event tallies, sources touched, wall-time split), then feeds that
  /// one record to every sink — rolling metrics, statement statistics,
  /// the plan-lifecycle baseline, per-tenant windows, the execution
  /// audit log, the workload journal and slow-query capture/promotion.
  void FinishObservation(const CompiledPlan& plan,
                         const runtime::QueryTrace& trace,
                         observability::QueryCompletion* done);

  /// Registers `tenant`'s execution of `plan` with the live query
  /// registry, applies the memory budget, and stamps the initial phase.
  std::shared_ptr<observability::QueryControl> RegisterExecution(
      const CompiledPlan& plan, observability::Tenant tenant);

  /// Priority class for the admission gate, from the statement's observed
  /// cost history: stat_statements mean wall time first, plan-history
  /// latency baseline as fallback. No history => interactive (a statement
  /// earns the analytics class with its first slow executions).
  QueryClass ClassifyStatement(const CompiledPlan& plan) const;

  /// Front-door gate shared by every execution surface: classifies,
  /// admits (possibly queueing in the lane of `ctl`'s tenant, possibly
  /// shedding with kResourceExhausted) and stamps the queued/executing
  /// phases on `ctl`. An OK ticket holds a slot the caller must Release
  /// via the returned ticket.
  AdmissionController::Ticket AdmitExecution(const CompiledPlan& plan,
                                             observability::QueryControl* ctl);

  using ItemSink = std::function<Status(const xml::Item&)>;

  /// The one execution path behind every Execute* entry point: function
  /// ACLs (when `principal` is set), live registration, admission,
  /// evaluation (streamed into `sink` when given, materialized
  /// otherwise), element-level security last (per item when streamed),
  /// and exactly one FinishObservation whether the run was refused or
  /// ran. `trace` null picks the counters-or-promoted trace. Streamed
  /// runs return an empty sequence.
  Result<xml::Sequence> RunQuery(const CompiledPlan& plan, bool plan_cache_hit,
                                 const security::Principal* principal,
                                 const ItemSink* sink = nullptr,
                                 std::shared_ptr<runtime::QueryTrace> trace =
                                     nullptr);

  ServerOptions options_;
  compiler::FunctionTable functions_;
  xsd::SchemaRegistry schemas_;
  runtime::AdaptorRegistry adaptors_;
  runtime::FunctionCache function_cache_;
  runtime::RuntimeStats stats_;
  runtime::MetricsRegistry metrics_;
  runtime::RuntimeContext ctx_;
  optimizer::ViewPlanCache view_cache_;
  security::AccessControl access_control_;
  security::AuditLog audit_;
  runtime::ObservedCostModel observed_;
  observability::SourceHealthBoard health_;
  observability::ExecutionAuditLog exec_audit_;
  observability::SlowQueryLog slow_queries_;
  observability::QueryRegistry query_registry_;
  observability::StatStatements stat_statements_;
  observability::PlanHistory plan_history_;
  observability::WorkloadJournal workload_journal_;
  std::atomic<bool> workload_capture_{true};
  AdmissionController admission_;
  service::ServiceCatalog services_;
  std::shared_ptr<adaptors::FileAdaptor> file_adaptor_;  // lazily created

  /// Two tiers under one capacity (options_.plan_cache_size) and one LRU
  /// order: plans by exact text, and plan templates by statement shape.
  mutable std::mutex plan_cache_mutex_;
  struct CachedPlan {
    std::shared_ptr<const CompiledPlan> plan;
    LruList::iterator lru;
  };
  struct CachedTemplate {
    PlanTemplate tmpl;
    LruList::iterator lru;
  };
  std::unordered_map<std::string, CachedPlan> plan_cache_;
  std::unordered_map<std::string, CachedTemplate> plan_templates_;
  LruList plan_lru_;  // most recently used first
  int64_t plan_cache_hits_ = 0;
  int64_t plan_cache_misses_ = 0;
  int64_t plan_cache_rebinds_ = 0;

  /// Declared last so it is destroyed first: the destructor joins any
  /// evaluation a fn-bea:timeout abandoned while the adaptors, function
  /// table and caches those tasks reference are still alive.
  runtime::WorkerPool pool_;
};

}  // namespace aldsp::server

#endif  // ALDSP_SERVER_SERVER_H_
