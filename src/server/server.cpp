#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>

#include "observability/critical_path.h"
#include "server/explain.h"
#include "server/fingerprint.h"
#include "server/rebind.h"
#include "xml/item.h"

namespace aldsp::server {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Collects every function the query can reach, transitively through the
// bodies of user-defined functions: access control must see indirect
// calls (tns:getProfileByID calls tns:getProfile) even though the
// optimizer later unfolds them all.
void CollectCalledFunctions(const xquery::ExprPtr& e,
                            const compiler::FunctionTable& functions,
                            std::vector<std::string>* out) {
  if (e->kind == xquery::ExprKind::kFunctionCall) {
    bool seen = false;
    for (const auto& f : *out) {
      if (f == e->fn_name) seen = true;
    }
    if (!seen) {
      out->push_back(e->fn_name);
      const compiler::UserFunction* fn = functions.FindUser(e->fn_name);
      if (fn != nullptr && fn->body != nullptr) {
        CollectCalledFunctions(fn->body, functions, out);
      }
    }
  }
  xquery::ForEachChildSlot(*e, [&](xquery::ExprPtr& c) {
    if (c) CollectCalledFunctions(c, functions, out);
  });
}

}  // namespace

DataServicePlatform::DataServicePlatform(ServerOptions options)
    : options_(std::move(options)),
      view_cache_(options_.view_plan_cache_size),
      audit_(options_.audit_log_capacity),
      health_(options_.circuit_breaker),
      exec_audit_(options_.audit_log_capacity),
      slow_queries_(options_.slow_query_log_capacity),
      stat_statements_(options_.stat_statements_capacity),
      plan_history_(observability::PlanHistoryOptions{
          options_.plan_history_statements, options_.plan_history_versions,
          options_.plan_regression_min_calls, options_.plan_regression_ratio,
          options_.plan_regression_capacity}),
      workload_journal_(options_.workload_journal_capacity),
      workload_capture_(options_.workload_capture),
      admission_(AdmissionOptions{
          options_.max_concurrent_queries, options_.max_concurrent_analytics,
          options_.admission_queue_depth,
          options_.admission_queue_timeout_micros,
          options_.analytics_threshold_micros, options_.tenant_weights}),
      pool_(options_.worker_pool_size) {
  ctx_.functions = &functions_;
  ctx_.adaptors = &adaptors_;
  ctx_.function_cache = &function_cache_;
  ctx_.stats = &stats_;
  // Observed-cost feedback loop (§9 roadmap): the runtime records source
  // behaviour; the optimizer consults it on the next compilation.
  ctx_.observed = &observed_;
  ctx_.metrics = &metrics_;
  ctx_.health = &health_;
  ctx_.pool = &pool_;
  // Intra-query parallelism knobs. pool_ is the last member, so its
  // size() is valid here in the constructor body.
  ctx_.max_query_dop = options_.max_query_dop > 0
                           ? options_.max_query_dop
                           : static_cast<int>(pool_.size());
  ctx_.ppk_prefetch_depth = options_.ppk_prefetch_depth;
  ctx_.batch_size = options_.batch_size;
  options_.optimizer.observed = &observed_;
}

Status DataServicePlatform::RegisterRelationalSource(
    const std::string& fn_prefix, std::shared_ptr<relational::Database> db,
    const std::string& vendor) {
  auto adaptor =
      std::make_shared<adaptors::RelationalAdaptor>(db->name(), db);
  ALDSP_RETURN_NOT_OK(service::IntrospectRelationalSource(
      fn_prefix, db, adaptor.get(), &functions_, &schemas_, vendor));
  return adaptors_.Register(std::move(adaptor));
}

Status DataServicePlatform::RegisterAdaptor(
    std::shared_ptr<runtime::Adaptor> adaptor) {
  return adaptors_.Register(std::move(adaptor));
}

Status DataServicePlatform::RegisterFunctionalSource(
    const std::string& function_name, const std::string& source_id,
    const std::string& kind, std::vector<xsd::SequenceType> param_types,
    xsd::SequenceType return_type,
    std::map<std::string, std::string> extra_properties) {
  return service::RegisterFunctionalSource(
      function_name, source_id, kind, std::move(param_types),
      std::move(return_type), &functions_, std::move(extra_properties));
}

Status DataServicePlatform::RegisterXmlSource(const std::string& function_name,
                                              const std::string& xml_text,
                                              const xsd::TypePtr& item_schema) {
  if (file_adaptor_ == nullptr) {
    file_adaptor_ = std::make_shared<adaptors::FileAdaptor>("files");
    ALDSP_RETURN_NOT_OK(adaptors_.Register(file_adaptor_));
  }
  ALDSP_RETURN_NOT_OK(
      file_adaptor_->RegisterXmlContent(function_name, xml_text, item_schema));
  if (item_schema != nullptr) {
    schemas_.Register(item_schema->name(), item_schema);
  }
  return service::RegisterFunctionalSource(
      function_name, "files", "file", {},
      item_schema != nullptr ? xsd::Star(item_schema)
                             : xsd::AnySequence(),
      &functions_);
}

Status DataServicePlatform::RegisterCsvSource(
    const std::string& function_name, const std::string& csv_text,
    const std::string& row_name, const std::vector<std::string>& column_names,
    const std::vector<xml::AtomicType>& column_types) {
  if (file_adaptor_ == nullptr) {
    file_adaptor_ = std::make_shared<adaptors::FileAdaptor>("files");
    ALDSP_RETURN_NOT_OK(adaptors_.Register(file_adaptor_));
  }
  ALDSP_RETURN_NOT_OK(file_adaptor_->RegisterCsvContent(
      function_name, csv_text, row_name, column_types));
  if (column_names.size() != column_types.size()) {
    return Status::InvalidArgument("column names/types size mismatch");
  }
  std::vector<xsd::ElementField> fields;
  for (size_t i = 0; i < column_names.size(); ++i) {
    fields.push_back(
        {column_names[i],
         xsd::Opt(xsd::XType::SimpleElement(column_names[i],
                                            column_types[i]))});
  }
  xsd::TypePtr row_type =
      xsd::XType::ComplexElement(row_name, std::move(fields));
  schemas_.Register(row_name, row_type);
  return service::RegisterFunctionalSource(function_name, "files", "file", {},
                                           xsd::Star(row_type), &functions_);
}

Status DataServicePlatform::LoadDataService(const std::string& xquery_text) {
  ALDSP_ASSIGN_OR_RETURN(xquery::Module module,
                         xquery::ParseModule(xquery_text));
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&functions_, &schemas_, &bag);
  ALDSP_RETURN_NOT_OK(analyzer.AnalyzeModule(module, &functions_));
  if (bag.has_errors()) return bag.FirstError();
  // Register the file's functions as data services, one per namespace
  // prefix (paper §2.1).
  std::set<std::string> prefixes;
  for (const auto& fn : module.functions) {
    size_t colon = fn.name.find(':');
    if (colon != std::string::npos) prefixes.insert(fn.name.substr(0, colon));
  }
  for (const auto& prefix : prefixes) {
    auto svc = services_.BuildService(functions_, prefix);
    if (svc.ok()) ALDSP_RETURN_NOT_OK(services_.Register(std::move(*svc)));
  }
  ClearPlanCache();
  view_cache_.Clear();
  return Status::OK();
}

Result<update::LineageMap> DataServicePlatform::LineageFor(
    const std::string& service_name) {
  const service::DataService* svc = services_.Find(service_name);
  if (svc == nullptr) {
    return Status::NotFound("no such data service: " + service_name);
  }
  if (svc->lineage_provider.empty()) {
    return Status::UpdateError("data service " + service_name +
                               " has no lineage provider (no read method)");
  }
  return update::ComputeLineage(svc->lineage_provider, functions_);
}

Result<update::SubmitReport> DataServicePlatform::Submit(
    const std::string& service_name, const update::DataObject& object,
    const update::SubmitOptions& options) {
  ALDSP_ASSIGN_OR_RETURN(update::LineageMap lineage, LineageFor(service_name));
  update::UpdateEngine engine(&functions_, &adaptors_);
  auto report = engine.Submit(object, lineage, options);
  if (report.ok() && !report->statements.empty()) {
    audit_.Record("update", "", "submit to " + service_name + " touched " +
                                    std::to_string(report->sources_touched.size()) +
                                    " source(s)");
  }
  return report;
}

Status DataServicePlatform::LoadDataServiceWithRecovery(
    const std::string& xquery_text, DiagnosticBag* bag) {
  ALDSP_ASSIGN_OR_RETURN(xquery::Module module,
                         xquery::ParseModule(xquery_text, bag, true));
  compiler::AnalyzeOptions opts;
  opts.recover = true;
  compiler::Analyzer analyzer(&functions_, &schemas_, bag, opts);
  ALDSP_RETURN_NOT_OK(analyzer.AnalyzeModule(module, &functions_));
  ClearPlanCache();
  view_cache_.Clear();
  return Status::OK();
}

Result<std::shared_ptr<const CompiledPlan>> DataServicePlatform::Compile(
    const std::string& query, xquery::ExprPtr expr, uint64_t statement_fp,
    int64_t parse_micros, bool* read_slotted_literal) {
  *read_slotted_literal = false;
  auto plan = std::make_shared<CompiledPlan>();
  plan->text = query;
  plan->statement_fingerprint = statement_fp;
  plan->parse_micros = parse_micros;

  int64_t t1 = NowMicros();
  DiagnosticBag bag;
  compiler::Analyzer analyzer(&functions_, &schemas_, &bag);
  ALDSP_RETURN_NOT_OK(analyzer.Analyze(expr, {}));
  CollectCalledFunctions(expr, functions_, &plan->called_functions);
  int64_t t2 = NowMicros();
  plan->analyze_micros = t2 - t1;

  if (options_.enable_optimizer) {
    optimizer::Optimizer opt(&functions_, &schemas_, &view_cache_,
                             options_.optimizer);
    ALDSP_RETURN_NOT_OK(opt.Optimize(expr));
    *read_slotted_literal = opt.read_slotted_literal();
  }
  int64_t t3 = NowMicros();
  plan->optimize_micros = t3 - t2;

  if (options_.enable_pushdown) {
    ALDSP_RETURN_NOT_OK(
        sql::PushdownRewrite(expr, &functions_, &plan->pushdown));
    *read_slotted_literal |= plan->pushdown.slotted_literals_read > 0;
    DiagnosticBag bag2;
    compiler::Analyzer reanalyzer(&functions_, &schemas_, &bag2);
    ALDSP_RETURN_NOT_OK(reanalyzer.Analyze(expr, {}));
  }
  plan->pushdown_micros = NowMicros() - t3;

  plan->plan = std::move(expr);
  // Fingerprint the optimized tree: join methods and pushdown regions are
  // settled by now, so the hash captures the final plan shape.
  plan->fingerprint = PlanFingerprint(*plan->plan);
  return std::shared_ptr<const CompiledPlan>(plan);
}

void DataServicePlatform::MakeRoomLocked() {
  while (!plan_lru_.empty() && plan_cache_.size() + plan_templates_.size() >=
                                   options_.plan_cache_size) {
    const LruSlot victim = plan_lru_.back();
    plan_lru_.pop_back();
    // Erase by iterator: the key string lives in the node being erased.
    if (victim.is_template) {
      plan_templates_.erase(plan_templates_.find(*victim.key));
    } else {
      plan_cache_.erase(plan_cache_.find(*victim.key));
    }
  }
}

std::shared_ptr<const CompiledPlan> DataServicePlatform::VerifiedTemplate(
    const std::string& shape, const std::string& advice) {
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  auto it = plan_templates_.find(shape);
  if (it == plan_templates_.end()) return nullptr;
  TouchLocked(it->second.lru);
  const PlanTemplate& t = it->second.tmpl;
  if (t.state != PlanTemplate::State::kVerified || t.advice != advice) {
    return nullptr;
  }
  ++plan_cache_rebinds_;
  return t.plan;
}

void DataServicePlatform::LearnTemplate(
    const std::string& shape, std::vector<xml::AtomicValue> literals,
    const std::string& advice, const std::shared_ptr<const CompiledPlan>& plan,
    bool read_slotted_literal) {
  using State = PlanTemplate::State;
  const bool slots_survive =
      !read_slotted_literal && SlotsSurvive(*plan->plan, literals);
  std::shared_ptr<const CompiledPlan> candidate;
  {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    auto it = plan_templates_.find(shape);
    const bool first = it == plan_templates_.end();
    if (first) {
      MakeRoomLocked();
      it = plan_templates_.emplace(shape, CachedTemplate{}).first;
      plan_lru_.push_front({&it->first, /*is_template=*/true});
      it->second.lru = plan_lru_.begin();
    } else {
      TouchLocked(it->second.lru);
    }
    PlanTemplate& t = it->second.tmpl;
    if (t.state == State::kNotRebindable && !first) return;
    if (first || t.advice != advice) {
      // First text of the shape, or the cost model moved since the
      // template was compiled: this plan is the new candidate.
      t.state = slots_survive ? State::kCandidate : State::kNotRebindable;
      t.plan = slots_survive ? plan : nullptr;
      t.literals = std::move(literals);
      t.advice = advice;
      return;
    }
    if (t.state != State::kCandidate) return;
    if (!slots_survive) {
      t.state = State::kNotRebindable;
      t.plan = nullptr;
      return;
    }
    // A slot holding the same value in both texts could hide a literal
    // the compiler derived from it; wait for a text that differs in
    // every slot.
    if (!AllSlotsDiffer(t.literals, literals)) return;
    candidate = t.plan;
  }
  // Verify outside the lock: the candidate read with this text's values
  // must render exactly the plan the full compile produced and hold the
  // same literals everywhere, including the clause keys EXPLAIN does not
  // show.
  CompiledPlan rebound = *candidate;
  rebound.text = plan->text;
  rebound.literals =
      std::make_shared<const xquery::SlotValues>(std::move(literals));
  const bool match =
      RenderPlanSnapshotText(rebound) == RenderPlanSnapshotText(*plan) &&
      LiteralDigest(*rebound.plan, rebound.literals.get()) ==
          LiteralDigest(*plan->plan, nullptr);
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  auto it = plan_templates_.find(shape);
  // Evicted, cleared or replaced while verifying: nothing to update.
  if (it == plan_templates_.end() || it->second.tmpl.plan != candidate) return;
  PlanTemplate& t = it->second.tmpl;
  t.state = match ? State::kVerified : State::kNotRebindable;
  if (!match) t.plan = nullptr;
}

Result<std::shared_ptr<const CompiledPlan>> DataServicePlatform::Prepare(
    const std::string& query, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    auto it = plan_cache_.find(query);
    if (it != plan_cache_.end()) {
      ++plan_cache_hits_;
      TouchLocked(it->second.lru);
      if (cache_hit != nullptr) *cache_hit = true;
      metrics_.AddWindowedCounter("plan_cache.hits");
      return it->second.plan;
    }
    ++plan_cache_misses_;
  }
  metrics_.AddWindowedCounter("plan_cache.misses");

  const int64_t t0 = NowMicros();
  ALDSP_ASSIGN_OR_RETURN(xquery::ExprPtr expr, xquery::ParseExpression(query));
  const int64_t t1 = NowMicros();
  // Statement identity hashes the parsed tree, before analysis and the
  // optimizer can leak compiler decisions into it; with the literals'
  // types it names the statement shape a template serves.
  const uint64_t statement_fp = StatementFingerprint(*expr);
  std::vector<xml::AtomicValue> literals = SlotLiterals(*expr);
  const std::string shape =
      literals.empty() ? std::string() : ShapeKey(statement_fp, literals);
  // The cost-model inputs the optimizer consults: a template serves only
  // texts arriving under the advice it was compiled under.
  const std::string advice = observed_.AdviceSnapshot();

  std::shared_ptr<const CompiledPlan> plan;
  if (std::shared_ptr<const CompiledPlan> tmpl =
          shape.empty() ? nullptr : VerifiedTemplate(shape, advice)) {
    // The rebound plan shares the template's tree and owns only its text
    // and its literal values.
    auto rebound = std::make_shared<CompiledPlan>(*tmpl);
    rebound->text = query;
    rebound->literals =
        std::make_shared<const xquery::SlotValues>(std::move(literals));
    rebound->rebound = true;
    rebound->parse_micros = t1 - t0;
    rebound->analyze_micros = 0;
    rebound->optimize_micros = 0;
    rebound->pushdown_micros = 0;
    rebound->bind_micros = NowMicros() - t1;
    metrics_.AddWindowedCounter("plan_cache.rebinds");
    metrics_.RecordWindowed("compile.parse_micros", rebound->parse_micros);
    metrics_.RecordWindowed("compile.bind_micros", rebound->bind_micros);
    metrics_.RecordWindowed("compile.total_micros",
                            rebound->parse_micros + rebound->bind_micros);
    plan = std::move(rebound);
  } else {
    bool read_slotted_literal = false;
    ALDSP_ASSIGN_OR_RETURN(plan, Compile(query, std::move(expr), statement_fp,
                                         t1 - t0, &read_slotted_literal));
    // Compile-phase micros feed the rolling windows so a compile-time
    // regression shows up in the metrics snapshot without a bench run.
    metrics_.RecordWindowed("compile.parse_micros", plan->parse_micros);
    metrics_.RecordWindowed("compile.analyze_micros", plan->analyze_micros);
    metrics_.RecordWindowed("compile.optimize_micros", plan->optimize_micros);
    metrics_.RecordWindowed("compile.pushdown_micros", plan->pushdown_micros);
    metrics_.RecordWindowed("compile.total_micros",
                            plan->parse_micros + plan->analyze_micros +
                                plan->optimize_micros + plan->pushdown_micros);
    // Plan lifecycle plane: record the (statement, plan-version) pair with
    // the cost-model advice inputs the optimizer consulted and, for a new
    // version, an EXPLAIN snapshot, so a later regression report can show
    // what changed and why the plan flipped.
    plan_history_.RecordCompile(plan->statement_fingerprint, plan->fingerprint,
                                std::string(plan->text.head(120)), advice,
                                [&] { return RenderPlanSnapshotText(*plan); });
    if (!shape.empty()) {
      LearnTemplate(shape, std::move(literals), advice, plan,
                    read_slotted_literal);
    }
  }
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  auto it = plan_cache_.find(query);
  if (it == plan_cache_.end()) {
    MakeRoomLocked();
    it = plan_cache_.emplace(query, CachedPlan{plan, {}}).first;
    plan_lru_.push_front({&it->first, /*is_template=*/false});
    it->second.lru = plan_lru_.begin();
  } else {
    // Another thread compiled the same text meanwhile.
    it->second.plan = plan;
    TouchLocked(it->second.lru);
  }
  return plan;
}

Result<xml::Sequence> DataServicePlatform::Execute(const std::string& query) {
  bool cache_hit = false;
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query, &cache_hit));
  return RunQuery(*plan, cache_hit, nullptr);
}

Result<xml::Sequence> DataServicePlatform::ExecutePlan(
    const CompiledPlan& plan) {
  return RunQuery(plan, /*plan_cache_hit=*/false, nullptr);
}

std::shared_ptr<runtime::QueryTrace> DataServicePlatform::MakeObservedTrace(
    const CompiledPlan& plan) const {
  // A statement an earlier slow run promoted re-executes under a timeline
  // trace so its rendered profile and an openable Chrome trace can be
  // captured; everything else pays only the counters-mode cost.
  if (options_.slow_query_threshold_micros > 0 &&
      slow_queries_.IsPromoted(observability::StatementKey(
          plan.statement_fingerprint, plan.fingerprint))) {
    return std::make_shared<runtime::QueryTrace>(
        runtime::QueryTrace::Mode::kTimeline);
  }
  return std::make_shared<runtime::QueryTrace>(
      runtime::QueryTrace::Mode::kCounters);
}

void DataServicePlatform::FinishObservation(
    const CompiledPlan& plan, const runtime::QueryTrace& trace,
    observability::QueryCompletion* done) {
  using EventKind = runtime::QueryTrace::EventKind;
  observability::QueryCompletion& c = *done;
  auto count = [&](EventKind kind) {
    return static_cast<int32_t>(trace.CountEvents(kind));
  };
  c.sql_pushdowns = count(EventKind::kSql) + count(EventKind::kPPkFetch) +
                    count(EventKind::kCustomPushdown);
  c.source_invocations = count(EventKind::kSourceInvoke);
  c.function_cache_hits = count(EventKind::kCacheHit);
  c.function_cache_misses = count(EventKind::kCacheMiss);
  c.timeouts = count(EventKind::kTimeout);
  c.failovers = count(EventKind::kFailOver);
  c.sources = trace.SourceSetTouched();
  // Wall-time split. Timeline traces yield the exact critical-path
  // attribution; counters mode approximates from the O(1) event-micros
  // tallies (queue wait needs task spans, so it reads 0 there).
  if (trace.has_timeline()) {
    observability::CriticalPathReport cp =
        observability::AnalyzeCriticalPath(trace.BuildTimeline());
    c.source_wait_micros = cp.source_wait_micros;
    c.compute_micros = cp.compute_micros;
    c.queue_wait_micros = cp.queue_wait_micros;
  } else {
    c.source_wait_micros = trace.SumEventMicros(EventKind::kSql) +
                           trace.SumEventMicros(EventKind::kPPkFetch) +
                           trace.SumEventMicros(EventKind::kSourceInvoke) +
                           trace.SumEventMicros(EventKind::kCustomPushdown);
    c.queue_wait_micros = trace.SumEventMicros(EventKind::kTaskWait);
    c.compute_micros = std::max<int64_t>(
        0, c.wall_micros - c.source_wait_micros - c.queue_wait_micros);
  }

  metrics_.RecordWindowed("query.latency_micros", c.wall_micros);
  metrics_.AddWindowedCounter(c.outcome == StatusCode::kOk ? "query.ok"
                                                           : "query.error");
  stat_statements_.Record(c);

  // Plan lifecycle plane: feed the per-(statement, plan-version) latency
  // baseline. Only clean executions count — errors and cancels truncate
  // the run and would poison the baseline comparison. When the latest
  // version's baseline breaches its predecessor's, the sentinel hands
  // back both EXPLAIN snapshots; the server renders the structural diff,
  // publishes the completed event, and audits it.
  if (c.outcome == StatusCode::kOk && c.statement_fingerprint != 0) {
    std::optional<observability::PlanRegressionEvent> regression =
        plan_history_.RecordExecution(c.statement_fingerprint, c.fingerprint,
                                      c.wall_micros);
    if (regression.has_value()) {
      regression->explain_diff = RenderExplainDiff(
          regression->baseline_explain, regression->regressed_explain);
      char detail[256];
      std::snprintf(detail, sizeof(detail),
                    "stmt_fp=%llu plan_fp %llu -> %llu (%s) "
                    "mean %lldus -> %lldus (%.2fx)",
                    static_cast<unsigned long long>(
                        regression->statement_fingerprint),
                    static_cast<unsigned long long>(
                        regression->baseline_plan_fingerprint),
                    static_cast<unsigned long long>(
                        regression->regressed_plan_fingerprint),
                    observability::CompileTriggerName(regression->trigger),
                    static_cast<long long>(regression->baseline_mean_micros),
                    static_cast<long long>(regression->regressed_mean_micros),
                    regression->ratio);
      plan_history_.PublishRegression(std::move(*regression));
      metrics_.AddWindowedCounter("plan_regression.events");
      audit_.Record("plan_regression", c.principal, detail);
    }
  }

  // Per-tenant resource attribution: the same deltas rolled into 1m/5m
  // windows keyed by principal, the admission-control substrate. The
  // series names were built once, when the tenant was interned.
  using M = observability::TenantMetric;
  const observability::Tenant& tenant = c.principal;
  metrics_.AddWindowedCounter(tenant.metric(M::kQueries));
  if (c.error()) metrics_.AddWindowedCounter(tenant.metric(M::kErrors));
  if (c.cancelled()) metrics_.AddWindowedCounter(tenant.metric(M::kCancels));
  if (c.shed()) metrics_.AddWindowedCounter(tenant.metric(M::kSheds));
  metrics_.RecordWindowed(tenant.metric(M::kWallMicros), c.wall_micros);
  metrics_.RecordWindowed(tenant.metric(M::kSourceWaitMicros),
                          c.source_wait_micros);
  metrics_.RecordWindowed(tenant.metric(M::kSourceRoundtrips),
                          c.sql_pushdowns + c.source_invocations);
  metrics_.RecordWindowed(tenant.metric(M::kRows), c.rows_returned);
  if (c.peak_bytes > 0) {
    metrics_.RecordWindowed(tenant.metric(M::kPeakBytes), c.peak_bytes);
  }

  c.seq = exec_audit_.Append(c);  // later sinks can name the audit record
  // Workload capture: the replay driver needs the verbatim text plus the
  // identity fingerprints; everything else is the comparison baseline.
  if (workload_capture_.load(std::memory_order_relaxed)) {
    workload_journal_.Append(c);
  }

  const int64_t threshold = options_.slow_query_threshold_micros;
  if (threshold <= 0 || c.wall_micros < threshold) return;
  if (trace.has_timeline()) {
    // The timeline makes the slow run openable in Perfetto; the second
    // slow run of a promoted statement always has one.
    slow_queries_.Append(
        c, threshold, RenderProfileText(plan, trace),
        RenderProfileJson(plan, trace), RenderChromeTrace(trace));
  } else {
    slow_queries_.Append(c, threshold);  // counters summary; promotes
  }
}

std::shared_ptr<observability::QueryControl>
DataServicePlatform::RegisterExecution(const CompiledPlan& plan,
                                       observability::Tenant tenant) {
  std::shared_ptr<observability::QueryControl> ctl = query_registry_.Register(
      plan.fingerprint, plan.statement_fingerprint, tenant, plan.text);
  ctl->SetMemoryBudget(options_.query_memory_budget_bytes);
  ctl->SetPhase(observability::QueryPhase::kExecuting);
  return ctl;
}

QueryClass DataServicePlatform::ClassifyStatement(
    const CompiledPlan& plan) const {
  int64_t mean = stat_statements_.MeanWallMicrosFor(
      observability::StatementKey(plan.statement_fingerprint,
                                  plan.fingerprint));
  if (mean < 0 && plan.statement_fingerprint != 0) {
    // No cumulative stats yet (fresh server, or the entry was evicted):
    // fall back to the plan-history latency baseline of the active
    // version.
    std::optional<observability::StatementHistory> history =
        plan_history_.Statement(plan.statement_fingerprint);
    if (history.has_value() && !history->versions.empty()) {
      const observability::PlanVersion& v = history->versions.back();
      if (v.calls > 0) mean = static_cast<int64_t>(v.wall.MeanMicros());
    }
  }
  return mean >= admission_.options().analytics_threshold_micros
             ? QueryClass::kAnalytics
             : QueryClass::kInteractive;
}

AdmissionController::Ticket DataServicePlatform::AdmitExecution(
    const CompiledPlan& plan, observability::QueryControl* ctl) {
  AdmissionController::Ticket ticket;
  if (!admission_.enabled()) return ticket;
  const QueryClass cls = ClassifyStatement(plan);
  // Queued queries are already registered: they show in LiveQueries* with
  // phase "queued" and a CancelQuery against them unblocks the wait.
  ctl->SetPhase(observability::QueryPhase::kQueued);
  ticket = admission_.Admit(ctl->tenant.label(), cls, ctl);
  if (ticket.status.ok()) ctl->SetPhase(observability::QueryPhase::kExecuting);
  return ticket;
}

Result<xml::Sequence> DataServicePlatform::RunQuery(
    const CompiledPlan& plan, bool plan_cache_hit,
    const security::Principal* principal, const ItemSink* sink,
    std::shared_ptr<runtime::QueryTrace> trace) {
  // One completion record per execution, refused or run: every
  // observability sink reads it (FinishObservation).
  observability::QueryCompletion done;
  done.fingerprint = plan.fingerprint;
  done.statement_fingerprint = plan.statement_fingerprint;
  done.text = plan.text;
  if (principal != nullptr) done.principal = principal->user;
  done.plan_cache_hit = plan_cache_hit;
  // A rebound plan's phase fields are parse + bind; the template's own
  // compile cost is not this execution's.
  done.compile_micros =
      plan_cache_hit ? 0
                     : plan.parse_micros + plan.analyze_micros +
                           plan.optimize_micros + plan.pushdown_micros +
                           plan.bind_micros;
  // Refused exit (function-ACL denial, shed, cancel while queued): the
  // execution never ran, yet still completes with zero rows and the
  // queue wait as its wall time.
  auto refuse = [&](const Status& refusal, int64_t wait_micros) {
    done.outcome = refusal.code();
    done.wall_micros = wait_micros;
    FinishObservation(plan,
                      runtime::QueryTrace(runtime::QueryTrace::Mode::kCounters),
                      &done);
    return refusal;
  };
  if (principal != nullptr) {
    Status acl = access_control_.CheckFunctionAccess(
        *principal, plan.called_functions, &audit_);
    if (!acl.ok()) {
      done.security_denials = 1;
      return refuse(acl, 0);
    }
  }
  const int64_t arrival_micros = NowMicros();
  std::shared_ptr<observability::QueryControl> ctl =
      RegisterExecution(plan, done.principal);
  // The concurrent serving plane's front door: classify against the
  // statement's cost history and wait for a slot in this tenant's
  // weighted-fair lane. A shed (queue full / queue timeout) or a cancel
  // while queued refuses the execution before it holds any runtime
  // resources — kResourceExhausted / kCancelled, never partial results.
  AdmissionController::Ticket ticket = AdmitExecution(plan, ctl.get());
  if (!ticket.status.ok()) {
    audit_.Record("admission", done.principal,
                  std::string(StatusCodeName(ticket.status.code())) + ": " +
                      ticket.status.message());
    refuse(ticket.status, ticket.wait_micros);
    query_registry_.Unregister(ctl->query_id);
    return ticket.status;
  }
  if (trace == nullptr) trace = MakeObservedTrace(plan);
  // A context copy carries the trace; trace_owner keeps it alive for any
  // evaluation a fn-bea:timeout abandons on a pool thread. The control
  // block rides along the same way (exec/exec_owner), and so do a rebound
  // plan's literal values, which such an evaluation may still read.
  runtime::RuntimeContext ctx = ctx_;
  ctx.trace = trace.get();
  ctx.trace_owner = trace;
  ctx.exec = ctl.get();
  ctx.exec_owner = ctl;
  ctx.literals = plan.literals;
  const int root = trace->BeginSpan("query", plan.text);
  const int64_t t0 = NowMicros();
  // Admission wait: arrival at the execution surface to evaluation start.
  // With admission control off this is registration/trace setup only
  // (near zero); with it on, time queued in the fair lanes lands here, so
  // dashboards built on this window needed no change when queueing
  // appeared.
  metrics_.RecordWindowed("admission.wait_micros",
                          std::max<int64_t>(0, t0 - arrival_micros));
  Result<xml::Sequence> result = xml::Sequence{};
  int64_t returned = 0;
  int64_t security_denials = 0;  // elements redacted
  {
    runtime::QueryTrace::Scope scope(trace.get(), root);
    // Every execution streams: items are produced one at a time, redacted
    // for a principal on the way (fine-grained filtering happens last, so
    // cached plans and cached function results remain user-agnostic,
    // paper §7), counted as progress, and then handed to the caller's
    // sink or collected into the result.
    auto forward = [&](const xml::Item& item) -> Status {
      ++returned;
      ctl->AddRows(1);
      if (sink != nullptr) return (*sink)(item);
      result->push_back(item);
      return Status::OK();
    };
    Status st = runtime::EvaluateStream(
        *plan.plan, ctx, [&](const xml::Item& item) -> Status {
          if (principal == nullptr) return forward(item);
          std::optional<xml::Item> kept = access_control_.FilterItem(
              *principal, item, &audit_, &security_denials);
          return kept.has_value() ? forward(*kept) : Status::OK();
        });
    if (!st.ok()) result = st;
  }
  stats_.row_materializations += trace->RowMaterializations();
  admission_.Release(ticket.cls);
  done.outcome = result.ok() ? StatusCode::kOk : result.status().code();
  done.wall_micros = NowMicros() - t0;
  // A failed collected execution hands the caller no items.
  done.rows_returned = result.ok() || sink != nullptr ? returned : 0;
  // Streamed items are not retained, so their bytes_returned stays 0.
  done.bytes_returned = result.ok() ? xml::SequenceMemoryBytes(*result) : 0;
  done.peak_bytes = ctl->peak_bytes.load(std::memory_order_relaxed);
  done.security_denials = static_cast<int32_t>(security_denials);
  trace->AddSpanMetrics(root, done.rows_returned, done.wall_micros);
  trace->EndSpan(root);
  ctl->SetPhase(observability::QueryPhase::kFinishing);
  // Even a failed run made real source observations worth keeping.
  if (trace->has_timeline()) trace->FeedObservedCost(&observed_);
  FinishObservation(plan, *trace, &done);
  query_registry_.Unregister(ctl->query_id);
  return result;
}

Result<xml::Sequence> DataServicePlatform::CallMethod(
    const std::string& function, const std::vector<std::string>& args,
    const MethodCriteria& criteria) {
  // The method call composes into XQuery text, so the plan cache and the
  // whole compilation pipeline apply to it.
  std::string call = function + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) call += ", ";
    call += args[i];
  }
  call += ")";
  std::string query;
  if (criteria.filter_child.empty() && criteria.sort_child.empty()) {
    query = call;
  } else {
    query = "for $mc_item in " + call + " ";
    if (!criteria.filter_child.empty()) {
      std::string value = criteria.filter_is_string
                              ? "\"" + criteria.filter_value + "\""
                              : criteria.filter_value;
      query += "where $mc_item/" + criteria.filter_child + " " +
               criteria.filter_op + " " + value + " ";
    }
    if (!criteria.sort_child.empty()) {
      query += "order by $mc_item/" + criteria.sort_child +
               (criteria.sort_descending ? " descending " : " ");
    }
    query += "return $mc_item";
  }
  return Execute(query);
}

Result<xml::Sequence> DataServicePlatform::ExecuteAs(
    const std::string& query, const security::Principal& principal) {
  bool cache_hit = false;
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query, &cache_hit));
  return RunQuery(*plan, cache_hit, &principal);
}

Status DataServicePlatform::ExecuteStream(
    const std::string& query,
    const std::function<Status(const xml::Item&)>& sink) {
  bool cache_hit = false;
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query, &cache_hit));
  // The paper's server-side streaming API; remote client APIs stay
  // materialized to keep them stateless.
  return RunQuery(*plan, cache_hit, nullptr, &sink).status();
}

Status DataServicePlatform::ExecuteStreamAs(
    const std::string& query, const security::Principal& principal,
    const std::function<Status(const xml::Item&)>& sink) {
  bool cache_hit = false;
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query, &cache_hit));
  return RunQuery(*plan, cache_hit, &principal, &sink).status();
}

Result<std::string> DataServicePlatform::Explain(const std::string& query) {
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query));
  std::string out = RenderPlanText(*plan, runtime::physical::BuildOptionsFor(ctx_));
  // Serving-plane line: what the admission gate would do with this
  // statement right now, and the memory budget the execution runs under.
  if (admission_.enabled() || options_.query_memory_budget_bytes > 0) {
    out += "admission:";
    if (admission_.enabled()) {
      out += " class=";
      out += QueryClassName(ClassifyStatement(*plan));
      out += " max_concurrent=" +
             std::to_string(admission_.options().max_concurrent_queries);
    }
    if (options_.query_memory_budget_bytes > 0) {
      out += " memory_budget_bytes=" +
             std::to_string(options_.query_memory_budget_bytes);
    }
    out += "\n";
  }
  observability::SnapshotDoc health = SourceHealthDoc();
  if (health.size() != 0) out += observability::RenderText(health);
  return out;
}

Result<std::string> DataServicePlatform::ExplainJson(const std::string& query) {
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query));
  std::string json = RenderPlanJson(*plan, runtime::physical::BuildOptionsFor(ctx_));
  observability::SnapshotDoc health = SourceHealthDoc();
  if (health.size() != 0 && !json.empty() && json.back() == '}') {
    json.pop_back();
    json += ",\"source_health\":";
    observability::AppendJson(&json, health);
    json += "}";
  }
  return json;
}

Result<ProfiledExecution> DataServicePlatform::ExecuteProfiled(
    const std::string& query) {
  bool cache_hit = false;
  ALDSP_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         Prepare(query, &cache_hit));
  ProfiledExecution out;
  out.plan = plan;
  out.trace = std::make_shared<runtime::QueryTrace>(
      runtime::QueryTrace::Mode::kTimeline);
  ALDSP_ASSIGN_OR_RETURN(out.result,
                         RunQuery(*plan, cache_hit, nullptr, nullptr, out.trace));
  return out;
}

Result<std::string> DataServicePlatform::ChromeTraceJson(
    const std::string& query) {
  ALDSP_ASSIGN_OR_RETURN(ProfiledExecution run, ExecuteProfiled(query));
  return RenderChromeTrace(*run.trace);
}

runtime::MetricsRegistry::Snapshot DataServicePlatform::MetricsSnapshot() {
  metrics_.SetCounter("runtime.source_invocations",
                      stats_.source_invocations.load());
  metrics_.SetCounter("runtime.sql_pushdowns", stats_.sql_pushdowns.load());
  metrics_.SetCounter("runtime.join_probe_rows",
                      stats_.join_probe_rows.load());
  metrics_.SetCounter("runtime.ppk_blocks", stats_.ppk_blocks.load());
  metrics_.SetCounter("runtime.async_tasks", stats_.async_tasks.load());
  metrics_.SetCounter("runtime.timeouts_fired", stats_.timeouts_fired.load());
  metrics_.SetCounter("runtime.failovers_fired",
                      stats_.failovers_fired.load());
  metrics_.SetCounter("runtime.group_sort_fallbacks",
                      stats_.group_sort_fallbacks.load());
  metrics_.SetCounter("runtime.streaming_groups",
                      stats_.streaming_groups.load());
  metrics_.SetCounter("runtime.peak_operator_bytes",
                      stats_.peak_operator_bytes.load());
  metrics_.SetCounter("runtime.row_materializations",
                      stats_.row_materializations.load());
  {
    std::lock_guard<std::mutex> lock(plan_cache_mutex_);
    metrics_.SetCounter("plan_cache.hits", plan_cache_hits_);
    metrics_.SetCounter("plan_cache.misses", plan_cache_misses_);
    metrics_.SetCounter("plan_cache.rebinds", plan_cache_rebinds_);
    metrics_.SetCounter("plan_cache.entries",
                        static_cast<int64_t>(plan_cache_.size()));
  }
  metrics_.SetCounter("view_plan_cache.hits", view_cache_.hits());
  metrics_.SetCounter("view_plan_cache.misses", view_cache_.misses());
  metrics_.SetCounter("view_plan_cache.entries",
                      static_cast<int64_t>(view_cache_.size()));
  metrics_.SetCounter("function_cache.hits",
                      function_cache_.stats().hits.load());
  metrics_.SetCounter("function_cache.misses",
                      function_cache_.stats().misses.load());
  metrics_.SetCounter("function_cache.expirations",
                      function_cache_.stats().expirations.load());
  metrics_.SetCounter("function_cache.entries",
                      static_cast<int64_t>(function_cache_.size()));
  metrics_.SetCounter("worker_pool.size", pool_.size());
  metrics_.SetCounter("worker_pool.queue_depth", pool_.queue_depth());
  metrics_.SetCounter("worker_pool.running", pool_.running_tasks());
  // Saturation: running tasks as a percentage of pool threads, clamped to
  // [0, 100] so it reads as a utilization gauge. Inline-stealing waiters
  // running tasks on their own threads can push raw occupancy past the
  // pool size — that overload signal is reported separately as
  // oversubscription_pct (the share *beyond* 100).
  {
    const int64_t raw_pct = pool_.size() > 0
                                ? 100 * pool_.running_tasks() / pool_.size()
                                : 0;
    metrics_.SetCounter("worker_pool.saturation_pct",
                        std::min<int64_t>(100, raw_pct));
    metrics_.SetCounter("worker_pool.oversubscription_pct",
                        std::max<int64_t>(0, raw_pct - 100));
  }
  metrics_.SetCounter("worker_pool.tasks_completed", pool_.tasks_completed());
  metrics_.SetCounter("worker_pool.queue_wait_micros",
                      pool_.total_queue_wait_micros());
  metrics_.SetCounter("worker_pool.run_micros", pool_.total_run_micros());
  metrics_.SetCounter("audit_log.records", exec_audit_.total_appended());
  metrics_.SetCounter("slow_query_log.records",
                      slow_queries_.total_appended());
  metrics_.SetCounter("query_registry.live", query_registry_.live_count());
  metrics_.SetCounter("query_registry.started",
                      query_registry_.total_started());
  metrics_.SetCounter("query_registry.cancel_requests",
                      query_registry_.total_cancel_requests());
  // Concurrency plane: server-wide and per-tenant in-flight gauges with
  // high-water marks, fed by the live-query registry.
  metrics_.SetCounter("server.in_flight", query_registry_.live_count());
  metrics_.SetCounter("server.peak_in_flight", query_registry_.peak_live());
  using M = observability::TenantMetric;
  for (const auto& [label, gauge] : query_registry_.TenantGauges()) {
    const observability::Tenant tenant(label);
    metrics_.SetCounter(tenant.metric(M::kInFlight), gauge.in_flight);
    metrics_.SetCounter(tenant.metric(M::kPeakInFlight), gauge.peak_in_flight);
  }
  // Concurrent serving plane: the admission gate's gauges and shed
  // counters, plus per-tenant quota counters (admitted/queued/shed per
  // lane). Exported even when disabled so dashboards see zeros, not
  // missing series.
  {
    AdmissionSnapshot adm = admission_.Snapshot();
    metrics_.SetCounter("admission.enabled", adm.enabled ? 1 : 0);
    metrics_.SetCounter("admission.max_concurrent",
                        adm.max_concurrent_queries);
    metrics_.SetCounter("admission.running", adm.running);
    metrics_.SetCounter("admission.analytics_running", adm.analytics_running);
    metrics_.SetCounter("admission.depth", adm.queue_depth);
    metrics_.SetCounter("admission.admitted", adm.admitted);
    metrics_.SetCounter("admission.admitted_interactive",
                        adm.admitted_interactive);
    metrics_.SetCounter("admission.admitted_analytics",
                        adm.admitted_analytics);
    metrics_.SetCounter("admission.queued", adm.queued);
    metrics_.SetCounter("admission.shed",
                        adm.shed_queue_full + adm.shed_timeout);
    metrics_.SetCounter("admission.shed_queue_full", adm.shed_queue_full);
    metrics_.SetCounter("admission.shed_timeout", adm.shed_timeout);
    metrics_.SetCounter("admission.cancelled_while_queued",
                        adm.cancelled_while_queued);
    for (const auto& [label, t] : adm.tenants) {
      const observability::Tenant tenant(label);
      metrics_.SetCounter(tenant.metric(M::kAdmitted), t.admitted);
      metrics_.SetCounter(tenant.metric(M::kAdmissionQueued), t.queued);
      metrics_.SetCounter(tenant.metric(M::kAdmissionShed), t.shed);
    }
  }
  metrics_.SetCounter("workload_journal.records",
                      workload_journal_.total_appended());
  metrics_.SetCounter("stat_statements.entries",
                      stat_statements_.entry_count());
  metrics_.SetCounter("stat_statements.evictions",
                      stat_statements_.evictions());
  metrics_.SetCounter("plan_history.statements",
                      plan_history_.statement_count());
  metrics_.SetCounter("plan_history.evictions",
                      plan_history_.statement_evictions());
  metrics_.SetCounter("plan_history.plan_changes",
                      plan_history_.plan_changes_total());
  metrics_.SetCounter("plan_history.regressions",
                      plan_history_.regressions_total());
  return metrics_.GetSnapshot();
}

void DataServicePlatform::ResetStatStatements() { stat_statements_.Reset(); }

bool DataServicePlatform::CancelQuery(uint64_t query_id) {
  const bool found = query_registry_.Cancel(query_id);
  audit_.Record("cancel", "",
                "query #" + std::to_string(query_id) +
                    (found ? "" : " (not running)"));
  return found;
}

observability::ReplayReport DataServicePlatform::ReplayWorkload(
    const std::vector<observability::WorkloadJournalEntry>& entries,
    const observability::ReplayOptions& options) {
  // Suspend capture for the duration: a replay measuring the server must
  // not also append itself to the journal it may be replayed from.
  const bool was_capturing = workload_capture();
  SetWorkloadCapture(false);
  observability::ReplayDriver driver(
      entries, [this](const observability::WorkloadJournalEntry& entry) {
        observability::ReplayExecution exec;
        bool cache_hit = false;
        Result<std::shared_ptr<const CompiledPlan>> plan =
            Prepare(entry.text, &cache_hit);
        if (!plan.ok()) {
          exec.outcome = StatusCodeName(plan.status().code());
          return exec;
        }
        exec.statement_fingerprint = (*plan)->statement_fingerprint;
        exec.plan_fingerprint = (*plan)->fingerprint;
        // Replay under the captured principal so per-tenant attribution
        // and element-level security behave as they did at capture time
        // (roles are not captured, so function ACLs — which key on roles
        // — may refuse what the original run was allowed).
        security::Principal principal;
        principal.user = entry.principal.name();
        const bool as_principal =
            !principal.user.empty() && principal.user != "(anonymous)";
        Result<xml::Sequence> result =
            RunQuery(**plan, cache_hit, as_principal ? &principal : nullptr);
        exec.ok = result.ok();
        exec.shed = !result.ok() &&
                    result.status().code() == StatusCode::kResourceExhausted;
        exec.outcome =
            result.ok() ? "ok" : StatusCodeName(result.status().code());
        exec.rows = result.ok() ? static_cast<int64_t>(result->size()) : 0;
        return exec;
      });
  observability::ReplayReport report = driver.Run(options);
  SetWorkloadCapture(was_capturing);
  audit_.Record("workload_replay", "",
                "ops=" + std::to_string(report.ops) +
                    " errors=" + std::to_string(report.errors) +
                    " sheds=" + std::to_string(report.sheds) +
                    " stmt_mismatches=" +
                    std::to_string(report.fingerprint_mismatches));
  return report;
}

std::string DataServicePlatform::SlowQueryChromeTrace(int64_t seq) {
  for (const auto& r : slow_queries_.Records()) {
    if (r.seq == seq) return r.trace_json;
  }
  return "";
}

observability::SnapshotDoc DataServicePlatform::SourceHealthDoc() const {
  return observability::SourceHealthBoard::Doc(
      health_.GetSnapshot(NowMicros()));
}

std::string DataServicePlatform::MetricsText() {
  return runtime::MetricsRegistry::RenderText(MetricsSnapshot());
}

std::string DataServicePlatform::MetricsJson() {
  return runtime::MetricsRegistry::RenderJson(MetricsSnapshot());
}

std::string DataServicePlatform::MetricsPrometheusText() {
  return runtime::MetricsRegistry::RenderPrometheusText(MetricsSnapshot());
}

void DataServicePlatform::ClearPlanCache() {
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  plan_cache_.clear();
  plan_templates_.clear();
  plan_lru_.clear();
}

std::string DataServicePlatform::Describe() const {
  std::ostringstream os;
  os << "=== ALDSP server ===\n";
  os << "external functions (physical data services):\n";
  for (const auto& fn : functions_.external_functions()) {
    os << "  " << fn.name << "  [" << fn.kind() << " @ "
       << fn.Property("source") << "]";
    if (!fn.Property("table").empty()) os << " table=" << fn.Property("table");
    os << "\n";
  }
  os << "user functions (logical data services):\n";
  for (const auto& fn : functions_.user_functions()) {
    os << "  " << fn.name << "  kind=" << fn.pragma_kind
       << (fn.valid ? "" : "  [INVALID]")
       << (fn.is_primary ? "  [lineage provider]" : "") << "\n";
  }
  os << "deployed data services:\n";
  for (const auto& svc : services_.services()) {
    os << "  " << svc.name << ": " << svc.read_methods.size() << " read, "
       << svc.navigate_methods.size() << " navigate; lineage provider "
       << (svc.lineage_provider.empty() ? "<none>" : svc.lineage_provider)
       << "\n";
  }
  std::lock_guard<std::mutex> lock(plan_cache_mutex_);
  os << "caches: plan " << plan_cache_.size() << " entries ("
     << plan_cache_hits_ << " hits / " << plan_cache_misses_
     << " misses, " << plan_cache_rebinds_ << " rebinds), plan templates "
     << plan_templates_.size() << ", view plans " << view_cache_.size()
     << ", function cache "
     << function_cache_.size() << " entries ("
     << function_cache_.stats().hits.load() << " hits)\n";
  os << "runtime: " << stats_.source_invocations.load()
     << " source invocations, " << stats_.sql_pushdowns.load()
     << " pushed SQL executions, " << stats_.ppk_blocks.load()
     << " PP-k blocks, " << stats_.async_tasks.load() << " async tasks, "
     << stats_.timeouts_fired.load() << " timeouts, "
     << stats_.failovers_fired.load() << " failovers\n";
  os << "audit events: " << audit_.size() << "\n";
  return os.str();
}

}  // namespace aldsp::server
