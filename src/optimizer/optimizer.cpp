#include "optimizer/optimizer.h"

#include <algorithm>

#include "compiler/analyzer.h"
#include "compiler/builtins.h"
#include "optimizer/expr_utils.h"
#include "xml/node.h"

namespace aldsp::optimizer {

using compiler::Builtin;
using compiler::ExternalFunction;
using compiler::LookupBuiltin;
using compiler::UserFunction;
using xquery::Clause;
using xquery::CloneExpr;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::JoinMethod;
using xsd::XType;

// ----- ViewPlanCache -------------------------------------------------------

xquery::ExprPtr ViewPlanCache::Get(const std::string& function) {
  ExprPtr cached;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(function);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    cached = it->second.body;
  }
  // Cached bodies are never mutated, so the clone runs outside the lock.
  return CloneExpr(cached);
}

void ViewPlanCache::Put(const std::string& function, xquery::ExprPtr body) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(function);
  if (it == entries_.end()) {
    while (entries_.size() >= max_entries_ && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(function);
    it = entries_.emplace(function, Entry{nullptr, lru_.begin()}).first;
  }
  it->second.body = std::move(body);
}

void ViewPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
}

size_t ViewPlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

int64_t ViewPlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t ViewPlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

// ----- Optimizer -----------------------------------------------------------

class Optimizer::Impl {
 public:
  Impl(const compiler::FunctionTable* functions,
       const xsd::SchemaRegistry* schemas, ViewPlanCache* view_cache,
       OptimizerOptions options, std::set<std::string>* in_progress,
       int* rename_serial, bool* read_slotted_literal)
      : functions_(functions),
        schemas_(schemas),
        view_cache_(view_cache),
        options_(std::move(options)),
        in_progress_(in_progress),
        rename_serial_(rename_serial),
        read_slotted_literal_(read_slotted_literal) {}

  // Applies a function's declarative hints (paper §9: hints that survive
  // through layers of views) to the options used when optimizing that
  // function's body.
  static void ApplyHints(const std::map<std::string, std::string>& hints,
                         OptimizerOptions* options) {
    auto it = hints.find("join_method");
    if (it != hints.end()) {
      const std::string& m = it->second;
      if (m == "nl") {
        options->convert_ppk = false;
        options->forced_join_method = JoinMethod::kNestedLoop;
        options->join_hinted = true;
      } else if (m == "inl") {
        options->convert_ppk = false;
        options->forced_join_method = JoinMethod::kIndexNestedLoop;
        options->join_hinted = true;
      } else if (m == "ppk-nl") {
        options->convert_ppk = true;
        options->cross_source_method = JoinMethod::kPPkNestedLoop;
        options->join_hinted = true;
      } else if (m == "ppk-inl") {
        options->convert_ppk = true;
        options->cross_source_method = JoinMethod::kPPkIndexNestedLoop;
        options->join_hinted = true;
      }
    }
    it = hints.find("ppk_k");
    if (it != hints.end()) {
      int k = std::atoi(it->second.c_str());
      if (k > 0) {
        options->ppk_k = k;
        options->ppk_k_hinted = true;
      }
    }
    if (hints.count("no_pushdown_joins") > 0) options->introduce_joins = false;
  }

  Status Optimize(ExprPtr& root,
                  const std::vector<compiler::VarBinding>& env) {
    for (int pass = 0; pass < options_.max_passes; ++pass) {
      bool changed = false;
      if (options_.inline_views) {
        ALDSP_ASSIGN_OR_RETURN(bool c, InlinePass(root, 0));
        changed |= c;
      }
      ALDSP_RETURN_NOT_OK(Reanalyze(root, env));
      ALDSP_ASSIGN_OR_RETURN(bool c2, RulesPass(root));
      changed |= c2;
      if (changed) {
        ALDSP_RETURN_NOT_OK(Reanalyze(root, env));
      } else {
        break;
      }
    }
    // Post-pass annotations, outside the fixpoint loop: they decorate
    // clauses for the physical planner (observed cardinalities, parallel
    // let groups) without rewriting the tree, so they must not feed
    // `changed` or they would pin the loop at max_passes.
    AnnotatePass(root);
    return Status::OK();
  }

  Result<ExprPtr> OptimizedViewBody(const std::string& function) {
    if (view_cache_ != nullptr) {
      ExprPtr cached = view_cache_->Get(function);
      if (cached != nullptr) return cached;
    }
    const UserFunction* fn = functions_->FindUser(function);
    if (fn == nullptr || fn->body == nullptr || !fn->valid) {
      return Status::NotFound("no optimizable view: " + function);
    }
    if (in_progress_->count(function) > 0) {
      // Recursive view: inline as-is without further optimization.
      return CloneExpr(fn->body);
    }
    in_progress_->insert(function);
    ExprPtr body = CloneExpr(fn->body);
    std::vector<compiler::VarBinding> env;
    for (const auto& p : fn->params) env.push_back({p.name, p.type});
    // The view's declarative hints adjust the options for *its* body
    // only; they are baked into the cached partial plan and therefore
    // survive into every query that unfolds the view.
    OptimizerOptions view_options = options_;
    ApplyHints(fn->hints, &view_options);
    // The body numbers its fresh variables from 0 with its own counter:
    // InlinePass renames every binder of an unfolded body from the
    // caller's counter anyway, and a cold view cache must leave that
    // counter where a warm one would, or the first compile of a query
    // names its variables differently from every later one.
    int view_serial = 0;
    Impl sub(functions_, schemas_, view_cache_, view_options, in_progress_,
             &view_serial, read_slotted_literal_);
    Status st = sub.Optimize(body, env);
    in_progress_->erase(function);
    ALDSP_RETURN_NOT_OK(st);
    if (view_cache_ != nullptr) view_cache_->Put(function, CloneExpr(body));
    return body;
  }

 private:
  Status Reanalyze(ExprPtr& root, const std::vector<compiler::VarBinding>& env) {
    DiagnosticBag bag;
    compiler::Analyzer analyzer(functions_, schemas_, &bag);
    Status st = analyzer.Analyze(root, env);
    if (!st.ok()) {
      return Status::OptimizeError("post-rewrite analysis failed: " +
                                   st.message());
    }
    return Status::OK();
  }

  // ----- Planner annotations (post-pass) ---------------------------------

  void AnnotatePass(ExprPtr& e) {
    xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
      if (c) AnnotatePass(c);
    });
    if (e->kind != ExprKind::kFLWOR) return;
    AnnotateCardinalities(*e);
    MarkParallelLets(*e);
  }

  // Stamps for/join clauses whose binding scans a full relational table
  // with the observed row count (§5.4: statistics from earlier runs feed
  // later compilations), so the physical planner knows where an exchange
  // pays for itself.
  void AnnotateCardinalities(Expr& flwor) {
    if (options_.observed == nullptr) return;
    for (auto& cl : flwor.clauses) {
      if (cl.kind != Clause::Kind::kFor && cl.kind != Clause::Kind::kJoin) {
        continue;
      }
      if (cl.expr == nullptr) continue;
      const Expr* binding = cl.expr.get();
      while (binding->kind == ExprKind::kFilter) {
        binding = binding->children[0].get();
      }
      if (binding->kind != ExprKind::kFunctionCall) continue;
      const ExternalFunction* fn = functions_->FindExternal(binding->fn_name);
      if (fn == nullptr || !fn->is_relational()) continue;
      cl.estimated_rows = options_.observed->ObservedRows(
          fn->Property("source"), fn->Property("table"));
    }
  }

  // True if `e` contains a call to any external (source-backed) function —
  // the only lets worth fanning out, since everything else is CPU-cheap.
  bool CallsExternal(Expr& e) const {
    if (e.kind == ExprKind::kFunctionCall &&
        functions_->FindExternal(e.fn_name) != nullptr) {
      return true;
    }
    bool found = false;
    xquery::ForEachChildSlot(e, [&](ExprPtr& c) {
      if (c && !found) found = CallsExternal(*c);
    });
    return found;
  }

  // Marks runs of consecutive lets that each call out to a source and do
  // not reference each other's variables: their source round trips can
  // overlap, so the planner fans them out to the worker pool as a group.
  void MarkParallelLets(Expr& flwor) {
    // Groups marked while optimizing an unfolded view body are numbered
    // from that body's own counter; clearing and re-marking every clause
    // keeps each group id of the final plan unique.
    for (auto& cl : flwor.clauses) cl.parallel_group = -1;
    size_t i = 0;
    while (i < flwor.clauses.size()) {
      if (flwor.clauses[i].kind != Clause::Kind::kLet ||
          flwor.clauses[i].expr == nullptr ||
          !CallsExternal(*flwor.clauses[i].expr)) {
        ++i;
        continue;
      }
      // Extend the run while the next let stays independent of every
      // variable bound earlier in the run.
      size_t j = i + 1;
      std::set<std::string> bound = {flwor.clauses[i].var};
      while (j < flwor.clauses.size()) {
        const Clause& cand = flwor.clauses[j];
        if (cand.kind != Clause::Kind::kLet || cand.expr == nullptr ||
            !CallsExternal(*cand.expr)) {
          break;
        }
        bool independent = true;
        for (const std::string& v : bound) {
          if (IsFreeVar(*cand.expr, v)) {
            independent = false;
            break;
          }
        }
        if (!independent) break;
        bound.insert(cand.var);
        ++j;
      }
      if (j - i >= 2) {
        int group = (*rename_serial_)++;
        for (size_t k = i; k < j; ++k) {
          flwor.clauses[k].parallel_group = group;
        }
      }
      i = j;
    }
  }

  // ----- View unfolding (function inlining), paper §4.2 -----------------

  Result<bool> InlinePass(ExprPtr& e, int depth) {
    if (depth > options_.max_inline_depth) return false;
    bool changed = false;
    Status status = Status::OK();
    xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
      if (!c || !status.ok()) return;
      Result<bool> r = InlinePass(c, depth);
      if (!r.ok()) {
        status = r.status();
        return;
      }
      changed |= r.value();
    });
    ALDSP_RETURN_NOT_OK(status);
    if (e->kind != ExprKind::kFunctionCall) return changed;
    const UserFunction* fn = functions_->FindUser(e->fn_name);
    if (fn == nullptr || fn->body == nullptr || !fn->valid) return changed;
    if (in_progress_->count(e->fn_name) > 0) return changed;  // recursion
    ALDSP_ASSIGN_OR_RETURN(ExprPtr body, OptimizedViewBody(e->fn_name));
    RenameBoundVars(body, rename_serial_);
    // Bind parameters: trivial arguments substitute directly, others
    // become let clauses so they are evaluated once.
    std::vector<Clause> lets;
    for (size_t i = 0; i < fn->params.size(); ++i) {
      const ExprPtr& arg = e->children[i];
      if (arg->kind == ExprKind::kVarRef || arg->kind == ExprKind::kLiteral ||
          arg->kind == ExprKind::kEmptySequence) {
        SubstituteVar(body, fn->params[i].name, arg);
      } else {
        std::string fresh =
            fn->params[i].name + "#" + std::to_string((*rename_serial_)++);
        SubstituteVar(body, fn->params[i].name, xquery::MakeVarRef(fresh));
        Clause let;
        let.kind = Clause::Kind::kLet;
        let.var = fresh;
        let.expr = arg;
        lets.push_back(std::move(let));
      }
    }
    if (lets.empty()) {
      e = body;
    } else if (body->kind == ExprKind::kFLWOR) {
      body->clauses.insert(body->clauses.begin(), lets.begin(), lets.end());
      e = body;
    } else {
      e = xquery::MakeFLWOR(std::move(lets), body, e->loc);
    }
    return true;
  }

  // ----- Local rewrite rules (one bottom-up pass) ------------------------

  Result<bool> RulesPass(ExprPtr& e) {
    bool changed = false;
    Status status = Status::OK();
    xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
      if (!c || !status.ok()) return;
      Result<bool> r = RulesPass(c);
      if (!r.ok()) {
        status = r.status();
        return;
      }
      changed |= r.value();
    });
    ALDSP_RETURN_NOT_OK(status);

    if (options_.fold_constants) changed |= RuleFoldConstants(e);
    if (options_.expand_navigation) changed |= RuleExpandNavigation(e);
    if (options_.simplify_construction) {
      changed |= RuleFlattenSequences(e);
      changed |= RulePushStepIntoFLWOR(e);
      changed |= RuleCtorNavigation(e);
      changed |= RuleDataOnCtor(e);
    }
    if (options_.rewrite_inverses) {
      changed |= RuleCancelInverse(e);
      changed |= RuleInverseComparison(e);
    }
    if (e->kind == ExprKind::kFilter) changed |= RuleFilterToWhere(e);
    if (e->kind == ExprKind::kFLWOR) {
      if (options_.flatten_flwor) changed |= RuleFlattenForBinding(e);
      changed |= RuleSplitWhere(e);
      if (options_.simplify_construction) changed |= RuleNavigateLetCtor(e);
      changed |= RulePlaceWhere(e);
      if (options_.introduce_joins) changed |= RuleIntroduceJoins(e);
      if (options_.convert_ppk) changed |= RuleConvertPPk(e);
      if (options_.forced_join_method != JoinMethod::kAuto) {
        changed |= RuleForceJoinMethod(e);
      }
      if (options_.substitute_lets) {
        changed |= RuleSubstituteTrivialLets(e);
        changed |= RuleSubstituteCtorLets(e);
      }
      if (options_.remove_unused_lets) changed |= RuleRemoveUnusedLets(e);
      if (options_.detect_clustering) changed |= RuleDetectClustering(e);
      changed |= RuleEmptyFLWOR(e);
    }
    return changed;
  }

  // Expands a foreign-key navigation function call into its defining
  // correlated FLWOR:
  //   ns3:getORDER($c)  ==>  for $o in ns3:ORDER()
  //                          where $o/CID eq fn:data($c/CID) return $o
  // which exposes the access to pattern-(c) SQL pushdown (one LEFT OUTER
  // JOIN instead of one navigation query per outer row).
  bool RuleExpandNavigation(ExprPtr& e) {
    if (e->kind != ExprKind::kFunctionCall || e->children.size() != 1) {
      return false;
    }
    const ExternalFunction* nav = functions_->FindExternal(e->fn_name);
    if (nav == nullptr || nav->kind() != "relational-nav") return false;
    // The argument must be cheap to duplicate into the correlation
    // predicate (a variable, or a typematch/data wrapper around one).
    const ExprPtr* arg = &e->children[0];
    while ((*arg)->kind == ExprKind::kTypematch) arg = &(*arg)->children[0];
    if ((*arg)->kind != ExprKind::kVarRef) return false;
    // The table function of the navigated table.
    const ExternalFunction* table_fn = nullptr;
    for (const auto& cand : functions_->external_functions()) {
      if (cand.kind() == "relational" &&
          cand.Property("source") == nav->Property("source") &&
          cand.Property("table") == nav->Property("table")) {
        table_fn = &cand;
      }
    }
    if (table_fn == nullptr) return false;
    std::string var = "nav#" + std::to_string((*rename_serial_)++);
    Clause for_clause;
    for_clause.kind = Clause::Kind::kFor;
    for_clause.var = var;
    for_clause.expr = xquery::MakeFunctionCall(table_fn->name, {}, e->loc);
    Clause where;
    where.kind = Clause::Kind::kWhere;
    where.expr = xquery::MakeComparison(
        "eq", false,
        xquery::MakePathStep(xquery::MakeVarRef(var), nav->Property("column"),
                             false, e->loc),
        xquery::MakeFunctionCall(
            "fn:data",
            {xquery::MakePathStep(CloneExpr(*arg), nav->Property("arg_child"),
                                  false, e->loc)},
            e->loc),
        e->loc);
    e = xquery::MakeFLWOR({std::move(for_clause), std::move(where)},
                          xquery::MakeVarRef(var, e->loc), e->loc);
    return true;
  }

  // Nested sequences splice into their parent (also inside constructors).
  bool RuleFlattenSequences(ExprPtr& e) {
    if (e->kind != ExprKind::kSequence && e->kind != ExprKind::kElementCtor) {
      return false;
    }
    bool has_nested = false;
    for (const auto& c : e->children) {
      if (c->kind == ExprKind::kSequence ||
          (c->kind == ExprKind::kEmptySequence &&
           e->kind == ExprKind::kSequence)) {
        has_nested = true;
      }
    }
    if (!has_nested) return false;
    std::vector<ExprPtr> flat;
    for (auto& c : e->children) {
      if (c->kind == ExprKind::kSequence) {
        for (auto& g : c->children) flat.push_back(g);
      } else if (c->kind == ExprKind::kEmptySequence &&
                 e->kind == ExprKind::kSequence) {
        // drop
      } else {
        flat.push_back(c);
      }
    }
    if (e->kind == ExprKind::kSequence) {
      e = xquery::MakeSequence(std::move(flat), e->loc);
    } else {
      e->children = std::move(flat);
    }
    return true;
  }

  // (FLWOR return R)/N  ->  FLWOR return (R/N): child steps map over each
  // item, so they distribute through the return expression; this exposes
  // constructor-navigation cancellation inside unfolded views. Steps also
  // distribute through sequences and the branches of an if.
  bool RulePushStepIntoFLWOR(ExprPtr& e) {
    if (e->kind != ExprKind::kPathStep) return false;
    ExprPtr input = e->children[0];
    if (input->kind == ExprKind::kFLWOR) {
      ExprPtr ret = input->children[0];
      input->children[0] =
          xquery::MakePathStep(ret, e->step_name, e->is_attribute_step, e->loc);
      e = input;
      return true;
    }
    if (input->kind == ExprKind::kSequence) {
      std::vector<ExprPtr> parts;
      for (auto& c : input->children) {
        parts.push_back(xquery::MakePathStep(c, e->step_name,
                                             e->is_attribute_step, e->loc));
      }
      e = xquery::MakeSequence(std::move(parts), e->loc);
      return true;
    }
    return false;
  }

  // element-constructor navigation cancellation: <E>{a, b, ...}</E>/N
  // keeps only the parts that construct N (paper §4.2's source access
  // elimination: the dropped parts — and their source calls — vanish).
  bool RuleCtorNavigation(ExprPtr& e) {
    if (e->kind != ExprKind::kPathStep) return false;
    ExprPtr input = e->children[0];
    if (input->kind != ExprKind::kElementCtor || input->conditional) {
      return false;
    }
    std::vector<ExprPtr> kept;
    for (const auto& c : input->children) {
      if (e->is_attribute_step) {
        if (c->kind == ExprKind::kAttributeCtor &&
            xml::NameMatches(c->ctor_name, e->step_name)) {
          // attribute constructor value becomes an attribute node; keep
          // the constructor itself.
          kept.push_back(c);
        }
        continue;
      }
      if (c->kind == ExprKind::kAttributeCtor) continue;
      if (c->kind == ExprKind::kElementCtor) {
        if (xml::NameMatches(c->ctor_name, e->step_name)) kept.push_back(c);
        continue;
      }
      // Typed content: keep element-typed parts matching the step, drop
      // atomic parts; bail out if the content type is opaque.
      const xsd::SequenceType& t = c->static_type;
      if (t.is_empty_sequence()) continue;
      if (t.item == nullptr) return false;
      if (t.item->kind() == XType::Kind::kAtomic) continue;
      if (t.item->kind() == XType::Kind::kElement &&
          !t.item->has_any_content()) {
        if (xml::NameMatches(t.item->name(), e->step_name)) kept.push_back(c);
        continue;
      }
      return false;  // opaque content: cannot decide statically
    }
    e = xquery::MakeSequence(std::move(kept), e->loc);
    return true;
  }

  // fn:data(<E>{x}</E>) -> x when x is atomic-typed single content.
  bool RuleDataOnCtor(ExprPtr& e) {
    if (e->kind != ExprKind::kFunctionCall ||
        LookupBuiltin(e->fn_name) != Builtin::kData || e->children.size() != 1) {
      return false;
    }
    const ExprPtr& arg = e->children[0];
    if (arg->kind != ExprKind::kElementCtor || arg->conditional) return false;
    std::vector<ExprPtr> content;
    for (const auto& c : arg->children) {
      if (c->kind != ExprKind::kAttributeCtor) content.push_back(c);
    }
    if (content.size() != 1) return false;
    const xsd::SequenceType& t = content[0]->static_type;
    if (t.item == nullptr || t.item->kind() != XType::Kind::kAtomic ||
        t.allows_many()) {
      return false;
    }
    e = content[0];
    return true;
  }

  // let $v := <E>{...}</E> ... $v/N ...  ->  the content of E's one <N>
  // child in place of $v/N, where $v/N is atomized at once: an operand of
  // a comparison or the argument of fn:data. RuleCtorNavigation and
  // RuleDataOnCtor pick that content exactly as they do for
  // <E>{...}</E>/N, and it must be cheap (no source call), since it now
  // runs at the use as well. RuleSubstituteCtorLets copies only
  // constructors that are cheap as a whole; this copies just the
  // navigated child, so the where of tns:getProfile()[CID eq $id] reads
  // the row variable alone and RulePlaceWhere hoists it above the let
  // that calls getORDER, CREDIT_CARD and getRating.
  bool RuleNavigateLetCtor(ExprPtr& e) {
    bool changed = false;
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      const Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kLet ||
          cl.expr->kind != ExprKind::kElementCtor || cl.expr->conditional) {
        continue;
      }
      // A use must see these names bound as they are at the let.
      std::set<std::string> names = FreeVars(*cl.expr);
      names.insert(cl.var);
      const std::string var = cl.var;
      const ExprPtr ctor = cl.expr;
      auto rewrite = [&](ExprPtr& x) {
        if (x) changed |= NavigateLetCtorUses(x, var, ctor, names);
      };
      size_t j = i + 1;
      for (; j < e->clauses.size() && !Binds(e->clauses[j], names); ++j) {
        Clause& later = e->clauses[j];
        rewrite(later.expr);
        rewrite(later.condition);
        for (auto& [l, r] : later.equi_keys) {
          rewrite(l);
          rewrite(r);
        }
        for (auto& ok : later.order_keys) rewrite(ok.expr);
      }
      if (j == e->clauses.size()) rewrite(e->children[0]);
    }
    return changed;
  }

  bool NavigateLetCtorUses(ExprPtr& x, const std::string& var,
                           const ExprPtr& ctor,
                           const std::set<std::string>& names) {
    bool changed = false;
    auto navigate = [&](ExprPtr& operand) {
      if (operand->kind != ExprKind::kPathStep || operand->is_attribute_step ||
          operand->children[0]->kind != ExprKind::kVarRef ||
          operand->children[0]->var_name != var) {
        return;
      }
      ExprPtr content = NavigatedContent(ctor, operand->step_name);
      if (content == nullptr) return;
      operand = std::move(content);
      changed = true;
    };
    if (x->kind == ExprKind::kComparison) {
      navigate(x->children[0]);
      navigate(x->children[1]);
    } else if (x->kind == ExprKind::kFunctionCall &&
               LookupBuiltin(x->fn_name) == Builtin::kData &&
               x->children.size() == 1) {
      navigate(x->children[0]);
    }
    // Do not descend into a scope that rebinds one of `names`.
    if (x->kind == ExprKind::kFLWOR) {
      for (const auto& cl : x->clauses) {
        if (Binds(cl, names)) return changed;
      }
    }
    if ((x->kind == ExprKind::kQuantified && names.count(x->var_name2) > 0) ||
        (x->kind == ExprKind::kFilter && names.count(".") > 0)) {
      return changed;
    }
    xquery::ForEachChildSlot(*x, [&](ExprPtr& c) {
      if (c) changed |= NavigateLetCtorUses(c, var, ctor, names);
    });
    return changed;
  }

  // What fn:data(ctor/N) reduces to under RuleCtorNavigation and
  // RuleDataOnCtor, or null when they do not reduce it to cheap content
  // of exactly one item. Empty content still builds an <N/> whose
  // atomized value is "", not (): `$v/N ne "x"` holds for it.
  ExprPtr NavigatedContent(const ExprPtr& ctor, const std::string& name) {
    ExprPtr nav = xquery::MakePathStep(ctor, name, false, ctor->loc);
    if (!RuleCtorNavigation(nav)) return nullptr;
    ExprPtr data = xquery::MakeFunctionCall("fn:data", {nav}, ctor->loc);
    if (!RuleDataOnCtor(data) || !IsCheap(*data) ||
        data->static_type.allows_empty()) {
      return nullptr;
    }
    return CloneExpr(data);
  }

  // True if clause `cl` rebinds one of `names`; a group-by rebinds all.
  static bool Binds(const Clause& cl, const std::set<std::string>& names) {
    switch (cl.kind) {
      case Clause::Kind::kFor:
      case Clause::Kind::kJoin:
      case Clause::Kind::kLet:
        return names.count(cl.var) > 0 || names.count(cl.positional_var) > 0;
      case Clause::Kind::kGroupBy:
        return true;
      default:
        return false;
    }
  }

  // g(f(x)) -> x and f(g(x)) -> x for registered inverse pairs (§4.5).
  bool RuleCancelInverse(ExprPtr& e) {
    if (e->kind != ExprKind::kFunctionCall || e->children.size() != 1) {
      return false;
    }
    const ExprPtr& inner = e->children[0];
    if (inner->kind != ExprKind::kFunctionCall || inner->children.size() != 1) {
      return false;
    }
    const std::string& outer_name = e->fn_name;
    const std::string& inner_name = inner->fn_name;
    if (functions_->InverseOf(outer_name) == inner_name ||
        functions_->InverseOf(inner_name) == outer_name) {
      e = inner->children[0];
      return true;
    }
    return false;
  }

  // f(x) op y  ->  x op g(y) when g is f's registered inverse (§4.5);
  // unlocks SQL pushdown of predicates over transformed values.
  bool RuleInverseComparison(ExprPtr& e) {
    if (e->kind != ExprKind::kComparison) return false;
    static const char* kOps[] = {"eq", "ne", "lt", "le", "gt", "ge",
                                 "=",  "!=", "<",  "<=", ">",  ">="};
    bool op_ok = false;
    for (const char* op : kOps) {
      if (e->op == op) {
        op_ok = true;
        break;
      }
    }
    if (!op_ok) return false;
    // f(x) op f(y) -> x op y when f has an inverse (f is then injective
    // and, for the order operators, monotone by the same contract that
    // justifies the paper's single-sided rewrite).
    {
      ExprPtr& l = e->children[0];
      ExprPtr& r = e->children[1];
      if (l->kind == ExprKind::kFunctionCall &&
          r->kind == ExprKind::kFunctionCall && l->fn_name == r->fn_name &&
          l->children.size() == 1 && r->children.size() == 1 &&
          !functions_->InverseOf(l->fn_name).empty()) {
        l = l->children[0];
        r = r->children[0];
        return true;
      }
    }
    for (int side = 0; side < 2; ++side) {
      ExprPtr& call = e->children[side];
      ExprPtr& other = e->children[1 - side];
      if (call->kind != ExprKind::kFunctionCall || call->children.size() != 1) {
        continue;
      }
      std::string inverse = functions_->InverseOf(call->fn_name);
      if (inverse.empty()) continue;
      // Avoid ping-ponging: only rewrite when the other side is not
      // itself a call to the same transformation.
      if (other->kind == ExprKind::kFunctionCall &&
          other->fn_name == call->fn_name) {
        continue;
      }
      ExprPtr arg = call->children[0];
      other = xquery::MakeFunctionCall(inverse, {other}, e->loc);
      call = arg;
      return true;
    }
    return false;
  }

  // The value of literal `c`, read to rewrite the tree. Reading a query
  // literal's value ties the plan to it (Optimizer::read_slotted_literal);
  // its type is part of the statement shape, so reading only the type
  // does not.
  const xml::AtomicValue& ReadValue(const Expr& c) {
    if (c.literal_slot >= 0) *read_slotted_literal_ = true;
    return c.literal;
  }

  bool RuleFoldConstants(ExprPtr& e) {
    auto lit = [](const ExprPtr& c) {
      return c->kind == ExprKind::kLiteral;
    };
    if (e->kind == ExprKind::kIf && lit(e->children[0]) &&
        e->children[0]->literal.type() == xml::AtomicType::kBoolean) {
      e = ReadValue(*e->children[0]).AsBoolean() ? e->children[1]
                                                 : e->children[2];
      return true;
    }
    if (e->kind == ExprKind::kArith && lit(e->children[0]) &&
        lit(e->children[1])) {
      if (e->children[0]->literal.type() == xml::AtomicType::kInteger &&
          e->children[1]->literal.type() == xml::AtomicType::kInteger) {
        const auto& a = ReadValue(*e->children[0]);
        const auto& b = ReadValue(*e->children[1]);
        int64_t x = a.AsInteger();
        int64_t y = b.AsInteger();
        int64_t v;
        if (e->op == "+") {
          v = x + y;
        } else if (e->op == "-") {
          v = x - y;
        } else if (e->op == "*") {
          v = x * y;
        } else if (e->op == "idiv" && y != 0) {
          v = x / y;
        } else if (e->op == "mod" && y != 0) {
          v = x % y;
        } else {
          return false;
        }
        e = xquery::MakeLiteral(xml::AtomicValue::Integer(v), e->loc);
        return true;
      }
      return false;
    }
    if (e->kind == ExprKind::kComparison && lit(e->children[0]) &&
        lit(e->children[1])) {
      auto cmp = ReadValue(*e->children[0]).Compare(ReadValue(*e->children[1]));
      if (!cmp.ok()) return false;
      int c = cmp.value();
      bool v;
      if (e->op == "eq" || e->op == "=") {
        v = c == 0;
      } else if (e->op == "ne" || e->op == "!=") {
        v = c != 0;
      } else if (e->op == "lt" || e->op == "<") {
        v = c < 0;
      } else if (e->op == "le" || e->op == "<=") {
        v = c <= 0;
      } else if (e->op == "gt" || e->op == ">") {
        v = c > 0;
      } else if (e->op == "ge" || e->op == ">=") {
        v = c >= 0;
      } else {
        return false;
      }
      e = xquery::MakeLiteral(xml::AtomicValue::Boolean(v), e->loc);
      return true;
    }
    if (e->kind == ExprKind::kLogical && lit(e->children[0]) &&
        e->children[0]->literal.type() == xml::AtomicType::kBoolean) {
      bool l = ReadValue(*e->children[0]).AsBoolean();
      if (e->op == "and") {
        if (!l) {
          e = xquery::MakeLiteral(xml::AtomicValue::Boolean(false), e->loc);
        } else {
          e = e->children[1];
        }
        return true;
      }
      if (e->op == "or") {
        if (l) {
          e = xquery::MakeLiteral(xml::AtomicValue::Boolean(true), e->loc);
        } else {
          e = e->children[1];
        }
        return true;
      }
    }
    return false;
  }

  // Filter(FLWOR, boolean-pred) -> FLWOR with the predicate as a where
  // clause over the (let-bound) return value. Opens predicate pushdown
  // through unfolded views (the tns:getProfile()[CID eq $id] pattern).
  bool RuleFilterToWhere(ExprPtr& e) {
    ExprPtr input = e->children[0];
    if (input->kind != ExprKind::kFLWOR) return false;
    const ExprPtr& pred = e->children[1];
    // Positional (numeric) predicates select by position; only boolean
    // predicates commute with the FLWOR body.
    xml::AtomicType pt = xsd::AtomizedType(pred->static_type);
    if (pt != xml::AtomicType::kBoolean) return false;
    // Order-by makes the transformation still safe (stable filtering),
    // but a group-by changes what "." denotes only after the return expr;
    // binding the return expr below handles both.
    ExprPtr ret = input->children[0];
    ExprPtr item_var;
    if (ret->kind == ExprKind::kVarRef) {
      item_var = ret;
    } else {
      std::string fresh = "item#" + std::to_string((*rename_serial_)++);
      Clause let;
      let.kind = Clause::Kind::kLet;
      let.var = fresh;
      let.expr = ret;
      input->clauses.push_back(std::move(let));
      item_var = xquery::MakeVarRef(fresh);
      input->children[0] = CloneExpr(item_var);
    }
    ExprPtr where_pred = CloneExpr(pred);
    SubstituteVar(where_pred, ".", item_var);
    Clause where;
    where.kind = Clause::Kind::kWhere;
    where.expr = std::move(where_pred);
    input->clauses.push_back(std::move(where));
    e = input;
    return true;
  }

  // for $x in (FLWOR-without-order-by) ... -> splice the inner clauses.
  bool RuleFlattenForBinding(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kFor || !cl.positional_var.empty()) continue;
      if (!cl.expr || cl.expr->kind != ExprKind::kFLWOR) continue;
      bool has_order = false;
      for (const auto& inner : cl.expr->clauses) {
        if (inner.kind == Clause::Kind::kOrderBy) has_order = true;
      }
      if (has_order) continue;
      ExprPtr inner_flwor = cl.expr;
      Clause new_for;
      new_for.kind = Clause::Kind::kFor;
      new_for.var = cl.var;
      new_for.expr = inner_flwor->children[0];
      std::vector<Clause> merged;
      merged.insert(merged.end(), e->clauses.begin(),
                    e->clauses.begin() + static_cast<ptrdiff_t>(i));
      merged.insert(merged.end(), inner_flwor->clauses.begin(),
                    inner_flwor->clauses.end());
      merged.push_back(std::move(new_for));
      merged.insert(merged.end(),
                    e->clauses.begin() + static_cast<ptrdiff_t>(i) + 1,
                    e->clauses.end());
      e->clauses = std::move(merged);
      return true;
    }
    return false;
  }

  bool RuleSplitWhere(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kWhere) continue;
      if (cl.expr->kind == ExprKind::kLogical && cl.expr->op == "and") {
        Clause second;
        second.kind = Clause::Kind::kWhere;
        second.expr = cl.expr->children[1];
        cl.expr = cl.expr->children[0];
        e->clauses.insert(e->clauses.begin() + static_cast<ptrdiff_t>(i) + 1,
                          std::move(second));
        return true;
      }
    }
    return false;
  }

  // Names bound by clauses [0, upto).
  static std::set<std::string> BoundBefore(const Expr& flwor, size_t upto) {
    std::set<std::string> bound;
    for (size_t i = 0; i < upto && i < flwor.clauses.size(); ++i) {
      const Clause& cl = flwor.clauses[i];
      switch (cl.kind) {
        case Clause::Kind::kFor:
        case Clause::Kind::kJoin:
        case Clause::Kind::kLet:
          bound.insert(cl.var);
          if (!cl.positional_var.empty()) bound.insert(cl.positional_var);
          break;
        case Clause::Kind::kGroupBy:
          for (const auto& gv : cl.group_vars) bound.insert(gv.out_var);
          for (const auto& gk : cl.group_keys) {
            if (!gk.as_var.empty()) bound.insert(gk.as_var);
          }
          break;
        default:
          break;
      }
    }
    return bound;
  }

  // Moves where clauses to the earliest position where their variables
  // are bound (paper §4.3: clauses locally reordered).
  bool RulePlaceWhere(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      if (e->clauses[i].kind != Clause::Kind::kWhere) continue;
      std::set<std::string> needed = FreeVars(*e->clauses[i].expr);
      // Find earliest insertion point: after the last binder of a needed
      // variable, but never across a group-by (scope change).
      size_t earliest = 0;
      for (size_t j = 0; j < i; ++j) {
        const Clause& cl = e->clauses[j];
        bool binds_needed = false;
        switch (cl.kind) {
          case Clause::Kind::kFor:
          case Clause::Kind::kJoin:
          case Clause::Kind::kLet:
            binds_needed = needed.count(cl.var) > 0 ||
                           (!cl.positional_var.empty() &&
                            needed.count(cl.positional_var) > 0);
            break;
          case Clause::Kind::kGroupBy:
            binds_needed = true;  // do not hoist across a group-by
            break;
          case Clause::Kind::kOrderBy:
            binds_needed = true;  // keep filters after an explicit sort
            break;
          default:
            break;
        }
        if (binds_needed) earliest = j + 1;
      }
      if (earliest < i) {
        Clause moved = std::move(e->clauses[i]);
        e->clauses.erase(e->clauses.begin() + static_cast<ptrdiff_t>(i));
        e->clauses.insert(e->clauses.begin() + static_cast<ptrdiff_t>(earliest),
                          std::move(moved));
        return true;
      }
    }
    return false;
  }

  // Rewrites uncorrelated 'for' clauses with equi predicates into join
  // clauses (paper §4.3: "join expressions are introduced for each 'for'
  // clause ... where conditions pushed into joins").
  bool RuleIntroduceJoins(ExprPtr& e) {
    for (size_t i = 1; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kFor || !cl.positional_var.empty()) continue;
      std::set<std::string> before = BoundBefore(*e, i);
      // Uncorrelated: the binding expr references no FLWOR variables.
      bool correlated = false;
      for (const auto& v : FreeVars(*cl.expr)) {
        if (before.count(v) > 0) correlated = true;
      }
      if (correlated) continue;
      // There must be at least one earlier 'for' to join with.
      bool has_prior_for = false;
      for (size_t j = 0; j < i; ++j) {
        if (e->clauses[j].kind == Clause::Kind::kFor ||
            e->clauses[j].kind == Clause::Kind::kJoin) {
          has_prior_for = true;
        }
      }
      if (!has_prior_for) continue;
      // Collect usable equi conjuncts from subsequent where clauses (up
      // to the next group/order clause).
      std::vector<std::pair<ExprPtr, ExprPtr>> equi;
      std::vector<size_t> used_where;
      for (size_t j = i + 1; j < e->clauses.size(); ++j) {
        const Clause& wj = e->clauses[j];
        if (wj.kind == Clause::Kind::kGroupBy ||
            wj.kind == Clause::Kind::kOrderBy) {
          break;
        }
        if (wj.kind != Clause::Kind::kWhere) continue;
        const ExprPtr& pred = wj.expr;
        if (pred->kind != ExprKind::kComparison ||
            (pred->op != "eq" && pred->op != "=")) {
          continue;
        }
        auto side_vars = [&](const ExprPtr& s) { return FreeVars(*s); };
        std::set<std::string> lv = side_vars(pred->children[0]);
        std::set<std::string> rv = side_vars(pred->children[1]);
        auto only_right = [&](const std::set<std::string>& vars) {
          return vars.size() == 1 && vars.count(cl.var) == 1;
        };
        auto only_before = [&](const std::set<std::string>& vars) {
          for (const auto& v : vars) {
            if (before.count(v) == 0) return false;
          }
          return !vars.empty();
        };
        if (only_before(lv) && only_right(rv)) {
          equi.emplace_back(pred->children[0], pred->children[1]);
          used_where.push_back(j);
        } else if (only_before(rv) && only_right(lv)) {
          equi.emplace_back(pred->children[1], pred->children[0]);
          used_where.push_back(j);
        }
      }
      if (equi.empty()) continue;
      cl.kind = Clause::Kind::kJoin;
      cl.equi_keys = std::move(equi);
      cl.method = JoinMethod::kAuto;
      for (auto it = used_where.rbegin(); it != used_where.rend(); ++it) {
        e->clauses.erase(e->clauses.begin() + static_cast<ptrdiff_t>(*it));
      }
      return true;
    }
    return false;
  }

  // Unwraps fn:data around a path step.
  static const Expr* UnwrapData(const Expr& e) {
    if (e.kind == ExprKind::kFunctionCall &&
        LookupBuiltin(e.fn_name) == Builtin::kData && e.children.size() == 1) {
      return e.children[0].get();
    }
    return &e;
  }

  // Converts a join whose right side scans a relational table into a
  // PP-k join with a parameterized disjunctive fetch (paper §4.2).
  bool RuleConvertPPk(ExprPtr& e) {
    for (auto& cl : e->clauses) {
      if (cl.kind != Clause::Kind::kJoin) continue;
      if (cl.method != JoinMethod::kAuto) continue;  // already decided
      if (cl.equi_keys.size() != 1 || cl.ppk_fetch != nullptr) continue;
      if (cl.expr->kind != ExprKind::kFunctionCall) continue;
      const ExternalFunction* fn = functions_->FindExternal(cl.expr->fn_name);
      if (fn == nullptr || !fn->is_relational() || !cl.expr->children.empty()) {
        continue;
      }
      // Right key must be a column path on the join variable.
      const Expr* rkey = UnwrapData(*cl.equi_keys[0].second);
      if (rkey->kind != ExprKind::kPathStep || rkey->is_attribute_step ||
          rkey->children[0]->kind != ExprKind::kVarRef ||
          rkey->children[0]->var_name != cl.var) {
        continue;
      }
      // Column metadata from the function's structural row type.
      if (fn->return_type.item == nullptr ||
          fn->return_type.item->kind() != XType::Kind::kElement) {
        continue;
      }
      const XType& row_type = *fn->return_type.item;
      auto spec = std::make_shared<xquery::PPkFetchSpec>();
      spec->source = fn->Property("source");
      spec->in_alias = "t1";
      spec->in_column = rkey->step_name;
      spec->row_name = row_type.name();
      auto select = std::make_shared<relational::SelectStmt>();
      select->from = {fn->Property("table"), nullptr, "t1"};
      for (const auto& field : row_type.fields()) {
        select->items.push_back(
            {relational::SqlExpr::Column("t1", field.name), field.name});
        spec->columns.push_back({field.name, xsd::AtomizedType(field.type)});
      }
      if (row_type.FindField(spec->in_column) == nullptr) continue;
      // Observed-cost advice (§9 roadmap): against a small observed
      // inner table, a one-shot full fetch with an index join beats
      // parameterized blocks; otherwise adapt the block size to the
      // observed outer cardinality. Explicit hints override advice.
      if (options_.observed != nullptr && !options_.join_hinted) {
        int64_t outer_rows = ObservedOuterRows(*e);
        if (!options_.observed->AdvisePPk(spec->source, fn->Property("table"),
                                          outer_rows, /*default_ppk=*/true)) {
          cl.method = JoinMethod::kIndexNestedLoop;
          return true;
        }
        std::string fetch_source = spec->source;
        spec->select_template = std::move(select);
        cl.ppk_fetch = std::move(spec);
        cl.method = options_.cross_source_method;
        // Source-aware sizing: observed round-trip vs per-row transfer
        // time can push k above the pure-cardinality heuristic.
        cl.ppk_block_size =
            options_.ppk_k_hinted
                ? options_.ppk_k
                : options_.observed->AdvisePPkBlockSize(fetch_source,
                                                        outer_rows);
        return true;
      }
      spec->select_template = std::move(select);
      cl.ppk_fetch = std::move(spec);
      cl.method = options_.cross_source_method;
      cl.ppk_block_size = options_.ppk_k;
      return true;
    }
    return false;
  }

  // Observed cardinality of the FLWOR's leading scan (the join's outer),
  // or -1 when unknown.
  int64_t ObservedOuterRows(const Expr& flwor) const {
    if (options_.observed == nullptr || flwor.clauses.empty()) return -1;
    const Clause& first = flwor.clauses.front();
    if (first.kind != Clause::Kind::kFor && first.kind != Clause::Kind::kJoin) {
      return -1;
    }
    const Expr* binding = first.expr.get();
    while (binding->kind == ExprKind::kFilter) {
      binding = binding->children[0].get();
    }
    if (binding->kind != ExprKind::kFunctionCall) return -1;
    const ExternalFunction* fn = functions_->FindExternal(binding->fn_name);
    if (fn == nullptr || !fn->is_relational()) return -1;
    return options_.observed->ObservedRows(fn->Property("source"),
                                           fn->Property("table"));
  }

  // Applies a hint-forced join method to join clauses still undecided.
  bool RuleForceJoinMethod(ExprPtr& e) {
    bool changed = false;
    for (auto& cl : e->clauses) {
      if (cl.kind != Clause::Kind::kJoin) continue;
      if (cl.method == options_.forced_join_method) continue;
      JoinMethod forced = options_.forced_join_method;
      bool needs_fetch = forced == JoinMethod::kPPkNestedLoop ||
                         forced == JoinMethod::kPPkIndexNestedLoop;
      if (needs_fetch && cl.ppk_fetch == nullptr) continue;
      if (!needs_fetch) cl.ppk_fetch.reset();
      cl.method = forced;
      changed = true;
    }
    return changed;
  }

  bool RuleSubstituteTrivialLets(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kLet) continue;
      bool trivial = cl.expr->kind == ExprKind::kVarRef ||
                     cl.expr->kind == ExprKind::kLiteral ||
                     cl.expr->kind == ExprKind::kEmptySequence;
      int uses = 0;
      for (size_t j = i + 1; j < e->clauses.size(); ++j) {
        const Clause& later = e->clauses[j];
        if (later.expr) uses += CountVarUses(*later.expr, cl.var);
        if (later.condition) uses += CountVarUses(*later.condition, cl.var);
        for (const auto& [l, r] : later.equi_keys) {
          uses += CountVarUses(*l, cl.var) + CountVarUses(*r, cl.var);
        }
        for (const auto& gk : later.group_keys) {
          uses += CountVarUses(*gk.expr, cl.var);
        }
        for (const auto& gv : later.group_vars) {
          if (gv.in_var == cl.var) uses += 2;  // cannot substitute into
        }
        for (const auto& ok : later.order_keys) {
          uses += CountVarUses(*ok.expr, cl.var);
        }
      }
      uses += CountVarUses(*e->children[0], cl.var);
      bool single_use = uses == 1;
      if (!trivial && !single_use) continue;
      if (!trivial) {
        // Substituting a single-use non-trivial let is safe (evaluated at
        // most once either way) unless it is consumed by a group clause.
        bool grouped = false;
        for (size_t j = i + 1; j < e->clauses.size(); ++j) {
          for (const auto& gv : e->clauses[j].group_vars) {
            if (gv.in_var == cl.var) grouped = true;
          }
        }
        if (grouped) continue;
      }
      ExprPtr value = cl.expr;
      std::string name = cl.var;
      e->clauses.erase(e->clauses.begin() + static_cast<ptrdiff_t>(i));
      for (size_t j = i; j < e->clauses.size(); ++j) {
        Clause& later = e->clauses[j];
        SubstituteVar(later.expr, name, value);
        SubstituteVar(later.condition, name, value);
        for (auto& [l, r] : later.equi_keys) {
          SubstituteVar(l, name, value);
          SubstituteVar(r, name, value);
        }
        for (auto& gk : later.group_keys) SubstituteVar(gk.expr, name, value);
        for (auto& ok : later.order_keys) SubstituteVar(ok.expr, name, value);
        if (value->kind == ExprKind::kVarRef) {
          for (auto& gv : later.group_vars) {
            if (gv.in_var == name) gv.in_var = value->var_name;
          }
        }
      }
      SubstituteVar(e->children[0], name, value);
      return true;
    }
    return false;
  }

  // True for expressions that are cheap to duplicate: no source access,
  // no FLWOR re-evaluation.
  static bool IsCheap(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
      case ExprKind::kVarRef:
      case ExprKind::kEmptySequence:
        return true;
      case ExprKind::kPathStep:
      case ExprKind::kSequence:
      case ExprKind::kElementCtor:
      case ExprKind::kAttributeCtor:
      case ExprKind::kComparison:
      case ExprKind::kArith:
      case ExprKind::kLogical:
      case ExprKind::kIf:
      case ExprKind::kCastAs: {
        for (const auto& c : e.children) {
          if (c && !IsCheap(*c)) return false;
        }
        return true;
      }
      case ExprKind::kFunctionCall: {
        // fn:data over cheap content is cheap.
        if (LookupBuiltin(e.fn_name) != Builtin::kData) return false;
        return e.children.size() == 1 && IsCheap(*e.children[0]);
      }
      default:
        return false;
    }
  }

  // let $v := <ctor over cheap content> ... -> substitute the constructor
  // into its uses (unnesting, paper §4.2). Duplicating cheap construction
  // unlocks navigation cancellation and predicate pushdown through
  // unfolded views (the tns:getProfile()[CID eq $id] pipeline).
  bool RuleSubstituteCtorLets(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kLet) continue;
      if (cl.expr->kind != ExprKind::kElementCtor || !IsCheap(*cl.expr)) {
        continue;
      }
      // Not substitutable into group clauses.
      bool grouped = false;
      for (size_t j = i + 1; j < e->clauses.size(); ++j) {
        for (const auto& gv : e->clauses[j].group_vars) {
          if (gv.in_var == cl.var) grouped = true;
        }
      }
      if (grouped) continue;
      ExprPtr value = cl.expr;
      std::string name = cl.var;
      e->clauses.erase(e->clauses.begin() + static_cast<ptrdiff_t>(i));
      for (size_t j = i; j < e->clauses.size(); ++j) {
        Clause& later = e->clauses[j];
        SubstituteVar(later.expr, name, value);
        SubstituteVar(later.condition, name, value);
        for (auto& [l, r] : later.equi_keys) {
          SubstituteVar(l, name, value);
          SubstituteVar(r, name, value);
        }
        for (auto& gk : later.group_keys) SubstituteVar(gk.expr, name, value);
        for (auto& ok : later.order_keys) SubstituteVar(ok.expr, name, value);
      }
      SubstituteVar(e->children[0], name, value);
      return true;
    }
    return false;
  }

  bool RuleRemoveUnusedLets(ExprPtr& e) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      const Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kLet) continue;
      int uses = 0;
      for (size_t j = i + 1; j < e->clauses.size(); ++j) {
        const Clause& later = e->clauses[j];
        if (later.expr) uses += CountVarUses(*later.expr, cl.var);
        if (later.condition) uses += CountVarUses(*later.condition, cl.var);
        for (const auto& [l, r] : later.equi_keys) {
          uses += CountVarUses(*l, cl.var) + CountVarUses(*r, cl.var);
        }
        for (const auto& gk : later.group_keys) {
          uses += CountVarUses(*gk.expr, cl.var);
        }
        for (const auto& gv : later.group_vars) {
          if (gv.in_var == cl.var) ++uses;
        }
        for (const auto& ok : later.order_keys) {
          uses += CountVarUses(*ok.expr, cl.var);
        }
      }
      uses += CountVarUses(*e->children[0], cl.var);
      if (uses == 0) {
        e->clauses.erase(e->clauses.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  // Marks group-by clauses whose input is provably clustered on the
  // grouping keys, enabling the constant-memory streaming group operator
  // (paper §4.2). Sound criterion in this engine: the keys include a
  // primary-key column path over the FLWOR's first scan variable, whose
  // binding is a relational table function (rows unique and delivered in
  // stable order; for/join pipelining keeps the stream clustered by every
  // prefix variable), with no reordering clause in between.
  bool RuleDetectClustering(ExprPtr& e) {
    if (e->clauses.empty()) return false;
    const Clause& first = e->clauses.front();
    if (first.kind != Clause::Kind::kFor && first.kind != Clause::Kind::kJoin) {
      return false;
    }
    if (first.expr->kind != ExprKind::kFunctionCall) return false;
    const ExternalFunction* fn = functions_->FindExternal(first.expr->fn_name);
    if (fn == nullptr || !fn->is_relational()) return false;
    std::string pk = fn->Property("primary_key");
    if (pk.empty() || pk.find(',') != std::string::npos) return false;
    bool changed = false;
    for (size_t i = 1; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      if (cl.kind == Clause::Kind::kOrderBy || cl.kind == Clause::Kind::kGroupBy) {
        if (cl.kind == Clause::Kind::kGroupBy && !cl.pre_clustered) {
          bool has_pk_key = false;
          bool keys_over_first = true;
          for (const auto& gk : cl.group_keys) {
            const Expr* key = UnwrapData(*gk.expr);
            std::set<std::string> vars = FreeVars(*gk.expr);
            if (!(vars.size() == 1 && vars.count(first.var) == 1)) {
              keys_over_first = false;
              break;
            }
            if (key->kind == ExprKind::kPathStep && !key->is_attribute_step &&
                key->children[0]->kind == ExprKind::kVarRef &&
                key->children[0]->var_name == first.var &&
                key->step_name == pk) {
              has_pk_key = true;
            }
          }
          if (keys_over_first && has_pk_key) {
            cl.pre_clustered = true;
            changed = true;
          }
        }
        break;  // anything past a reordering clause is out of scope
      }
    }
    return changed;
  }

  // A FLWOR whose where clause is constant-false returns ().
  bool RuleEmptyFLWOR(ExprPtr& e) {
    for (auto it = e->clauses.begin(); it != e->clauses.end(); ++it) {
      if (it->kind != Clause::Kind::kWhere) continue;
      if (it->expr->kind == ExprKind::kLiteral &&
          it->expr->literal.type() == xml::AtomicType::kBoolean) {
        if (!ReadValue(*it->expr).AsBoolean()) {
          e = xquery::MakeEmptySequence(e->loc);
          return true;
        }
        e->clauses.erase(it);
        return true;
      }
    }
    return false;
  }

  const compiler::FunctionTable* functions_;
  const xsd::SchemaRegistry* schemas_;
  ViewPlanCache* view_cache_;
  OptimizerOptions options_;
  std::set<std::string>* in_progress_;
  int* rename_serial_;
  bool* read_slotted_literal_;
};

Optimizer::Optimizer(const compiler::FunctionTable* functions,
                     const xsd::SchemaRegistry* schemas,
                     ViewPlanCache* view_cache, OptimizerOptions options)
    : functions_(functions),
      schemas_(schemas),
      view_cache_(view_cache),
      options_(options) {}

Status Optimizer::Optimize(xquery::ExprPtr& root) {
  std::set<std::string> in_progress;
  int rename_serial = 0;
  read_slotted_literal_ = false;
  Impl impl(functions_, schemas_, view_cache_, options_, &in_progress,
            &rename_serial, &read_slotted_literal_);
  return impl.Optimize(root, {});
}

Result<xquery::ExprPtr> Optimizer::OptimizedViewBody(
    const std::string& function) {
  std::set<std::string> in_progress;
  int rename_serial = 0;
  Impl impl(functions_, schemas_, view_cache_, options_, &in_progress,
            &rename_serial, &read_slotted_literal_);
  return impl.OptimizedViewBody(function);
}

}  // namespace aldsp::optimizer
