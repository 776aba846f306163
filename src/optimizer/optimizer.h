#ifndef ALDSP_OPTIMIZER_OPTIMIZER_H_
#define ALDSP_OPTIMIZER_OPTIMIZER_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/result.h"
#include "compiler/function_table.h"
#include "runtime/observed_cost.h"
#include "xquery/ast.h"
#include "xsd/types.h"

namespace aldsp::optimizer {

/// Optimizer tuning knobs. Every rewrite can be disabled individually so
/// the ablation benchmarks can isolate its contribution.
struct OptimizerOptions {
  bool inline_views = true;            // view unfolding (paper §4.2)
  bool flatten_flwor = true;           // unnesting after inlining
  bool simplify_construction = true;   // source-access elimination (§4.2)
  bool substitute_lets = true;
  bool remove_unused_lets = true;
  bool introduce_joins = true;         // §4.3: joins for 'for' clauses
  /// Expands FK navigation functions into correlated FLWORs. Off by
  /// default: without SQL pushdown the expansion trades one keyed
  /// navigation query per row for one full scan per row. The pushdown
  /// phase recognizes navigation calls itself (and converts them to
  /// pattern-(c) LEFT OUTER JOINs), rolling back automatically when the
  /// region cannot push.
  bool expand_navigation = false;
  bool convert_ppk = true;             // §4.2: PP-k for relational right sides
  bool rewrite_inverses = true;        // §4.5
  bool fold_constants = true;
  bool detect_clustering = true;       // §4.2: streaming group-by
  /// Method used for cross-source joins against relational right sides.
  xquery::JoinMethod cross_source_method =
      xquery::JoinMethod::kPPkIndexNestedLoop;
  int ppk_k = 20;  // the paper's empirically chosen default block size
  int max_inline_depth = 8;
  int max_passes = 12;
  /// Set by declarative hints: forces every introduced join clause to the
  /// given method (kAuto = no forcing).
  xquery::JoinMethod forced_join_method = xquery::JoinMethod::kAuto;
  /// Set by hints: join_method / ppk_k were explicitly requested, so
  /// observed-cost advice must not override them.
  bool join_hinted = false;
  bool ppk_k_hinted = false;
  /// When set, cross-source join decisions consult runtime observations
  /// (the paper's §9 observed-cost roadmap): a full-fetch index join is
  /// chosen over PP-k when the observed outer cardinality approaches the
  /// observed inner table size, and the PP-k block size adapts to the
  /// outer cardinality.
  const runtime::ObservedCostModel* observed = nullptr;
};

/// Cache of partially optimized view plans (paper §4.2): the
/// query-independent part of view optimization runs once per function and
/// is reused by every query that unfolds the view. LRU-bounded and safe to
/// share across concurrently compiling threads.
class ViewPlanCache {
 public:
  explicit ViewPlanCache(size_t max_entries = 256)
      : max_entries_(max_entries) {}

  /// Returns a private clone of the cached plan, or null on miss.
  xquery::ExprPtr Get(const std::string& function);
  void Put(const std::string& function, xquery::ExprPtr body);
  void Clear();
  size_t size() const;

  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Entry {
    xquery::ExprPtr body;
    std::list<std::string>::iterator lru;  // position in lru_
  };

  mutable std::mutex mutex_;
  size_t max_entries_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // most recently used first
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// The rule-based ALDSP query optimizer (paper §4.2–§4.3, §4.5). Rewrites
/// an analyzed expression tree in place: unfolds views, eliminates
/// construction that is immediately navigated away (so unused source
/// accesses disappear), splits and re-places predicates, introduces join
/// clauses for 'for' clauses, converts relational-right cross-source
/// joins to PP-k, applies inverse-function transformations, and marks
/// group-by clauses whose input arrives pre-clustered.
class Optimizer {
 public:
  Optimizer(const compiler::FunctionTable* functions,
            const xsd::SchemaRegistry* schemas,
            ViewPlanCache* view_cache = nullptr, OptimizerOptions options = {});

  /// Optimizes a closed (no free variables) query expression.
  Status Optimize(xquery::ExprPtr& root);

  /// Runs the view sub-optimizer for one function and returns the
  /// partially optimized body (cached). Exposed for tests/benchmarks.
  Result<xquery::ExprPtr> OptimizedViewBody(const std::string& function);

  const OptimizerOptions& options() const { return options_; }

  /// True when the last Optimize rewrote the tree on the value of a query
  /// literal (one with an Expr::literal_slot), e.g. folded a constant: the
  /// plan then holds only for that literal value.
  bool read_slotted_literal() const { return read_slotted_literal_; }

 private:
  class Impl;

  const compiler::FunctionTable* functions_;
  const xsd::SchemaRegistry* schemas_;
  ViewPlanCache* view_cache_;
  OptimizerOptions options_;
  bool read_slotted_literal_ = false;
};

}  // namespace aldsp::optimizer

#endif  // ALDSP_OPTIMIZER_OPTIMIZER_H_
