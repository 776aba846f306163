#ifndef ALDSP_RUNTIME_PHYSICAL_BUILDER_H_
#define ALDSP_RUNTIME_PHYSICAL_BUILDER_H_

#include <memory>

#include "runtime/physical/operator.h"

namespace aldsp::runtime::physical {

/// Lowers an analyzed+optimized FLWOR expression into a physical operator
/// tree: SingletonSource, then one operator per clause — ForScan (or
/// SqlRegionScan when the binding expression is a pushed SQL region),
/// LetBind, Filter, one of the four join operators (kAuto resolves to
/// NL/INL on equi-key availability; PP-k without a fetch plan or equi
/// keys degrades the same way the interpreter did), StreamGroupBy (with
/// sort fallback), OrderBy — capped by Return, which evaluates the return
/// expression per tuple and binds it to kResultBinding.
///
/// Planner-time knobs, derived from the RuntimeContext (BuildOptionsFor:
/// the evaluator, and EXPLAIN through the server's context). The defaults
/// build the serial plan.
struct BuildOptions {
  /// Maximum degree of parallelism; <= 1 disables exchange insertion.
  int max_dop = 1;
  /// Rows per TupleBatch (the vectorized runtime's unit of work). Purely
  /// descriptive at build time — execution clamps the RuntimeContext's
  /// knob at Open — but EXPLAIN reports it so plans show their batch
  /// shape. 1 degenerates to row-at-a-time.
  int batch_size = 1024;
};

/// The options of the plan `ctx` executes, so EXPLAIN describes the tree
/// the evaluator runs.
inline BuildOptions BuildOptionsFor(const RuntimeContext& ctx) {
  return BuildOptions{ctx.max_query_dop, ctx.batch_size};
}

/// Pure lowering: no RuntimeContext and no source access, so EXPLAIN can
/// build (and describe) the exact tree that would execute. `flwor` must
/// outlive the returned tree.
///
/// With `opts.max_dop > 1` the builder additionally inserts exchange
/// operators above NL/INL join probe sides and non-leading for-scans
/// whose estimated upstream reaches 64 rows, and fans out independent
/// let groups, when the optimizer's cardinality annotations
/// (Clause::estimated_rows / parallel_group) say the parallelism pays.
std::unique_ptr<PhysicalOperator> BuildPlan(const xquery::Expr& flwor,
                                            const BuildOptions& opts);
std::unique_ptr<PhysicalOperator> BuildPlan(const xquery::Expr& flwor);

}  // namespace aldsp::runtime::physical

#endif  // ALDSP_RUNTIME_PHYSICAL_BUILDER_H_
