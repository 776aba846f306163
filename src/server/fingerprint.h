#ifndef ALDSP_SERVER_FINGERPRINT_H_
#define ALDSP_SERVER_FINGERPRINT_H_

#include <cstdint>

#include "xquery/ast.h"

namespace aldsp::server {

/// Statement identity is split from plan version (pg_stat_statements
/// crossed with a plan-change log):
///
///  - StatementFingerprint answers "which statement is this?". It hashes
///    the normalized *parsed* AST — clause structure, bound variables,
///    path steps, function names, operators, cast targets, arities — with
///    literal values stripped to "?". Two executions of the same
///    statement with different literals share it, and it stays stable
///    when the optimizer picks a different join method, pushdown shape,
///    or PP-k configuration for the same source text.
///
///  - PlanFingerprint answers "which plan shape did this compile pick?".
///    It hashes the *optimized* expression tree, with FLWOR subtrees
///    hashed through the same serial physical lowering EXPLAIN renders —
///    so it covers operator kinds, join methods, sources, pushed SQL
///    structure and PP-k fetch shapes (literals still stripped). Changing
///    the join method, a source, or the pushdown shape changes it.
///
/// One statement fingerprint therefore maps to a history of plan
/// fingerprints over time as the ObservedCostModel adapts; PlanHistory
/// (src/observability/plan_history.h) records that mapping. Both hashes
/// are computed once per compile and stored in CompiledPlan, so a
/// plan-cache round trip trivially preserves them, and a plan rebound to
/// new literals copies them from its template.
uint64_t PlanFingerprint(const xquery::Expr& root);

/// FNV-1a over the normalized parsed AST (see above). Must be computed
/// before analysis and optimization rewrite the tree, or compiler
/// decisions leak into identity. Together with the literals' atomic types
/// it keys the plan templates Prepare rebinds.
uint64_t StatementFingerprint(const xquery::Expr& root);

}  // namespace aldsp::server

#endif  // ALDSP_SERVER_FINGERPRINT_H_
