#ifndef ALDSP_SQL_PUSHDOWN_H_
#define ALDSP_SQL_PUSHDOWN_H_

#include "common/result.h"
#include "compiler/function_table.h"
#include "sql/dialect.h"
#include "xquery/ast.h"

namespace aldsp::sql {

/// Counters describing what a pushdown pass did (read by tests and the
/// ablation benchmarks).
struct PushdownStats {
  int regions_pushed = 0;      // FLWOR regions replaced by SQL queries
  int bare_scans_pushed = 0;   // standalone table scans / filtered scans
  int outer_joins_pushed = 0;  // pattern (c)/(g) LEFT OUTER JOINs
  int exists_pushed = 0;       // pattern (h) quantified expressions
  int ranges_pushed = 0;       // pattern (i) subsequence pagination
  int custom_filters_pushed = 0;  // §9 extensible pushdown (LDAP-like)
  /// Unread columns dropped from the rows a for/join clause ships (its
  /// bare scan and PP-k fetch), summed over clauses.
  int columns_pruned = 0;
  /// Query literals (xquery::Expr::literal_slot >= 0) whose value became
  /// a LIKE pattern or a row range: the plan holds only for those values.
  int slotted_literals_read = 0;
};

/// The SQL pushdown phase (paper §4.3–§4.4). Walks an analyzed and
/// optimized expression tree and replaces maximal single-source regions
/// with kSqlQuery nodes plus an XQuery reconstruction of the original
/// result shape:
///  - select/project/filter over one or more same-source tables,
///    including optimizer-introduced joins            [patterns a, b]
///  - nested correlated row FLWORs -> LEFT OUTER JOIN with a mid-tier
///    pre-clustered regroup                           [pattern c]
///  - if/then/else over pushable values -> CASE       [pattern d]
///  - FLWGOR group-by with aggregates / distinct      [patterns e, f]
///  - correlated count() -> LEFT OUTER JOIN + GROUP BY [pattern g]
///  - some..satisfies -> EXISTS semi-join             [pattern h]
///  - subsequence() over a pushed loop -> row-range pagination,
///    rendered per dialect (Oracle ROWNUM nesting)    [pattern i]
/// Non-pushable subexpressions whose variables are all bound outside the
/// region are evaluated in the XQuery runtime and bound as SQL parameters
/// (paper §4.4). A bare scan or PP-k fetch that a FLWOR clause binds then
/// ships only the columns that FLWOR reads, plus the NOT NULL ones
/// (pattern a's projection for rows that feed a cross-source join). The
/// tree must be re-analyzed afterwards.
Status PushdownRewrite(xquery::ExprPtr& root,
                       const compiler::FunctionTable* functions,
                       PushdownStats* stats = nullptr);

}  // namespace aldsp::sql

#endif  // ALDSP_SQL_PUSHDOWN_H_
