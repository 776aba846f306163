#ifndef ALDSP_RELATIONAL_SQL_AST_H_
#define ALDSP_RELATIONAL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/cell.h"

namespace aldsp::relational {

struct SqlExpr;
struct SelectStmt;
using SqlExprPtr = std::shared_ptr<SqlExpr>;
using SelectPtr = std::shared_ptr<SelectStmt>;

/// Scalar SQL functions pushable by ALDSP (paper §4.4 lists string
/// functions, numeric/date arithmetic, comparisons, aggregates, ...).
enum class SqlFunc {
  kUpper,
  kLower,
  kSubstr,   // SUBSTR(s, start[, len]) — 1-based
  kLength,
  kConcat,
  kAbs,
  kMod,
};

enum class SqlAgg { kCountStar, kCount, kSum, kAvg, kMin, kMax };

/// A scalar SQL expression.
struct SqlExpr {
  enum class Kind {
    kColumn,     // alias.column
    kLiteral,    // constant (possibly NULL)
    kParam,      // ? parameter, bound at execution time (PP-k, ext. vars)
    kBinary,     // op in {=,<>,<,<=,>,>=,+,-,*,/,AND,OR}
    kNot,
    kIsNull,     // IS [NOT] NULL via `negated`
    kCase,       // searched CASE
    kFunc,       // scalar function
    kAggregate,  // aggregate (only valid in grouped selects)
    kInList,     // expr IN (e1, e2, ...) — the PP-k disjunctive form
    kExists,     // EXISTS (subquery), possibly correlated
    kLike,       // expr LIKE 'pattern' ESCAPE '\'
  };

  Kind kind;

  // kColumn
  std::string table_alias;
  std::string column;

  // kLiteral
  Cell literal;
  /// Slot of the query literal this value was translated from (see
  /// xquery::Expr::literal_slot), or -1. Read through LiteralCell.
  int literal_slot = -1;

  // kParam
  int param_index = -1;

  // kBinary / kNot / kIsNull / kFunc / kInList arguments
  std::string op;  // binary operator token; LIKE pattern for kLike
  std::vector<SqlExprPtr> args;
  bool negated = false;  // IS NOT NULL, NOT IN

  // kCase: whens[i] is (condition, result); args holds else at the end if
  // `has_else`.
  std::vector<std::pair<SqlExprPtr, SqlExprPtr>> whens;
  SqlExprPtr else_expr;

  // kFunc / kAggregate
  SqlFunc func = SqlFunc::kUpper;
  SqlAgg agg = SqlAgg::kCountStar;
  bool distinct = false;

  // kExists
  SelectPtr subquery;

  static SqlExprPtr Column(std::string alias, std::string column);
  static SqlExprPtr Literal(Cell value);
  static SqlExprPtr Param(int index);
  static SqlExprPtr Binary(std::string op, SqlExprPtr lhs, SqlExprPtr rhs);
  static SqlExprPtr Not(SqlExprPtr arg);
  static SqlExprPtr IsNull(SqlExprPtr arg, bool negated = false);
  static SqlExprPtr Case(std::vector<std::pair<SqlExprPtr, SqlExprPtr>> whens,
                         SqlExprPtr else_expr);
  static SqlExprPtr Func(SqlFunc f, std::vector<SqlExprPtr> args);
  static SqlExprPtr Aggregate(SqlAgg agg, SqlExprPtr arg, bool distinct = false);
  static SqlExprPtr InList(SqlExprPtr probe, std::vector<SqlExprPtr> values,
                           bool negated = false);
  static SqlExprPtr Exists(SelectPtr subquery);
  /// `pattern` uses SQL wildcards (% and _) with '\' as escape.
  static SqlExprPtr Like(SqlExprPtr input, std::string pattern);

  /// Deep copy.
  SqlExprPtr Clone() const;
};

/// FROM-clause item: a base table or a derived table (subselect).
struct TableRef {
  std::string table_name;  // empty if derived
  SelectPtr derived;       // non-null if derived table
  std::string alias;
};

enum class JoinKind { kInner, kLeftOuter };

struct JoinClause {
  JoinKind kind = JoinKind::kInner;
  TableRef right;
  SqlExprPtr condition;
};

struct SelectItem {
  SqlExprPtr expr;
  std::string output_name;  // "c1", "c2", ... in generated SQL
};

struct OrderItem {
  SqlExprPtr expr;
  bool descending = false;
};

/// A (single-block) SELECT statement, rich enough for the paper's pushdown
/// patterns (a)-(i): joins, outer joins, CASE, GROUP BY + aggregates,
/// DISTINCT, EXISTS, ORDER BY and row-range pagination.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  SqlExprPtr where;
  std::vector<SqlExprPtr> group_by;
  SqlExprPtr having;
  std::vector<OrderItem> order_by;
  /// Row range [start, start+count) with 1-based start; -1 means unbounded.
  /// Rendered per-dialect (Oracle ROWNUM nesting per Table 2(i)).
  int64_t range_start = -1;
  int64_t range_count = -1;

  SelectPtr Clone() const;
};

/// The projection `alias."C" AS C` of each of `columns`, in order: the one
/// SELECT-list builder behind the adaptor's table reads, pushdown's bare
/// scans and PP-k fetch templates. Column pruning passes the kept columns.
std::vector<SelectItem> ColumnItems(const std::string& alias,
                                    const std::vector<std::string>& columns);

/// UPDATE t SET col = expr, ... WHERE cond — produced by the update
/// decomposition (paper §6); optimistic-concurrency checks land in `where`.
struct UpdateStmt {
  std::string table_name;
  std::vector<std::pair<std::string, SqlExprPtr>> assignments;
  SqlExprPtr where;
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::string> columns;
  std::vector<SqlExprPtr> values;
};

struct DeleteStmt {
  std::string table_name;
  SqlExprPtr where;
};

/// The cell literal `e` holds in a statement executing with `slots`, the
/// literal values of the query text it serves (xquery::SlotValues): the
/// slot's value when there are values and `e` is slotted, else
/// `e.literal`.
Cell LiteralCell(const SqlExpr& e, const std::vector<xml::AtomicValue>* slots);

/// Debug rendering (dialect-neutral), with slotted literals read from
/// `slots` (see LiteralCell); the per-vendor writers live in
/// src/sql/dialect.h.
std::string DebugString(const SqlExpr& expr,
                        const std::vector<xml::AtomicValue>* slots = nullptr);
std::string DebugString(const SelectStmt& stmt,
                        const std::vector<xml::AtomicValue>* slots = nullptr);

}  // namespace aldsp::relational

#endif  // ALDSP_RELATIONAL_SQL_AST_H_
