#include "server/fingerprint.h"

#include <string_view>
#include <vector>

#include "relational/sql_ast.h"
#include "runtime/physical/builder.h"
#include "runtime/physical/operator.h"

namespace aldsp::server {

namespace {

using xquery::Expr;
using xquery::ExprKind;

// FNV-1a, same constants as ExecutionAuditLog::HashQuery. The running
// hash is threaded explicitly so the walk order is the canonical form.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, std::string_view s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= kFnvPrime;
  }
  // Separator so {"ab","c"} and {"a","bc"} differ.
  *h ^= 0xff;
  *h *= kFnvPrime;
}

void Mix(uint64_t* h, int64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= static_cast<unsigned char>(v >> (i * 8));
    *h *= kFnvPrime;
  }
}

void MixSql(uint64_t* h, const relational::SqlExpr& e);

void MixSqlSelect(uint64_t* h, const relational::SelectStmt& s) {
  Mix(h, "select");
  Mix(h, static_cast<int64_t>(s.distinct));
  for (const auto& item : s.items) {
    Mix(h, "item");
    if (item.expr) MixSql(h, *item.expr);
  }
  Mix(h, "from");
  Mix(h, s.from.table_name);
  Mix(h, s.from.alias);
  if (s.from.derived) MixSqlSelect(h, *s.from.derived);
  for (const auto& j : s.joins) {
    Mix(h, j.kind == relational::JoinKind::kLeftOuter ? "left-join" : "join");
    Mix(h, j.right.table_name);
    Mix(h, j.right.alias);
    if (j.right.derived) MixSqlSelect(h, *j.right.derived);
    if (j.condition) MixSql(h, *j.condition);
  }
  if (s.where) {
    Mix(h, "where");
    MixSql(h, *s.where);
  }
  for (const auto& g : s.group_by) {
    Mix(h, "group");
    if (g) MixSql(h, *g);
  }
  if (s.having) {
    Mix(h, "having");
    MixSql(h, *s.having);
  }
  for (const auto& o : s.order_by) {
    Mix(h, o.descending ? "order-desc" : "order");
    if (o.expr) MixSql(h, *o.expr);
  }
  // Row-range bounds are literals (fn:subsequence arguments): hash only
  // their presence so paging through a result keeps one fingerprint.
  Mix(h, static_cast<int64_t>(s.range_start >= 0));
  Mix(h, static_cast<int64_t>(s.range_count >= 0));
}

void MixSql(uint64_t* h, const relational::SqlExpr& e) {
  using Kind = relational::SqlExpr::Kind;
  Mix(h, static_cast<int64_t>(e.kind));
  switch (e.kind) {
    case Kind::kColumn:
      Mix(h, e.table_alias);
      Mix(h, e.column);
      return;
    case Kind::kLiteral:
      Mix(h, "?");  // value stripped
      return;
    case Kind::kParam:
      Mix(h, "?");  // position-independent, like a literal
      return;
    default:
      break;
  }
  Mix(h, e.op);
  Mix(h, static_cast<int64_t>(e.negated));
  if (e.kind == Kind::kFunc) Mix(h, static_cast<int64_t>(e.func));
  if (e.kind == Kind::kAggregate) {
    Mix(h, static_cast<int64_t>(e.agg));
    Mix(h, static_cast<int64_t>(e.distinct));
  }
  for (const auto& a : e.args) {
    if (a) MixSql(h, *a);
  }
  for (const auto& [cond, result] : e.whens) {
    Mix(h, "when");
    if (cond) MixSql(h, *cond);
    if (result) MixSql(h, *result);
  }
  if (e.else_expr) {
    Mix(h, "else");
    MixSql(h, *e.else_expr);
  }
  if (e.subquery) MixSqlSelect(h, *e.subquery);
}

void MixExpr(uint64_t* h, const Expr& e);

/// FLWOR subtrees hash through the serial physical lowering — the same
/// descriptors EXPLAIN renders, so the operator labels already carry the
/// join method ("join[ppk-inl] $o"), streaming-vs-sort grouping, and the
/// bound variable. Node details are skipped: they hold tuning values
/// (k=20, prefetch depth) that are configuration, not statement shape.
/// Serial BuildOptions keep the fingerprint independent of the server's
/// DOP knobs — exchange placement is deployment, not statement.
void MixFLWOR(uint64_t* h, const Expr& e) {
  std::vector<runtime::physical::ExplainNode> nodes;
  runtime::physical::BuildPlan(e)->Describe(&nodes);
  for (const auto& n : nodes) {
    Mix(h, n.label);
    if (n.expr != nullptr) MixExpr(h, *n.expr);
    if (n.condition != nullptr) {
      Mix(h, "on");
      MixExpr(h, *n.condition);
    }
    if (n.ppk != nullptr) {
      Mix(h, "ppk-fetch");
      Mix(h, n.ppk->source);
      Mix(h, n.ppk->in_alias);
      Mix(h, n.ppk->in_column);
      if (n.ppk->select_template) MixSqlSelect(h, *n.ppk->select_template);
    }
  }
}

void MixExpr(uint64_t* h, const Expr& e) {
  if (e.kind == ExprKind::kFLWOR) {
    Mix(h, "flwor");
    MixFLWOR(h, e);
    return;
  }
  Mix(h, xquery::ExprKindName(e.kind));
  switch (e.kind) {
    case ExprKind::kLiteral:
      Mix(h, "?");  // value stripped
      return;       // literals have no children
    case ExprKind::kVarRef:
      Mix(h, e.var_name);
      break;
    case ExprKind::kFunctionCall:
      Mix(h, e.fn_name);
      break;
    case ExprKind::kPathStep:
      Mix(h, e.step_name);
      Mix(h, static_cast<int64_t>(e.is_attribute_step));
      break;
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
      Mix(h, e.ctor_name);
      break;
    case ExprKind::kComparison:
    case ExprKind::kArith:
    case ExprKind::kLogical:
      Mix(h, e.op);
      break;
    case ExprKind::kQuantified:
      Mix(h, e.var_name);
      break;
    case ExprKind::kSqlQuery:
      if (e.sql) {
        Mix(h, e.sql->source);
        if (e.sql->select) MixSqlSelect(h, *e.sql->select);
      }
      break;
    case ExprKind::kCustomQuery:
      if (e.custom) {
        Mix(h, e.custom->source);
        Mix(h, e.custom->function);
        for (const auto& c : e.custom->conjuncts) {
          Mix(h, c.attribute);
          Mix(h, c.op);
        }
      }
      break;
    default:
      break;
  }
  // Children: parameter expressions for pushdown regions, operands
  // everywhere else. Literals inside strip to "?" above.
  for (const auto& c : e.children) {
    if (c) MixExpr(h, *c);
  }
}

// --- Statement identity: structural walk, no physical lowering ---------

void MixStmtExpr(uint64_t* h, const Expr& e);

/// FLWOR clauses hash by their logical structure only: clause kinds,
/// bound variables, grouping/ordering keys and the clause expressions.
/// Join methods, PP-k shapes, pre-clustering and pushdown regions are
/// optimizer output — deliberately excluded so the statement fingerprint
/// survives plan flips. (kJoin/kSqlQuery normally never appear in the
/// pre-optimization tree this hash is computed from; they are handled
/// structurally anyway so the function is total.)
void MixStmtFLWOR(uint64_t* h, const Expr& e) {
  using CK = xquery::Clause::Kind;
  for (const auto& c : e.clauses) {
    switch (c.kind) {
      case CK::kFor:
        Mix(h, "for");
        Mix(h, c.var);
        Mix(h, c.positional_var);
        if (c.expr) MixStmtExpr(h, *c.expr);
        break;
      case CK::kLet:
        Mix(h, "let");
        Mix(h, c.var);
        if (c.expr) MixStmtExpr(h, *c.expr);
        break;
      case CK::kWhere:
        Mix(h, "where");
        if (c.expr) MixStmtExpr(h, *c.expr);
        break;
      case CK::kGroupBy:
        Mix(h, "group");
        Mix(h, static_cast<int64_t>(c.group_vars.size()));
        Mix(h, static_cast<int64_t>(c.group_keys.size()));
        for (const auto& gv : c.group_vars) {
          Mix(h, gv.in_var);
          Mix(h, gv.out_var);
        }
        for (const auto& gk : c.group_keys) {
          Mix(h, gk.as_var);
          if (gk.expr) MixStmtExpr(h, *gk.expr);
        }
        break;
      case CK::kOrderBy:
        Mix(h, "order");
        Mix(h, static_cast<int64_t>(c.order_keys.size()));
        for (const auto& ok : c.order_keys) {
          Mix(h, static_cast<int64_t>(ok.descending));
          if (ok.expr) MixStmtExpr(h, *ok.expr);
        }
        break;
      case CK::kJoin:
        Mix(h, "join");
        Mix(h, c.var);
        if (c.expr) MixStmtExpr(h, *c.expr);
        if (c.condition) MixStmtExpr(h, *c.condition);
        break;
    }
  }
  Mix(h, "return");
  for (const auto& child : e.children) {
    if (child) MixStmtExpr(h, *child);
  }
}

void MixStmtExpr(uint64_t* h, const Expr& e) {
  Mix(h, xquery::ExprKindName(e.kind));
  switch (e.kind) {
    case ExprKind::kLiteral:
      Mix(h, "?");  // value stripped
      return;       // literals have no children
    case ExprKind::kFLWOR:
      MixStmtFLWOR(h, e);
      return;  // clauses + return already walked
    case ExprKind::kVarRef:
      Mix(h, e.var_name);
      break;
    case ExprKind::kFunctionCall:
      Mix(h, e.fn_name);
      break;
    case ExprKind::kPathStep:
      Mix(h, e.step_name);
      Mix(h, static_cast<int64_t>(e.is_attribute_step));
      break;
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
      Mix(h, e.ctor_name);
      Mix(h, static_cast<int64_t>(e.conditional));
      break;
    case ExprKind::kComparison:
    case ExprKind::kArith:
    case ExprKind::kLogical:
      Mix(h, e.op);
      break;
    case ExprKind::kQuantified:
      Mix(h, e.var_name2);
      Mix(h, static_cast<int64_t>(e.is_every));
      break;
    case ExprKind::kCastAs:
    case ExprKind::kInstanceOf:
    case ExprKind::kCastable:
      Mix(h, e.type_ref.ToString());
      break;
    case ExprKind::kSqlQuery:
      if (e.sql) {
        Mix(h, e.sql->source);
        if (e.sql->select) MixSqlSelect(h, *e.sql->select);
      }
      break;
    case ExprKind::kCustomQuery:
      if (e.custom) {
        Mix(h, e.custom->source);
        Mix(h, e.custom->function);
      }
      break;
    default:
      break;
  }
  // The arity keeps the pre-order walk unambiguous: f(g($x), $y) and
  // f(g($x, $y)) would otherwise hash the same node sequence.
  Mix(h, static_cast<int64_t>(e.children.size()));
  for (const auto& c : e.children) {
    if (c) MixStmtExpr(h, *c);
  }
}

}  // namespace

uint64_t PlanFingerprint(const Expr& root) {
  uint64_t h = kFnvOffset;
  MixExpr(&h, root);
  return h;
}

uint64_t StatementFingerprint(const Expr& root) {
  // Different offset basis (one extra round over a tag) so a statement
  // fingerprint and a plan fingerprint of the same tree never collide by
  // construction — the two id spaces are distinguishable in logs.
  uint64_t h = kFnvOffset;
  Mix(&h, "stmt");
  MixStmtExpr(&h, root);
  return h;
}

}  // namespace aldsp::server
