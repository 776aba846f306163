#include "sql/pushdown.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "compiler/builtins.h"
#include "optimizer/expr_utils.h"
#include "xml/node.h"

namespace aldsp::sql {

using compiler::Builtin;
using compiler::ExternalFunction;
using compiler::LookupBuiltin;
using optimizer::FreeVars;
using optimizer::SubstituteVar;
using relational::Cell;
using relational::JoinClause;
using relational::JoinKind;
using relational::SelectPtr;
using relational::SelectStmt;
using relational::SqlAgg;
using relational::SqlExpr;
using relational::SqlExprPtr;
using relational::SqlFunc;
using xml::AtomicType;
using xquery::Clause;
using xquery::CloneExpr;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::SqlQuerySpec;
using xsd::XType;

namespace {

/// A translated scalar: SQL expression + its atomic result type.
/// sql == nullptr means "not pushable".
struct TypedSql {
  SqlExprPtr sql;
  AtomicType type = AtomicType::kUntyped;

  static TypedSql No() { return {}; }
  bool ok() const { return sql != nullptr; }
};

struct AliasBinding {
  std::string var;    // FLWOR variable (or "." for filter predicates)
  std::string alias;  // SQL table alias
  xsd::TypePtr row_type;
};

bool ContainsAggregate(const SqlExprPtr& e) {
  if (!e) return false;
  if (e->kind == SqlExpr::Kind::kAggregate) return true;
  for (const auto& a : e->args) {
    if (ContainsAggregate(a)) return true;
  }
  for (const auto& [c, r] : e->whens) {
    if (ContainsAggregate(c) || ContainsAggregate(r)) return true;
  }
  return ContainsAggregate(e->else_expr);
}

/// Pending pattern-(c)/(g) state while a region's return expression is
/// being rebuilt.
struct NestedJoinState {
  bool agg_used = false;    // pattern (g): implicit GROUP BY needed
  bool rows_used = false;   // pattern (c): mid-tier regroup needed
  std::string placeholder;  // variable marking the nested-rows loop site
  // Pattern (c) pieces, filled by HandleNestedRows:
  std::string marker_col;   // output column that is non-null iff matched
  ExprPtr inner_rebuild;    // rebuild of the nested return, over `row_var`
};

class RegionContext {
 public:
  std::string source;
  std::string vendor;
  std::vector<AliasBinding> aliases;
  std::map<std::string, TypedSql> var_sql;  // let vars, group-key as_vars
  std::map<std::string, std::string> groupvar_alias;
  bool grouped = false;
  bool in_aggregate = false;
  std::vector<ExprPtr> params;
  int next_alias = 1;

  const AliasBinding* FindAlias(const std::string& var) const {
    for (const auto& a : aliases) {
      if (a.var == var) return &a;
    }
    return nullptr;
  }

  std::string NewAlias() { return "t" + std::to_string(next_alias++); }

  bool IsRegionVar(const std::string& name) const {
    if (FindAlias(name) != nullptr) return true;
    if (var_sql.count(name) > 0) return true;
    if (groupvar_alias.count(name) > 0) return true;
    return false;
  }
};

class PushdownPass {
 public:
  PushdownPass(const compiler::FunctionTable* functions, PushdownStats* stats)
      : functions_(functions), stats_(stats) {}

  Status Run(ExprPtr& root) {
    ALDSP_RETURN_NOT_OK(Rewrite(root));
    PruneColumns(*root);
    return Status::OK();
  }

 private:
  // ----- Tree walk -------------------------------------------------------

  Status Rewrite(ExprPtr& e) {
    if (e->kind == ExprKind::kFLWOR) {
      ALDSP_ASSIGN_OR_RETURN(bool pushed, TryRewriteFLWOR(e));
      if (pushed) {
        // Parameter expressions may contain further regions.
        Status st = Status::OK();
        xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
          if (c && st.ok() && c->kind != ExprKind::kSqlQuery) st = Rewrite(c);
          if (c && st.ok() && c->kind == ExprKind::kSqlQuery) {
            for (auto& p : c->children) {
              if (st.ok()) st = Rewrite(p);
            }
          }
        });
        return st;
      }
      TryRewriteLeadingScan(*e);
    }
    // Filter chains over a table function must be recognized before their
    // children are individually converted (the predicate belongs in the
    // generated WHERE clause).
    if (e->kind == ExprKind::kFilter || e->kind == ExprKind::kFunctionCall) {
      ExprPtr before = e;
      TryRewriteBareScan(e);
      if (e == before) TryRewriteCustomFilter(e);
      if (e != before) {
        Status st = Status::OK();
        for (auto& p : e->children) {  // rewrite parameter expressions
          if (st.ok()) st = Rewrite(p);
        }
        return st;
      }
    }
    Status st = Status::OK();
    xquery::ForEachChildSlot(*e, [&](ExprPtr& c) {
      if (c && st.ok()) st = Rewrite(c);
    });
    ALDSP_RETURN_NOT_OK(st);
    if (e->kind == ExprKind::kFunctionCall &&
        LookupBuiltin(e->fn_name) == Builtin::kSubsequence) {
      TryPushRange(e);
    }
    return Status::OK();
  }

  // ----- Table-function recognition --------------------------------------

  const ExternalFunction* AsTableFn(const Expr& e) const {
    if (e.kind != ExprKind::kFunctionCall || !e.children.empty()) {
      return nullptr;
    }
    const ExternalFunction* fn = functions_->FindExternal(e.fn_name);
    if (fn == nullptr || fn->kind() != "relational") return nullptr;
    if (fn->return_type.item == nullptr ||
        fn->return_type.item->kind() != XType::Kind::kElement ||
        fn->return_type.item->has_any_content()) {
      return nullptr;
    }
    return fn;
  }

  // Peels kFilter layers off a binding: returns the base expression and
  // appends the predicates.
  static const ExprPtr& PeelFilters(const ExprPtr& e,
                                    std::vector<ExprPtr>* preds) {
    const ExprPtr* cur = &e;
    while ((*cur)->kind == ExprKind::kFilter) {
      preds->push_back((*cur)->children[1]);
      cur = &(*cur)->children[0];
    }
    return *cur;
  }

  // ----- Scalar translation (paper §4.4's pushable expressions) ----------

  // Skips fn:data (atomization is implicit in SQL) and typematch
  // wrappers. A pushed typematch loses its dynamic-error behaviour for
  // empty values — SQL three-valued logic filters them instead — which
  // matches how ALDSP delegates to the source's semantics.
  static const ExprPtr& UnwrapData(const ExprPtr& e) {
    const ExprPtr* cur = &e;
    while (true) {
      if ((*cur)->kind == ExprKind::kTypematch) {
        cur = &(*cur)->children[0];
        continue;
      }
      if ((*cur)->kind == ExprKind::kFunctionCall &&
          LookupBuiltin((*cur)->fn_name) == Builtin::kData &&
          (*cur)->children.size() == 1) {
        cur = &(*cur)->children[0];
        continue;
      }
      return *cur;
    }
  }

  // Column type lookup in a structural row type.
  static AtomicType ColumnType(const xsd::TypePtr& row_type,
                               const std::string& column) {
    if (!row_type) return AtomicType::kUntyped;
    const xsd::ElementField* f = row_type->FindField(column);
    return f == nullptr ? AtomicType::kUntyped : xsd::AtomizedType(f->type);
  }

  Result<TypedSql> Translate(const ExprPtr& raw, RegionContext& ctx) {
    const ExprPtr& e = UnwrapData(raw);
    switch (e->kind) {
      case ExprKind::kLiteral: {
        SqlExprPtr lit = SqlExpr::Literal(Cell::Of(e->literal));
        lit->literal_slot = e->literal_slot;
        return TypedSql{std::move(lit), e->literal.type()};
      }
      case ExprKind::kVarRef: {
        auto it = ctx.var_sql.find(e->var_name);
        if (it != ctx.var_sql.end()) {
          return TypedSql{it->second.sql->Clone(), it->second.type};
        }
        return TryParam(raw, ctx);
      }
      case ExprKind::kPathStep: {
        if (e->is_attribute_step) return TryParam(raw, ctx);
        const ExprPtr& base = e->children[0];
        if (base->kind == ExprKind::kVarRef) {
          const AliasBinding* a = ctx.FindAlias(base->var_name);
          if (a != nullptr) {
            if (!a->row_type || a->row_type->FindField(e->step_name) == nullptr) {
              return TypedSql::No();
            }
            return TypedSql{SqlExpr::Column(a->alias, e->step_name),
                            ColumnType(a->row_type, e->step_name)};
          }
          // Group-variable column: only meaningful inside an aggregate.
          auto g = ctx.groupvar_alias.find(base->var_name);
          if (g != ctx.groupvar_alias.end()) {
            if (!ctx.in_aggregate) return TypedSql::No();
            const AliasBinding* ga = nullptr;
            for (const auto& ab : ctx.aliases) {
              if (ab.alias == g->second) ga = &ab;
            }
            if (ga == nullptr ||
                ga->row_type->FindField(e->step_name) == nullptr) {
              return TypedSql::No();
            }
            return TypedSql{SqlExpr::Column(g->second, e->step_name),
                            ColumnType(ga->row_type, e->step_name)};
          }
        }
        return TryParam(raw, ctx);
      }
      case ExprKind::kComparison: {
        static const std::map<std::string, std::string> kOps = {
            {"eq", "="},  {"ne", "<>"}, {"lt", "<"},  {"le", "<="},
            {"gt", ">"},  {"ge", ">="}, {"=", "="},   {"!=", "<>"},
            {"<", "<"},   {"<=", "<="}, {">", ">"},   {">=", ">="}};
        auto op = kOps.find(e->op);
        if (op == kOps.end()) return TryParam(raw, ctx);
        if (e->general_comparison) {
          // General comparisons push only when both sides are at most
          // single-valued (existential semantics degenerate to scalar).
          if (e->children[0]->static_type.allows_many() ||
              e->children[1]->static_type.allows_many()) {
            return TryParam(raw, ctx);
          }
        }
        ALDSP_ASSIGN_OR_RETURN(TypedSql l, Translate(e->children[0], ctx));
        if (!l.ok()) return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql r, Translate(e->children[1], ctx));
        if (!r.ok()) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Binary(op->second, l.sql, r.sql),
                        AtomicType::kBoolean};
      }
      case ExprKind::kLogical: {
        ALDSP_ASSIGN_OR_RETURN(TypedSql l, Translate(e->children[0], ctx));
        if (!l.ok()) return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql r, Translate(e->children[1], ctx));
        if (!r.ok()) return TryParam(raw, ctx);
        return TypedSql{
            SqlExpr::Binary(e->op == "and" ? "AND" : "OR", l.sql, r.sql),
            AtomicType::kBoolean};
      }
      case ExprKind::kArith: {
        std::string op = e->op;
        if (op == "idiv") return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql l, Translate(e->children[0], ctx));
        if (!l.ok()) return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql r, Translate(e->children[1], ctx));
        if (!r.ok()) return TryParam(raw, ctx);
        AtomicType t = l.type == AtomicType::kInteger &&
                               r.type == AtomicType::kInteger && op != "div"
                           ? AtomicType::kInteger
                           : AtomicType::kDouble;
        if (op == "mod") {
          return TypedSql{SqlExpr::Func(SqlFunc::kMod, {l.sql, r.sql}),
                          AtomicType::kInteger};
        }
        if (op == "div") op = "/";
        return TypedSql{SqlExpr::Binary(op, l.sql, r.sql), t};
      }
      case ExprKind::kIf: {
        // Pattern (d): CASE WHEN cond THEN x ELSE y END, for atomic
        // branches only (elements would lose their names in SQL).
        ALDSP_ASSIGN_OR_RETURN(TypedSql c, Translate(e->children[0], ctx));
        if (!c.ok()) return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql t, Translate(e->children[1], ctx));
        if (!t.ok()) return TryParam(raw, ctx);
        ALDSP_ASSIGN_OR_RETURN(TypedSql f, Translate(e->children[2], ctx));
        if (!f.ok()) return TryParam(raw, ctx);
        AtomicType out = t.type == f.type ? t.type : AtomicType::kString;
        return TypedSql{SqlExpr::Case({{c.sql, t.sql}}, f.sql), out};
      }
      case ExprKind::kQuantified:
        return TranslateQuantified(e, ctx);
      case ExprKind::kFunctionCall:
        return TranslateCall(raw, e, ctx);
      default:
        return TryParam(raw, ctx);
    }
  }

  Result<TypedSql> TranslateCall(const ExprPtr& raw, const ExprPtr& e,
                                 RegionContext& ctx) {
    Builtin b = LookupBuiltin(e->fn_name);
    auto translate_args = [&](std::vector<SqlExprPtr>* out) -> Result<bool> {
      for (const auto& c : e->children) {
        ALDSP_ASSIGN_OR_RETURN(TypedSql t, Translate(c, ctx));
        if (!t.ok()) return false;
        out->push_back(t.sql);
      }
      return true;
    };
    switch (b) {
      case Builtin::kUpperCase:
      case Builtin::kLowerCase: {
        std::vector<SqlExprPtr> args;
        ALDSP_ASSIGN_OR_RETURN(bool ok, translate_args(&args));
        if (!ok) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Func(b == Builtin::kUpperCase
                                          ? SqlFunc::kUpper
                                          : SqlFunc::kLower,
                                      std::move(args)),
                        AtomicType::kString};
      }
      case Builtin::kSubstring: {
        std::vector<SqlExprPtr> args;
        ALDSP_ASSIGN_OR_RETURN(bool ok, translate_args(&args));
        if (!ok) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Func(SqlFunc::kSubstr, std::move(args)),
                        AtomicType::kString};
      }
      case Builtin::kStringLength: {
        std::vector<SqlExprPtr> args;
        ALDSP_ASSIGN_OR_RETURN(bool ok, translate_args(&args));
        if (!ok) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Func(SqlFunc::kLength, std::move(args)),
                        AtomicType::kInteger};
      }
      case Builtin::kConcat: {
        std::vector<SqlExprPtr> args;
        ALDSP_ASSIGN_OR_RETURN(bool ok, translate_args(&args));
        if (!ok) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Func(SqlFunc::kConcat, std::move(args)),
                        AtomicType::kString};
      }
      case Builtin::kAbs: {
        std::vector<SqlExprPtr> args;
        ALDSP_ASSIGN_OR_RETURN(bool ok, translate_args(&args));
        if (!ok) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Func(SqlFunc::kAbs, std::move(args)),
                        AtomicType::kDouble};
      }
      case Builtin::kNot: {
        ALDSP_ASSIGN_OR_RETURN(TypedSql a, Translate(e->children[0], ctx));
        if (!a.ok()) return TryParam(raw, ctx);
        return TypedSql{SqlExpr::Not(a.sql), AtomicType::kBoolean};
      }
      case Builtin::kTrue:
        return TypedSql{SqlExpr::Literal(Cell::Bool(true)),
                        AtomicType::kBoolean};
      case Builtin::kFalse:
        return TypedSql{SqlExpr::Literal(Cell::Bool(false)),
                        AtomicType::kBoolean};
      case Builtin::kString: {
        // fn:string over a string-valued pushable expression is the
        // identity in SQL; other types would need a CAST, so they stay
        // in the mid-tier.
        ALDSP_ASSIGN_OR_RETURN(TypedSql inner, Translate(e->children[0], ctx));
        if (!inner.ok() || (inner.type != AtomicType::kString &&
                            inner.type != AtomicType::kUntyped)) {
          return TryParam(raw, ctx);
        }
        return TypedSql{inner.sql, AtomicType::kString};
      }
      case Builtin::kContains:
      case Builtin::kStartsWith: {
        // Literal search strings become LIKE patterns (with SQL wildcard
        // characters escaped); dynamic patterns stay in the mid-tier.
        const ExprPtr& needle = UnwrapData(e->children[1]);
        if (needle->kind != ExprKind::kLiteral ||
            !needle->literal.is_string()) {
          return TryParam(raw, ctx);
        }
        ALDSP_ASSIGN_OR_RETURN(TypedSql input, Translate(e->children[0], ctx));
        if (!input.ok()) return TryParam(raw, ctx);
        std::string escaped;
        for (char c : ReadValue(*needle).AsString()) {
          if (c == '%' || c == '_' || c == '\\') escaped += '\\';
          escaped += c;
        }
        std::string pattern = b == Builtin::kContains
                                  ? "%" + escaped + "%"
                                  : escaped + "%";
        return TypedSql{SqlExpr::Like(input.sql, std::move(pattern)),
                        AtomicType::kBoolean};
      }
      case Builtin::kExists:
      case Builtin::kEmpty: {
        ALDSP_ASSIGN_OR_RETURN(TypedSql sub,
                               TranslateExistence(e->children[0], ctx));
        if (!sub.ok()) return TryParam(raw, ctx);
        if (b == Builtin::kEmpty) {
          return TypedSql{SqlExpr::Not(sub.sql), AtomicType::kBoolean};
        }
        return sub;
      }
      case Builtin::kCount:
      case Builtin::kSum:
      case Builtin::kAvg:
      case Builtin::kMin:
      case Builtin::kMax:
        return TranslateAggregate(raw, b, e, ctx);
      default:
        return TryParam(raw, ctx);
    }
  }

  // Explicit group-by aggregates (patterns e/f): agg($p) or agg($p/COL)
  // where $p is a group variable.
  Result<TypedSql> TranslateAggregate(const ExprPtr& raw, Builtin b,
                                      const ExprPtr& e, RegionContext& ctx) {
    if (!ctx.grouped) return TryParam(raw, ctx);
    const ExprPtr& arg = UnwrapData(e->children[0]);
    if (b == Builtin::kCount && arg->kind == ExprKind::kVarRef &&
        ctx.groupvar_alias.count(arg->var_name) > 0) {
      return TypedSql{SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr),
                      AtomicType::kInteger};
    }
    bool saved = ctx.in_aggregate;
    ctx.in_aggregate = true;
    Result<TypedSql> inner = Translate(e->children[0], ctx);
    ctx.in_aggregate = saved;
    ALDSP_RETURN_NOT_OK(inner.status());
    if (!inner->ok()) return TryParam(raw, ctx);
    SqlAgg agg;
    AtomicType type = inner->type;
    switch (b) {
      case Builtin::kCount:
        agg = SqlAgg::kCount;
        type = AtomicType::kInteger;
        break;
      case Builtin::kSum:
        agg = SqlAgg::kSum;
        break;
      case Builtin::kAvg:
        agg = SqlAgg::kAvg;
        type = AtomicType::kDouble;
        break;
      case Builtin::kMin:
        agg = SqlAgg::kMin;
        break;
      case Builtin::kMax:
        agg = SqlAgg::kMax;
        break;
      default:
        return TryParam(raw, ctx);
    }
    return TypedSql{SqlExpr::Aggregate(agg, inner->sql), type};
  }

  // Pattern (h): `some $o in TABLE() satisfies pred` -> EXISTS(...).
  Result<TypedSql> TranslateQuantified(const ExprPtr& e, RegionContext& ctx) {
    if (e->is_every) return TryParam(e, ctx);
    std::vector<ExprPtr> filters;
    const ExprPtr& base = PeelFilters(e->children[0], &filters);
    const ExternalFunction* fn = AsTableFn(*base);
    if (fn == nullptr || fn->Property("source") != ctx.source) {
      return TryParam(e, ctx);
    }
    std::string alias = ctx.NewAlias();
    ctx.aliases.push_back({e->var_name2, alias, fn->return_type.item});
    SqlExprPtr cond;
    auto and_into = [&](SqlExprPtr p) {
      cond = cond ? SqlExpr::Binary("AND", cond, std::move(p)) : std::move(p);
    };
    Result<TypedSql> sat = Translate(e->children[1], ctx);
    bool ok = sat.ok() && sat->ok();
    if (ok) and_into(sat->sql);
    for (const auto& f : filters) {
      if (!ok) break;
      ctx.aliases.push_back({".", alias, fn->return_type.item});
      Result<TypedSql> p = Translate(f, ctx);
      ctx.aliases.pop_back();
      ok = p.ok() && p->ok();
      if (ok) and_into(p->sql);
    }
    ctx.aliases.pop_back();
    if (!ok) return TryParam(e, ctx);
    auto sub = std::make_shared<SelectStmt>();
    sub->items = {{SqlExpr::Literal(Cell::Int(1)), ""}};
    sub->from = {fn->Property("table"), nullptr, alias};
    sub->where = cond;
    if (stats_ != nullptr) ++stats_->exists_pushed;
    return TypedSql{SqlExpr::Exists(std::move(sub)), AtomicType::kBoolean};
  }

  // exists(FLWOR over a same-source table) -> EXISTS.
  Result<TypedSql> TranslateExistence(const ExprPtr& e, RegionContext& ctx) {
    if (e->kind != ExprKind::kFLWOR || e->clauses.empty()) {
      return TypedSql::No();
    }
    const Clause& first = e->clauses[0];
    if (first.kind != Clause::Kind::kFor) return TypedSql::No();
    std::vector<ExprPtr> filters;
    const ExprPtr& base = PeelFilters(first.expr, &filters);
    const ExternalFunction* fn = AsTableFn(*base);
    if (fn == nullptr || fn->Property("source") != ctx.source) {
      return TypedSql::No();
    }
    std::string alias = ctx.NewAlias();
    ctx.aliases.push_back({first.var, alias, fn->return_type.item});
    SqlExprPtr cond;
    bool ok = true;
    auto and_into = [&](SqlExprPtr p) {
      cond = cond ? SqlExpr::Binary("AND", cond, std::move(p)) : std::move(p);
    };
    for (size_t i = 1; i < e->clauses.size() && ok; ++i) {
      const Clause& cl = e->clauses[i];
      if (cl.kind != Clause::Kind::kWhere) {
        ok = false;
        break;
      }
      Result<TypedSql> p = Translate(cl.expr, ctx);
      ok = p.ok() && p->ok();
      if (ok) and_into(p->sql);
    }
    for (const auto& f : filters) {
      if (!ok) break;
      ctx.aliases.push_back({".", alias, fn->return_type.item});
      Result<TypedSql> p = Translate(f, ctx);
      ctx.aliases.pop_back();
      ok = p.ok() && p->ok();
      if (ok) and_into(p->sql);
    }
    ctx.aliases.pop_back();
    if (!ok) return TypedSql::No();
    auto sub = std::make_shared<SelectStmt>();
    sub->items = {{SqlExpr::Literal(Cell::Int(1)), ""}};
    sub->from = {fn->Property("table"), nullptr, alias};
    sub->where = cond;
    if (stats_ != nullptr) ++stats_->exists_pushed;
    return TypedSql{SqlExpr::Exists(std::move(sub)), AtomicType::kBoolean};
  }

  // Fallback of paper §4.4: expressions over only *outer* variables are
  // evaluated in the XQuery runtime and bound as SQL parameters.
  Result<TypedSql> TryParam(const ExprPtr& e, RegionContext& ctx) {
    for (const auto& v : FreeVars(*e)) {
      if (ctx.IsRegionVar(v)) return TypedSql::No();
    }
    const xsd::SequenceType& t = e->static_type;
    if (t.allows_many()) return TypedSql::No();
    AtomicType at = xsd::AtomizedType(t);
    ctx.params.push_back(CloneExpr(e));
    return TypedSql{SqlExpr::Param(static_cast<int>(ctx.params.size() - 1)),
                    at};
  }

  // ----- Region rewrite ---------------------------------------------------

  struct OutputTable {
    SelectPtr select;
    std::vector<SqlQuerySpec::OutCol> cols;
    ExprPtr row_ref;  // VarRef to the row variable

    // Returns the rebuild expression `fn:data($row/cN)` for a scalar,
    // reusing an existing identical output column.
    ExprPtr AddScalar(const TypedSql& t) {
      std::string key = relational::DebugString(*t.sql);
      for (size_t i = 0; i < select->items.size(); ++i) {
        if (relational::DebugString(*select->items[i].expr) == key) {
          return DataRef(select->items[i].output_name);
        }
      }
      std::string name = "c" + std::to_string(select->items.size() + 1);
      select->items.push_back({t.sql, name});
      cols.push_back({name, t.type});
      return DataRef(name);
    }

    std::string AddScalarColumn(const TypedSql& t) {
      std::string key = relational::DebugString(*t.sql);
      for (size_t i = 0; i < select->items.size(); ++i) {
        if (relational::DebugString(*select->items[i].expr) == key) {
          return select->items[i].output_name;
        }
      }
      std::string name = "c" + std::to_string(select->items.size() + 1);
      select->items.push_back({t.sql, name});
      cols.push_back({name, t.type});
      return name;
    }

    ExprPtr ColRef(const std::string& name) const {
      return xquery::MakePathStep(CloneExpr(row_ref), name, false);
    }
    ExprPtr DataRef(const std::string& name) const {
      return xquery::MakeFunctionCall("fn:data", {ColRef(name)});
    }
  };

  // Rebuilds element content for `src`, pushing what it can. Returns null
  // if the expression cannot be handled.
  // A navigation-function call over a region variable is the implicit
  // form of a correlated row FLWOR; synthesizing the explicit form lets
  // pattern (c) turn it into a LEFT OUTER JOIN (one statement instead of
  // one keyed navigation query per outer row).
  ExprPtr NavCallToFlwor(const ExprPtr& src, RegionContext& ctx) {
    if (src->kind != ExprKind::kFunctionCall || src->children.size() != 1) {
      return nullptr;
    }
    const ExternalFunction* nav = functions_->FindExternal(src->fn_name);
    if (nav == nullptr || nav->kind() != "relational-nav" ||
        nav->Property("source") != ctx.source) {
      return nullptr;
    }
    const ExprPtr* arg = &src->children[0];
    while ((*arg)->kind == ExprKind::kTypematch) arg = &(*arg)->children[0];
    if ((*arg)->kind != ExprKind::kVarRef ||
        ctx.FindAlias((*arg)->var_name) == nullptr) {
      return nullptr;
    }
    const ExternalFunction* table_fn = nullptr;
    for (const auto& cand : functions_->external_functions()) {
      if (cand.kind() == "relational" &&
          cand.Property("source") == nav->Property("source") &&
          cand.Property("table") == nav->Property("table")) {
        table_fn = &cand;
      }
    }
    if (table_fn == nullptr) return nullptr;
    std::string var = "nav#pd" + std::to_string(serial_++);
    Clause for_clause;
    for_clause.kind = Clause::Kind::kFor;
    for_clause.var = var;
    for_clause.expr = xquery::MakeFunctionCall(table_fn->name, {}, src->loc);
    Clause where;
    where.kind = Clause::Kind::kWhere;
    where.expr = xquery::MakeComparison(
        "eq", /*general=*/false,
        xquery::MakePathStep(xquery::MakeVarRef(var), nav->Property("column"),
                             false, src->loc),
        xquery::MakePathStep(CloneExpr(*arg), nav->Property("arg_child"),
                             false, src->loc),
        src->loc);
    ExprPtr flwor =
        xquery::MakeFLWOR({std::move(for_clause), std::move(where)},
                          xquery::MakeVarRef(var, src->loc), src->loc);
    return flwor;
  }

  ExprPtr RebuildExpr(const ExprPtr& src, RegionContext& ctx, OutputTable& out,
                      NestedJoinState& njs, bool as_content) {
    // Nested FLWORs in content: pattern (c) or plain failure.
    if (src->kind == ExprKind::kFLWOR) {
      return HandleNestedRows(src, ctx, out, njs);
    }
    if (ExprPtr nav = NavCallToFlwor(src, ctx); nav != nullptr) {
      return HandleNestedRows(nav, ctx, out, njs);
    }
    if (src->kind == ExprKind::kElementCtor && !src->conditional) {
      std::vector<ExprPtr> content;
      for (const auto& c : src->children) {
        ExprPtr r = RebuildExpr(c, ctx, out, njs, /*as_content=*/true);
        if (r == nullptr) return nullptr;
        content.push_back(std::move(r));
      }
      return xquery::MakeElementCtor(src->ctor_name, std::move(content), false,
                                     src->loc);
    }
    if (src->kind == ExprKind::kAttributeCtor) {
      Result<TypedSql> v = Translate(src->children[0], ctx);
      if (!v.ok() || !v->ok()) return nullptr;
      return xquery::MakeAttributeCtor(src->ctor_name, out.AddScalar(*v),
                                       false, src->loc);
    }
    if (src->kind == ExprKind::kSequence) {
      std::vector<ExprPtr> parts;
      for (const auto& c : src->children) {
        ExprPtr r = RebuildExpr(c, ctx, out, njs, as_content);
        if (r == nullptr) return nullptr;
        parts.push_back(std::move(r));
      }
      return xquery::MakeSequence(std::move(parts), src->loc);
    }
    if (src->kind == ExprKind::kEmptySequence) return CloneExpr(src);
    // A bare column path used as content contributes the column *element*
    // (conditionally, since NULL means absent).
    if (src->kind == ExprKind::kPathStep && !src->is_attribute_step &&
        src->children[0]->kind == ExprKind::kVarRef) {
      const AliasBinding* a = ctx.FindAlias(src->children[0]->var_name);
      if (a != nullptr && a->row_type &&
          a->row_type->FindField(src->step_name) != nullptr) {
        TypedSql t{SqlExpr::Column(a->alias, src->step_name),
                   ColumnType(a->row_type, src->step_name)};
        std::string col = out.AddScalarColumn(t);
        ExprPtr ctor = xquery::MakeElementCtor(
            src->step_name, {out.DataRef(col)}, false, src->loc);
        ExprPtr cond = xquery::MakeFunctionCall("fn:exists", {out.ColRef(col)},
                                                src->loc);
        return xquery::MakeIf(std::move(cond), std::move(ctor),
                              xquery::MakeEmptySequence(src->loc), src->loc);
      }
    }
    // Nested correlated aggregate (pattern g): count(for $o in T2() ...).
    {
      ExprPtr agg = TryNestedAggregate(src, ctx, out, njs);
      if (agg != nullptr) return agg;
    }
    // Pushable scalar.
    Result<TypedSql> v = Translate(src, ctx);
    if (v.ok() && v->ok()) return out.AddScalar(*v);
    (void)as_content;
    return nullptr;
  }

  // Pattern (g): a correlated count/sum/... over a same-source table
  // becomes LEFT OUTER JOIN + (implicit) GROUP BY. Returns the aggregate
  // SQL, or TypedSql::No() when the shape does not apply.
  Result<TypedSql> TranslateNestedAggSql(const ExprPtr& src,
                                         RegionContext& ctx) {
    if (src->kind != ExprKind::kFunctionCall || src->children.empty()) {
      return TypedSql::No();
    }
    Builtin b = LookupBuiltin(src->fn_name);
    if (b != Builtin::kCount && b != Builtin::kSum && b != Builtin::kAvg &&
        b != Builtin::kMin && b != Builtin::kMax) {
      return TypedSql::No();
    }
    if (ctx.grouped) return TypedSql::No();
    const ExprPtr& arg = src->children[0];
    if (arg->kind != ExprKind::kFLWOR || arg->clauses.empty()) {
      return TypedSql::No();
    }
    std::string join_col;
    std::string alias;
    xsd::TypePtr row_type;
    if (!AttachCorrelatedJoin(arg, ctx, &alias, &join_col, &row_type)) {
      return TypedSql::No();
    }
    const ExprPtr& ret = UnwrapData(arg->children[0]);
    TypedSql agg;
    if (b == Builtin::kCount) {
      // count(rows): count the non-null join key of the right side.
      agg = {SqlExpr::Aggregate(SqlAgg::kCount,
                                SqlExpr::Column(alias, join_col)),
             AtomicType::kInteger};
    } else {
      // Aggregate over a column of the nested rows.
      if (ret->kind != ExprKind::kPathStep ||
          ret->children[0]->kind != ExprKind::kVarRef ||
          ret->children[0]->var_name != arg->clauses[0].var ||
          !row_type || row_type->FindField(ret->step_name) == nullptr) {
        RollbackJoin(ctx);
        return TypedSql::No();
      }
      SqlAgg sagg = b == Builtin::kSum   ? SqlAgg::kSum
                    : b == Builtin::kAvg ? SqlAgg::kAvg
                    : b == Builtin::kMin ? SqlAgg::kMin
                                         : SqlAgg::kMax;
      AtomicType t = b == Builtin::kAvg ? AtomicType::kDouble
                                        : ColumnType(row_type, ret->step_name);
      SqlExprPtr agg_sql =
          SqlExpr::Aggregate(sagg, SqlExpr::Column(alias, ret->step_name));
      if (b == Builtin::kSum) {
        // XQuery fn:sum(()) is 0, but SQL SUM over an empty (outer-join
        // padded) group is NULL: coalesce to match.
        agg_sql = SqlExpr::Case(
            {{SqlExpr::IsNull(agg_sql->Clone()),
              SqlExpr::Literal(Cell::Int(0))}},
            agg_sql);
      }
      agg = {std::move(agg_sql), t};
    }
    pending_agg_used_ = true;
    if (stats_ != nullptr) ++stats_->outer_joins_pushed;
    return agg;
  }

  ExprPtr TryNestedAggregate(const ExprPtr& src, RegionContext& ctx,
                             OutputTable& out, NestedJoinState& njs) {
    Result<TypedSql> agg = TranslateNestedAggSql(src, ctx);
    if (!agg.ok() || !agg->ok()) return nullptr;
    njs.agg_used = true;
    return out.AddScalar(*agg);
  }

  // Pattern (c): a correlated row-returning FLWOR in content becomes a
  // LEFT OUTER JOIN; the caller finalizes the mid-tier regroup.
  ExprPtr HandleNestedRows(const ExprPtr& src, RegionContext& ctx,
                           OutputTable& out, NestedJoinState& njs) {
    if (njs.rows_used || njs.agg_used || ctx.grouped) return nullptr;
    if (src->clauses.empty()) return nullptr;
    std::string join_col;
    std::string alias;
    xsd::TypePtr row_type;
    if (!AttachCorrelatedJoin(src, ctx, &alias, &join_col, &row_type)) {
      return nullptr;
    }
    // Marker column: the nested join key (non-null iff a row matched).
    std::string marker = out.AddScalarColumn(
        {SqlExpr::Column(alias, join_col), ColumnType(row_type, join_col)});
    // Rebuild the nested return over the (outer) row variable; nested
    // column refs resolve against the joined alias.
    std::string nested_var = src->clauses[0].var;
    ctx.aliases.push_back({nested_var, alias, row_type});
    NestedJoinState inner_njs;  // nested nesting unsupported
    ExprPtr inner = RebuildRowReturn(src->children[0], ctx, out);
    ctx.aliases.pop_back();
    if (inner == nullptr) {
      RollbackJoin(ctx);
      return nullptr;
    }
    (void)inner_njs;
    njs.rows_used = true;
    njs.marker_col = marker;
    njs.inner_rebuild = inner;
    njs.placeholder = "nestedrows#pd";
    if (stats_ != nullptr) ++stats_->outer_joins_pushed;
    return xquery::MakeVarRef(njs.placeholder, src->loc);
  }

  // Rebuild for the nested return of pattern (c): constructors over the
  // nested alias, bare column steps, or the whole row variable.
  ExprPtr RebuildRowReturn(const ExprPtr& src, RegionContext& ctx,
                           OutputTable& out) {
    if (src->kind == ExprKind::kVarRef) {
      const AliasBinding* a = ctx.FindAlias(src->var_name);
      if (a == nullptr || !a->row_type) return nullptr;
      // The whole nested row: rebuild <TABLE> with every column.
      std::vector<ExprPtr> content;
      for (const auto& field : a->row_type->fields()) {
        std::string col = out.AddScalarColumn(
            {SqlExpr::Column(a->alias, field.name),
             xsd::AtomizedType(field.type)});
        ExprPtr ctor = xquery::MakeElementCtor(field.name, {out.DataRef(col)},
                                               false, src->loc);
        ExprPtr cond =
            xquery::MakeFunctionCall("fn:exists", {out.ColRef(col)}, src->loc);
        content.push_back(xquery::MakeIf(std::move(cond), std::move(ctor),
                                         xquery::MakeEmptySequence(src->loc),
                                         src->loc));
      }
      return xquery::MakeElementCtor(a->row_type->name(), std::move(content),
                                     false, src->loc);
    }
    if (src->kind == ExprKind::kElementCtor && !src->conditional) {
      std::vector<ExprPtr> content;
      for (const auto& c : src->children) {
        ExprPtr r = RebuildRowReturn(c, ctx, out);
        if (r == nullptr) return nullptr;
        content.push_back(std::move(r));
      }
      return xquery::MakeElementCtor(src->ctor_name, std::move(content), false,
                                     src->loc);
    }
    if (src->kind == ExprKind::kSequence) {
      std::vector<ExprPtr> parts;
      for (const auto& c : src->children) {
        ExprPtr r = RebuildRowReturn(c, ctx, out);
        if (r == nullptr) return nullptr;
        parts.push_back(std::move(r));
      }
      return xquery::MakeSequence(std::move(parts), src->loc);
    }
    if (src->kind == ExprKind::kPathStep && !src->is_attribute_step &&
        src->children[0]->kind == ExprKind::kVarRef) {
      const AliasBinding* a = ctx.FindAlias(src->children[0]->var_name);
      if (a != nullptr && a->row_type &&
          a->row_type->FindField(src->step_name) != nullptr) {
        std::string col = out.AddScalarColumn(
            {SqlExpr::Column(a->alias, src->step_name),
             ColumnType(a->row_type, src->step_name)});
        ExprPtr ctor = xquery::MakeElementCtor(src->step_name,
                                               {out.DataRef(col)}, false,
                                               src->loc);
        ExprPtr cond =
            xquery::MakeFunctionCall("fn:exists", {out.ColRef(col)}, src->loc);
        return xquery::MakeIf(std::move(cond), std::move(ctor),
                              xquery::MakeEmptySequence(src->loc), src->loc);
      }
    }
    Result<TypedSql> v = Translate(src, ctx);
    if (v.ok() && v->ok()) return out.AddScalar(*v);
    return nullptr;
  }

  // Adds a LEFT OUTER JOIN for a correlated nested FLWOR of the shape
  // `for $o in TABLE() (filters) (where corr)* return ...`; outputs the
  // alias, the right-side join column and the row type. On failure the
  // context and select are left unchanged.
  bool AttachCorrelatedJoin(const ExprPtr& flwor, RegionContext& ctx,
                            std::string* alias_out, std::string* join_col,
                            xsd::TypePtr* row_type_out) {
    const Clause& first = flwor->clauses[0];
    if (first.kind != Clause::Kind::kFor && first.kind != Clause::Kind::kJoin) {
      return false;
    }
    std::vector<ExprPtr> filters;
    const ExprPtr& base = PeelFilters(first.expr, &filters);
    const ExternalFunction* fn = AsTableFn(*base);
    if (fn == nullptr || fn->Property("source") != ctx.source) return false;
    std::string alias = ctx.NewAlias();
    xsd::TypePtr row_type = fn->return_type.item;
    save_ = current_select_->joins.size();
    saved_aliases_ = ctx.aliases.size();
    ctx.aliases.push_back({first.var, alias, row_type});
    SqlExprPtr cond;
    std::string right_col;
    bool ok = true;
    auto and_into = [&](SqlExprPtr p) {
      cond = cond ? SqlExpr::Binary("AND", cond, std::move(p)) : std::move(p);
    };
    auto note_right_col = [&](const ExprPtr& pred) {
      // Record a column of the joined table used in an equi predicate.
      const ExprPtr& p = UnwrapData(pred);
      if (p->kind == ExprKind::kPathStep &&
          p->children[0]->kind == ExprKind::kVarRef &&
          p->children[0]->var_name == first.var) {
        right_col = p->step_name;
      }
    };
    // Conditions from the join clause itself (if the optimizer already
    // converted), plus where clauses and filters.
    if (first.kind == Clause::Kind::kJoin) {
      for (const auto& [l, r] : first.equi_keys) {
        Result<TypedSql> lt = Translate(l, ctx);
        Result<TypedSql> rt = Translate(r, ctx);
        ok = ok && lt.ok() && lt->ok() && rt.ok() && rt->ok();
        if (ok) {
          and_into(SqlExpr::Binary("=", lt->sql, rt->sql));
          note_right_col(r);
          note_right_col(l);
        }
      }
      if (ok && first.condition) {
        Result<TypedSql> c = Translate(first.condition, ctx);
        ok = c.ok() && c->ok();
        if (ok) and_into(c->sql);
      }
    }
    for (size_t i = 1; i < flwor->clauses.size() && ok; ++i) {
      const Clause& cl = flwor->clauses[i];
      if (cl.kind != Clause::Kind::kWhere) {
        ok = false;
        break;
      }
      Result<TypedSql> p = Translate(cl.expr, ctx);
      ok = p.ok() && p->ok();
      if (ok) {
        and_into(p->sql);
        // Track equi columns.
        const ExprPtr& pe = cl.expr;
        if (pe->kind == ExprKind::kComparison &&
            (pe->op == "eq" || pe->op == "=")) {
          note_right_col(pe->children[0]);
          note_right_col(pe->children[1]);
        }
      }
    }
    for (const auto& f : filters) {
      if (!ok) break;
      ctx.aliases.push_back({".", alias, row_type});
      Result<TypedSql> p = Translate(f, ctx);
      ctx.aliases.pop_back();
      ok = p.ok() && p->ok();
      if (ok) and_into(p->sql);
    }
    ctx.aliases.pop_back();  // the nested variable is not in scope outside
    if (!ok || right_col.empty() || cond == nullptr) {
      ctx.aliases.resize(saved_aliases_);
      return false;
    }
    current_select_->joins.push_back(
        {JoinKind::kLeftOuter, {fn->Property("table"), nullptr, alias}, cond});
    *alias_out = alias;
    *join_col = right_col;
    *row_type_out = row_type;
    return true;
  }

  void RollbackJoin(RegionContext& ctx) {
    current_select_->joins.resize(save_);
    ctx.aliases.resize(saved_aliases_);
  }

  Result<bool> TryRewriteFLWOR(ExprPtr& e) {
    RegionContext ctx;
    auto select = std::make_shared<SelectStmt>();
    current_select_ = select.get();

    auto and_where = [&](SqlExprPtr p) {
      select->where = select->where
                          ? SqlExpr::Binary("AND", select->where, std::move(p))
                          : std::move(p);
    };

    for (const auto& cl : e->clauses) {
      switch (cl.kind) {
        case Clause::Kind::kFor:
        case Clause::Kind::kJoin: {
          if (!cl.positional_var.empty()) return false;
          std::vector<ExprPtr> filters;
          const ExprPtr& base = PeelFilters(cl.expr, &filters);
          const ExternalFunction* fn = AsTableFn(*base);
          if (fn == nullptr) return false;
          if (ctx.source.empty()) {
            ctx.source = fn->Property("source");
            ctx.vendor = fn->Property("vendor");
          } else if (fn->Property("source") != ctx.source) {
            return false;  // cross-source: stays in the mid-tier / PP-k
          }
          std::string alias = ctx.NewAlias();
          bool is_first = select->from.table_name.empty();
          SqlExprPtr join_cond;
          auto and_local = [&](SqlExprPtr p) {
            join_cond = join_cond
                            ? SqlExpr::Binary("AND", join_cond, std::move(p))
                            : std::move(p);
          };
          // Join conditions (for optimizer-introduced kJoin clauses).
          if (cl.kind == Clause::Kind::kJoin) {
            ctx.aliases.push_back({cl.var, alias, fn->return_type.item});
            bool ok = true;
            for (const auto& [l, r] : cl.equi_keys) {
              Result<TypedSql> lt = Translate(l, ctx);
              Result<TypedSql> rt = Translate(r, ctx);
              ok = ok && lt.ok() && lt->ok() && rt.ok() && rt->ok();
              if (ok) and_local(SqlExpr::Binary("=", lt->sql, rt->sql));
            }
            if (ok && cl.condition) {
              Result<TypedSql> c = Translate(cl.condition, ctx);
              ok = c.ok() && c->ok();
              if (ok) and_local(c->sql);
            }
            ctx.aliases.pop_back();
            if (!ok) return false;
          }
          // Filter predicates on the binding.
          {
            ctx.aliases.push_back({".", alias, fn->return_type.item});
            bool ok = true;
            for (const auto& f : filters) {
              Result<TypedSql> p = Translate(f, ctx);
              ok = ok && p.ok() && p->ok() &&
                   p->type == AtomicType::kBoolean;
              if (ok) {
                if (is_first) {
                  and_where(p->sql);
                } else {
                  and_local(p->sql);
                }
              }
            }
            ctx.aliases.pop_back();
            if (!ok) return false;
          }
          if (is_first) {
            if (cl.kind == Clause::Kind::kJoin && cl.left_outer) return false;
            select->from = {fn->Property("table"), nullptr, alias};
            if (join_cond) and_where(join_cond);
          } else {
            JoinKind kind = cl.kind == Clause::Kind::kJoin && cl.left_outer
                                ? JoinKind::kLeftOuter
                                : JoinKind::kInner;
            if (kind == JoinKind::kLeftOuter && join_cond == nullptr) {
              return false;
            }
            select->joins.push_back(
                {kind, {fn->Property("table"), nullptr, alias}, join_cond});
          }
          ctx.aliases.push_back({cl.var, alias, fn->return_type.item});
          break;
        }
        case Clause::Kind::kLet: {
          if (ctx.source.empty()) return false;
          // Let-bound pushable scalars and nested aggregates (pattern i's
          // `let $oc := count(...)`) become named SQL expressions.
          Result<TypedSql> t = Translate(cl.expr, ctx);
          if (!t.ok()) return t.status();
          if (!t->ok()) {
            t = TranslateNestedAggSql(cl.expr, ctx);
            if (!t.ok()) return t.status();
          }
          if (!t->ok()) return false;
          ctx.var_sql[cl.var] = *t;
          break;
        }
        case Clause::Kind::kWhere: {
          if (ctx.source.empty()) return false;
          if (ctx.grouped) return false;  // HAVING unsupported: bail
          Result<TypedSql> t = Translate(cl.expr, ctx);
          if (!t.ok() || !t->ok() || t->type != AtomicType::kBoolean) {
            return false;
          }
          and_where(t->sql);
          break;
        }
        case Clause::Kind::kGroupBy: {
          if (ctx.grouped || ctx.source.empty() || pending_agg_used_) {
            return false;
          }
          for (const auto& gv : cl.group_vars) {
            const AliasBinding* a = ctx.FindAlias(gv.in_var);
            if (a == nullptr) return false;
            ctx.groupvar_alias[gv.out_var] = a->alias;
          }
          for (const auto& gk : cl.group_keys) {
            Result<TypedSql> t = Translate(gk.expr, ctx);
            if (!t.ok() || !t->ok()) return false;
            select->group_by.push_back(t->sql);
            if (!gk.as_var.empty()) ctx.var_sql[gk.as_var] = *t;
          }
          ctx.grouped = true;
          break;
        }
        case Clause::Kind::kOrderBy: {
          if (ctx.source.empty()) return false;
          for (const auto& ok : cl.order_keys) {
            Result<TypedSql> t = Translate(ok.expr, ctx);
            if (!t.ok() || !t->ok()) return false;
            select->order_by.push_back({t->sql, ok.descending});
          }
          break;
        }
      }
    }
    if (select->from.table_name.empty()) return false;

    // ----- Return expression ------------------------------------------
    std::string row_var = "row#pd" + std::to_string(serial_++);
    OutputTable out{select, {}, xquery::MakeVarRef(row_var)};
    NestedJoinState njs;
    njs.agg_used = pending_agg_used_;
    ExprPtr rebuild = RebuildExpr(e->children[0], ctx, out, njs,
                                  /*as_content=*/false);
    bool agg_used = njs.agg_used || pending_agg_used_;
    pending_agg_used_ = false;
    if (rebuild == nullptr) return false;
    if (select->items.empty()) return false;

    // Pattern (g): implicit grouping by every non-aggregate output.
    if (agg_used && !ctx.grouped) {
      for (const auto& item : select->items) {
        if (!ContainsAggregate(item.expr)) {
          select->group_by.push_back(item.expr->Clone());
        }
      }
      if (select->group_by.empty()) return false;
    }
    // Pattern (f): pure key-projection group-by renders as DISTINCT.
    if (ctx.grouped && ctx.groupvar_alias.empty() && !select->group_by.empty()) {
      bool aggregates = false;
      bool only_keys = true;
      for (const auto& item : select->items) {
        if (ContainsAggregate(item.expr)) aggregates = true;
        bool is_key = false;
        for (const auto& g : select->group_by) {
          if (relational::DebugString(*item.expr) ==
              relational::DebugString(*g)) {
            is_key = true;
          }
        }
        only_keys = only_keys && is_key;
      }
      if (!aggregates && only_keys &&
          select->items.size() == select->group_by.size()) {
        select->distinct = true;
        select->group_by.clear();
      }
    }

    auto spec = std::make_shared<SqlQuerySpec>();
    spec->source = ctx.source;
    spec->select = select;
    spec->columns = out.cols;
    spec->row_name = "row";
    // Stash the vendor for the pagination rule.
    vendor_by_spec_[spec.get()] = ctx.vendor;

    ExprPtr sql_node = xquery::MakeSqlQuery(spec, ctx.params, e->loc);

    if (!njs.rows_used) {
      Clause for_row;
      for_row.kind = Clause::Kind::kFor;
      for_row.var = row_var;
      for_row.expr = sql_node;
      e = xquery::MakeFLWOR({std::move(for_row)}, rebuild, e->loc);
      if (stats_ != nullptr) ++stats_->regions_pushed;
      return true;
    }

    // ----- Pattern (c) finalization: mid-tier pre-clustered regroup ----
    // Group key: the outer table's primary key.
    const ExternalFunction* first_fn = nullptr;
    for (const auto& fn : functions_->external_functions()) {
      if (fn.Property("source") == ctx.source &&
          fn.Property("table") == select->from.table_name &&
          fn.kind() == "relational") {
        first_fn = &fn;
      }
    }
    if (first_fn == nullptr) return false;
    std::string pk = first_fn->Property("primary_key");
    if (pk.empty() || pk.find(',') != std::string::npos) return false;
    std::string pk_col = out.AddScalarColumn(
        {SqlExpr::Column(ctx.aliases.front().alias, pk),
         ColumnType(ctx.aliases.front().row_type, pk)});
    spec->columns = out.cols;

    std::string rows_var = "rows#pd" + std::to_string(serial_++);
    // Outer scalar rebuilds read from the group's first row.
    ExprPtr first_row = xquery::MakeFilter(
        xquery::MakeVarRef(rows_var),
        xquery::MakeLiteral(xml::AtomicValue::Integer(1)));
    SubstituteVar(rebuild, row_var, first_row);
    // The nested loop: matched rows of the group.
    std::string r_var = "r#pd" + std::to_string(serial_++);
    ExprPtr nested_inner = njs.inner_rebuild;
    SubstituteVar(nested_inner, row_var, xquery::MakeVarRef(r_var));
    Clause nested_for;
    nested_for.kind = Clause::Kind::kFor;
    nested_for.var = r_var;
    nested_for.expr = xquery::MakeVarRef(rows_var);
    Clause nested_where;
    nested_where.kind = Clause::Kind::kWhere;
    nested_where.expr = xquery::MakeFunctionCall(
        "fn:exists", {xquery::MakePathStep(xquery::MakeVarRef(r_var),
                                           njs.marker_col, false)});
    ExprPtr nested_loop = xquery::MakeFLWOR(
        {std::move(nested_for), std::move(nested_where)}, nested_inner, e->loc);
    SubstituteVar(rebuild, njs.placeholder, nested_loop);

    Clause for_row;
    for_row.kind = Clause::Kind::kFor;
    for_row.var = row_var;
    for_row.expr = sql_node;
    Clause group;
    group.kind = Clause::Kind::kGroupBy;
    group.group_vars.push_back({row_var, rows_var});
    Clause::GroupKey key;
    key.expr = xquery::MakePathStep(xquery::MakeVarRef(row_var), pk_col, false);
    group.group_keys.push_back(std::move(key));
    // Rows arrive clustered by the outer table's order, and the key is
    // its primary key: streaming grouping is sound (paper §4.2).
    group.pre_clustered = true;
    e = xquery::MakeFLWOR({std::move(for_row), std::move(group)}, rebuild,
                          e->loc);
    if (stats_ != nullptr) ++stats_->regions_pushed;
    return true;
  }

  // Pattern (i): subsequence over a pushed single-for loop becomes a row
  // range when the dialect supports pagination.
  void TryPushRange(ExprPtr& e) {
    if (e->children.size() < 2) return;
    const ExprPtr& inner = e->children[0];
    if (inner->kind != ExprKind::kFLWOR || inner->clauses.size() != 1) return;
    const Clause& cl = inner->clauses[0];
    if (cl.kind != Clause::Kind::kFor ||
        cl.expr->kind != ExprKind::kSqlQuery) {
      return;
    }
    // Exactly one constructed item per row keeps row/item positions 1:1.
    if (inner->children[0]->kind != ExprKind::kElementCtor) return;
    if (e->children[1]->kind != ExprKind::kLiteral ||
        e->children[1]->literal.type() != xml::AtomicType::kInteger) {
      return;
    }
    if (e->children.size() > 2 &&
        (e->children[2]->kind != ExprKind::kLiteral ||
         e->children[2]->literal.type() != xml::AtomicType::kInteger)) {
      return;
    }
    auto vendor_it = vendor_by_spec_.find(cl.expr->sql.get());
    std::string vendor =
        vendor_it == vendor_by_spec_.end() ? "" : vendor_it->second;
    if (!CapabilitiesOf(DialectForVendor(vendor)).pagination) return;
    cl.expr->sql->select->range_start = ReadValue(*e->children[1]).AsInteger();
    cl.expr->sql->select->range_count =
        e->children.size() > 2 ? ReadValue(*e->children[2]).AsInteger() : -1;
    e = inner;
    if (stats_ != nullptr) ++stats_->ranges_pushed;
  }

  // The value of literal `lit`, consumed by a rewrite. Consuming a query
  // literal's value ties the plan to it (see PushdownStats).
  const xml::AtomicValue& ReadValue(const Expr& lit) {
    if (lit.literal_slot >= 0 && stats_ != nullptr) {
      ++stats_->slotted_literals_read;
    }
    return lit.literal;
  }

  // §9 extensible pushdown: filter chains over a custom queryable source
  // (e.g. an LDAP-like directory) ship the conjuncts the source declared
  // it can evaluate; the rest stays as a mid-tier filter.
  void TryRewriteCustomFilter(ExprPtr& e) {
    if (e->kind != ExprKind::kFilter) return;
    std::vector<ExprPtr> filters;
    const ExprPtr& base = PeelFilters(e, &filters);
    if (base->kind != ExprKind::kFunctionCall || !base->children.empty()) {
      return;
    }
    const ExternalFunction* fn = functions_->FindExternal(base->fn_name);
    if (fn == nullptr || fn->kind() != "custom-queryable") return;
    std::set<std::string> ops;
    for (const auto& op : Split(fn->Property("pushdown_ops"), ',')) {
      ops.insert(std::string(Trim(op)));
    }
    // Boolean predicates commute; a positional predicate would not, so
    // require every predicate to be boolean before reordering anything.
    for (const auto& f : filters) {
      if (xsd::AtomizedType(f->static_type) != AtomicType::kBoolean) return;
    }
    static const std::map<std::string, std::string> kValueOps = {
        {"eq", "eq"}, {"ne", "ne"}, {"lt", "lt"}, {"le", "le"},
        {"gt", "gt"}, {"ge", "ge"}, {"=", "eq"},  {"!=", "ne"},
        {"<", "lt"},  {"<=", "le"}, {">", "gt"},  {">=", "ge"}};
    auto spec = std::make_shared<xquery::CustomQuerySpec>();
    spec->source = fn->Property("source");
    spec->function = base->fn_name;
    std::vector<ExprPtr> params;
    std::vector<ExprPtr> residual;

    std::function<void(const ExprPtr&)> consume = [&](const ExprPtr& pred) {
      if (pred->kind == ExprKind::kLogical && pred->op == "and") {
        consume(pred->children[0]);
        consume(pred->children[1]);
        return;
      }
      if (pred->kind == ExprKind::kComparison) {
        auto op_it = kValueOps.find(pred->op);
        if (op_it != kValueOps.end() && ops.count(op_it->second) > 0) {
          for (int side = 0; side < 2; ++side) {
            const ExprPtr& attr_side = UnwrapData(pred->children[side]);
            const ExprPtr& value_side = pred->children[1 - side];
            bool attr_ok =
                attr_side->kind == ExprKind::kPathStep &&
                !attr_side->is_attribute_step &&
                attr_side->children[0]->kind == ExprKind::kVarRef &&
                attr_side->children[0]->var_name == ".";
            bool value_ok = optimizer::FreeVars(*value_side).count(".") == 0 &&
                            !value_side->static_type.allows_many();
            if (attr_ok && value_ok) {
              std::string op = op_it->second;
              if (side == 1) {
                // value op attr: flip the comparison.
                static const std::map<std::string, std::string> kFlip = {
                    {"eq", "eq"}, {"ne", "ne"}, {"lt", "gt"},
                    {"le", "ge"}, {"gt", "lt"}, {"ge", "le"}};
                op = kFlip.at(op);
              }
              if (ops.count(op) == 0) break;
              xquery::CustomQuerySpec::Conjunct conjunct;
              conjunct.attribute = attr_side->step_name;
              conjunct.op = op;
              conjunct.param_index = static_cast<int>(params.size());
              params.push_back(CloneExpr(value_side));
              spec->conjuncts.push_back(std::move(conjunct));
              return;
            }
          }
        }
      }
      residual.push_back(pred);
    };
    for (const auto& f : filters) consume(f);
    if (spec->conjuncts.empty()) return;

    ExprPtr node = xquery::MakeCustomQuery(spec, std::move(params), e->loc);
    for (const auto& r : residual) {
      node = xquery::MakeFilter(node, r, e->loc);
    }
    e = node;
    if (stats_ != nullptr) ++stats_->custom_filters_pushed;
  }

  // Prefix pushdown: when a FLWOR cannot push as a whole region, its
  // leading `for $x in T()` still becomes a scan, and the where
  // conjuncts directly after it that read only $x (literals yes, outer
  // or correlated variables no) filter that scan in SQL. A positional
  // variable counts the unfiltered rows, so it blocks the fold.
  void TryRewriteLeadingScan(Expr& flwor) {
    if (flwor.clauses.empty()) return;
    Clause& first = flwor.clauses[0];
    if (first.kind != Clause::Kind::kFor || !first.positional_var.empty()) {
      return;
    }
    std::vector<ExprPtr> wheres;
    for (size_t i = 1; i < flwor.clauses.size(); ++i) {
      const Clause& cl = flwor.clauses[i];
      if (cl.kind != Clause::Kind::kWhere ||
          FreeVars(*cl.expr) != std::set<std::string>{first.var}) {
        break;
      }
      wheres.push_back(cl.expr);
    }
    if (wheres.empty()) return;
    ExprPtr scan = first.expr;
    size_t folded = TryRewriteBareScan(scan, first.var, wheres);
    if (scan == first.expr) return;
    first.expr = scan;
    flwor.clauses.erase(flwor.clauses.begin() + 1,
                        flwor.clauses.begin() + 1 +
                            static_cast<ptrdiff_t>(folded));
  }

  // Standalone table scans and filtered scans become SQL directly; the
  // row elements keep the original column names so surrounding
  // (unrewritten) navigation still works. `wheres` are conjuncts over the
  // scan's row variable `var` (see TryRewriteLeadingScan): the longest
  // prefix of them that translates joins the SQL WHERE. Returns how many
  // did; `e` is left unchanged when the scan itself cannot push.
  size_t TryRewriteBareScan(ExprPtr& e, const std::string& var = "",
                            const std::vector<ExprPtr>& wheres = {}) {
    std::vector<ExprPtr> filters;
    const ExprPtr& base = PeelFilters(e, &filters);
    const ExternalFunction* fn = AsTableFn(*base);
    if (fn == nullptr) return 0;
    RegionContext ctx;
    ctx.source = fn->Property("source");
    ctx.vendor = fn->Property("vendor");
    auto select = std::make_shared<SelectStmt>();
    current_select_ = select.get();
    std::string alias = ctx.NewAlias();
    select->from = {fn->Property("table"), nullptr, alias};
    auto spec = std::make_shared<SqlQuerySpec>();
    std::vector<std::string> names;
    for (const auto& field : fn->return_type.item->fields()) {
      names.push_back(field.name);
      spec->columns.push_back({field.name, xsd::AtomizedType(field.type)});
    }
    select->items = relational::ColumnItems(alias, names);
    auto and_where = [&](SqlExprPtr p) {
      select->where = select->where
                          ? SqlExpr::Binary("AND", select->where, std::move(p))
                          : std::move(p);
    };
    ctx.aliases.push_back({".", alias, fn->return_type.item});
    for (const auto& f : filters) {
      // Positional predicates cannot be pushed.
      if (xsd::AtomizedType(f->static_type) != AtomicType::kBoolean) return 0;
      Result<TypedSql> p = Translate(f, ctx);
      if (!p.ok() || !p->ok()) return 0;
      and_where(p->sql);
    }
    ctx.aliases.back().var = var;  // the wheres name the row by its variable
    size_t folded = 0;
    for (const auto& w : wheres) {
      size_t params = ctx.params.size();
      Result<TypedSql> p = Translate(w, ctx);
      if (!p.ok() || !p->ok() || p->type != AtomicType::kBoolean) {
        ctx.params.resize(params);  // parameters of the untranslated part
        break;
      }
      and_where(p->sql);
      ++folded;
    }
    spec->source = ctx.source;
    spec->select = select;
    spec->row_name = fn->return_type.item->name();
    vendor_by_spec_[spec.get()] = ctx.vendor;
    bare_scans_[spec] = fn->return_type.item.get();
    e = xquery::MakeSqlQuery(spec, ctx.params, e->loc);
    if (stats_ != nullptr) ++stats_->bare_scans_pushed;
    return folded;
  }

  // ----- Column pruning (pattern a for rows that stay in the mid-tier) ---
  //
  // Runs once the whole tree is rewritten: view unfolding, predicate
  // placement and the leading-scan fold have settled which columns each
  // FLWOR still reads. A row whose unread nullable columns are missing is
  // the row the source returns when they are NULL, so it is a valid
  // instance of the row type; NOT NULL columns always ship.

  void PruneColumns(Expr& e) {
    xquery::ForEachChildSlot(e, [&](ExprPtr& c) {
      if (c) PruneColumns(*c);
    });
    if (e.kind != ExprKind::kFLWOR) return;
    for (Clause& cl : e.clauses) {
      if (cl.kind != Clause::Kind::kFor && cl.kind != Clause::Kind::kJoin) {
        continue;
      }
      auto scan = bare_scans_.find(cl.expr->sql);
      if (scan == bare_scans_.end()) continue;
      const xsd::XType& row = *scan->second;
      std::set<std::string> read;
      if (!ColumnReads(e, cl.var, row, &read)) continue;
      std::vector<std::string> kept;
      for (const auto& field : row.fields()) {
        if (read.count(field.name) > 0 || !field.type.allows_empty()) {
          kept.push_back(field.name);
        }
      }
      if (kept.size() == row.fields().size()) continue;
      auto project = [&](SelectStmt& select,
                         std::vector<SqlQuerySpec::OutCol>& columns) {
        select.items = relational::ColumnItems(select.from.alias, kept);
        std::vector<SqlQuerySpec::OutCol> out;
        for (const auto& col : columns) {
          if (std::find(kept.begin(), kept.end(), col.name) != kept.end()) {
            out.push_back(col);
          }
        }
        columns = std::move(out);
      };
      project(*cl.expr->sql->select, cl.expr->sql->columns);
      if (cl.ppk_fetch != nullptr) {
        // The fetch spec came from the optimizer: project a copy.
        auto fetch = std::make_shared<xquery::PPkFetchSpec>(*cl.ppk_fetch);
        fetch->select_template = fetch->select_template->Clone();
        project(*fetch->select_template, fetch->columns);
        cl.ppk_fetch = std::move(fetch);
      }
      if (stats_ != nullptr) {
        stats_->columns_pruned +=
            static_cast<int>(row.fields().size() - kept.size());
      }
    }
  }

  // Adds to `read` the columns of `var`'s rows (of type `row`) that `e`
  // reads: a child step `$var/NAME` reads NAME, a navigation call on
  // `$var` its argument child. Returns false on any other use of `var`
  // (returned, copied, passed on, let-bound, filtered, regrouped), which
  // needs the whole row. A nested rebinding of the name only adds reads.
  bool ColumnReads(Expr& e, const std::string& var, const xsd::XType& row,
                   std::set<std::string>* read) {
    auto reads_column = [&](const std::string& column) {
      if (row.FindField(column) == nullptr) return false;
      read->insert(column);
      return true;
    };
    if (e.kind == ExprKind::kVarRef) return e.var_name != var;
    if (e.kind == ExprKind::kPathStep && !e.is_attribute_step &&
        e.children[0]->kind == ExprKind::kVarRef &&
        e.children[0]->var_name == var) {
      return reads_column(e.step_name);
    }
    if (e.kind == ExprKind::kFunctionCall && e.children.size() == 1) {
      const ExternalFunction* nav = functions_->FindExternal(e.fn_name);
      const Expr* arg = e.children[0].get();
      while (arg->kind == ExprKind::kTypematch) arg = arg->children[0].get();
      if (nav != nullptr && nav->kind() == "relational-nav" &&
          arg->kind == ExprKind::kVarRef && arg->var_name == var) {
        return reads_column(nav->Property("arg_child"));
      }
    }
    for (const Clause& cl : e.clauses) {
      for (const auto& gv : cl.group_vars) {
        if (gv.in_var == var) return false;
      }
    }
    bool ok = true;
    xquery::ForEachChildSlot(e, [&](ExprPtr& c) {
      if (c && ok) ok = ColumnReads(*c, var, row, read);
    });
    return ok;
  }

  const compiler::FunctionTable* functions_;
  PushdownStats* stats_;
  SelectStmt* current_select_ = nullptr;
  size_t save_ = 0;
  size_t saved_aliases_ = 0;
  int serial_ = 0;
  bool pending_agg_used_ = false;
  std::map<const SqlQuerySpec*, std::string> vendor_by_spec_;
  // Bare scans built by this pass, with their row types (the pointers
  // are owned: no later allocation can reuse a key).
  std::map<std::shared_ptr<SqlQuerySpec>, const xsd::XType*> bare_scans_;
};

}  // namespace

Status PushdownRewrite(ExprPtr& root, const compiler::FunctionTable* functions,
                       PushdownStats* stats) {
  PushdownPass pass(functions, stats);
  return pass.Run(root);
}

}  // namespace aldsp::sql
