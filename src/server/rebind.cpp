#include "server/rebind.h"

#include <cstring>

#include "relational/sql_ast.h"

namespace aldsp::server {

namespace {

using relational::SelectStmt;
using relational::SqlExpr;
using xquery::Expr;
using xquery::ExprKind;
using xml::AtomicValue;

// Walkers over every literal of a plan; the callbacks pick the slotted
// ones.
template <typename SqlFn>
void VisitSelect(SelectStmt& s, SqlFn& on_sql);

template <typename SqlFn>
void VisitSql(SqlExpr& e, SqlFn& on_sql) {
  if (e.kind == SqlExpr::Kind::kLiteral) {
    on_sql(e);
    return;
  }
  for (auto& a : e.args) {
    if (a) VisitSql(*a, on_sql);
  }
  for (auto& [cond, result] : e.whens) {
    if (cond) VisitSql(*cond, on_sql);
    if (result) VisitSql(*result, on_sql);
  }
  if (e.else_expr) VisitSql(*e.else_expr, on_sql);
  if (e.subquery) VisitSelect(*e.subquery, on_sql);
}

template <typename SqlFn>
void VisitSelect(SelectStmt& s, SqlFn& on_sql) {
  for (auto& item : s.items) {
    if (item.expr) VisitSql(*item.expr, on_sql);
  }
  if (s.from.derived) VisitSelect(*s.from.derived, on_sql);
  for (auto& j : s.joins) {
    if (j.right.derived) VisitSelect(*j.right.derived, on_sql);
    if (j.condition) VisitSql(*j.condition, on_sql);
  }
  if (s.where) VisitSql(*s.where, on_sql);
  for (auto& g : s.group_by) {
    if (g) VisitSql(*g, on_sql);
  }
  if (s.having) VisitSql(*s.having, on_sql);
  for (auto& o : s.order_by) {
    if (o.expr) VisitSql(*o.expr, on_sql);
  }
}

template <typename ExprFn, typename SqlFn>
void VisitLiterals(Expr& e, ExprFn& on_expr, SqlFn& on_sql) {
  if (e.kind == ExprKind::kLiteral) {
    on_expr(e);
    return;
  }
  if (e.sql && e.sql->select) VisitSelect(*e.sql->select, on_sql);
  for (auto& cl : e.clauses) {
    if (cl.ppk_fetch && cl.ppk_fetch->select_template) {
      VisitSelect(*cl.ppk_fetch->select_template, on_sql);
    }
  }
  xquery::ForEachChildSlot(e, [&](xquery::ExprPtr& c) {
    VisitLiterals(*c, on_expr, on_sql);
  });
}

bool SameLiteral(const AtomicValue& a, const AtomicValue& b) {
  return a.type() == b.type() && a.Lexical() == b.Lexical();
}

}  // namespace

std::vector<AtomicValue> SlotLiterals(const Expr& parsed) {
  std::vector<AtomicValue> out;
  auto on_expr = [&](Expr& lit) {
    if (lit.literal_slot < 0) return;
    const size_t slot = static_cast<size_t>(lit.literal_slot);
    if (slot >= out.size()) out.resize(slot + 1);
    out[slot] = lit.literal;
  };
  auto no_sql = [](SqlExpr&) {};  // a parsed tree holds no SQL
  // The walkers take mutable nodes; this walk only reads.
  VisitLiterals(const_cast<Expr&>(parsed), on_expr, no_sql);
  return out;
}

std::string ShapeKey(uint64_t statement_fp,
                     const std::vector<AtomicValue>& literals) {
  std::string key(sizeof(statement_fp) + literals.size(), '\0');
  std::memcpy(key.data(), &statement_fp, sizeof(statement_fp));
  for (size_t i = 0; i < literals.size(); ++i) {
    key[sizeof(statement_fp) + i] = static_cast<char>(literals[i].type());
  }
  return key;
}

bool SlotsSurvive(const Expr& plan, const std::vector<AtomicValue>& literals) {
  std::vector<bool> seen(literals.size(), false);
  bool intact = true;
  auto check = [&](int slot, const AtomicValue& value) {
    if (slot < 0) return;
    const size_t s = static_cast<size_t>(slot);
    if (s >= literals.size() || !SameLiteral(value, literals[s])) {
      intact = false;
    } else {
      seen[s] = true;
    }
  };
  auto on_expr = [&](Expr& lit) { check(lit.literal_slot, lit.literal); };
  auto on_sql = [&](SqlExpr& lit) {
    check(lit.literal_slot, lit.literal.value);
  };
  VisitLiterals(const_cast<Expr&>(plan), on_expr, on_sql);
  if (!intact) return false;
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

bool AllSlotsDiffer(const std::vector<AtomicValue>& a,
                    const std::vector<AtomicValue>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (SameLiteral(a[i], b[i])) return false;
  }
  return true;
}

std::string LiteralDigest(const Expr& plan, const xquery::SlotValues* slots) {
  std::string out;
  auto append = [&](int slot, char tag, const std::string& lexical) {
    out += std::to_string(slot);
    out += tag;
    out += lexical;
    out += '\0';
  };
  auto on_expr = [&](Expr& lit) {
    const AtomicValue& value = xquery::LiteralValue(lit, slots);
    append(lit.literal_slot, static_cast<char>(value.type()), value.Lexical());
  };
  auto on_sql = [&](SqlExpr& lit) {
    const relational::Cell cell = relational::LiteralCell(lit, slots);
    if (cell.is_null) {
      append(lit.literal_slot, 'N', "");
    } else {
      append(lit.literal_slot, static_cast<char>(cell.value.type()),
             cell.value.Lexical());
    }
  };
  VisitLiterals(const_cast<Expr&>(plan), on_expr, on_sql);
  return out;
}

}  // namespace aldsp::server
