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

bool HasSlots(SelectStmt& s) {
  bool found = false;
  auto note = [&](SqlExpr& lit) { found |= lit.literal_slot >= 0; };
  VisitSelect(s, note);
  return found;
}

relational::SelectPtr ReboundSelect(const SelectStmt& s,
                                    const std::vector<AtomicValue>& literals) {
  relational::SelectPtr copy = s.Clone();
  auto patch = [&](SqlExpr& lit) {
    if (lit.literal_slot < 0) return;
    lit.literal = relational::Cell::Of(literals[lit.literal_slot]);
  };
  VisitSelect(*copy, patch);
  return copy;
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

std::string LiteralDigest(const Expr& plan) {
  std::string out;
  auto append = [&](int slot, char tag, const std::string& lexical) {
    out += std::to_string(slot);
    out += tag;
    out += lexical;
    out += '\0';
  };
  auto on_expr = [&](Expr& lit) {
    append(lit.literal_slot, static_cast<char>(lit.literal.type()),
           lit.literal.Lexical());
  };
  auto on_sql = [&](SqlExpr& lit) {
    if (lit.literal.is_null) {
      append(lit.literal_slot, 'N', "");
    } else {
      append(lit.literal_slot, static_cast<char>(lit.literal.value.type()),
             lit.literal.value.Lexical());
    }
  };
  VisitLiterals(const_cast<Expr&>(plan), on_expr, on_sql);
  return out;
}

// Path copying: a node is copied (shallowly) only when something below it
// changes, so the rebound plan shares every slot-free subtree with the
// template. Compiled plans are never mutated, so the sharing is safe.
xquery::ExprPtr RebindLiterals(const xquery::ExprPtr& e,
                               const std::vector<AtomicValue>& literals) {
  if (e->kind == ExprKind::kLiteral) {
    if (e->literal_slot < 0) return e;
    auto copy = std::make_shared<Expr>(*e);
    copy->literal = literals[e->literal_slot];
    return copy;
  }
  // Rebound child slots, by their position in the ForEachChildSlot order.
  std::vector<std::pair<size_t, xquery::ExprPtr>> children;
  size_t position = 0;
  Expr& node = const_cast<Expr&>(*e);  // read only
  xquery::ForEachChildSlot(node, [&](xquery::ExprPtr& c) {
    xquery::ExprPtr r = RebindLiterals(c, literals);
    if (r != c) children.emplace_back(position, std::move(r));
    ++position;
  });
  relational::SelectPtr select;
  if (node.sql && node.sql->select && HasSlots(*node.sql->select)) {
    select = ReboundSelect(*node.sql->select, literals);
  }
  std::vector<std::pair<size_t, std::shared_ptr<xquery::PPkFetchSpec>>>
      fetches;
  for (size_t i = 0; i < node.clauses.size(); ++i) {
    const auto& fetch = node.clauses[i].ppk_fetch;
    if (fetch && fetch->select_template && HasSlots(*fetch->select_template)) {
      auto spec = std::make_shared<xquery::PPkFetchSpec>(*fetch);
      spec->select_template = ReboundSelect(*fetch->select_template, literals);
      fetches.emplace_back(i, std::move(spec));
    }
  }
  if (children.empty() && select == nullptr && fetches.empty()) return e;

  auto copy = std::make_shared<Expr>(node);
  size_t next = 0;
  position = 0;
  xquery::ForEachChildSlot(*copy, [&](xquery::ExprPtr& c) {
    if (next < children.size() && children[next].first == position) {
      c = std::move(children[next++].second);
    }
    ++position;
  });
  if (select != nullptr) {
    copy->sql = std::make_shared<xquery::SqlQuerySpec>(*node.sql);
    copy->sql->select = std::move(select);
  }
  for (auto& [i, spec] : fetches) copy->clauses[i].ppk_fetch = std::move(spec);
  return copy;
}

}  // namespace aldsp::server
