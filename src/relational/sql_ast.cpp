#include "relational/sql_ast.h"

#include <sstream>

namespace aldsp::relational {

SqlExprPtr SqlExpr::Column(std::string alias, std::string column) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kColumn;
  e->table_alias = std::move(alias);
  e->column = std::move(column);
  return e;
}

SqlExprPtr SqlExpr::Literal(Cell value) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(value);
  return e;
}

SqlExprPtr SqlExpr::Param(int index) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kParam;
  e->param_index = index;
  return e;
}

SqlExprPtr SqlExpr::Binary(std::string op, SqlExprPtr lhs, SqlExprPtr rhs) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kBinary;
  e->op = std::move(op);
  e->args = {std::move(lhs), std::move(rhs)};
  return e;
}

SqlExprPtr SqlExpr::Not(SqlExprPtr arg) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kNot;
  e->args = {std::move(arg)};
  return e;
}

SqlExprPtr SqlExpr::IsNull(SqlExprPtr arg, bool negated) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kIsNull;
  e->args = {std::move(arg)};
  e->negated = negated;
  return e;
}

SqlExprPtr SqlExpr::Case(std::vector<std::pair<SqlExprPtr, SqlExprPtr>> whens,
                         SqlExprPtr else_expr) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kCase;
  e->whens = std::move(whens);
  e->else_expr = std::move(else_expr);
  return e;
}

SqlExprPtr SqlExpr::Func(SqlFunc f, std::vector<SqlExprPtr> args) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kFunc;
  e->func = f;
  e->args = std::move(args);
  return e;
}

SqlExprPtr SqlExpr::Aggregate(SqlAgg agg, SqlExprPtr arg, bool distinct) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kAggregate;
  e->agg = agg;
  if (arg) e->args = {std::move(arg)};
  e->distinct = distinct;
  return e;
}

SqlExprPtr SqlExpr::InList(SqlExprPtr probe, std::vector<SqlExprPtr> values,
                           bool negated) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kInList;
  e->args.push_back(std::move(probe));
  for (auto& v : values) e->args.push_back(std::move(v));
  e->negated = negated;
  return e;
}

SqlExprPtr SqlExpr::Exists(SelectPtr subquery) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kExists;
  e->subquery = std::move(subquery);
  return e;
}

SqlExprPtr SqlExpr::Like(SqlExprPtr input, std::string pattern) {
  auto e = std::make_shared<SqlExpr>();
  e->kind = Kind::kLike;
  e->args = {std::move(input)};
  e->op = std::move(pattern);
  return e;
}

SqlExprPtr SqlExpr::Clone() const {
  auto e = std::make_shared<SqlExpr>(*this);
  e->args.clear();
  for (const auto& a : args) e->args.push_back(a ? a->Clone() : nullptr);
  e->whens.clear();
  for (const auto& [c, r] : whens) {
    e->whens.emplace_back(c ? c->Clone() : nullptr, r ? r->Clone() : nullptr);
  }
  if (else_expr) e->else_expr = else_expr->Clone();
  if (subquery) e->subquery = subquery->Clone();
  return e;
}

std::vector<SelectItem> ColumnItems(const std::string& alias,
                                    const std::vector<std::string>& columns) {
  std::vector<SelectItem> items;
  items.reserve(columns.size());
  for (const auto& c : columns) items.push_back({SqlExpr::Column(alias, c), c});
  return items;
}

SelectPtr SelectStmt::Clone() const {
  auto s = std::make_shared<SelectStmt>();
  s->distinct = distinct;
  for (const auto& item : items) {
    s->items.push_back({item.expr ? item.expr->Clone() : nullptr,
                        item.output_name});
  }
  s->from = from;
  if (from.derived) s->from.derived = from.derived->Clone();
  for (const auto& j : joins) {
    JoinClause jc = j;
    if (j.right.derived) jc.right.derived = j.right.derived->Clone();
    if (j.condition) jc.condition = j.condition->Clone();
    s->joins.push_back(std::move(jc));
  }
  if (where) s->where = where->Clone();
  for (const auto& g : group_by) s->group_by.push_back(g->Clone());
  if (having) s->having = having->Clone();
  for (const auto& o : order_by) {
    s->order_by.push_back({o.expr->Clone(), o.descending});
  }
  s->range_start = range_start;
  s->range_count = range_count;
  return s;
}

namespace {

const char* AggName(SqlAgg a) {
  switch (a) {
    case SqlAgg::kCountStar:
    case SqlAgg::kCount:
      return "COUNT";
    case SqlAgg::kSum:
      return "SUM";
    case SqlAgg::kAvg:
      return "AVG";
    case SqlAgg::kMin:
      return "MIN";
    case SqlAgg::kMax:
      return "MAX";
  }
  return "?";
}

const char* FuncName(SqlFunc f) {
  switch (f) {
    case SqlFunc::kUpper:
      return "UPPER";
    case SqlFunc::kLower:
      return "LOWER";
    case SqlFunc::kSubstr:
      return "SUBSTR";
    case SqlFunc::kLength:
      return "LENGTH";
    case SqlFunc::kConcat:
      return "CONCAT";
    case SqlFunc::kAbs:
      return "ABS";
    case SqlFunc::kMod:
      return "MOD";
  }
  return "?";
}

using Slots = std::vector<xml::AtomicValue>;

void WriteExpr(const SqlExpr& e, const Slots* slots, std::ostringstream& os);

void WriteSelect(const SelectStmt& s, const Slots* slots,
                 std::ostringstream& os) {
  os << "SELECT ";
  if (s.distinct) os << "DISTINCT ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) os << ", ";
    WriteExpr(*s.items[i].expr, slots, os);
    if (!s.items[i].output_name.empty()) os << " AS " << s.items[i].output_name;
  }
  os << " FROM ";
  if (s.from.derived) {
    os << "(";
    WriteSelect(*s.from.derived, slots, os);
    os << ")";
  } else {
    os << "\"" << s.from.table_name << "\"";
  }
  if (!s.from.alias.empty()) os << " " << s.from.alias;
  for (const auto& j : s.joins) {
    os << (j.kind == JoinKind::kInner ? " JOIN " : " LEFT OUTER JOIN ");
    if (j.right.derived) {
      os << "(";
      WriteSelect(*j.right.derived, slots, os);
      os << ")";
    } else {
      os << "\"" << j.right.table_name << "\"";
    }
    if (!j.right.alias.empty()) os << " " << j.right.alias;
    if (j.condition) {
      os << " ON ";
      WriteExpr(*j.condition, slots, os);
    }
  }
  if (s.where) {
    os << " WHERE ";
    WriteExpr(*s.where, slots, os);
  }
  if (!s.group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) os << ", ";
      WriteExpr(*s.group_by[i], slots, os);
    }
  }
  if (s.having) {
    os << " HAVING ";
    WriteExpr(*s.having, slots, os);
  }
  if (!s.order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i > 0) os << ", ";
      WriteExpr(*s.order_by[i].expr, slots, os);
      if (s.order_by[i].descending) os << " DESC";
    }
  }
  if (s.range_start >= 0 || s.range_count >= 0) {
    os << " RANGE(" << s.range_start << "," << s.range_count << ")";
  }
}

void WriteExpr(const SqlExpr& e, const Slots* slots, std::ostringstream& os) {
  switch (e.kind) {
    case SqlExpr::Kind::kColumn:
      if (!e.table_alias.empty()) os << e.table_alias << ".";
      os << "\"" << e.column << "\"";
      break;
    case SqlExpr::Kind::kLiteral: {
      const Cell literal = LiteralCell(e, slots);
      if (literal.is_null) {
        os << "NULL";
      } else if (literal.value.is_string()) {
        os << "'" << literal.value.Lexical() << "'";
      } else {
        os << literal.ToString();
      }
      break;
    }
    case SqlExpr::Kind::kParam:
      os << "?";
      break;
    case SqlExpr::Kind::kBinary:
      os << "(";
      WriteExpr(*e.args[0], slots, os);
      os << " " << e.op << " ";
      WriteExpr(*e.args[1], slots, os);
      os << ")";
      break;
    case SqlExpr::Kind::kNot:
      os << "NOT (";
      WriteExpr(*e.args[0], slots, os);
      os << ")";
      break;
    case SqlExpr::Kind::kIsNull:
      WriteExpr(*e.args[0], slots, os);
      os << (e.negated ? " IS NOT NULL" : " IS NULL");
      break;
    case SqlExpr::Kind::kCase:
      os << "CASE";
      for (const auto& [c, r] : e.whens) {
        os << " WHEN ";
        WriteExpr(*c, slots, os);
        os << " THEN ";
        WriteExpr(*r, slots, os);
      }
      if (e.else_expr) {
        os << " ELSE ";
        WriteExpr(*e.else_expr, slots, os);
      }
      os << " END";
      break;
    case SqlExpr::Kind::kFunc:
      os << FuncName(e.func) << "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ", ";
        WriteExpr(*e.args[i], slots, os);
      }
      os << ")";
      break;
    case SqlExpr::Kind::kAggregate:
      os << AggName(e.agg) << "(";
      if (e.agg == SqlAgg::kCountStar) {
        os << "*";
      } else {
        if (e.distinct) os << "DISTINCT ";
        WriteExpr(*e.args[0], slots, os);
      }
      os << ")";
      break;
    case SqlExpr::Kind::kInList:
      WriteExpr(*e.args[0], slots, os);
      os << (e.negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < e.args.size(); ++i) {
        if (i > 1) os << ", ";
        WriteExpr(*e.args[i], slots, os);
      }
      os << ")";
      break;
    case SqlExpr::Kind::kExists:
      os << "EXISTS(";
      WriteSelect(*e.subquery, slots, os);
      os << ")";
      break;
    case SqlExpr::Kind::kLike:
      WriteExpr(*e.args[0], slots, os);
      os << " LIKE '" << e.op << "'";
      break;
  }
}

}  // namespace

Cell LiteralCell(const SqlExpr& e, const std::vector<xml::AtomicValue>* slots) {
  if (slots == nullptr || e.literal_slot < 0) return e.literal;
  return Cell::Of((*slots)[static_cast<size_t>(e.literal_slot)]);
}

std::string DebugString(const SqlExpr& expr,
                        const std::vector<xml::AtomicValue>* slots) {
  std::ostringstream os;
  WriteExpr(expr, slots, os);
  return os.str();
}

std::string DebugString(const SelectStmt& stmt,
                        const std::vector<xml::AtomicValue>* slots) {
  std::ostringstream os;
  WriteSelect(stmt, slots, os);
  return os.str();
}

}  // namespace aldsp::relational
