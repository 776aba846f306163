#include "relational/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"

namespace aldsp::relational {

namespace {

/// A flat working relation during execution: the concatenation of all
/// joined tables' columns, with a scope mapping aliases to offsets.
struct ScopeEntry {
  std::string alias;
  size_t offset;
  std::vector<std::string> cols;
};

struct Scope {
  std::vector<ScopeEntry> entries;

  // Returns (found, column offset in flat row).
  bool Resolve(const std::string& alias, const std::string& column,
               size_t* index) const {
    for (const auto& e : entries) {
      if (!alias.empty() && e.alias != alias) continue;
      for (size_t i = 0; i < e.cols.size(); ++i) {
        if (e.cols[i] == column) {
          *index = e.offset + i;
          return true;
        }
      }
      if (!alias.empty()) return false;  // alias matched but column missing
    }
    return false;
  }

  size_t Width() const {
    if (entries.empty()) return 0;
    const auto& last = entries.back();
    return last.offset + last.cols.size();
  }
};

Scope TableScope(const TableDef& def, const std::string& alias) {
  std::vector<std::string> cols;
  for (const auto& c : def.columns) cols.push_back(c.name);
  Scope scope;
  scope.entries.push_back({alias, 0, std::move(cols)});
  return scope;
}

/// Evaluation frame: a scope + current flat row, an optional group of
/// member rows (for aggregates), and a link to the enclosing frame for
/// correlated subqueries.
struct Frame {
  const Scope* scope = nullptr;
  const Row* row = nullptr;
  const std::vector<const Row*>* group = nullptr;
  const Frame* outer = nullptr;
};

/// A working relation. A base table's rows are borrowed in place: the
/// statement holds the database lock for its whole run, so the stored
/// vector cannot change under it. Join output, derived tables and
/// statement results own their rows.
struct Relation {
  Scope scope;
  const std::vector<Row>* stored = nullptr;
  std::vector<Row> owned;

  const std::vector<Row>& rows() const {
    return stored != nullptr ? *stored : owned;
  }
};

// Canonical encoding of a cell for hashing/grouping. NULL encodes to a
// distinguished tag (used by GROUP BY, where NULLs group together); join
// code must skip NULL keys itself.
std::string EncodeCell(const Cell& c) {
  if (c.is_null) return std::string("\x01N", 2);
  const xml::AtomicValue& v = c.value;
  char buf[64];
  switch (v.type()) {
    case xml::AtomicType::kInteger:
    case xml::AtomicType::kDateTime: {
      int64_t n = v.type() == xml::AtomicType::kInteger ? v.AsInteger()
                                                        : v.AsDateTime();
      std::snprintf(buf, sizeof(buf), "n%.17g", static_cast<double>(n));
      return buf;
    }
    case xml::AtomicType::kDecimal:
    case xml::AtomicType::kDouble:
      std::snprintf(buf, sizeof(buf), "n%.17g", v.AsDouble());
      return buf;
    case xml::AtomicType::kBoolean:
      return v.AsBoolean() ? "b1" : "b0";
    case xml::AtomicType::kString:
    case xml::AtomicType::kUntyped:
      return std::string("s").append(v.AsString());
  }
  return "?";
}

// SQL LIKE with % (any run), _ (any one char) and '\' escaping.
bool LikeMatch(const std::string& text, const std::string& pattern, size_t ti,
               size_t pi) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '%') {
      // Collapse consecutive % and try every suffix.
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t t = ti; t <= text.size(); ++t) {
        if (LikeMatch(text, pattern, t, pi)) return true;
      }
      return false;
    }
    if (pc == '\\' && pi + 1 < pattern.size()) {
      pc = pattern[++pi];
      if (ti >= text.size() || text[ti] != pc) return false;
    } else if (pc == '_') {
      if (ti >= text.size()) return false;
    } else {
      if (ti >= text.size() || text[ti] != pc) return false;
    }
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

std::string EncodeCells(const std::vector<Cell>& cells) {
  std::string out;
  for (const auto& c : cells) {
    std::string e = EncodeCell(c);
    out += std::to_string(e.size());
    out += ':';
    out += e;
  }
  return out;
}

class Executor {
 public:
  using TableLookup =
      std::function<Status(const std::string&, const TableDef**,
                           const std::vector<Row>**)>;

  Executor(TableLookup lookup, const std::vector<Cell>* params,
           SourceStats* stats,
           const std::vector<xml::AtomicValue>* literals = nullptr)
      : lookup_(std::move(lookup)),
        params_(params),
        literals_(literals),
        stats_(stats) {}

  Result<ResultSet> Run(const SelectStmt& stmt) {
    ALDSP_ASSIGN_OR_RETURN(Relation rel, ExecSelect(stmt, nullptr));
    ResultSet rs;
    rs.column_names = rel.scope.entries.empty()
                          ? std::vector<std::string>{}
                          : rel.scope.entries.front().cols;
    rs.rows = std::move(rel.owned);
    return rs;
  }

  Result<Cell> EvalPublic(const SqlExpr& e, const Frame& f) { return Eval(e, f); }

  Result<Relation> ExecSelect(const SelectStmt& s, const Frame* outer) {
    // ----- FROM + JOINs -----
    ALDSP_ASSIGN_OR_RETURN(Relation working, EvalTableRef(s.from, outer));
    for (const auto& join : s.joins) {
      ALDSP_ASSIGN_OR_RETURN(Relation right, EvalTableRef(join.right, outer));
      ALDSP_ASSIGN_OR_RETURN(working, ExecJoin(working, right, join, outer));
    }

    // ----- WHERE ----- (the surviving rows, read where they are)
    std::vector<const Row*> live;
    if (!s.where) live.reserve(working.rows().size());
    for (const Row& row : working.rows()) {
      if (s.where) {
        Frame f{&working.scope, &row, nullptr, outer};
        ALDSP_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*s.where, f));
        if (!keep) continue;
      }
      live.push_back(&row);
    }

    bool grouped = !s.group_by.empty() || s.having != nullptr ||
                   AnyAggregate(s.items) || AnyAggregateInOrderBy(s.order_by);

    struct OutRow {
      std::vector<Cell> order_keys;
      Row cells;
    };
    std::vector<OutRow> out;

    if (grouped) {
      // ----- GROUP BY -----
      struct Group {
        std::vector<const Row*> members;
      };
      std::vector<Group> groups;
      std::unordered_map<std::string, size_t> index;
      if (s.group_by.empty()) {
        // Global aggregate: exactly one group (possibly empty).
        groups.push_back({std::move(live)});
      } else {
        for (const Row* row : live) {
          Frame f{&working.scope, row, nullptr, outer};
          std::vector<Cell> key;
          for (const auto& g : s.group_by) {
            ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*g, f));
            key.push_back(std::move(c));
          }
          std::string enc = EncodeCells(key);
          auto it = index.find(enc);
          if (it == index.end()) {
            index.emplace(enc, groups.size());
            groups.emplace_back();
            it = index.find(enc);
          }
          groups[it->second].members.push_back(row);
        }
      }
      Row null_row(working.scope.Width(), Cell::Null());
      for (const auto& g : groups) {
        const Row* rep = g.members.empty() ? &null_row : g.members.front();
        Frame f{&working.scope, rep, &g.members, outer};
        if (s.having) {
          ALDSP_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*s.having, f));
          if (!keep) continue;
        }
        OutRow orow;
        orow.cells.reserve(s.items.size());
        for (const auto& item : s.items) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*item.expr, f));
          orow.cells.push_back(std::move(c));
        }
        for (const auto& o : s.order_by) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*o.expr, f));
          orow.order_keys.push_back(std::move(c));
        }
        out.push_back(std::move(orow));
      }
    } else {
      for (const Row* row : live) {
        Frame f{&working.scope, row, nullptr, outer};
        OutRow orow;
        orow.cells.reserve(s.items.size());
        for (const auto& item : s.items) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*item.expr, f));
          orow.cells.push_back(std::move(c));
        }
        for (const auto& o : s.order_by) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*o.expr, f));
          orow.order_keys.push_back(std::move(c));
        }
        out.push_back(std::move(orow));
      }
    }

    // ----- ORDER BY -----
    if (!s.order_by.empty()) {
      std::stable_sort(out.begin(), out.end(),
                       [&](const OutRow& a, const OutRow& b) {
                         for (size_t i = 0; i < s.order_by.size(); ++i) {
                           int c = OrderCompare(a.order_keys[i], b.order_keys[i]);
                           if (c != 0) {
                             return s.order_by[i].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }

    // ----- DISTINCT -----
    std::vector<Row> rows;
    rows.reserve(out.size());
    if (s.distinct) {
      std::unordered_map<std::string, bool> seen;
      for (auto& o : out) {
        std::string enc = EncodeCells(o.cells);
        if (seen.emplace(enc, true).second) rows.push_back(std::move(o.cells));
      }
    } else {
      for (auto& o : out) rows.push_back(std::move(o.cells));
    }

    // ----- Row range (pagination / subsequence pushdown) -----
    if (s.range_start >= 0 || s.range_count >= 0) {
      int64_t start = std::max<int64_t>(s.range_start, 1) - 1;  // to 0-based
      int64_t count = s.range_count >= 0
                          ? s.range_count
                          : static_cast<int64_t>(rows.size());
      if (start >= static_cast<int64_t>(rows.size())) {
        rows.clear();
      } else {
        int64_t end = std::min<int64_t>(start + count,
                                        static_cast<int64_t>(rows.size()));
        rows.erase(rows.begin() + end, rows.end());
        rows.erase(rows.begin(), rows.begin() + start);
      }
    }

    // Result relation: single scope entry with output column names.
    Relation result;
    std::vector<std::string> names;
    for (size_t i = 0; i < s.items.size(); ++i) {
      names.push_back(s.items[i].output_name.empty()
                          ? "c" + std::to_string(i + 1)
                          : s.items[i].output_name);
    }
    result.scope.entries.push_back({"", 0, std::move(names)});
    result.owned = std::move(rows);
    return result;
  }

 private:
  static bool ExprHasAggregate(const SqlExpr& e) {
    if (e.kind == SqlExpr::Kind::kAggregate) return true;
    for (const auto& a : e.args) {
      if (a && ExprHasAggregate(*a)) return true;
    }
    for (const auto& [c, r] : e.whens) {
      if ((c && ExprHasAggregate(*c)) || (r && ExprHasAggregate(*r))) return true;
    }
    if (e.else_expr && ExprHasAggregate(*e.else_expr)) return true;
    return false;
  }

  static bool AnyAggregate(const std::vector<SelectItem>& items) {
    for (const auto& i : items) {
      if (i.expr && ExprHasAggregate(*i.expr)) return true;
    }
    return false;
  }

  static bool AnyAggregateInOrderBy(const std::vector<OrderItem>& items) {
    for (const auto& i : items) {
      if (i.expr && ExprHasAggregate(*i.expr)) return true;
    }
    return false;
  }

  Result<Relation> EvalTableRef(const TableRef& ref, const Frame* outer) {
    Relation rel;
    if (ref.derived) {
      ALDSP_ASSIGN_OR_RETURN(Relation sub, ExecSelect(*ref.derived, outer));
      rel.scope.entries.push_back(
          {ref.alias, 0, sub.scope.entries.front().cols});
      rel.owned = std::move(sub.owned);
      return rel;
    }
    const TableDef* def = nullptr;
    const std::vector<Row>* rows = nullptr;
    ALDSP_RETURN_NOT_OK(lookup_(ref.table_name, &def, &rows));
    rel.scope =
        TableScope(*def, ref.alias.empty() ? ref.table_name : ref.alias);
    rel.stored = rows;
    if (stats_ != nullptr) stats_->rows_scanned += rows->size();
    return rel;
  }

  // Extracts conjuncts of a condition (flattening AND).
  static void CollectConjuncts(const SqlExprPtr& e,
                               std::vector<SqlExprPtr>* out) {
    if (e && e->kind == SqlExpr::Kind::kBinary && e->op == "AND") {
      CollectConjuncts(e->args[0], out);
      CollectConjuncts(e->args[1], out);
    } else if (e) {
      out->push_back(e);
    }
  }

  // True if every column reference in `e` resolves within `scope`.
  static bool ResolvesIn(const SqlExpr& e, const Scope& scope) {
    if (e.kind == SqlExpr::Kind::kColumn) {
      size_t idx;
      return scope.Resolve(e.table_alias, e.column, &idx);
    }
    if (e.kind == SqlExpr::Kind::kExists) return false;  // be conservative
    for (const auto& a : e.args) {
      if (a && !ResolvesIn(*a, scope)) return false;
    }
    for (const auto& [c, r] : e.whens) {
      if ((c && !ResolvesIn(*c, scope)) || (r && !ResolvesIn(*r, scope))) {
        return false;
      }
    }
    if (e.else_expr && !ResolvesIn(*e.else_expr, scope)) return false;
    return true;
  }

  Result<Relation> ExecJoin(const Relation& left, const Relation& right,
                            const JoinClause& join, const Frame* outer) {
    // Combined scope: left entries + right entries shifted.
    Relation combined;
    combined.scope = left.scope;
    size_t left_width = left.scope.Width();
    for (auto e : right.scope.entries) {
      e.offset += left_width;
      combined.scope.entries.push_back(std::move(e));
    }
    size_t right_width = right.scope.Width();

    // Split the ON condition into hashable equi pairs and residual.
    std::vector<SqlExprPtr> conjuncts;
    CollectConjuncts(join.condition, &conjuncts);
    std::vector<std::pair<SqlExprPtr, SqlExprPtr>> equi;  // (left, right)
    std::vector<SqlExprPtr> residual;
    for (const auto& c : conjuncts) {
      bool added = false;
      if (c->kind == SqlExpr::Kind::kBinary && c->op == "=") {
        const SqlExprPtr& a = c->args[0];
        const SqlExprPtr& b = c->args[1];
        if (ResolvesIn(*a, left.scope) && ResolvesIn(*b, right.scope)) {
          equi.emplace_back(a, b);
          added = true;
        } else if (ResolvesIn(*b, left.scope) && ResolvesIn(*a, right.scope)) {
          equi.emplace_back(b, a);
          added = true;
        }
      }
      if (!added) residual.push_back(c);
    }

    auto eval_residual = [&](const Row& row) -> Result<bool> {
      Frame f{&combined.scope, &row, nullptr, outer};
      for (const auto& r : residual) {
        ALDSP_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*r, f));
        if (!ok) return false;
      }
      return true;
    };

    if (!equi.empty()) {
      // Hash join: build on right, probe with left.
      std::unordered_map<std::string, std::vector<size_t>> build;
      const std::vector<Row>& rrows = right.rows();
      for (size_t ri = 0; ri < rrows.size(); ++ri) {
        Frame f{&right.scope, &rrows[ri], nullptr, outer};
        std::vector<Cell> key;
        bool has_null = false;
        for (const auto& [le, re] : equi) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*re, f));
          if (c.is_null) has_null = true;
          key.push_back(std::move(c));
        }
        if (has_null) continue;  // NULL keys never join
        build[EncodeCells(key)].push_back(ri);
      }
      for (const auto& lrow : left.rows()) {
        Frame f{&left.scope, &lrow, nullptr, outer};
        std::vector<Cell> key;
        bool has_null = false;
        for (const auto& [le, re] : equi) {
          ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*le, f));
          if (c.is_null) has_null = true;
          key.push_back(std::move(c));
        }
        bool matched = false;
        if (!has_null) {
          auto it = build.find(EncodeCells(key));
          if (it != build.end()) {
            for (size_t ri : it->second) {
              Row merged = lrow;
              merged.insert(merged.end(), rrows[ri].begin(), rrows[ri].end());
              ALDSP_ASSIGN_OR_RETURN(bool ok, eval_residual(merged));
              if (ok) {
                matched = true;
                combined.owned.push_back(std::move(merged));
              }
            }
          }
        }
        if (!matched && join.kind == JoinKind::kLeftOuter) {
          Row merged = lrow;
          merged.insert(merged.end(), right_width, Cell::Null());
          combined.owned.push_back(std::move(merged));
        }
      }
    } else {
      // Nested loop.
      for (const auto& lrow : left.rows()) {
        bool matched = false;
        for (const auto& rrow : right.rows()) {
          Row merged = lrow;
          merged.insert(merged.end(), rrow.begin(), rrow.end());
          bool ok = true;
          if (join.condition) {
            Frame f{&combined.scope, &merged, nullptr, outer};
            ALDSP_ASSIGN_OR_RETURN(ok, EvalPredicate(*join.condition, f));
          }
          if (ok) {
            matched = true;
            combined.owned.push_back(std::move(merged));
          }
        }
        if (!matched && join.kind == JoinKind::kLeftOuter) {
          Row merged = lrow;
          merged.insert(merged.end(), right_width, Cell::Null());
          combined.owned.push_back(std::move(merged));
        }
      }
    }
    return combined;
  }

  Result<bool> EvalPredicate(const SqlExpr& e, const Frame& f) {
    ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(e, f));
    if (c.is_null) return false;  // unknown is not true
    if (c.value.type() != xml::AtomicType::kBoolean) {
      return Status::RuntimeError("predicate did not evaluate to boolean");
    }
    return c.value.AsBoolean();
  }

  Result<Cell> Eval(const SqlExpr& e, const Frame& f) {
    switch (e.kind) {
      case SqlExpr::Kind::kColumn: {
        const Frame* cur = &f;
        while (cur != nullptr) {
          size_t idx;
          if (cur->scope != nullptr && cur->row != nullptr &&
              cur->scope->Resolve(e.table_alias, e.column, &idx)) {
            return (*cur->row)[idx];
          }
          cur = cur->outer;
        }
        return Status::RuntimeError("unresolved column " + e.table_alias +
                                    ".\"" + e.column + "\"");
      }
      case SqlExpr::Kind::kLiteral:
        return LiteralCell(e, literals_);
      case SqlExpr::Kind::kParam: {
        if (params_ == nullptr || e.param_index < 0 ||
            e.param_index >= static_cast<int>(params_->size())) {
          return Status::RuntimeError("unbound SQL parameter ?" +
                                      std::to_string(e.param_index));
        }
        return (*params_)[static_cast<size_t>(e.param_index)];
      }
      case SqlExpr::Kind::kBinary:
        return EvalBinary(e, f);
      case SqlExpr::Kind::kNot: {
        ALDSP_ASSIGN_OR_RETURN(Cell a, Eval(*e.args[0], f));
        if (a.is_null) return Cell::Null();
        return Cell::Bool(!a.value.AsBoolean());
      }
      case SqlExpr::Kind::kIsNull: {
        ALDSP_ASSIGN_OR_RETURN(Cell a, Eval(*e.args[0], f));
        return Cell::Bool(e.negated ? !a.is_null : a.is_null);
      }
      case SqlExpr::Kind::kCase: {
        for (const auto& [cond, res] : e.whens) {
          ALDSP_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*cond, f));
          if (ok) return Eval(*res, f);
        }
        if (e.else_expr) return Eval(*e.else_expr, f);
        return Cell::Null();
      }
      case SqlExpr::Kind::kFunc:
        return EvalFunc(e, f);
      case SqlExpr::Kind::kAggregate:
        return EvalAggregate(e, f);
      case SqlExpr::Kind::kInList: {
        ALDSP_ASSIGN_OR_RETURN(Cell probe, Eval(*e.args[0], f));
        if (probe.is_null) return Cell::Null();
        bool saw_null = false;
        for (size_t i = 1; i < e.args.size(); ++i) {
          ALDSP_ASSIGN_OR_RETURN(Cell v, Eval(*e.args[i], f));
          if (v.is_null) {
            saw_null = true;
            continue;
          }
          ALDSP_ASSIGN_OR_RETURN(Tribool t, CompareCells(probe, v, "="));
          if (t == Tribool::kTrue) return Cell::Bool(!e.negated);
        }
        if (saw_null) return Cell::Null();
        return Cell::Bool(e.negated);
      }
      case SqlExpr::Kind::kExists: {
        Executor sub(lookup_, params_, stats_, literals_);
        ALDSP_ASSIGN_OR_RETURN(Relation rel,
                               sub.ExecSelect(*e.subquery, &f));
        return Cell::Bool(!rel.owned.empty());
      }
      case SqlExpr::Kind::kLike: {
        ALDSP_ASSIGN_OR_RETURN(Cell v, Eval(*e.args[0], f));
        if (v.is_null) return Cell::Null();
        return Cell::Bool(LikeMatch(v.value.Lexical(), e.op, 0, 0));
      }
    }
    return Status::Internal("unhandled SQL expression kind");
  }

  Result<Cell> EvalBinary(const SqlExpr& e, const Frame& f) {
    const std::string& op = e.op;
    if (op == "AND" || op == "OR") {
      ALDSP_ASSIGN_OR_RETURN(Cell a, Eval(*e.args[0], f));
      // Short-circuit where 3VL permits.
      Tribool ta = a.is_null ? Tribool::kUnknown : ToTribool(a.value.AsBoolean());
      if (op == "AND" && ta == Tribool::kFalse) return Cell::Bool(false);
      if (op == "OR" && ta == Tribool::kTrue) return Cell::Bool(true);
      ALDSP_ASSIGN_OR_RETURN(Cell b, Eval(*e.args[1], f));
      Tribool tb = b.is_null ? Tribool::kUnknown : ToTribool(b.value.AsBoolean());
      Tribool r = op == "AND" ? TriAnd(ta, tb) : TriOr(ta, tb);
      if (r == Tribool::kUnknown) return Cell::Null();
      return Cell::Bool(r == Tribool::kTrue);
    }
    ALDSP_ASSIGN_OR_RETURN(Cell a, Eval(*e.args[0], f));
    ALDSP_ASSIGN_OR_RETURN(Cell b, Eval(*e.args[1], f));
    if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      ALDSP_ASSIGN_OR_RETURN(Tribool t, CompareCells(a, b, op));
      if (t == Tribool::kUnknown) return Cell::Null();
      return Cell::Bool(t == Tribool::kTrue);
    }
    // Arithmetic with NULL propagation.
    if (a.is_null || b.is_null) return Cell::Null();
    if (!a.value.is_numeric() || !b.value.is_numeric()) {
      return Status::RuntimeError("arithmetic on non-numeric values");
    }
    bool both_int = a.value.type() == xml::AtomicType::kInteger &&
                    b.value.type() == xml::AtomicType::kInteger;
    if (op == "+" || op == "-" || op == "*") {
      if (both_int) {
        int64_t x = a.value.AsInteger();
        int64_t y = b.value.AsInteger();
        int64_t r = op == "+" ? x + y : (op == "-" ? x - y : x * y);
        return Cell::Int(r);
      }
      double x = a.value.NumericAsDouble();
      double y = b.value.NumericAsDouble();
      double r = op == "+" ? x + y : (op == "-" ? x - y : x * y);
      return Cell::Dbl(r);
    }
    if (op == "/") {
      double y = b.value.NumericAsDouble();
      if (y == 0.0) return Status::RuntimeError("division by zero");
      return Cell::Dbl(a.value.NumericAsDouble() / y);
    }
    return Status::InvalidArgument("unknown binary SQL operator: " + op);
  }

  Result<Cell> EvalFunc(const SqlExpr& e, const Frame& f) {
    std::vector<Cell> args;
    for (const auto& a : e.args) {
      ALDSP_ASSIGN_OR_RETURN(Cell c, Eval(*a, f));
      args.push_back(std::move(c));
    }
    for (const auto& a : args) {
      if (a.is_null) return Cell::Null();
    }
    switch (e.func) {
      case SqlFunc::kUpper:
        return Cell::Str(ToUpper(args[0].value.Lexical()));
      case SqlFunc::kLower:
        return Cell::Str(ToLower(args[0].value.Lexical()));
      case SqlFunc::kSubstr: {
        std::string s = args[0].value.Lexical();
        int64_t start = args[1].value.AsInteger();
        int64_t len = args.size() > 2 ? args[2].value.AsInteger()
                                      : static_cast<int64_t>(s.size());
        if (start < 1) start = 1;
        if (start > static_cast<int64_t>(s.size())) return Cell::Str("");
        return Cell::Str(s.substr(static_cast<size_t>(start - 1),
                                  static_cast<size_t>(std::max<int64_t>(len, 0))));
      }
      case SqlFunc::kLength:
        return Cell::Int(static_cast<int64_t>(args[0].value.Lexical().size()));
      case SqlFunc::kConcat: {
        std::string s;
        for (const auto& a : args) s += a.value.Lexical();
        return Cell::Str(std::move(s));
      }
      case SqlFunc::kAbs: {
        if (args[0].value.type() == xml::AtomicType::kInteger) {
          return Cell::Int(std::llabs(args[0].value.AsInteger()));
        }
        return Cell::Dbl(std::fabs(args[0].value.NumericAsDouble()));
      }
      case SqlFunc::kMod: {
        int64_t y = args[1].value.AsInteger();
        if (y == 0) return Status::RuntimeError("MOD by zero");
        return Cell::Int(args[0].value.AsInteger() % y);
      }
    }
    return Status::Internal("unhandled SQL function");
  }

  Result<Cell> EvalAggregate(const SqlExpr& e, const Frame& f) {
    if (f.group == nullptr) {
      return Status::RuntimeError("aggregate outside a grouped context");
    }
    if (e.agg == SqlAgg::kCountStar) {
      return Cell::Int(static_cast<int64_t>(f.group->size()));
    }
    int64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Cell min = Cell::Null();
    Cell max = Cell::Null();
    std::unordered_map<std::string, bool> distinct_seen;
    for (const Row* member : *f.group) {
      Frame mf{f.scope, member, nullptr, f.outer};
      ALDSP_ASSIGN_OR_RETURN(Cell v, Eval(*e.args[0], mf));
      if (v.is_null) continue;
      if (e.distinct && !distinct_seen.emplace(EncodeCell(v), true).second) {
        continue;
      }
      ++count;
      if (e.agg == SqlAgg::kSum || e.agg == SqlAgg::kAvg) {
        if (v.value.type() != xml::AtomicType::kInteger) sum_is_int = false;
        sum += v.value.NumericAsDouble();
        if (v.value.type() == xml::AtomicType::kInteger) {
          isum += v.value.AsInteger();
        }
      }
      if (e.agg == SqlAgg::kMin &&
          (min.is_null || OrderCompare(v, min) < 0)) {
        min = v;
      }
      if (e.agg == SqlAgg::kMax &&
          (max.is_null || OrderCompare(v, max) > 0)) {
        max = v;
      }
    }
    switch (e.agg) {
      case SqlAgg::kCount:
        return Cell::Int(count);
      case SqlAgg::kSum:
        if (count == 0) return Cell::Null();
        return sum_is_int ? Cell::Int(isum) : Cell::Dbl(sum);
      case SqlAgg::kAvg:
        if (count == 0) return Cell::Null();
        return Cell::Dbl(sum / static_cast<double>(count));
      case SqlAgg::kMin:
        return min;
      case SqlAgg::kMax:
        return max;
      case SqlAgg::kCountStar:
        break;
    }
    return Status::Internal("unhandled aggregate");
  }

  TableLookup lookup_;
  const std::vector<Cell>* params_;
  const std::vector<xml::AtomicValue>* literals_;
  SourceStats* stats_;
};

}  // namespace

Status Database::CreateTable(TableDef def) {
  std::lock_guard<std::mutex> lock(mutex_);
  ALDSP_RETURN_NOT_OK(catalog_.AddTable(def));
  auto storage = std::make_unique<TableStorage>();
  storage->def = std::move(def);
  tables_.push_back(std::move(storage));
  return Status::OK();
}

Status Database::CheckRow(const TableDef& def, const Row& row) const {
  if (row.size() != def.columns.size()) {
    return Status::InvalidArgument(
        "row arity mismatch for " + def.name + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(def.columns.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null && !def.columns[i].nullable) {
      return Status::InvalidArgument("NULL in NOT NULL column " +
                                     def.columns[i].name);
    }
  }
  return Status::OK();
}

Status Database::InsertRow(const std::string& table, Row row) {
  std::lock_guard<std::mutex> lock(mutex_);
  TableStorage* storage = FindStorage(table);
  if (storage == nullptr) return Status::NotFound("no such table: " + table);
  ALDSP_RETURN_NOT_OK(CheckRow(storage->def, row));
  storage->rows.push_back(std::move(row));
  return Status::OK();
}

Database::TableStorage* Database::FindStorage(const std::string& name) {
  for (auto& t : tables_) {
    if (t->def.name == name) return t.get();
  }
  return nullptr;
}

const Database::TableStorage* Database::FindStorage(
    const std::string& name) const {
  for (const auto& t : tables_) {
    if (t->def.name == name) return t.get();
  }
  return nullptr;
}

Status Database::ChargeStatement(int64_t* sleep_micros) {
  int expected = fail_next_.load();
  while (expected > 0) {
    if (fail_next_.compare_exchange_weak(expected, expected - 1)) {
      return Status::SourceError("injected failure in database " + name_);
    }
  }
  stats_.statements += 1;
  stats_.simulated_latency_micros += latency_.roundtrip_micros;
  if (latency_.sleep && latency_.roundtrip_micros > 0) {
    *sleep_micros += latency_.roundtrip_micros;
  }
  return Status::OK();
}

void Database::ChargeRows(size_t n, int64_t* sleep_micros) {
  stats_.rows_shipped += static_cast<int64_t>(n);
  int64_t cost = latency_.per_row_micros * static_cast<int64_t>(n);
  stats_.simulated_latency_micros += cost;
  if (latency_.sleep && cost > 0) {
    *sleep_micros += cost;
  }
}

void Database::SimulateLatency(int64_t sleep_micros) const {
  if (sleep_micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
  }
}

template <typename T, typename Body>
Result<T> Database::RunStatement(Body body) {
  int64_t sleep_micros = 0;
  Result<T> result = [&]() -> Result<T> {
    std::lock_guard<std::mutex> lock(mutex_);
    ALDSP_RETURN_NOT_OK(ChargeStatement(&sleep_micros));
    return body(&sleep_micros);
  }();
  SimulateLatency(sleep_micros);
  return result;
}

Database::TableLookup Database::ReadTables() const {
  return [this](const std::string& name, const TableDef** def,
                const std::vector<Row>** rows) -> Status {
    const TableStorage* s = FindStorage(name);
    if (s == nullptr) {
      return Status::NotFound("no such table in " + name_ + ": " + name);
    }
    *def = &s->def;
    *rows = &s->rows;
    return Status::OK();
  };
}

Result<ResultSet> Database::ExecuteSelect(
    const SelectStmt& stmt, const std::vector<Cell>& params,
    const std::vector<xml::AtomicValue>* literals) {
  return RunStatement<ResultSet>(
      [&](int64_t* sleep_micros) -> Result<ResultSet> {
        Executor exec(ReadTables(), &params, &stats_, literals);
        ALDSP_ASSIGN_OR_RETURN(ResultSet rs, exec.Run(stmt));
        ChargeRows(rs.rows.size(), sleep_micros);
        return rs;
      });
}

// UPDATE and DELETE decide every row against the table as it was before
// the statement, then write: a subquery over the same table reads the
// stored rows in place and must not see the statement's own changes.

Result<int64_t> Database::ExecuteUpdate(const UpdateStmt& stmt,
                                        const std::vector<Cell>& params) {
  return RunStatement<int64_t>([&](int64_t*) -> Result<int64_t> {
    TableStorage* storage = FindStorage(stmt.table_name);
    if (storage == nullptr) {
      return Status::NotFound("no such table: " + stmt.table_name);
    }
    Executor exec(ReadTables(), &params, &stats_);
    Scope scope = TableScope(storage->def, stmt.table_name);
    std::vector<std::pair<Row*, std::vector<std::pair<size_t, Cell>>>> writes;
    for (auto& row : storage->rows) {
      Frame f{&scope, &row, nullptr, nullptr};
      if (stmt.where) {
        ALDSP_ASSIGN_OR_RETURN(Cell c, exec.EvalPublic(*stmt.where, f));
        if (c.is_null || !c.value.AsBoolean()) continue;
      }
      std::vector<std::pair<size_t, Cell>> updates;
      for (const auto& [col, expr] : stmt.assignments) {
        int idx = storage->def.ColumnIndex(col);
        if (idx < 0) {
          return Status::NotFound("no such column: " + col + " in " +
                                  stmt.table_name);
        }
        ALDSP_ASSIGN_OR_RETURN(Cell v, exec.EvalPublic(*expr, f));
        updates.emplace_back(static_cast<size_t>(idx), std::move(v));
      }
      writes.emplace_back(&row, std::move(updates));
    }
    for (auto& [row, updates] : writes) {
      for (auto& [idx, v] : updates) (*row)[idx] = std::move(v);
    }
    return static_cast<int64_t>(writes.size());
  });
}

Result<int64_t> Database::ExecuteInsert(const InsertStmt& stmt,
                                        const std::vector<Cell>& params) {
  return RunStatement<int64_t>([&](int64_t*) -> Result<int64_t> {
    TableStorage* storage = FindStorage(stmt.table_name);
    if (storage == nullptr) {
      return Status::NotFound("no such table: " + stmt.table_name);
    }
    auto lookup = [](const std::string& name, const TableDef**,
                     const std::vector<Row>**) -> Status {
      return Status::NotFound("table scans not allowed in INSERT: " + name);
    };
    Executor exec(lookup, &params, &stats_);
    Row row(storage->def.columns.size(), Cell::Null());
    Frame f{nullptr, nullptr, nullptr, nullptr};
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      int idx = storage->def.ColumnIndex(stmt.columns[i]);
      if (idx < 0) {
        return Status::NotFound("no such column: " + stmt.columns[i]);
      }
      ALDSP_ASSIGN_OR_RETURN(Cell v, exec.EvalPublic(*stmt.values[i], f));
      row[static_cast<size_t>(idx)] = std::move(v);
    }
    ALDSP_RETURN_NOT_OK(CheckRow(storage->def, row));
    storage->rows.push_back(std::move(row));
    return 1;
  });
}

Result<int64_t> Database::ExecuteDelete(const DeleteStmt& stmt,
                                        const std::vector<Cell>& params) {
  return RunStatement<int64_t>([&](int64_t*) -> Result<int64_t> {
    TableStorage* storage = FindStorage(stmt.table_name);
    if (storage == nullptr) {
      return Status::NotFound("no such table: " + stmt.table_name);
    }
    Executor exec(ReadTables(), &params, &stats_);
    Scope scope = TableScope(storage->def, stmt.table_name);
    std::vector<Row>& rows = storage->rows;
    std::vector<bool> remove(rows.size(), true);
    if (stmt.where) {
      for (size_t i = 0; i < rows.size(); ++i) {
        Frame f{&scope, &rows[i], nullptr, nullptr};
        ALDSP_ASSIGN_OR_RETURN(Cell c, exec.EvalPublic(*stmt.where, f));
        remove[i] = !c.is_null && c.value.AsBoolean();
      }
    }
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (remove[i]) continue;
      if (kept != i) rows[kept] = std::move(rows[i]);
      ++kept;
    }
    int64_t removed = static_cast<int64_t>(rows.size() - kept);
    rows.resize(kept);
    return removed;
  });
}

Status Database::Begin() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_transaction_) {
    return Status::InvalidArgument("transaction already open on " + name_);
  }
  snapshot_.clear();
  for (const auto& t : tables_) snapshot_.emplace_back(t->def.name, t->rows);
  in_transaction_ = true;
  prepared_ = false;
  return Status::OK();
}

Status Database::Prepare() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!in_transaction_) {
    return Status::InvalidArgument("no open transaction on " + name_);
  }
  if (fail_prepare_) {
    fail_prepare_ = false;
    return Status::SourceError("injected prepare failure on " + name_);
  }
  prepared_ = true;
  return Status::OK();
}

Status Database::Commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!in_transaction_) {
    return Status::InvalidArgument("no open transaction on " + name_);
  }
  snapshot_.clear();
  in_transaction_ = false;
  prepared_ = false;
  return Status::OK();
}

Status Database::Rollback() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!in_transaction_) {
    return Status::InvalidArgument("no open transaction on " + name_);
  }
  for (auto& [name, rows] : snapshot_) {
    TableStorage* s = FindStorage(name);
    if (s != nullptr) s->rows = std::move(rows);
  }
  snapshot_.clear();
  in_transaction_ = false;
  prepared_ = false;
  return Status::OK();
}

Result<std::vector<Row>> Database::TableData(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const TableStorage* s = FindStorage(table);
  if (s == nullptr) return Status::NotFound("no such table: " + table);
  return s->rows;
}

}  // namespace aldsp::relational
