#include "sql/dialect.h"

#include <sstream>

#include "common/string_util.h"

namespace aldsp::sql {

using relational::JoinKind;
using relational::OrderItem;
using relational::SelectStmt;
using relational::SqlAgg;
using relational::SqlExpr;
using relational::SqlFunc;
using relational::UpdateStmt;

const char* SqlDialectName(SqlDialect d) {
  switch (d) {
    case SqlDialect::kOracle:
      return "oracle";
    case SqlDialect::kDb2:
      return "db2";
    case SqlDialect::kSqlServer:
      return "sqlserver";
    case SqlDialect::kSybase:
      return "sybase";
    case SqlDialect::kBase92:
      return "base-sql92";
  }
  return "?";
}

SqlDialect DialectForVendor(const std::string& vendor) {
  std::string v = ToLower(vendor);
  if (v == "oracle") return SqlDialect::kOracle;
  if (v == "db2" || v == "ibm") return SqlDialect::kDb2;
  if (v == "sqlserver" || v == "mssql" || v == "microsoft") {
    return SqlDialect::kSqlServer;
  }
  if (v == "sybase") return SqlDialect::kSybase;
  return SqlDialect::kBase92;
}

DialectCapabilities CapabilitiesOf(SqlDialect d) {
  DialectCapabilities caps;
  switch (d) {
    case SqlDialect::kOracle:
    case SqlDialect::kDb2:
    case SqlDialect::kSqlServer:
      caps.pagination = true;
      break;
    case SqlDialect::kSybase:
    case SqlDialect::kBase92:
      caps.pagination = false;  // conservative SQL92: no row numbering
      break;
  }
  if (d == SqlDialect::kBase92) caps.string_functions = false;
  return caps;
}

namespace {

class Writer {
 public:
  explicit Writer(SqlDialect dialect,
                  const std::vector<xml::AtomicValue>* slots = nullptr)
      : dialect_(dialect), slots_(slots) {}

  Result<std::string> Select(const SelectStmt& s) {
    std::ostringstream os;
    ALDSP_RETURN_NOT_OK(WriteSelect(s, os));
    return os.str();
  }

  Result<std::string> Insert(const relational::InsertStmt& i) {
    std::ostringstream os;
    os << "INSERT INTO " << Ident(i.table_name) << " (";
    for (size_t c = 0; c < i.columns.size(); ++c) {
      if (c > 0) os << ", ";
      os << Ident(i.columns[c]);
    }
    os << ") VALUES (";
    for (size_t c = 0; c < i.values.size(); ++c) {
      if (c > 0) os << ", ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*i.values[c], os));
    }
    os << ")";
    return os.str();
  }

  Result<std::string> Delete(const relational::DeleteStmt& d) {
    std::ostringstream os;
    os << "DELETE FROM " << Ident(d.table_name);
    if (d.where) {
      os << " WHERE ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*d.where, os));
    }
    return os.str();
  }

  Result<std::string> Update(const UpdateStmt& u) {
    std::ostringstream os;
    os << "UPDATE " << Ident(u.table_name) << " SET ";
    for (size_t i = 0; i < u.assignments.size(); ++i) {
      if (i > 0) os << ", ";
      os << Ident(u.assignments[i].first) << " = ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*u.assignments[i].second, os));
    }
    if (u.where) {
      os << " WHERE ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*u.where, os));
    }
    return os.str();
  }

 private:
  std::string Ident(const std::string& name) const {
    if (dialect_ == SqlDialect::kSqlServer) return "[" + name + "]";
    return "\"" + name + "\"";
  }

  Status WriteSelect(const SelectStmt& s, std::ostringstream& os) {
    bool paginated = s.range_start >= 0 || s.range_count >= 0;
    if (paginated && !CapabilitiesOf(dialect_).pagination) {
      return Status::NotImplemented(
          std::string("dialect ") + SqlDialectName(dialect_) +
          " cannot push row ranges");
    }
    if (paginated && dialect_ == SqlDialect::kOracle) {
      return WriteOraclePagination(s, os);
    }
    if (paginated) return WriteRowNumberPagination(s, os);
    return WriteSelectCore(s, os, /*with_order=*/true);
  }

  // "c<n>", the name of an unnamed select item by its 1-based position.
  // Appended rather than concatenated: GCC 12 reports a spurious
  // -Wrestrict for a literal plus a temporary string.
  static std::string PositionalName(size_t n) {
    return std::string("c").append(std::to_string(n));
  }

  // The Table 2(i) shape: two nested derived tables around ROWNUM.
  Status WriteOraclePagination(const SelectStmt& s, std::ostringstream& os) {
    SelectStmt inner = s;
    inner.range_start = -1;
    inner.range_count = -1;
    std::vector<std::string> names;
    for (size_t i = 0; i < s.items.size(); ++i) {
      names.push_back(s.items[i].output_name.empty()
                          ? PositionalName(i + 1)
                          : s.items[i].output_name);
    }
    std::string rn = PositionalName(s.items.size() + 1);
    os << "SELECT ";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) os << ", ";
      os << "t4." << names[i];
    }
    os << " FROM (SELECT ROWNUM AS " << rn;
    for (const auto& n : names) os << ", t3." << n;
    os << " FROM (";
    ALDSP_RETURN_NOT_OK(WriteSelectCore(inner, os, /*with_order=*/true));
    os << ") t3) t4 WHERE (t4." << rn << " >= " << std::max<int64_t>(s.range_start, 1)
       << ") AND (t4." << rn << " < "
       << std::max<int64_t>(s.range_start, 1) + std::max<int64_t>(s.range_count, 0)
       << ")";
    return Status::OK();
  }

  // DB2 / SQL Server: ROW_NUMBER() OVER (ORDER BY ...) wrapper.
  Status WriteRowNumberPagination(const SelectStmt& s, std::ostringstream& os) {
    SelectStmt inner = s;
    inner.range_start = -1;
    inner.range_count = -1;
    std::vector<OrderItem> order = inner.order_by;
    std::vector<std::string> names;
    for (size_t i = 0; i < s.items.size(); ++i) {
      names.push_back(s.items[i].output_name.empty()
                          ? PositionalName(i + 1)
                          : s.items[i].output_name);
    }
    std::string rn = "rn";
    os << "SELECT ";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) os << ", ";
      os << "t4." << names[i];
    }
    os << " FROM (SELECT ";
    for (const auto& n : names) os << "t3." << n << ", ";
    os << "ROW_NUMBER() OVER (ORDER BY ";
    if (order.empty()) {
      os << "t3." << names[0];
    } else {
      // Order on the projected columns of the derived table.
      for (size_t i = 0; i < order.size(); ++i) {
        if (i > 0) os << ", ";
        os << "t3." << names[0];
        if (order[i].descending) os << " DESC";
      }
    }
    os << ") AS " << rn << " FROM (";
    ALDSP_RETURN_NOT_OK(WriteSelectCore(inner, os, /*with_order=*/true));
    os << ") t3) t4 WHERE (t4." << rn << " >= "
       << std::max<int64_t>(s.range_start, 1) << ") AND (t4." << rn << " < "
       << std::max<int64_t>(s.range_start, 1) + std::max<int64_t>(s.range_count, 0)
       << ")";
    return Status::OK();
  }

  Status WriteSelectCore(const SelectStmt& s, std::ostringstream& os,
                         bool with_order) {
    os << "SELECT ";
    if (s.distinct) os << "DISTINCT ";
    for (size_t i = 0; i < s.items.size(); ++i) {
      if (i > 0) os << ", ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*s.items[i].expr, os));
      // An empty output name means the value is positional (EXISTS
      // subqueries): no AS clause.
      if (!s.items[i].output_name.empty()) {
        os << " AS " << s.items[i].output_name;
      }
    }
    os << " FROM ";
    ALDSP_RETURN_NOT_OK(WriteTableRef(s.from, os));
    for (const auto& j : s.joins) {
      os << (j.kind == JoinKind::kInner ? " JOIN " : " LEFT OUTER JOIN ");
      ALDSP_RETURN_NOT_OK(WriteTableRef(j.right, os));
      if (j.condition) {
        os << " ON ";
        ALDSP_RETURN_NOT_OK(WriteExpr(*j.condition, os));
      }
    }
    if (s.where) {
      os << " WHERE ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*s.where, os));
    }
    if (!s.group_by.empty()) {
      os << " GROUP BY ";
      for (size_t i = 0; i < s.group_by.size(); ++i) {
        if (i > 0) os << ", ";
        ALDSP_RETURN_NOT_OK(WriteExpr(*s.group_by[i], os));
      }
    }
    if (s.having) {
      os << " HAVING ";
      ALDSP_RETURN_NOT_OK(WriteExpr(*s.having, os));
    }
    if (with_order && !s.order_by.empty()) {
      os << " ORDER BY ";
      for (size_t i = 0; i < s.order_by.size(); ++i) {
        if (i > 0) os << ", ";
        ALDSP_RETURN_NOT_OK(WriteExpr(*s.order_by[i].expr, os));
        if (s.order_by[i].descending) os << " DESC";
      }
    }
    return Status::OK();
  }

  Status WriteTableRef(const relational::TableRef& ref, std::ostringstream& os) {
    if (ref.derived) {
      os << "(";
      ALDSP_RETURN_NOT_OK(WriteSelectCore(*ref.derived, os, true));
      os << ")";
    } else {
      os << Ident(ref.table_name);
    }
    if (!ref.alias.empty()) os << " " << ref.alias;
    return Status::OK();
  }

  Status WriteExpr(const SqlExpr& e, std::ostringstream& os) {
    switch (e.kind) {
      case SqlExpr::Kind::kColumn:
        if (!e.table_alias.empty()) os << e.table_alias << ".";
        os << Ident(e.column);
        return Status::OK();
      case SqlExpr::Kind::kLiteral: {
        const relational::Cell literal = relational::LiteralCell(e, slots_);
        if (literal.is_null) {
          os << "NULL";
        } else if (literal.value.type() == xml::AtomicType::kBoolean) {
          // Booleans as 1/0 keeps every dialect happy.
          os << (literal.value.AsBoolean() ? "1" : "0");
        } else if (literal.value.is_string()) {
          std::string v = literal.value.Lexical();
          std::string escaped;
          for (char c : v) {
            escaped += c;
            if (c == '\'') escaped += '\'';
          }
          os << "'" << escaped << "'";
        } else {
          os << literal.ToString();
        }
        return Status::OK();
      }
      case SqlExpr::Kind::kParam:
        os << "?";
        return Status::OK();
      case SqlExpr::Kind::kBinary: {
        os << "(";
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        os << " " << e.op << " ";
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[1], os));
        os << ")";
        return Status::OK();
      }
      case SqlExpr::Kind::kNot:
        os << "NOT (";
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        os << ")";
        return Status::OK();
      case SqlExpr::Kind::kIsNull:
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        os << (e.negated ? " IS NOT NULL" : " IS NULL");
        return Status::OK();
      case SqlExpr::Kind::kCase:
        os << "CASE";
        for (const auto& [c, r] : e.whens) {
          os << " WHEN ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*c, os));
          os << " THEN ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*r, os));
        }
        if (e.else_expr) {
          os << " ELSE ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.else_expr, os));
        }
        os << " END";
        return Status::OK();
      case SqlExpr::Kind::kFunc:
        return WriteFunc(e, os);
      case SqlExpr::Kind::kAggregate: {
        const char* name = "";
        switch (e.agg) {
          case SqlAgg::kCountStar:
          case SqlAgg::kCount:
            name = "COUNT";
            break;
          case SqlAgg::kSum:
            name = "SUM";
            break;
          case SqlAgg::kAvg:
            name = "AVG";
            break;
          case SqlAgg::kMin:
            name = "MIN";
            break;
          case SqlAgg::kMax:
            name = "MAX";
            break;
        }
        os << name << "(";
        if (e.agg == SqlAgg::kCountStar) {
          os << "*";
        } else {
          if (e.distinct) os << "DISTINCT ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        }
        os << ")";
        return Status::OK();
      }
      case SqlExpr::Kind::kInList: {
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        os << (e.negated ? " NOT IN (" : " IN (");
        for (size_t i = 1; i < e.args.size(); ++i) {
          if (i > 1) os << ", ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[i], os));
        }
        os << ")";
        return Status::OK();
      }
      case SqlExpr::Kind::kExists:
        os << "EXISTS(";
        ALDSP_RETURN_NOT_OK(WriteSelectCore(*e.subquery, os, false));
        os << ")";
        return Status::OK();
      case SqlExpr::Kind::kLike: {
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
        std::string escaped;
        for (char c : e.op) {
          escaped += c;
          if (c == '\'') escaped += '\'';
        }
        os << " LIKE '" << escaped << "' ESCAPE '\\'";
        return Status::OK();
      }
    }
    return Status::Internal("unhandled SQL expression kind");
  }

  Status WriteFunc(const SqlExpr& e, std::ostringstream& os) {
    auto write_args = [&](const char* name) -> Status {
      os << name << "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ", ";
        ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[i], os));
      }
      os << ")";
      return Status::OK();
    };
    switch (e.func) {
      case SqlFunc::kUpper:
        return write_args("UPPER");
      case SqlFunc::kLower:
        return write_args("LOWER");
      case SqlFunc::kSubstr:
        return write_args(dialect_ == SqlDialect::kSqlServer ||
                                  dialect_ == SqlDialect::kSybase
                              ? "SUBSTRING"
                              : "SUBSTR");
      case SqlFunc::kLength:
        return write_args(dialect_ == SqlDialect::kSqlServer ? "LEN"
                                                             : "LENGTH");
      case SqlFunc::kConcat: {
        const char* op = dialect_ == SqlDialect::kSqlServer ||
                                 dialect_ == SqlDialect::kSybase
                             ? " + "
                             : " || ";
        os << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) os << op;
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[i], os));
        }
        os << ")";
        return Status::OK();
      }
      case SqlFunc::kAbs:
        return write_args("ABS");
      case SqlFunc::kMod:
        if (dialect_ == SqlDialect::kSqlServer ||
            dialect_ == SqlDialect::kSybase) {
          os << "(";
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[0], os));
          os << " % ";
          ALDSP_RETURN_NOT_OK(WriteExpr(*e.args[1], os));
          os << ")";
          return Status::OK();
        }
        return write_args("MOD");
    }
    return Status::Internal("unhandled SQL function");
  }

  SqlDialect dialect_;
  const std::vector<xml::AtomicValue>* slots_;
};

}  // namespace

Result<std::string> RenderSql(const SelectStmt& stmt, SqlDialect dialect,
                              const std::vector<xml::AtomicValue>* slots) {
  Writer w(dialect, slots);
  return w.Select(stmt);
}

Result<std::string> RenderUpdate(const UpdateStmt& stmt, SqlDialect dialect) {
  Writer w(dialect);
  return w.Update(stmt);
}

Result<std::string> RenderInsert(const relational::InsertStmt& stmt,
                                 SqlDialect dialect) {
  Writer w(dialect);
  return w.Insert(stmt);
}

Result<std::string> RenderDelete(const relational::DeleteStmt& stmt,
                                 SqlDialect dialect) {
  Writer w(dialect);
  return w.Delete(stmt);
}

}  // namespace aldsp::sql
