#ifndef ALDSP_SQL_DIALECT_H_
#define ALDSP_SQL_DIALECT_H_

#include <string>

#include "common/result.h"
#include "relational/sql_ast.h"

namespace aldsp::sql {

/// Relational vendors ALDSP generates SQL for (paper §4.4): Oracle, DB2,
/// SQL Server and Sybase, plus a conservative "base SQL92 platform" for
/// any other database.
enum class SqlDialect { kOracle, kDb2, kSqlServer, kSybase, kBase92 };

const char* SqlDialectName(SqlDialect d);

/// Maps a source's `vendor` metadata string to a dialect (unknown
/// vendors get the conservative base platform).
SqlDialect DialectForVendor(const std::string& vendor);

/// Per-dialect pushdown capabilities consulted by the pushdown analyzer
/// ("the SQL pushdown framework knows what functions are pushable (and
/// with what syntax), how outer joins are supported, where subqueries are
/// permitted" — paper §4.4).
struct DialectCapabilities {
  bool pagination = false;       // can a row range be pushed?
  bool string_functions = true;  // UPPER/LOWER/SUBSTR/LENGTH
  bool exists_subqueries = true;
};

DialectCapabilities CapabilitiesOf(SqlDialect d);

/// Renders a SELECT statement as vendor SQL text. Pagination (range_start
/// / range_count) renders as Oracle ROWNUM nesting (the Table 2(i)
/// shape), DB2/SQL Server ROW_NUMBER() wrappers; requesting pagination
/// from a dialect without support is an error (the analyzer must keep
/// subsequence in the mid-tier instead). Slotted literals read their
/// values from `slots` (see relational::LiteralCell).
Result<std::string> RenderSql(
    const relational::SelectStmt& stmt, SqlDialect dialect,
    const std::vector<xml::AtomicValue>* slots = nullptr);

/// Renders UPDATE / INSERT / DELETE statements (the update
/// decomposition's output, §6).
Result<std::string> RenderUpdate(const relational::UpdateStmt& stmt,
                                 SqlDialect dialect);
Result<std::string> RenderInsert(const relational::InsertStmt& stmt,
                                 SqlDialect dialect);
Result<std::string> RenderDelete(const relational::DeleteStmt& stmt,
                                 SqlDialect dialect);

}  // namespace aldsp::sql

#endif  // ALDSP_SQL_DIALECT_H_
