#include "adaptors/relational_adaptor.h"

#include "runtime/evaluator.h"
#include "xml/node.h"

namespace aldsp::adaptors {

using relational::Cell;
using relational::SelectPtr;
using relational::SelectStmt;
using relational::SqlExpr;
using relational::TableDef;

Status RelationalAdaptor::RegisterTableFunction(const std::string& function,
                                                const std::string& table) {
  if (db_->catalog().FindTable(table) == nullptr) {
    return Status::NotFound("no such table: " + table);
  }
  table_fns_[function] = {table};
  return Status::OK();
}

Status RelationalAdaptor::RegisterNavigationFunction(
    const std::string& function, const std::string& table,
    const std::string& table_column, const std::string& arg_child) {
  const TableDef* def = db_->catalog().FindTable(table);
  if (def == nullptr) return Status::NotFound("no such table: " + table);
  if (def->ColumnIndex(table_column) < 0) {
    return Status::NotFound("no such column: " + table_column);
  }
  nav_fns_[function] = {table, table_column, arg_child};
  return Status::OK();
}

SelectPtr RelationalAdaptor::SelectAll(const TableDef& def,
                                       bool with_key_param,
                                       const std::string& key_column) const {
  auto s = std::make_shared<SelectStmt>();
  s->from = {def.name, nullptr, "t1"};
  std::vector<std::string> columns;
  for (const auto& col : def.columns) columns.push_back(col.name);
  s->items = relational::ColumnItems("t1", columns);
  if (with_key_param) {
    s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", key_column),
                               SqlExpr::Param(0));
  }
  return s;
}

Result<xml::Sequence> RelationalAdaptor::Invoke(
    const std::string& function, const std::vector<xml::Sequence>& args) {
  auto tf = table_fns_.find(function);
  if (tf != table_fns_.end()) {
    const TableDef* def = db_->catalog().FindTable(tf->second.table);
    ALDSP_ASSIGN_OR_RETURN(relational::ResultSet rs,
                           db_->ExecuteSelect(*SelectAll(*def, false, "")));
    return runtime::RowsToItems(std::move(rs), def->name);
  }
  auto nf = nav_fns_.find(function);
  if (nf != nav_fns_.end()) {
    if (args.size() != 1 || args[0].empty() || !args[0].front().is_node()) {
      return Status::InvalidArgument(
          "navigation function " + function +
          " requires a single row-element argument");
    }
    const xml::NodePtr& row = args[0].front().node();
    xml::Sequence key;
    xml::AppendChildData(*row, nf->second.arg_child, &key);
    if (key.empty()) return xml::Sequence{};  // NULL key: no related rows
    const TableDef* def = db_->catalog().FindTable(nf->second.table);
    ALDSP_ASSIGN_OR_RETURN(
        relational::ResultSet rs,
        db_->ExecuteSelect(*SelectAll(*def, true, nf->second.table_column),
                           {Cell::Of(key.front().atomic())}));
    return runtime::RowsToItems(std::move(rs), def->name);
  }
  return Status::NotFound("function not registered with adaptor " +
                          source_id_ + ": " + function);
}

}  // namespace aldsp::adaptors
