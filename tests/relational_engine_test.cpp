#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "relational/engine.h"
#include "relational/sql_ast.h"
#include "tests/test_fixtures.h"

namespace aldsp::relational {
namespace {

using aldsp::testing::MakeCreditCardDb;
using aldsp::testing::MakeCustomerDb;

SelectPtr SelectAllCustomers() {
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t1", "LAST_NAME"), "c2"}};
  return s;
}

TEST(EngineTest, SimpleSelectProject) {
  auto db = MakeCustomerDb(5);
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                             SqlExpr::Literal(Cell::Str("CUST001")));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsString(), "CUST001");
  EXPECT_EQ(rs->column_names[0], "c1");
}

TEST(EngineTest, InnerJoinMatchesManualCount) {
  auto db = MakeCustomerDb(10, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kInner,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t2", "OID"), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Customer i has i%4 orders: 1+2+3+0+1+2+3+0+1+2 = 15.
  EXPECT_EQ(rs->rows.size(), 15u);
}

TEST(EngineTest, LeftOuterJoinKeepsOrderlessCustomers) {
  auto db = MakeCustomerDb(8, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Column("t2", "OID"), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  // Customers 4 and 8 have zero orders -> one NULL row each.
  size_t nulls = 0;
  for (const auto& row : rs->rows) {
    if (row[1].is_null) ++nulls;
  }
  EXPECT_EQ(nulls, 2u);
  // 1+2+3+0+1+2+3+0 = 12 matched + 2 null rows.
  EXPECT_EQ(rs->rows.size(), 14u);
}

TEST(EngineTest, CaseExpression) {
  auto db = MakeCustomerDb(3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  auto cond = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                              SqlExpr::Literal(Cell::Str("CUST001")));
  s->items = {{SqlExpr::Case({{cond, SqlExpr::Column("t1", "FIRST_NAME")}},
                             SqlExpr::Column("t1", "LAST_NAME")),
               "c1"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
}

TEST(EngineTest, GroupByWithCount) {
  auto db = MakeCustomerDb(8);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->group_by = {SqlExpr::Column("t1", "LAST_NAME")};
  s->items = {{SqlExpr::Column("t1", "LAST_NAME"), "c1"},
              {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);  // 4 distinct last names
  int64_t total = 0;
  for (const auto& row : rs->rows) total += row[1].value.AsInteger();
  EXPECT_EQ(total, 8);
}

TEST(EngineTest, DistinctEqualsGroupBy) {
  auto db = MakeCustomerDb(8);
  auto d = std::make_shared<SelectStmt>();
  d->distinct = true;
  d->from = {"CUSTOMER", nullptr, "t1"};
  d->items = {{SqlExpr::Column("t1", "LAST_NAME"), "c1"}};
  auto rs = db->ExecuteSelect(*d);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
}

TEST(EngineTest, OuterJoinWithAggregation) {
  // Pattern (g): order count per customer, zero included.
  auto db = MakeCustomerDb(8, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->group_by = {SqlExpr::Column("t1", "CID")};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"},
              {SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t2", "CID")),
               "c2"}};
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 8u);
  int zero_count = 0;
  for (const auto& row : rs->rows) {
    if (row[1].value.AsInteger() == 0) ++zero_count;
  }
  EXPECT_EQ(zero_count, 2);  // customers 4 and 8
}

TEST(EngineTest, ExistsSemiJoin) {
  // Pattern (h): customers having at least one order.
  auto db = MakeCustomerDb(8, 3);
  auto sub = std::make_shared<SelectStmt>();
  sub->from = {"ORDER", nullptr, "t2"};
  sub->items = {{SqlExpr::Literal(Cell::Int(1)), "c1"}};
  sub->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                               SqlExpr::Column("t2", "CID"));
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}};
  s->where = SqlExpr::Exists(sub);
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 6u);  // all but customers 4 and 8
}

TEST(EngineTest, OrderByWithRangeImplementsSubsequence) {
  // Pattern (i): page of customers ordered by order count desc.
  auto db = MakeCustomerDb(20, 3);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"CUSTOMER", nullptr, "t1"};
  s->joins.push_back(
      {JoinKind::kLeftOuter,
       {"ORDER", nullptr, "t2"},
       SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                       SqlExpr::Column("t2", "CID"))});
  s->group_by = {SqlExpr::Column("t1", "CID")};
  auto count = SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t2", "CID"));
  s->items = {{SqlExpr::Column("t1", "CID"), "c1"}, {count, "c2"}};
  s->order_by = {{count->Clone(), true}};
  s->range_start = 3;
  s->range_count = 5;
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 5u);
  // Counts must be non-increasing within the page.
  for (size_t i = 1; i < rs->rows.size(); ++i) {
    EXPECT_GE(rs->rows[i - 1][1].value.AsInteger(),
              rs->rows[i][1].value.AsInteger());
  }
}

TEST(EngineTest, InListAndParams) {
  auto db = MakeCustomerDb(10);
  auto s = SelectAllCustomers();
  s->where = SqlExpr::InList(
      SqlExpr::Column("t1", "CID"),
      {SqlExpr::Param(0), SqlExpr::Param(1), SqlExpr::Param(2)});
  auto rs = db->ExecuteSelect(
      *s, {Cell::Str("CUST002"), Cell::Str("CUST004"), Cell::Str("CUST999")});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);
}

TEST(EngineTest, NullComparisonsAreUnknown) {
  auto db = MakeCustomerDb(3);
  (void)db->InsertRow("CUSTOMER", {Cell::Str("CUST_NULL"), Cell::Null(),
                                   Cell::Null(), Cell::Null(), Cell::Null()});
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "LAST_NAME"),
                             SqlExpr::Column("t1", "LAST_NAME"));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);  // NULL = NULL is unknown, row filtered

  auto s2 = SelectAllCustomers();
  s2->where = SqlExpr::IsNull(SqlExpr::Column("t1", "LAST_NAME"));
  auto rs2 = db->ExecuteSelect(*s2);
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->rows.size(), 1u);
}

TEST(EngineTest, AggregatesSkipNulls) {
  Database db("t");
  TableDef def;
  def.name = "T";
  def.columns = {{"A", ColumnType::kInteger, true}};
  ASSERT_TRUE(db.CreateTable(def).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Int(1)}).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Null()}).ok());
  ASSERT_TRUE(db.InsertRow("T", {Cell::Int(3)}).ok());
  auto s = std::make_shared<SelectStmt>();
  s->from = {"T", nullptr, "t1"};
  s->items = {
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "n"},
      {SqlExpr::Aggregate(SqlAgg::kCount, SqlExpr::Column("t1", "A")), "c"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "A")), "s"},
      {SqlExpr::Aggregate(SqlAgg::kAvg, SqlExpr::Column("t1", "A")), "a"},
      {SqlExpr::Aggregate(SqlAgg::kMin, SqlExpr::Column("t1", "A")), "mn"},
      {SqlExpr::Aggregate(SqlAgg::kMax, SqlExpr::Column("t1", "A")), "mx"}};
  auto rs = db.ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  const Row& r = rs->rows[0];
  EXPECT_EQ(r[0].value.AsInteger(), 3);
  EXPECT_EQ(r[1].value.AsInteger(), 2);
  EXPECT_EQ(r[2].value.AsInteger(), 4);
  EXPECT_DOUBLE_EQ(r[3].value.AsDouble(), 2.0);
  EXPECT_EQ(r[4].value.AsInteger(), 1);
  EXPECT_EQ(r[5].value.AsInteger(), 3);
}

TEST(EngineTest, GlobalAggregateOnEmptyTable) {
  Database db("t");
  TableDef def;
  def.name = "T";
  def.columns = {{"A", ColumnType::kInteger, true}};
  ASSERT_TRUE(db.CreateTable(def).ok());
  auto s = std::make_shared<SelectStmt>();
  s->from = {"T", nullptr, "t1"};
  s->items = {
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "n"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "A")), "s"}};
  auto rs = db.ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsInteger(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null);
}

TEST(EngineTest, DerivedTable) {
  auto db = MakeCustomerDb(6);
  auto inner = SelectAllCustomers();
  auto s = std::make_shared<SelectStmt>();
  s->from = {"", inner, "d"};
  s->items = {{SqlExpr::Column("d", "c2"), "name"}};
  s->where = SqlExpr::Binary("=", SqlExpr::Column("d", "c1"),
                             SqlExpr::Literal(Cell::Str("CUST003")));
  auto rs = db->ExecuteSelect(*s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
}

TEST(EngineTest, UpdateWithWhere) {
  auto db = MakeCustomerDb(5);
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("Smith"))}};
  u.where = SqlExpr::Binary("=", SqlExpr::Column("CUSTOMER", "CID"),
                            SqlExpr::Literal(Cell::Str("CUST002")));
  auto n = db->ExecuteUpdate(u);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  auto rows = db->TableData("CUSTOMER");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[1][2].value.AsString(), "Smith");
}

TEST(EngineTest, InsertAndDelete) {
  auto db = MakeCustomerDb(2);
  InsertStmt ins;
  ins.table_name = "CUSTOMER";
  ins.columns = {"CID", "LAST_NAME"};
  ins.values = {SqlExpr::Literal(Cell::Str("CUST999")),
                SqlExpr::Literal(Cell::Str("New"))};
  ASSERT_TRUE(db->ExecuteInsert(ins).ok());
  EXPECT_EQ(db->TableData("CUSTOMER")->size(), 3u);

  DeleteStmt del;
  del.table_name = "CUSTOMER";
  del.where = SqlExpr::Binary("=", SqlExpr::Column("CUSTOMER", "CID"),
                              SqlExpr::Literal(Cell::Str("CUST999")));
  auto n = db->ExecuteDelete(del);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
  EXPECT_EQ(db->TableData("CUSTOMER")->size(), 2u);
}

TEST(EngineTest, TransactionRollbackRestoresData) {
  auto db = MakeCustomerDb(3);
  ASSERT_TRUE(db->Begin().ok());
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("X"))}};
  ASSERT_TRUE(db->ExecuteUpdate(u).ok());
  ASSERT_TRUE(db->Rollback().ok());
  auto rows = db->TableData("CUSTOMER");
  ASSERT_TRUE(rows.ok());
  EXPECT_NE((*rows)[0][2].value.AsString(), "X");
}

TEST(EngineTest, TransactionCommitKeepsData) {
  auto db = MakeCustomerDb(3);
  ASSERT_TRUE(db->Begin().ok());
  UpdateStmt u;
  u.table_name = "CUSTOMER";
  u.assignments = {{"LAST_NAME", SqlExpr::Literal(Cell::Str("X"))}};
  ASSERT_TRUE(db->ExecuteUpdate(u).ok());
  ASSERT_TRUE(db->Prepare().ok());
  ASSERT_TRUE(db->Commit().ok());
  auto rows = db->TableData("CUSTOMER");
  EXPECT_EQ((*rows)[0][2].value.AsString(), "X");
}

TEST(EngineTest, PrepareFailureInjection) {
  auto db = MakeCustomerDb(1);
  db->FailNextPrepare(true);
  ASSERT_TRUE(db->Begin().ok());
  EXPECT_FALSE(db->Prepare().ok());
  ASSERT_TRUE(db->Rollback().ok());
}

TEST(EngineTest, StatementFailureInjection) {
  auto db = MakeCustomerDb(1);
  db->FailNextStatements(1);
  auto rs = db->ExecuteSelect(*SelectAllCustomers());
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kSourceError);
  // Next one succeeds.
  EXPECT_TRUE(db->ExecuteSelect(*SelectAllCustomers()).ok());
}

TEST(EngineTest, LatencyAccounting) {
  auto db = MakeCustomerDb(4);
  db->latency_model().roundtrip_micros = 1000;
  db->latency_model().per_row_micros = 10;
  db->latency_model().sleep = false;
  ASSERT_TRUE(db->ExecuteSelect(*SelectAllCustomers()).ok());
  EXPECT_EQ(db->stats().statements.load(), 1);
  EXPECT_EQ(db->stats().rows_shipped.load(), 4);
  EXPECT_EQ(db->stats().simulated_latency_micros.load(), 1000 + 4 * 10);
}

TEST(EngineTest, CrossSchemaErrors) {
  auto db = MakeCustomerDb(1);
  auto s = std::make_shared<SelectStmt>();
  s->from = {"NOPE", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "X"), "c1"}};
  EXPECT_EQ(db->ExecuteSelect(*s).status().code(), StatusCode::kNotFound);

  auto s2 = SelectAllCustomers();
  s2->items.push_back({SqlExpr::Column("t1", "MISSING"), "x"});
  EXPECT_FALSE(db->ExecuteSelect(*s2).ok());
}

// ----- In-place scans: the executor reads stored rows without copying
// them, so every read below must leave the tables exactly as they were.

// Every stored cell of `table`: null flag, atomic type and lexical form.
std::string Snapshot(const Database& db, const std::string& table) {
  auto rows = db.TableData(table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::string out;
  for (const Row& row : *rows) {
    for (const Cell& c : row) {
      out += c.is_null ? "N" : std::to_string(static_cast<int>(c.value.type()));
      out += ':';
      out += c.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

SqlExprPtr Eq(SqlExprPtr a, SqlExprPtr b) {
  return SqlExpr::Binary("=", std::move(a), std::move(b));
}

SqlExprPtr And(SqlExprPtr a, SqlExprPtr b) {
  return SqlExpr::Binary("AND", std::move(a), std::move(b));
}

// Runs `s` and checks that CUSTOMER and ORDER are untouched by it.
Result<ResultSet> SelectInPlace(Database* db, const SelectStmt& s) {
  std::string customers = Snapshot(*db, "CUSTOMER");
  std::string orders = Snapshot(*db, "ORDER");
  auto rs = db->ExecuteSelect(s);
  EXPECT_EQ(Snapshot(*db, "CUSTOMER"), customers);
  EXPECT_EQ(Snapshot(*db, "ORDER"), orders);
  return rs;
}

// ORDER t1 JOIN ORDER t2: both sides read the one stored vector.
TEST(EngineTest, SelfJoinReadsOneTableOnBothSides) {
  auto db = MakeCustomerDb(8, 3);  // 1+2+3+0+1+2+3+0 = 12 orders
  auto hash = std::make_shared<SelectStmt>();
  hash->from = {"ORDER", nullptr, "t1"};
  hash->joins.push_back({JoinKind::kInner,
                         {"ORDER", nullptr, "t2"},
                         Eq(SqlExpr::Column("t1", "CID"),
                            SqlExpr::Column("t2", "CID"))});
  hash->items = {{SqlExpr::Column("t1", "OID"), "c1"},
                 {SqlExpr::Column("t2", "OID"), "c2"}};
  auto rs = SelectInPlace(db.get(), *hash);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 28u);  // sum of squares: 1+4+9+1+4+9
  EXPECT_EQ(db->stats().rows_scanned.load(), 24);

  // No equi conjunct: the nested-loop join pairs every two orders once.
  auto loop = std::make_shared<SelectStmt>();
  loop->from = {"ORDER", nullptr, "t1"};
  loop->joins.push_back({JoinKind::kInner,
                         {"ORDER", nullptr, "t2"},
                         SqlExpr::Binary("<", SqlExpr::Column("t1", "OID"),
                                         SqlExpr::Column("t2", "OID"))});
  loop->items = {{SqlExpr::Column("t1", "OID"), "c1"},
                 {SqlExpr::Column("t2", "OID"), "c2"}};
  rs = SelectInPlace(db.get(), *loop);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 66u);  // 12 * 11 / 2
  for (const Row& row : rs->rows) {
    EXPECT_LT(row[0].value.AsInteger(), row[1].value.AsInteger());
  }
}

// The subquery scans the table the outer FROM is reading.
TEST(EngineTest, CorrelatedExistsOverOuterFromTable) {
  auto db = MakeCustomerDb(8, 3);
  auto sub = std::make_shared<SelectStmt>();
  sub->from = {"ORDER", nullptr, "t2"};
  sub->items = {{SqlExpr::Literal(Cell::Int(1)), "c1"}};
  sub->where = And(Eq(SqlExpr::Column("t2", "CID"), SqlExpr::Column("t1", "CID")),
                   SqlExpr::Binary(">", SqlExpr::Column("t2", "OID"),
                                   SqlExpr::Column("t1", "OID")));
  auto s = std::make_shared<SelectStmt>();
  s->from = {"ORDER", nullptr, "t1"};
  s->items = {{SqlExpr::Column("t1", "OID"), "c1"}};
  s->where = SqlExpr::Exists(sub);
  auto rs = SelectInPlace(db.get(), *s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // Every order but each customer's last: 0+1+2+0+1+2.
  ASSERT_EQ(rs->rows.size(), 6u);
  std::vector<int64_t> oids;
  for (const Row& row : rs->rows) oids.push_back(row[0].value.AsInteger());
  EXPECT_EQ(oids, (std::vector<int64_t>{2, 4, 5, 8, 10, 11}));
  // One outer scan plus one subquery scan per outer row.
  EXPECT_EQ(db->stats().rows_scanned.load(), 12 + 12 * 12);
}

TEST(EngineTest, AggregatesOverFilteredStoredRows) {
  auto db = MakeCustomerDb(8, 3);  // amounts 10, 20, 30 per customer
  auto over10 = SqlExpr::Binary(">", SqlExpr::Column("t1", "AMOUNT"),
                                SqlExpr::Literal(Cell::Dbl(10)));
  auto grouped = std::make_shared<SelectStmt>();
  grouped->from = {"ORDER", nullptr, "t1"};
  grouped->where = over10->Clone();
  grouped->group_by = {SqlExpr::Column("t1", "CID")};
  grouped->items = {
      {SqlExpr::Column("t1", "CID"), "c1"},
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c2"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "AMOUNT")), "c3"}};
  grouped->order_by = {{SqlExpr::Column("t1", "CID"), false}};
  auto rs = SelectInPlace(db.get(), *grouped);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 4u);
  const char* cids[] = {"CUST002", "CUST003", "CUST006", "CUST007"};
  const int64_t counts[] = {1, 2, 1, 2};
  const double sums[] = {20, 50, 20, 50};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rs->rows[i][0].value.AsString(), cids[i]);
    EXPECT_EQ(rs->rows[i][1].value.AsInteger(), counts[i]);
    EXPECT_DOUBLE_EQ(rs->rows[i][2].value.AsDouble(), sums[i]);
  }

  auto global = std::make_shared<SelectStmt>();
  global->from = {"ORDER", nullptr, "t1"};
  global->where = over10->Clone();
  global->items = {
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c1"},
      {SqlExpr::Aggregate(SqlAgg::kSum, SqlExpr::Column("t1", "AMOUNT")), "c2"},
      {SqlExpr::Aggregate(SqlAgg::kMax, SqlExpr::Column("t1", "CID")), "c3"}};
  rs = SelectInPlace(db.get(), *global);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsInteger(), 6);
  EXPECT_DOUBLE_EQ(rs->rows[0][1].value.AsDouble(), 140);
  EXPECT_EQ(rs->rows[0][2].value.AsString(), "CUST007");

  // A filter nothing survives still yields the one global row.
  global->where = SqlExpr::Binary(">", SqlExpr::Column("t1", "AMOUNT"),
                                  SqlExpr::Literal(Cell::Dbl(1000)));
  rs = SelectInPlace(db.get(), *global);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].value.AsInteger(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null);
  EXPECT_TRUE(rs->rows[0][2].is_null);
}

// A derived table owns its rows and joins a stored table read in place.
TEST(EngineTest, DerivedTableOverStoredTable) {
  auto db = MakeCustomerDb(8, 3);
  auto inner = std::make_shared<SelectStmt>();
  inner->from = {"ORDER", nullptr, "o"};
  inner->where = SqlExpr::Binary(">=", SqlExpr::Column("o", "AMOUNT"),
                                 SqlExpr::Literal(Cell::Dbl(30)));
  inner->items = {{SqlExpr::Column("o", "CID"), "cid"},
                  {SqlExpr::Column("o", "OID"), "oid"}};
  auto s = std::make_shared<SelectStmt>();
  s->from = {"", inner, "d"};
  s->joins.push_back({JoinKind::kInner,
                      {"CUSTOMER", nullptr, "c"},
                      Eq(SqlExpr::Column("d", "cid"),
                         SqlExpr::Column("c", "CID"))});
  s->items = {{SqlExpr::Column("c", "FIRST_NAME"), "name"},
              {SqlExpr::Column("d", "oid"), "oid"}};
  s->order_by = {{SqlExpr::Column("d", "oid"), false}};
  auto rs = SelectInPlace(db.get(), *s);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 2u);  // customers 3 and 7 have a third order
  EXPECT_EQ(rs->rows[0][0].value.AsString(), "Dan");    // CUST003
  EXPECT_EQ(rs->rows[1][0].value.AsString(), "Carol");  // CUST007
  EXPECT_EQ(rs->rows[0][1].value.AsInteger(), 6);
  EXPECT_EQ(rs->rows[1][1].value.AsInteger(), 12);
  EXPECT_EQ(db->stats().rows_scanned.load(), 12 + 8);
}

// rows_scanned counts every stored row a statement visits, filtered or not.
TEST(EngineTest, RowsScannedCountsStoredRows) {
  auto db = MakeCustomerDb(8, 3);
  auto point = SelectAllCustomers();
  point->where = Eq(SqlExpr::Column("t1", "CID"),
                    SqlExpr::Literal(Cell::Str("CUST004")));
  auto rs = SelectInPlace(db.get(), *point);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(db->stats().rows_scanned.load(), 8);
  EXPECT_EQ(db->stats().rows_shipped.load(), 1);

  db->stats().Reset();
  auto page = SelectAllCustomers();
  page->order_by = {{SqlExpr::Column("t1", "CID"), true}};
  page->range_start = 2;
  page->range_count = 3;
  rs = SelectInPlace(db.get(), *page);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(rs->rows[0][0].value.AsString(), "CUST007");
  EXPECT_EQ(rs->rows[2][0].value.AsString(), "CUST005");
  EXPECT_EQ(db->stats().rows_scanned.load(), 8);
  EXPECT_EQ(db->stats().rows_shipped.load(), 3);

  db->stats().Reset();
  page->range_start = 9;
  rs = SelectInPlace(db.get(), *page);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows.empty());
  EXPECT_EQ(db->stats().rows_scanned.load(), 8);

  db->stats().Reset();
  auto join = std::make_shared<SelectStmt>();
  join->from = {"CUSTOMER", nullptr, "t1"};
  join->joins.push_back({JoinKind::kLeftOuter,
                         {"ORDER", nullptr, "t2"},
                         Eq(SqlExpr::Column("t1", "CID"),
                            SqlExpr::Column("t2", "CID"))});
  join->items = {{SqlExpr::Column("t2", "OID"), "c1"}};
  rs = SelectInPlace(db.get(), *join);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 14u);
  EXPECT_EQ(db->stats().rows_scanned.load(), 8 + 12);
}

// DELETE decides every row before it removes any: the subquery over the
// same table must see the rows this statement deletes.
TEST(EngineTest, DeleteWithSubqueryOnItsOwnTable) {
  auto db = MakeCustomerDb(8, 3);
  auto later = std::make_shared<SelectStmt>();
  later->from = {"ORDER", nullptr, "t2"};
  later->items = {{SqlExpr::Literal(Cell::Int(1)), "c1"}};
  later->where = And(Eq(SqlExpr::Column("t2", "CID"),
                        SqlExpr::Column("ORDER", "CID")),
                     SqlExpr::Binary(">", SqlExpr::Column("t2", "OID"),
                                     SqlExpr::Column("ORDER", "OID")));
  DeleteStmt del;
  del.table_name = "ORDER";
  del.where = SqlExpr::Exists(later);
  auto n = db->ExecuteDelete(del);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 6);
  auto rows = db->TableData("ORDER");
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> oids;
  for (const Row& row : *rows) oids.push_back(row[0].value.AsInteger());
  // Each customer keeps its last order, in stored order.
  EXPECT_EQ(oids, (std::vector<int64_t>{1, 3, 6, 7, 9, 12}));
}

// UPDATE sees the table as it was before the statement: no row's new
// value may change whether a later row qualifies.
TEST(EngineTest, UpdateSeesTableBeforeTheStatement) {
  auto db = MakeCustomerDb(6, 3);  // 1+2+3+0+1+2 = 9 orders
  auto zero = std::make_shared<SelectStmt>();
  zero->from = {"ORDER", nullptr, "t2"};
  zero->items = {{SqlExpr::Literal(Cell::Int(1)), "c1"}};
  zero->where = Eq(SqlExpr::Column("t2", "AMOUNT"),
                   SqlExpr::Literal(Cell::Dbl(0)));
  UpdateStmt u;
  u.table_name = "ORDER";
  u.assignments = {{"AMOUNT", SqlExpr::Literal(Cell::Dbl(0))}};
  u.where = SqlExpr::Not(SqlExpr::Exists(zero));
  auto n = db->ExecuteUpdate(u);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 9);
  auto rows = db->TableData("ORDER");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 9u);
  for (const Row& row : *rows) EXPECT_DOUBLE_EQ(row[2].value.AsDouble(), 0);
  // A second run finds a zero amount and updates nothing.
  n = db->ExecuteUpdate(u);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
}

// Four readers and one writer share a Database. Each statement runs under
// the database lock, so a reader sees every write whole: the writer sets
// all amounts at once, and an order it inserts is gone again before the
// next UPDATE.
TEST(EngineTest, ConcurrentReadersAndWriter) {
  auto db = MakeCustomerDb(20, 3);
  db->latency_model().roundtrip_micros = 50;
  db->latency_model().sleep = true;
  auto set_amounts = [&](double v) {
    UpdateStmt u;
    u.table_name = "ORDER";
    u.assignments = {{"AMOUNT", SqlExpr::Literal(Cell::Dbl(v))}};
    return db->ExecuteUpdate(u);
  };
  auto base = set_amounts(1);
  ASSERT_TRUE(base.ok());
  const int64_t orders = base.value();  // 30

  auto spread = std::make_shared<SelectStmt>();
  spread->from = {"ORDER", nullptr, "t1"};
  spread->items = {
      {SqlExpr::Aggregate(SqlAgg::kMin, SqlExpr::Column("t1", "AMOUNT")), "c1"},
      {SqlExpr::Aggregate(SqlAgg::kMax, SqlExpr::Column("t1", "AMOUNT")), "c2"},
      {SqlExpr::Aggregate(SqlAgg::kCountStar, nullptr), "c3"}};
  auto join = std::make_shared<SelectStmt>();
  join->from = {"CUSTOMER", nullptr, "c"};
  join->joins.push_back({JoinKind::kInner,
                         {"ORDER", nullptr, "o"},
                         Eq(SqlExpr::Column("c", "CID"),
                            SqlExpr::Column("o", "CID"))});
  join->items = {{SqlExpr::Column("o", "OID"), "c1"}};

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto a = db->ExecuteSelect(*spread);
        if (!a.ok() || a->rows[0][0].value.AsDouble() !=
                           a->rows[0][1].value.AsDouble()) {
          ++failures;
        }
        int64_t n = a.ok() ? a->rows[0][2].value.AsInteger() : -1;
        if (n != orders && n != orders + 1) ++failures;
        auto j = db->ExecuteSelect(*join);
        if (!j.ok() || (static_cast<int64_t>(j->rows.size()) != orders &&
                        static_cast<int64_t>(j->rows.size()) != orders + 1)) {
          ++failures;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int k = 0; k < 40; ++k) {
      InsertStmt ins;
      ins.table_name = "ORDER";
      ins.columns = {"OID", "CID", "AMOUNT"};
      ins.values = {SqlExpr::Literal(Cell::Int(1000 + k)),
                    SqlExpr::Literal(Cell::Str("CUST001")),
                    SqlExpr::Literal(Cell::Dbl(1 + k))};
      if (!db->ExecuteInsert(ins).ok()) ++failures;
      if (!set_amounts(2 + k).ok()) ++failures;
      DeleteStmt del;
      del.table_name = "ORDER";
      del.where = Eq(SqlExpr::Column("ORDER", "OID"),
                     SqlExpr::Literal(Cell::Int(1000 + k)));
      auto n = db->ExecuteDelete(del);
      if (!n.ok() || n.value() != 1) ++failures;
    }
    stop = true;
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->TableData("ORDER")->size(), static_cast<size_t>(orders));
}

TEST(EngineTest, DebugStringRendersSql) {
  auto s = SelectAllCustomers();
  s->where = SqlExpr::Binary("=", SqlExpr::Column("t1", "CID"),
                             SqlExpr::Literal(Cell::Str("CUST001")));
  std::string text = DebugString(*s);
  EXPECT_NE(text.find("SELECT"), std::string::npos);
  EXPECT_NE(text.find("\"CUSTOMER\""), std::string::npos);
  EXPECT_NE(text.find("'CUST001'"), std::string::npos);
}

}  // namespace
}  // namespace aldsp::relational
