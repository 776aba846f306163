#ifndef ALDSP_RELATIONAL_ENGINE_H_
#define ALDSP_RELATIONAL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "relational/cell.h"
#include "relational/sql_ast.h"

namespace aldsp::relational {

/// Cost model for talking to this (simulated) backend over the network.
/// The PP-k tradeoff in the paper is round-trips vs middleware memory;
/// these knobs let benchmarks reproduce it: every statement costs one
/// round-trip, every shipped result row costs transfer time.
struct LatencyModel {
  int64_t roundtrip_micros = 0;
  int64_t per_row_micros = 0;
  /// If false, latency is only accounted in stats (virtual time), letting
  /// large sweeps run fast; if true the engine really sleeps.
  bool sleep = true;
};

/// Counters a benchmark or the observed-cost optimizer can read.
struct SourceStats {
  std::atomic<int64_t> statements{0};
  std::atomic<int64_t> rows_shipped{0};
  std::atomic<int64_t> rows_scanned{0};
  std::atomic<int64_t> simulated_latency_micros{0};

  void Reset() {
    statements = 0;
    rows_shipped = 0;
    rows_scanned = 0;
    simulated_latency_micros = 0;
  }
};

/// A materialized query result.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
};

/// An in-memory relational database with a SQL-AST executor. One Database
/// instance models one backend RDBMS (the paper's examples use two: one
/// holding CUSTOMER/ORDER and one holding CREDIT_CARD).
class Database {
 public:
  explicit Database(std::string name) : name_(std::move(name)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }
  const Catalog& catalog() const { return catalog_; }

  Status CreateTable(TableDef def);
  /// Bulk load; validates arity and column types, enforcing NOT NULL.
  Status InsertRow(const std::string& table, Row row);

  /// Runs a SELECT with `params` bound to its ? placeholders and its
  /// slotted literals read from `literals` (see LiteralCell): the values
  /// of the query text a shared plan serves, or null.
  Result<ResultSet> ExecuteSelect(
      const SelectStmt& stmt, const std::vector<Cell>& params = {},
      const std::vector<xml::AtomicValue>* literals = nullptr);
  Result<int64_t> ExecuteUpdate(const UpdateStmt& stmt,
                                const std::vector<Cell>& params = {});
  Result<int64_t> ExecuteInsert(const InsertStmt& stmt,
                                const std::vector<Cell>& params = {});
  Result<int64_t> ExecuteDelete(const DeleteStmt& stmt,
                                const std::vector<Cell>& params = {});

  /// XA-style transaction simulation (paper §6: submit executes as an
  /// atomic transaction across the affected sources when they support 2PC).
  Status Begin();
  Status Prepare();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return in_transaction_; }

  /// Fault injection for fail-over tests: the next `n` statements fail.
  void FailNextStatements(int n) { fail_next_ = n; }
  /// Fault injection for 2PC tests.
  void FailNextPrepare(bool fail) { fail_prepare_ = fail; }

  LatencyModel& latency_model() { return latency_; }
  SourceStats& stats() { return stats_; }

  /// Direct table access for tests.
  Result<std::vector<Row>> TableData(const std::string& table) const;

 private:
  struct TableStorage {
    TableDef def;
    std::vector<Row> rows;
  };
  using TableLookup = std::function<Status(
      const std::string&, const TableDef**, const std::vector<Row>**)>;

  TableStorage* FindStorage(const std::string& name);
  const TableStorage* FindStorage(const std::string& name) const;
  /// Accounts the round-trip / per-row transfer cost in stats and adds the
  /// micros to sleep to *sleep_micros. The caller sleeps AFTER releasing
  /// mutex_ (see SimulateLatency) so that concurrent statements against the
  /// same backend overlap their simulated wire time, the way independent
  /// connections to a real RDBMS would.
  Status ChargeStatement(int64_t* sleep_micros);
  /// Runs one statement: charges its round trip and runs `body` under
  /// mutex_, then sleeps the simulated wire time after releasing it.
  template <typename T, typename Body>
  Result<T> RunStatement(Body body);
  /// Resolves the tables a statement reads. The executor reads their
  /// stored rows in place, so a lookup is only valid under mutex_.
  TableLookup ReadTables() const;
  void ChargeRows(size_t n, int64_t* sleep_micros);
  void SimulateLatency(int64_t sleep_micros) const;
  Status CheckRow(const TableDef& def, const Row& row) const;

  std::string name_;
  Catalog catalog_;
  std::vector<std::unique_ptr<TableStorage>> tables_;
  LatencyModel latency_;
  SourceStats stats_;
  mutable std::mutex mutex_;

  bool in_transaction_ = false;
  bool prepared_ = false;
  std::vector<std::pair<std::string, std::vector<Row>>> snapshot_;
  std::atomic<int> fail_next_{0};
  bool fail_prepare_ = false;
};

}  // namespace aldsp::relational

#endif  // ALDSP_RELATIONAL_ENGINE_H_
