#ifndef ALDSP_RUNTIME_PHYSICAL_BATCH_H_
#define ALDSP_RUNTIME_PHYSICAL_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/tuple.h"
#include "xml/item.h"
#include "xquery/ast.h"

namespace aldsp::runtime::physical {

/// One variable bound across every row of a TupleBatch. Columns start in
/// columnar atomic layout (unboxed AtomicValues, one per row) and demote
/// themselves to the row-oriented Sequence fallback the first time a
/// value is a node, an empty sequence, or a multi-item sequence — XML
/// values don't flatten into fixed-width cells, so the fallback keeps
/// full XQuery semantics while typical relational-scan columns (ints,
/// strings from SQL regions, positional counters) stay columnar.
struct BatchColumn {
  enum class Layout { kUnset, kAtomic, kSeq };

  std::string name;
  Layout layout = Layout::kUnset;
  std::vector<xml::AtomicValue> atoms;  // columnar layout, one per row
  std::vector<xml::Sequence> seqs;      // fallback layout, one per row

  size_t rows() const {
    return layout == Layout::kAtomic ? atoms.size() : seqs.size();
  }
  bool atomic() const { return layout == Layout::kAtomic; }

  /// Appends one row holding a single item.
  void AppendItem(const xml::Item& item);
  /// Appends one row holding a single atomic value (stays columnar).
  void AppendAtomic(xml::AtomicValue v);
  /// Appends one row holding an arbitrary sequence.
  void AppendSeq(xml::Sequence value);
  /// The row's value as a sequence (physical row index).
  xml::Sequence Value(size_t row) const {
    if (layout == Layout::kAtomic) return xml::Sequence{xml::Item(atoms[row])};
    return seqs[row];
  }

 private:
  /// Converts accumulated atoms to the Sequence fallback.
  void Demote();
};

/// A batch of binding tuples flowing between physical operators
/// (target 1-4K rows): per-row base environments (cheap shared_ptr heads
/// of the immutable Tuple chain) plus zero or more columns layered on
/// top, and an optional selection vector so filters mark dropped rows
/// instead of copying survivors.
///
/// Two equivalent views coexist:
///  - columnar: operators that understand the layout read BatchColumn
///    storage directly (scan fills, filter kernels, the result column);
///  - row: MaterializeRow(i) binds the columns over the row's base and
///    yields the exact Tuple the row-at-a-time engine would have built,
///    which is what row-wise operators (joins, the parallel let) use.
///
/// Invariants: every column holds exactly `physical_size()` rows; the
/// selection vector lists physical indices in ascending order; columns
/// appended later shadow earlier columns and base bindings of the same
/// name (FindColumn searches newest-first). Appending a column requires
/// no selection (callers Compact() first) so column rows stay aligned
/// with physical rows.
class TupleBatch {
 public:
  TupleBatch() = default;

  /// Drops rows, columns and selection; keeps capacity for reuse.
  void Clear();

  // ----- building --------------------------------------------------------

  /// Appends a row whose environment is `base` (no column values yet —
  /// every column must receive a value for the row before reads).
  /// Returns the physical row index.
  size_t AddRow(Tuple base);

  /// Row-mode convenience: appends a fully-bound tuple as a column-less
  /// row (joins and shims produce these).
  void PushRow(Tuple full) { AddRow(std::move(full)); }

  /// Appends a column; returns a pointer stable until the next AddColumn
  /// or Clear is not guaranteed — use immediately while filling.
  BatchColumn* AddColumn(std::string name);

  // ----- selection -------------------------------------------------------

  bool has_selection() const { return has_sel_; }
  /// Restricts the visible rows to `sel` (ascending physical indices).
  void SetSelection(std::vector<uint32_t> sel);
  /// Rewrites storage to the selected rows and drops the selection.
  /// Cheap relative to re-deriving the dropped rows: survivors move as
  /// shared_ptr handles.
  void Compact();

  // ----- reading ---------------------------------------------------------

  /// Visible (selected) row count. Zero is legal mid-stream: a filter
  /// may select nothing from a batch and still not be at end-of-stream.
  size_t size() const { return has_sel_ ? sel_.size() : num_rows_; }
  bool empty() const { return size() == 0; }
  /// Rows ignoring the selection vector.
  size_t physical_size() const { return num_rows_; }
  /// Physical index of visible row `i`.
  size_t PhysicalIndex(size_t i) const {
    return has_sel_ ? static_cast<size_t>(sel_[i]) : i;
  }

  /// The row's base environment before columns (visible index).
  const Tuple& RowBase(size_t i) const { return bases_[PhysicalIndex(i)]; }

  /// Binds the row's column values over its base, oldest column first,
  /// producing the tuple the row engine would have flowed (visible index).
  Tuple MaterializeRow(size_t i) const;

  /// Innermost (newest) column named `name`, or nullptr.
  const BatchColumn* FindColumn(const std::string& name) const;

  /// The row's value for `name`: innermost column if any, else the row
  /// base binding, else nullptr-equivalent empty optional semantics via
  /// `found`. Visible index.
  const xml::Sequence* LookupRow(size_t i, const std::string& name,
                                 xml::Sequence* scratch) const;

  /// Drops the row's base environment and column values (visible index):
  /// for a reader that will not read the row again, so what only the row
  /// holds is freed before the batch is.
  void ReleaseRow(size_t i);

  size_t column_count() const { return cols_.size(); }
  const BatchColumn& column(size_t c) const { return cols_[c]; }
  /// Mutable column access for fillers that add several columns before
  /// writing (AddColumn may reallocate earlier pointers).
  BatchColumn* column_ptr(size_t c) { return &cols_[c]; }

 private:
  std::vector<Tuple> bases_;  // one per physical row
  size_t num_rows_ = 0;
  std::vector<BatchColumn> cols_;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

/// Batch-level expression kernel: evaluates the restricted expression
/// shapes that dominate scan/filter/projection work — variable
/// references, child/attribute path steps over them, and literals —
/// for every visible row of a batch without materializing row tuples.
/// Anything else reports unsupported and the caller falls back to the
/// interpreter over materialized rows, so kernel coverage is a pure
/// optimization with interpreter semantics (unbound-variable and
/// path-over-atomic errors match the interpreter's messages exactly).
bool KernelSupports(const xquery::Expr& e);

/// Evaluates `e` per visible row into `out` (resized to batch.size()).
/// Variables resolve against the batch's columns first (newest wins, the
/// shadowing order MaterializeRow would produce), then each row's base
/// environment chain. With `atomize` each row gets fn:data(e), and a final
/// child step over a flat row reads the row's cells. Slotted literals read
/// their values from `slots` (xquery::LiteralValue).
Status KernelEvalRows(const xquery::Expr& e, const TupleBatch& batch,
                      std::vector<xml::Sequence>* out, bool atomize = false,
                      const xquery::SlotValues* slots = nullptr);

}  // namespace aldsp::runtime::physical

#endif  // ALDSP_RUNTIME_PHYSICAL_BATCH_H_
