// The physical operator repertoire (paper §5.2) and the lowering from
// analyzed+optimized FLWOR clauses to operator trees: nested loop, index
// nested loop, and PP-k joins (with the double-buffered block
// prefetcher), streaming group-by with sort fallback (§4.2), order-by,
// for/let/where scans, and pushed SQL region scans.

#include "runtime/physical/builder.h"
#include "runtime/physical/exchange.h"
#include "runtime/physical/operator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/sql_ast.h"
#include "runtime/evaluator.h"
#include "runtime/source_timing.h"
#include "runtime/tuple_repr.h"
#include "runtime/worker_pool.h"
#include "xml/node.h"

namespace aldsp::runtime::physical {

namespace {

using relational::Cell;
using xml::AtomicValue;
using xml::Item;
using xml::Sequence;
using xquery::Clause;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::JoinMethod;

// Orders two atomized singleton-or-empty sequences; empty sorts first.
int OrderCompareKeys(const Sequence& a, const Sequence& b) {
  if (a.empty() && b.empty()) return 0;
  if (a.empty()) return -1;
  if (b.empty()) return 1;
  const AtomicValue& va = a.front().atomic();
  const AtomicValue& vb = b.front().atomic();
  auto c = va.Compare(vb);
  if (c.ok()) return c.value();
  return static_cast<int>(va.type()) - static_cast<int>(vb.type());
}

/// The one way an operator evaluates an expression over a batch: the
/// batch kernel when the expression's shape allows it, else the
/// interpreter over each visible row. `out` gets one value per visible
/// row; with `atomize` each value is fn:data of the expression.
Status EvalColumn(const ExecEnv& env, const Expr& e, const TupleBatch& batch,
                  bool atomize, std::vector<Sequence>* out) {
  if (KernelSupports(e)) {
    return KernelEvalRows(e, batch, out, atomize, env.ctx->literals.get());
  }
  out->resize(batch.size());
  for (size_t i = 0; i < out->size(); ++i) {
    Tuple row = batch.MaterializeRow(i);
    ALDSP_ASSIGN_OR_RETURN((*out)[i], atomize
                                          ? env.eval->EvalAtomized(e, row)
                                          : env.eval->EvalExpr(e, row));
  }
  return Status::OK();
}

/// Appends one atomized key value to a composite hash key; an empty
/// value sets `*has_empty` (an empty equi key matches nothing).
void AppendKeyPart(const Sequence& value, std::string* key,
                   bool* has_empty = nullptr) {
  if (value.empty() && has_empty != nullptr) *has_empty = true;
  *key += EncodeAtomicSequence(value);
  *key += '\x1e';
}

}  // namespace

// ----- PhysicalOperator base ---------------------------------------------

PhysicalOperator::PhysicalOperator(std::unique_ptr<PhysicalOperator> input,
                                   std::string label, std::string span_detail)
    : input_(std::move(input)), span_detail_(std::move(span_detail)) {
  explain_.label = std::move(label);
  explain_.detail = span_detail_;
}

PhysicalOperator::~PhysicalOperator() { FlushSpan(); }

Status PhysicalOperator::Open(ExecEnv* env) {
  env_ = env;
  trace_ = env->ctx->trace;
  exec_ = env->ctx->exec;
  batch_size_ = std::clamp(env->ctx->batch_size, 1, 16384);
  batch_limit_ = batch_size_;
  if (input_ != nullptr) ALDSP_RETURN_NOT_OK(input_->Open(env));
  // Spans begin in pipeline order (input first), all parented on the
  // calling thread's innermost scope — the enclosing flwor span.
  if (trace_ != nullptr && !explain_.label.empty()) {
    span_ = trace_->BeginSpan(explain_.label, span_detail_);
    timeline_ = trace_->has_timeline() && span_ >= 0;
  }
  opened_ = true;
  return OpenImpl();
}

Result<bool> PhysicalOperator::NextBatch(TupleBatch* out, int max_rows) {
  // One cancel poll per batch (not per row): the batch is the unit at
  // which every pipeline in the tree re-checks the live-query control
  // block, so cancel latency is bounded by one batch of work.
  ALDSP_RETURN_NOT_OK(CheckCancelled(exec_));
  out->Clear();
  batch_limit_ = (max_rows > 0 && max_rows < batch_size_) ? max_rows
                                                          : batch_size_;
  if (span_ < 0) {
    Result<bool> r = NextBatchImpl(out);
    if (r.ok() && r.value()) rows_ += static_cast<int64_t>(out->size());
    return r;
  }
  // Timed inclusive of the input chain (EXPLAIN ANALYZE style); the span
  // becomes the thread's scope so source events inside attach to it.
  QueryTrace::Scope scope(trace_, span_);
  auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = NextBatchImpl(out);
  auto t1 = std::chrono::steady_clock::now();
  micros_ +=
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  if (r.ok() && r.value()) {
    // Spans count rows, never batches: PROFILE output, per-fingerprint
    // row totals and slow-query records stay comparable with row-engine
    // captures.
    rows_ += static_cast<int64_t>(out->size());
    if (timeline_ && !out->empty()) {
      last_row_micros_ = trace_->RelMicros(t1);
      if (first_row_micros_ < 0) first_row_micros_ = last_row_micros_;
    }
  }
  return r;
}

void PhysicalOperator::Close() {
  if (!opened_) return;
  opened_ = false;
  CloseImpl();
  if (input_ != nullptr) input_->Close();
  FlushSpan();
}

void PhysicalOperator::FlushSpan() {
  if (flushed_) return;
  flushed_ = true;
  if (trace_ != nullptr && span_ >= 0) {
    trace_->AddSpanMetrics(span_, rows_, micros_);
    if (timeline_ && first_row_micros_ >= 0) {
      trace_->SetSpanRowMarks(span_, first_row_micros_, last_row_micros_);
    }
    trace_->EndSpan(span_);
  }
}

void PhysicalOperator::Describe(std::vector<ExplainNode>* out) const {
  if (input_ != nullptr) input_->Describe(out);
  if (!explain_.label.empty()) out->push_back(explain_);
}

void PhysicalOperator::NoteOperatorBytes(int64_t bytes) {
  if (ctx()->stats != nullptr) ctx()->stats->NotePeakBytes(bytes);
  if (exec_ != nullptr) exec_->NotePeakBytes(bytes);
  if (trace_ != nullptr && span_ >= 0) trace_->AddSpanBytes(span_, bytes);
}

namespace {

// ----- Leaf / pipelined operators ----------------------------------------

/// Emits the FLWOR's base environment exactly once. Invisible in traces
/// and EXPLAIN (empty label), like the interpreter's singleton stream.
class SingletonSourceOp final : public PhysicalOperator {
 public:
  SingletonSourceOp() : PhysicalOperator(nullptr, "") {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    if (done_) return false;
    done_ = true;
    out->PushRow(base_env());
    return true;
  }

 private:
  bool done_ = false;
};

/// `for $v [at $p] in expr`: iterates the binding sequence per input
/// tuple, binding the item (and 1-based position). Batch-native: the
/// binding sequence materializes directly into the output batch's var
/// column (items from a relational/SQL-region scan land in column
/// storage without per-row tuple construction), and the positional
/// counter is a pure columnar integer column. Subclasses change only how
/// the binding sequence is produced and indexed (Bind / ItemAt).
class ForScanOp : public PhysicalOperator {
 public:
  ForScanOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
            std::string label)
      : PhysicalOperator(std::move(input), std::move(label)), cl_(cl) {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    // Add both columns before taking pointers: the second AddColumn may
    // reallocate the column vector.
    size_t var_idx = out->column_count();
    out->AddColumn(cl_.var);
    if (!cl_.positional_var.empty()) out->AddColumn(cl_.positional_var);
    BatchColumn* var_col = out->column_ptr(var_idx);
    BatchColumn* pos_col = cl_.positional_var.empty()
                               ? nullptr
                               : out->column_ptr(var_idx + 1);
    int target = batch_target();
    while (static_cast<int>(out->size()) < target) {
      if (pos_ < bound_) {
        out->AddRow(current_);
        var_col->AppendItem(ItemAt(pos_));
        if (pos_col != nullptr) {
          pos_col->AppendAtomic(
              AtomicValue::Integer(static_cast<int64_t>(pos_ + 1)));
        }
        ++pos_;
        continue;
      }
      if (in_pos_ >= in_.size()) {
        if (input_done_) break;
        ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&in_));
        in_pos_ = 0;
        if (!more) input_done_ = true;
        continue;
      }
      current_ = in_.MaterializeRow(in_pos_++);
      ALDSP_ASSIGN_OR_RETURN(bound_, Bind(current_));
      pos_ = 0;
    }
    if (!out->empty()) return true;
    return !(input_done_ && in_pos_ >= in_.size() && pos_ >= bound_);
  }

  /// Evaluates the binding sequence for one input tuple and returns its
  /// length; ItemAt(i) then yields item i, once, in order.
  virtual Result<size_t> Bind(const Tuple& env) {
    ALDSP_ASSIGN_OR_RETURN(items_, eval()->EvalExpr(*cl_.expr, env));
    return items_.size();
  }
  virtual Item ItemAt(size_t i) { return std::move(items_[i]); }

  const Clause& cl() const { return cl_; }

 private:
  const Clause& cl_;
  Tuple current_;
  Sequence items_;
  size_t bound_ = 0;
  size_t pos_ = 0;
  TupleBatch in_;
  size_t in_pos_ = 0;
  bool input_done_ = false;
};

/// A ForScan whose binding expression is a pushed-down SQL region
/// (paper §4.4): the scan's rows come from one generated statement
/// executed through the relational adaptor. The statement runs through
/// the interpreter's kSqlQuery bookkeeping, but the scan keeps its rows
/// as cells and builds a row element only when the row enters a batch,
/// so a consumer pulling small batches never holds the whole scan as
/// XML. The plan names it distinctly so EXPLAIN shows the region
/// boundary.
class SqlRegionScanOp final : public ForScanOp {
 public:
  using ForScanOp::ForScanOp;

 protected:
  Result<size_t> Bind(const Tuple& env) override {
    ALDSP_ASSIGN_OR_RETURN(rows_, eval()->RunSqlQuery(*cl().expr, env));
    schema_ = std::make_shared<const xml::RowSchema>(xml::RowSchema{
        cl().expr->sql->row_name, std::move(rows_.column_names)});
    return rows_.rows.size();
  }
  // Each row is read once, so its cells move into its element.
  Item ItemAt(size_t i) override {
    return Item(xml::XNode::Row(schema_, std::move(rows_.rows[i])));
  }

 private:
  relational::ResultSet rows_;
  std::shared_ptr<const xml::RowSchema> schema_;
};

/// `let $v := expr`: binds the full sequence without iterating it.
/// Batch-native: appends one column per input batch.
class LetBindOp final : public PhysicalOperator {
 public:
  LetBindOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
            std::string label)
      : PhysicalOperator(std::move(input), std::move(label)), cl_(cl) {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(out, batch_target()));
    if (!more) return false;
    // Columns must align with physical rows before one is appended.
    out->Compact();
    ALDSP_RETURN_NOT_OK(EvalColumn(env(), *cl_.expr, *out, false, &vals_));
    BatchColumn* col = out->AddColumn(cl_.var);
    for (Sequence& v : vals_) col->AppendSeq(std::move(v));
    return true;
  }

 private:
  const Clause& cl_;
  std::vector<Sequence> vals_;
};

/// `where expr`: passes tuples whose effective boolean value is true.
/// Batch-native: marks dropped rows in the batch's selection vector
/// instead of copying survivors. A comparison evaluates its operands as
/// two atomized columns and compares them with the interpreter's shared
/// routine (what the interpreter's comparison does per row); any other
/// predicate is one column and its effective boolean value.
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
           std::string label)
      : PhysicalOperator(std::move(input), std::move(label)), cl_(cl) {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(out, batch_target()));
    if (!more) return false;
    const Expr& p = *cl_.expr;
    const bool comparison = p.kind == ExprKind::kComparison;
    if (comparison) {
      ALDSP_RETURN_NOT_OK(EvalColumn(env(), *p.children[0], *out, true, &lhs_));
      ALDSP_RETURN_NOT_OK(EvalColumn(env(), *p.children[1], *out, true, &rhs_));
    } else {
      ALDSP_RETURN_NOT_OK(EvalColumn(env(), p, *out, false, &lhs_));
    }
    std::vector<uint32_t> keep;
    keep.reserve(out->size());
    for (size_t i = 0; i < out->size(); ++i) {
      bool ok = false;
      if (comparison) {
        ALDSP_ASSIGN_OR_RETURN(ok, CompareOperandsToBool(lhs_[i], rhs_[i], p.op,
                                                         p.general_comparison));
      } else {
        ALDSP_ASSIGN_OR_RETURN(ok, xml::EffectiveBooleanValue(lhs_[i]));
      }
      if (ok) keep.push_back(static_cast<uint32_t>(out->PhysicalIndex(i)));
    }
    // A batch where nothing survives still returns true: empty batches
    // are legal mid-stream, and downstream avoids any copy for the
    // dropped rows.
    out->SetSelection(std::move(keep));
    return true;
  }

 private:
  const Clause& cl_;
  std::vector<Sequence> lhs_, rhs_;
};

// ----- Join operators (paper §5.2) ---------------------------------------

using JoinIndex = std::unordered_map<std::string, std::vector<size_t>>;

/// A join's right side: its items, their bytes, and for the index
/// methods a hash index on the right equi keys. NL/INL build it once per
/// join, PP-k once per fetched block; it is immutable once built, so
/// concurrent probes share it.
struct JoinBuild {
  Sequence items;
  JoinIndex index;
  bool indexed = false;
  int64_t bytes = 0;
};

/// The join micro-kernel shared by the serial join repertoire and the
/// parallel probe exchange: equi-key encoding, residual conditions, the
/// build step, and the probes (including the left-outer null row). All
/// methods are const over immutable state, so several worker threads may
/// probe at once (the evaluator already supports concurrent EvalExpr —
/// the async fan-out relies on it).
struct JoinMatcher {
  const Clause* cl = nullptr;
  JoinMethod method = JoinMethod::kNestedLoop;
  // A copy: prefetch and exchange workers read it, and the original is a
  // local of the evaluator's drive loop, beside the locals it writes.
  ExecEnv env;

  // Evaluates a key expression to its atomized value sequence.
  Result<Sequence> EvalKey(const ExprPtr& expr, const Tuple& row) const {
    return env.eval->EvalAtomized(*expr, row);
  }

  Result<std::string> LeftKey(const Tuple& left, bool* has_empty) const {
    std::string key;
    *has_empty = false;
    for (const auto& [le, re] : cl->equi_keys) {
      ALDSP_ASSIGN_OR_RETURN(Sequence k, EvalKey(le, left));
      AppendKeyPart(k, &key, has_empty);
    }
    return key;
  }

  Result<std::string> RightKey(const Item& item, bool* has_empty) const {
    Tuple row = env.base_env.Bind(cl->var, Sequence{item});
    std::string key;
    *has_empty = false;
    for (const auto& [le, re] : cl->equi_keys) {
      ALDSP_ASSIGN_OR_RETURN(Sequence k, EvalKey(re, row));
      AppendKeyPart(k, &key, has_empty);
    }
    return key;
  }

  // Checks residual condition with the join variable bound.
  Result<bool> Residual(const Tuple& joined) const {
    if (!cl->condition) return true;
    ALDSP_ASSIGN_OR_RETURN(Sequence c,
                           env.eval->EvalExpr(*cl->condition, joined));
    return xml::EffectiveBooleanValue(c);
  }

  // For plain NL, the equi keys must also be verified per combination.
  Result<bool> EquiMatch(const Tuple& joined) const {
    for (const auto& [le, re] : cl->equi_keys) {
      ALDSP_ASSIGN_OR_RETURN(Sequence l, EvalKey(le, joined));
      ALDSP_ASSIGN_OR_RETURN(Sequence r, EvalKey(re, joined));
      if (l.empty() || r.empty()) return false;
      if (EncodeAtomicSequence(l) != EncodeAtomicSequence(r)) return false;
    }
    return true;
  }

  /// The build step: wraps `items` as a right side, indexing them on
  /// their equi keys when the method probes by index.
  Result<JoinBuild> Build(Sequence items) const {
    JoinBuild b;
    b.items = std::move(items);
    b.bytes = static_cast<int64_t>(xml::SequenceMemoryBytes(b.items));
    b.indexed = method == JoinMethod::kIndexNestedLoop ||
                method == JoinMethod::kPPkIndexNestedLoop;
    if (b.indexed) {
      for (size_t i = 0; i < b.items.size(); ++i) {
        bool has_empty;
        ALDSP_ASSIGN_OR_RETURN(std::string key,
                               RightKey(b.items[i], &has_empty));
        if (!has_empty) b.index[key].push_back(i);
      }
    }
    return b;
  }

  /// The NL/INL build: materializes the right side over the FLWOR's base
  /// environment.
  Result<JoinBuild> BuildRight() const {
    ALDSP_ASSIGN_OR_RETURN(Sequence items,
                           env.eval->EvalExpr(*cl->expr, env.base_env));
    return Build(std::move(items));
  }

  // Joins one left tuple against a right side: an indexed side looks the
  // left key's bucket up, any other is scanned with the equi keys
  // verified per item. Appends matches (and the outer-join null row).
  Status JoinOneLeft(const Tuple& left, const JoinBuild& right,
                     std::vector<Tuple>* out) const {
    if (right.indexed) {
      bool has_empty;
      ALDSP_ASSIGN_OR_RETURN(std::string key, LeftKey(left, &has_empty));
      return JoinMatchedItems(left, right, Bucket(right, key, has_empty),
                              out);
    }
    bool matched = false;
    for (const auto& item : right.items) {
      Tuple joined = left.Bind(cl->var, Sequence{item});
      if (env.ctx->stats != nullptr) env.ctx->stats->join_probe_rows += 1;
      ALDSP_ASSIGN_OR_RETURN(bool em, EquiMatch(joined));
      if (!em) continue;
      ALDSP_ASSIGN_OR_RETURN(bool ok, Residual(joined));
      if (ok) {
        matched = true;
        out->push_back(std::move(joined));
      }
    }
    if (!matched && cl->left_outer) {
      out->push_back(left.Bind(cl->var, Sequence{}));
    }
    return Status::OK();
  }

  // The index bucket for a left key, or null for a miss / empty key.
  static const std::vector<size_t>* Bucket(const JoinBuild& right,
                                           const std::string& key,
                                           bool has_empty) {
    if (has_empty) return nullptr;
    auto it = right.index.find(key);
    return it == right.index.end() ? nullptr : &it->second;
  }

  // Joins one left tuple against its resolved index bucket. `rows` may
  // be null for a key miss / empty key: only the outer null row can
  // result.
  Status JoinMatchedItems(const Tuple& left, const JoinBuild& right,
                          const std::vector<size_t>* rows,
                          std::vector<Tuple>* out) const {
    bool matched = false;
    if (rows != nullptr) {
      for (size_t i : *rows) {
        Tuple joined = left.Bind(cl->var, Sequence{right.items[i]});
        if (env.ctx->stats != nullptr) env.ctx->stats->join_probe_rows += 1;
        ALDSP_ASSIGN_OR_RETURN(bool ok, Residual(joined));
        if (ok) {
          matched = true;
          out->push_back(std::move(joined));
        }
      }
    }
    if (!matched && cl->left_outer) {
      out->push_back(left.Bind(cl->var, Sequence{}));
    }
    return Status::OK();
  }

  /// The NL/INL batch probe. An indexed right side takes the left keys
  /// as columns and joins only rows whose bucket hits (or every row of a
  /// left-outer join); a row that misses never materializes a tuple. NL
  /// joins each row against every right item.
  Status ProbeBatch(const TupleBatch& in, const JoinBuild& right,
                    std::vector<Tuple>* out) const {
    size_t n = in.size();
    if (!right.indexed) {
      for (size_t i = 0; i < n; ++i) {
        ALDSP_RETURN_NOT_OK(JoinOneLeft(in.MaterializeRow(i), right, out));
      }
      return Status::OK();
    }
    size_t nk = cl->equi_keys.size();
    std::vector<std::vector<Sequence>> key_cols(nk);
    for (size_t k = 0; k < nk; ++k) {
      ALDSP_RETURN_NOT_OK(EvalColumn(env, *cl->equi_keys[k].first, in,
                                     /*atomize=*/true, &key_cols[k]));
    }
    std::string key;
    for (size_t i = 0; i < n; ++i) {
      key.clear();
      bool has_empty = false;
      for (size_t k = 0; k < nk; ++k) {
        AppendKeyPart(key_cols[k][i], &key, &has_empty);
      }
      const std::vector<size_t>* rows = Bucket(right, key, has_empty);
      if (rows == nullptr && !cl->left_outer) continue;
      ALDSP_RETURN_NOT_OK(
          JoinMatchedItems(in.MaterializeRow(i), right, rows, out));
    }
    return Status::OK();
  }
};

/// Shared base for the serial join operators: a JoinMatcher bound at
/// Open, and the pending-output buffer subclasses refill a batch at a
/// time. Batch-native on both sides: left tuples pull from the upstream
/// in whole batches (NextLeft / left batch accessors), and joined rows
/// drain from pending() into output batches.
class JoinOpBase : public PhysicalOperator {
 public:
  JoinOpBase(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
             JoinMethod method, std::string label, std::string span_detail)
      : PhysicalOperator(std::move(input), std::move(label),
                         std::move(span_detail)),
        cl_(cl),
        method_(method) {}

 protected:
  Status OpenImpl() override {
    matcher_ = JoinMatcher{&cl_, method_, env()};
    return Status::OK();
  }

  Result<bool> NextBatchImpl(TupleBatch* out) override {
    int target = batch_target();
    while (static_cast<int>(out->size()) < target) {
      if (pending_pos_ < pending_.size()) {
        out->PushRow(std::move(pending_[pending_pos_++]));
        continue;
      }
      pending_.clear();
      pending_pos_ = 0;
      // Rows in hand go to the consumer instead of waiting on a source
      // with them: a short batch is legal, and the consumer's work then
      // overlaps the round trips already in flight.
      if (!out->empty() && RefillWouldWait()) return true;
      ALDSP_ASSIGN_OR_RETURN(bool more, Refill());
      if (!more) return !out->empty();
    }
    return true;
  }

  /// Produces the next batch of joined tuples into pending(); returns
  /// false when the input is exhausted.
  virtual Result<bool> Refill() = 0;

  /// True when the next Refill would block on a source round trip. NL
  /// and INL materialize their right side once, so they never wait.
  virtual bool RefillWouldWait() { return false; }

  std::vector<Tuple>* pending() { return &pending_; }

  /// Pulls the next left tuple, reading the upstream at most `max_rows`
  /// rows at a time: the PP-k block reader consumes lefts one block at a
  /// time, so pulling one block's worth keeps the upstream (a SQL scan
  /// building row elements per batch) from running ahead of the fetches.
  Result<bool> NextLeft(Tuple* out, int max_rows) {
    while (left_pos_ >= left_batch_.size()) {
      if (left_done_) return false;
      ALDSP_ASSIGN_OR_RETURN(bool more,
                             input()->NextBatch(&left_batch_, max_rows));
      left_pos_ = 0;
      if (!more) {
        left_done_ = true;
        return false;
      }
    }
    *out = left_batch_.MaterializeRow(left_pos_++);
    return true;
  }

  /// Pulls the next non-empty left batch into the shared buffer; false
  /// at end of stream. Used by the NL/INL batch probe (whole-batch
  /// processing); not valid interleaved with NextLeft.
  Result<bool> NextLeftBatch() {
    left_pos_ = 0;
    while (true) {
      if (left_done_) return false;
      ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&left_batch_));
      if (!more) {
        left_done_ = true;
        return false;
      }
      if (!left_batch_.empty()) return true;
    }
  }

  const TupleBatch& left_batch() const { return left_batch_; }
  const JoinMatcher& matcher() const { return matcher_; }
  const Clause& cl() const { return cl_; }

 private:
  const Clause& cl_;
  JoinMethod method_;
  std::vector<Tuple> pending_;
  size_t pending_pos_ = 0;
  JoinMatcher matcher_;
  TupleBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
};

/// Nested loop and index nested loop joins: the right side materializes
/// once (INL also builds a hash index on the equi keys), then each left
/// batch probes it.
class NestedLoopJoinOp : public JoinOpBase {
 public:
  using JoinOpBase::JoinOpBase;

 protected:
  Result<bool> Refill() override {
    if (!right_.has_value()) {
      ALDSP_ASSIGN_OR_RETURN(right_, matcher().BuildRight());
      NoteOperatorBytes(right_->bytes);
    }
    ALDSP_ASSIGN_OR_RETURN(bool more, NextLeftBatch());
    if (!more) return false;
    ALDSP_RETURN_NOT_OK(matcher().ProbeBatch(left_batch(), *right_, pending()));
    return true;
  }

 private:
  std::optional<JoinBuild> right_;
};

/// INL is NL with the index switched on; a distinct type keeps the
/// operator inventory explicit in the plan.
class IndexNLJoinOp final : public NestedLoopJoinOp {
 public:
  using NestedLoopJoinOp::NestedLoopJoinOp;
};

/// PP-k join (paper §4.2): pulls up to k left tuples, issues one
/// disjunctive (IN-list) fetch for the block, and joins in the mid-tier.
///
/// With ctx.ppk_prefetch (default), block fetches run as a depth-d
/// pipeline of worker-pool tasks: the driving thread reads blocks of
/// left tuples and their key parameters (upstream is only ever touched
/// by one thread), keeps up to d parameterized fetches in flight, and
/// joins each block as its fetch completes. d=1 is the classic double
/// buffer; larger depths overlap several round trips, chosen adaptively
/// from the ObservedCostModel's per-source round-trip/transfer
/// observations (ctx.ppk_prefetch_depth pins it). When the next block's
/// fetch has not finished, the rows already joined leave as a short
/// batch, so the consumer works on one block while the next is fetched.
///
/// Close and the destructor cancel and drain the pipeline, so an early
/// teardown (LIMIT-style close, timeout abandonment) never leaves a
/// fetch task running against destroyed operator state.
class PPkJoinOp final : public JoinOpBase {
 public:
  using JoinOpBase::JoinOpBase;

  ~PPkJoinOp() override { Drain(); }

 protected:
  Status OpenImpl() override {
    ALDSP_RETURN_NOT_OK(JoinOpBase::OpenImpl());
    if (!ctx()->ppk_prefetch) {
      depth_ = 0;
    } else if (ctx()->ppk_prefetch_depth > 0) {
      depth_ = std::min(ctx()->ppk_prefetch_depth, 8);
    } else if (ctx()->observed != nullptr && cl().ppk_fetch != nullptr) {
      depth_ = ctx()->observed->AdvisePrefetchDepth(
          cl().ppk_fetch->source, std::max(1, cl().ppk_block_size));
    } else {
      depth_ = 1;
    }
    if (depth_ > 0) group_.emplace(&WorkerPool::For(ctx()->pool));
    return Status::OK();
  }

  void CloseImpl() override { Drain(); }

  // Without prefetch every refill fetches inline; with it, a refill
  // waits when nothing is in flight yet or the head fetch is still
  // running. WaitFor(0) checks the head without claiming it inline.
  bool RefillWouldWait() override {
    if (depth_ == 0 || inflight_.empty()) return !input_exhausted_;
    return !inflight_.front().task.WaitFor(std::chrono::milliseconds(0));
  }

  Result<bool> Refill() override {
    if (depth_ == 0) {
      // No prefetch: read and fetch inline under the join span.
      ALDSP_ASSIGN_OR_RETURN(PendingBlock block, ReadBlock());
      if (block.lefts.empty()) return false;
      ALDSP_ASSIGN_OR_RETURN(JoinBuild fetched,
                             FetchBlock(std::move(block.params)));
      return JoinBlock(block.lefts, fetched);
    }
    ALDSP_RETURN_NOT_OK(FillPipeline());
    if (inflight_.empty()) return false;
    Inflight f = std::move(inflight_.front());
    inflight_.pop_front();
    QueryTrace* tr = trace();
    bool timed = tr != nullptr && tr->has_timeline() && f.task_span >= 0;
    int64_t wait_begin = timed ? tr->NowRelMicros() : 0;
    f.task.Wait();
    if (timed) {
      tr->AddWaitEvent(f.task_span, tr->NowRelMicros() - wait_begin,
                       "ppk-prefetch");
    }
    // Top the pipeline back up before joining, so the next round trips
    // overlap this block's mid-tier join work.
    ALDSP_RETURN_NOT_OK(FillPipeline());
    Result<JoinBuild>& r = *f.slot;
    if (!r.ok()) return r.status();
    return JoinBlock(f.lefts, r.value());
  }

 private:
  /// A block read on the driving thread: left tuples plus the distinct
  /// first-equi-key parameter cells for the IN-list fetch.
  struct PendingBlock {
    std::vector<Tuple> lefts;
    std::vector<Cell> params;
  };

  struct Inflight {
    std::vector<Tuple> lefts;
    std::shared_ptr<Result<JoinBuild>> slot;
    WorkerPool::Task task;
    int task_span = -1;
  };

  /// Reads up to k left tuples and their key parameters. Main thread
  /// only: the sole reader of the upstream input.
  Result<PendingBlock> ReadBlock() {
    PendingBlock block;
    int k = std::max(1, cl().ppk_block_size);
    Tuple t;
    while (static_cast<int>(block.lefts.size()) < k) {
      ALDSP_ASSIGN_OR_RETURN(bool more, NextLeft(&t, k));
      if (!more) {
        input_exhausted_ = true;
        break;
      }
      block.lefts.push_back(t);
    }
    if (block.lefts.empty()) return block;
    if (ctx()->stats != nullptr) ctx()->stats->ppk_blocks += 1;

    // Collect distinct key values from the block's first equi key (the
    // parameterized IN-list column).
    std::unordered_map<std::string, bool> seen;
    for (const auto& left : block.lefts) {
      ALDSP_ASSIGN_OR_RETURN(Sequence key,
                             matcher().EvalKey(cl().equi_keys[0].first, left));
      if (key.empty()) continue;
      const AtomicValue& v = key.front().atomic();
      if (seen.emplace(EncodeAtomic(v), true).second) {
        block.params.push_back(Cell::Of(v));
      }
    }
    return block;
  }

  /// Schedules fetch tasks until `depth_` are in flight or the input is
  /// exhausted.
  Status FillPipeline() {
    while (static_cast<int>(inflight_.size()) < depth_ && !input_exhausted_) {
      ALDSP_ASSIGN_OR_RETURN(PendingBlock block, ReadBlock());
      if (block.lefts.empty()) break;
      SchedulePrefetch(std::move(block));
    }
    return Status::OK();
  }

  void SchedulePrefetch(PendingBlock block) {
    Inflight f;
    f.lefts = std::move(block.lefts);
    f.slot = std::make_shared<Result<JoinBuild>>(JoinBuild{});
    QueryTrace* tr = trace();
    int sp = span();
    // In timeline mode each prefetch gets its own task span under the
    // join span, opened at enqueue so queue wait and run time separate.
    int task_span = -1;
    int64_t enqueue_rel = 0;
    if (tr != nullptr && tr->has_timeline()) {
      task_span = tr->BeginSpanUnder(sp, "task[ppk-prefetch]", "");
      enqueue_rel = tr->NowRelMicros();
    }
    f.task_span = task_span;
    auto slot = f.slot;
    auto params = std::make_shared<std::vector<Cell>>(std::move(block.params));
    f.task = group_->Submit([this, slot, params, tr, sp, task_span,
                             enqueue_rel] {
      // Worker threads start with an empty scope stack; re-establish the
      // task span (or the join span) so the block's fetch event attaches
      // where it would have inline.
      std::optional<QueryTrace::Scope> scope;
      if (tr != nullptr) scope.emplace(tr, task_span >= 0 ? task_span : sp);
      int64_t run_begin = 0;
      if (task_span >= 0) {
        tr->SetSpanQueueMicros(task_span, tr->NowRelMicros() - enqueue_rel);
        run_begin = tr->NowRelMicros();
      }
      *slot = FetchBlock(std::move(*params));
      if (task_span >= 0) {
        tr->AddSpanMetrics(
            task_span,
            slot->ok() ? static_cast<int64_t>(slot->value().items.size())
                       : 0,
            tr->NowRelMicros() - run_begin);
        tr->EndSpan(task_span);
      }
    });
    inflight_.push_back(std::move(f));
  }

  /// Runs the block's parameterized fetch and builds the mid-tier join's
  /// right side. Called inline (depth 0) or on a pool thread; touches
  /// only thread-safe services plus the immutable clause/matcher state.
  Result<JoinBuild> FetchBlock(std::vector<Cell> params) {
    Sequence fetched;
    // Prefetch tasks may still be queued (or running) when the query is
    // cancelled; skip the source round trip instead of paying for it.
    ALDSP_RETURN_NOT_OK(CheckCancelled(ctx()->exec));
    if (!params.empty()) {
      const auto& spec = *cl().ppk_fetch;
      relational::Database* db =
          ctx()->adaptors == nullptr
              ? nullptr
              : ctx()->adaptors->FindDatabase(spec.source);
      if (db == nullptr) {
        return Status::SourceError("no relational source '" + spec.source +
                                   "' for PP-k fetch");
      }
      relational::SelectPtr select = spec.select_template->Clone();
      std::vector<relational::SqlExprPtr> placeholders;
      for (size_t i = 0; i < params.size(); ++i) {
        placeholders.push_back(
            relational::SqlExpr::Param(static_cast<int>(i)));
      }
      relational::SqlExprPtr in_pred = relational::SqlExpr::InList(
          relational::SqlExpr::Column(spec.in_alias, spec.in_column),
          std::move(placeholders));
      select->where = select->where
                          ? relational::SqlExpr::Binary(
                                "AND", select->where, std::move(in_pred))
                          : std::move(in_pred);
      if (ctx()->health != nullptr &&
          !ctx()->health->AllowRequest(spec.source, HealthNowMicros())) {
        return Status::SourceError("circuit breaker open for source '" +
                                   spec.source + "'");
      }
      int64_t sim_mark = VirtualLatencyMark(db);
      auto t0 = std::chrono::steady_clock::now();
      Result<relational::ResultSet> executed =
          db->ExecuteSelect(*select, params, ctx()->literals.get());
      int64_t micros = MicrosSince(t0) + VirtualLatencyDelta(db, sim_mark);
      if (ctx()->health != nullptr) {
        if (executed.ok()) {
          ctx()->health->NoteSuccess(spec.source, micros, HealthNowMicros());
        } else {
          ctx()->health->NoteFailure(spec.source, HealthNowMicros());
        }
      }
      if (!executed.ok()) return executed.status();
      relational::ResultSet rs = std::move(executed).value();
      if (ctx()->metrics != nullptr) {
        ctx()->metrics->RecordSourceLatency(spec.source, micros);
      }
      if (trace() != nullptr) {
        int64_t roundtrip = -1;
        int64_t transfer = 0;
        SplitSourceMicros(db, static_cast<int64_t>(rs.rows.size()), micros,
                          &roundtrip, &transfer);
        trace()->AddEvent(QueryTrace::EventKind::kPPkFetch, spec.source,
                          relational::DebugString(*select,
                                                  ctx()->literals.get()),
                          static_cast<int64_t>(rs.rows.size()), micros, "",
                          roundtrip, transfer);
      }
      fetched = RowsToItems(std::move(rs), spec.row_name);
    }
    // Mid-tier join of the block against the fetched rows; PP-k can use
    // any join method for this step (paper §5.2) — here NL or INL.
    return matcher().Build(std::move(fetched));
  }

  Result<bool> JoinBlock(const std::vector<Tuple>& lefts,
                         const JoinBuild& fetched) {
    NoteOperatorBytes(fetched.bytes);
    for (const auto& left : lefts) {
      ALDSP_RETURN_NOT_OK(matcher().JoinOneLeft(left, fetched, pending()));
    }
    return true;
  }

  /// Cancels unstarted fetches and waits out running ones; after this no
  /// task references `this` or the upstream operators.
  void Drain() {
    if (group_.has_value()) group_->CancelAndWait();
    inflight_.clear();
  }

  int depth_ = 0;
  bool input_exhausted_ = false;
  std::optional<WorkerPool::TaskGroup> group_;
  std::deque<Inflight> inflight_;
};

// ----- Parallel operators (exchange-based) -------------------------------

/// Partitioned NL/INL join probe: the right side materializes once on
/// the driving thread (OpenShared), then chunks of left tuples probe it
/// concurrently on worker threads. Build side and probe are the serial
/// join's (JoinMatcher::BuildRight / ProbeBatch): the build side is
/// immutable during the probe and the matcher is a const kernel, so
/// chunks share them without locks.
class ParallelJoinProbeOp final : public ExchangeOpBase {
 public:
  ParallelJoinProbeOp(std::unique_ptr<PhysicalOperator> input,
                      const Clause& cl, JoinMethod method, std::string label,
                      std::string span_detail, int dop)
      : ExchangeOpBase(std::move(input), std::move(label),
                       std::move(span_detail), dop),
        cl_(cl),
        method_(method) {}

  ~ParallelJoinProbeOp() override { DrainForDestruction(); }

 protected:
  Status OpenShared() override {
    matcher_ = JoinMatcher{&cl_, method_, env()};
    ALDSP_ASSIGN_OR_RETURN(right_, matcher_.BuildRight());
    NoteOperatorBytes(right_.bytes);
    return Status::OK();
  }

  Status ProcessBatch(const TupleBatch& in, std::vector<Tuple>* out) override {
    return matcher_.ProbeBatch(in, right_, out);
  }

 private:
  const Clause& cl_;
  JoinMethod method_;
  JoinMatcher matcher_;
  JoinBuild right_;
};

/// Partitioned for-scan: evaluates the binding expression for chunks of
/// input tuples concurrently. Positional variables stay per-tuple
/// (1-based within each tuple's item sequence), so the output is
/// identical to the serial ForScanOp.
class ParallelForScanOp final : public ExchangeOpBase {
 public:
  ParallelForScanOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
                    std::string label, std::string span_detail, int dop)
      : ExchangeOpBase(std::move(input), std::move(label),
                       std::move(span_detail), dop),
        cl_(cl) {}

  ~ParallelForScanOp() override { DrainForDestruction(); }

 protected:
  Status ProcessBatch(const TupleBatch& in, std::vector<Tuple>* out) override {
    for (size_t r = 0; r < in.size(); ++r) {
      Tuple row = in.MaterializeRow(r);
      ALDSP_ASSIGN_OR_RETURN(Sequence seq, eval()->EvalExpr(*cl_.expr, row));
      for (size_t i = 0; i < seq.size(); ++i) {
        Tuple t = row.Bind(cl_.var, Sequence{seq[i]});
        if (!cl_.positional_var.empty()) {
          t = t.Bind(cl_.positional_var,
                     Sequence{Item(AtomicValue::Integer(
                         static_cast<int64_t>(i + 1)))});
        }
        out->push_back(std::move(t));
      }
    }
    return Status::OK();
  }

 private:
  const Clause& cl_;
};

/// Parallel fan-out of a run of independent let clauses (paper §5.4
/// applied by the planner): per input tuple, every let's binding
/// expression dispatches as its own worker-pool task — they share the
/// same input environment (the optimizer verified mutual independence),
/// so k source calls overlap instead of paying their latencies in
/// sequence. Fan-out stays one input row at a time — the tasks in flight
/// are the row's k lets, never a batch's — and cancel is polled before
/// each row, so a cancel stops the operator within one row of fan-out.
/// All of a row's tasks complete before the next starts, so no task can
/// outlive the operator.
class ParallelLetOp final : public PhysicalOperator {
 public:
  ParallelLetOp(std::unique_ptr<PhysicalOperator> input,
                std::vector<const Clause*> lets, std::string label,
                std::string span_detail)
      : PhysicalOperator(std::move(input), std::move(label),
                         std::move(span_detail)),
        lets_(std::move(lets)) {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    while (static_cast<int>(out->size()) < batch_target()) {
      if (in_pos_ == in_.size()) {
        if (input_done_) return !out->empty();
        in_pos_ = 0;
        ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&in_));
        input_done_ = !more;
        continue;  // an empty batch mid-stream is legal
      }
      ALDSP_RETURN_NOT_OK(CheckCancelled(ctx()->exec));
      ALDSP_ASSIGN_OR_RETURN(Tuple row,
                             FanOut(in_.MaterializeRow(in_pos_++)));
      out->PushRow(std::move(row));
    }
    return true;
  }

 private:
  // Evaluates every let of one input row on the worker pool and binds
  // the results onto it.
  Result<Tuple> FanOut(Tuple t) {
    if (ctx()->stats != nullptr) ctx()->stats->parallel_let_fanouts += 1;
    WorkerPool& pool = WorkerPool::For(ctx()->pool);
    QueryTrace* tr = trace();
    int sp = span();
    size_t n = lets_.size();
    std::vector<std::shared_ptr<Result<Sequence>>> slots(n);
    std::vector<WorkerPool::Task> tasks(n);
    std::vector<int> task_spans(n, -1);
    for (size_t i = 0; i < n; ++i) {
      slots[i] = std::make_shared<Result<Sequence>>(Sequence{});
      const Expr* body = lets_[i]->expr.get();
      int task_span = -1;
      int64_t enqueue_rel = 0;
      if (tr != nullptr && tr->has_timeline()) {
        task_span = tr->BeginSpanUnder(sp, "task[let]", "$" + lets_[i]->var);
        enqueue_rel = tr->NowRelMicros();
      }
      task_spans[i] = task_span;
      auto slot = slots[i];
      ExprEvaluator* ev = eval();
      tasks[i] = pool.Submit([ev, body, t, slot, tr, sp, task_span,
                              enqueue_rel] {
        std::optional<QueryTrace::Scope> scope;
        if (tr != nullptr) scope.emplace(tr, task_span >= 0 ? task_span : sp);
        int64_t run_begin = 0;
        if (task_span >= 0) {
          tr->SetSpanQueueMicros(task_span, tr->NowRelMicros() - enqueue_rel);
          run_begin = tr->NowRelMicros();
        }
        *slot = ev->EvalExpr(*body, t);
        if (task_span >= 0) {
          tr->AddSpanMetrics(
              task_span,
              slot->ok() ? static_cast<int64_t>(slot->value().size()) : 0,
              tr->NowRelMicros() - run_begin);
          tr->EndSpan(task_span);
        }
      });
    }
    // Every task must finish before we return (error or not): they
    // borrow the evaluator and this tuple's bindings.
    for (size_t i = 0; i < n; ++i) {
      bool timed = tr != nullptr && tr->has_timeline() && task_spans[i] >= 0;
      int64_t wait_begin = timed ? tr->NowRelMicros() : 0;
      tasks[i].Wait();
      if (timed) {
        tr->AddWaitEvent(task_spans[i], tr->NowRelMicros() - wait_begin,
                         "let-fanout");
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!slots[i]->ok()) return slots[i]->status();
      t = t.Bind(lets_[i]->var, std::move(*slots[i]).value());
    }
    return t;
  }

  std::vector<const Clause*> lets_;
  TupleBatch in_;  // the input batch being fanned out, row by row
  size_t in_pos_ = 0;
  bool input_done_ = false;
};

// ----- Grouping (paper §4.2) ---------------------------------------------

/// Streaming group-by when the input is pre-clustered on the grouping
/// keys (a group ends exactly when the key changes — constant memory
/// beyond the current group), with a materialize-and-cluster fallback
/// otherwise. Batch-native on the input side: each pulled batch's key
/// encodings/values and member values precompute in per-column loops
/// (one key column per group key), and the group loop then consumes
/// plain arrays.
class StreamGroupByOp final : public PhysicalOperator {
 public:
  StreamGroupByOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
                  std::string label)
      : PhysicalOperator(std::move(input), std::move(label)), cl_(cl) {}

 protected:
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    int target = batch_target();
    Tuple t;
    while (static_cast<int>(out->size()) < target) {
      ALDSP_ASSIGN_OR_RETURN(bool more, NextOne(&t));
      if (!more) return !out->empty();
      out->PushRow(std::move(t));
    }
    return true;
  }

 private:
  Result<bool> NextOne(Tuple* out) {
    if (cl_.pre_clustered) return NextStreaming(out);
    if (!sorted_ready_) {
      ALDSP_RETURN_NOT_OK(MaterializeAndSort());
      sorted_ready_ = true;
    }
    return NextFromSorted(out);
  }

  struct GroupAccumulator {
    std::string key_enc;
    std::vector<Sequence> key_values;     // one per group key
    std::vector<Sequence> member_values;  // one per group var (concatenated)
    size_t bytes = 0;
    bool active = false;
  };

  /// Pulls the next non-empty input batch and precomputes, per row, the
  /// key encoding + key values (one atomized column per key) and the
  /// member values (column-aware lookups — no tuple materialization).
  /// Returns false at end of stream.
  Result<bool> FetchInputBatch() {
    while (true) {
      if (input_done_) return false;
      ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&in_));
      if (!more) {
        input_done_ = true;
        return false;
      }
      if (!in_.empty()) break;
    }
    size_t n = in_.size();
    size_t nkeys = cl_.group_keys.size();
    size_t nvars = cl_.group_vars.size();
    in_pos_ = 0;
    in_enc_.assign(n, std::string());
    in_keys_.assign(n, std::vector<Sequence>());
    in_members_.assign(n, std::vector<Sequence>());
    key_cols_.resize(nkeys);
    for (size_t k = 0; k < nkeys; ++k) {
      ALDSP_RETURN_NOT_OK(EvalColumn(env(), *cl_.group_keys[k].expr, in_,
                                     /*atomize=*/true, &key_cols_[k]));
    }
    for (size_t i = 0; i < n; ++i) {
      in_keys_[i].reserve(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        AppendKeyPart(key_cols_[k][i], &in_enc_[i]);
        in_keys_[i].push_back(std::move(key_cols_[k][i]));
      }
    }
    Sequence scratch;
    for (size_t i = 0; i < n; ++i) {
      in_members_[i].reserve(nvars);
      for (const auto& gv : cl_.group_vars) {
        const Sequence* v = in_.LookupRow(i, gv.in_var, &scratch);
        if (v == nullptr) {
          return Status::RuntimeError("unbound grouping variable $" +
                                      gv.in_var);
        }
        in_members_[i].push_back(*v);
      }
    }
    return true;
  }

  Tuple EmitGroup(const GroupAccumulator& g) {
    Tuple t = base_env();
    for (size_t i = 0; i < cl_.group_vars.size(); ++i) {
      t = t.Bind(cl_.group_vars[i].out_var, g.member_values[i]);
    }
    for (size_t i = 0; i < cl_.group_keys.size(); ++i) {
      if (!cl_.group_keys[i].as_var.empty()) {
        t = t.Bind(cl_.group_keys[i].as_var, g.key_values[i]);
      }
    }
    return t;
  }

  Result<bool> NextStreaming(Tuple* out) {
    while (true) {
      if (in_pos_ >= in_.size()) {
        ALDSP_ASSIGN_OR_RETURN(bool more, FetchInputBatch());
        if (!more) {
          if (current_.active) {
            *out = EmitGroup(current_);
            current_ = GroupAccumulator{};
            return true;
          }
          return false;
        }
      }
      size_t i = in_pos_++;
      if (!current_.active) {
        StartGroup(std::move(in_enc_[i]), std::move(in_keys_[i]));
        Accumulate(std::move(in_members_[i]));
        if (ctx()->stats != nullptr) ctx()->stats->streaming_groups += 1;
        continue;
      }
      if (in_enc_[i] == current_.key_enc) {
        Accumulate(std::move(in_members_[i]));
        continue;
      }
      // Key changed: emit the finished group and start the next one.
      Tuple finished = EmitGroup(current_);
      StartGroup(std::move(in_enc_[i]), std::move(in_keys_[i]));
      Accumulate(std::move(in_members_[i]));
      *out = std::move(finished);
      return true;
    }
  }

  void StartGroup(std::string enc, std::vector<Sequence> key_values) {
    current_ = GroupAccumulator{};
    current_.active = true;
    current_.key_enc = std::move(enc);
    current_.key_values = std::move(key_values);
    current_.member_values.resize(cl_.group_vars.size());
  }

  void Accumulate(std::vector<Sequence> members) {
    for (size_t i = 0; i < members.size(); ++i) {
      current_.bytes += xml::SequenceMemoryBytes(members[i]);
      xml::AppendSequence(current_.member_values[i], members[i]);
    }
    NoteOperatorBytes(static_cast<int64_t>(current_.bytes));
  }

  // Materializing fallback (paper §4.2: unclustered input requires full
  // materialization before grouping). Rows land in a TupleBuffer in the
  // optimizer-chosen representation; clustering happens via a key index,
  // and groups emit in first-appearance order — the same deterministic
  // order the relational engine's GROUP BY produces, so pushed-down and
  // mid-tier plans agree.
  Status MaterializeAndSort() {
    if (ctx()->stats != nullptr) ctx()->stats->group_sort_fallbacks += 1;
    size_t nkeys = cl_.group_keys.size();
    size_t nvars = cl_.group_vars.size();
    buffer_ = std::make_unique<TupleBuffer>(ctx()->materialize_repr,
                                            nkeys + nvars);
    std::unordered_map<std::string, size_t> index;
    while (true) {
      ALDSP_ASSIGN_OR_RETURN(bool more, FetchInputBatch());
      if (!more) break;
      size_t n = in_.size();
      for (size_t i = 0; i < n; ++i) {
        std::vector<Sequence> fields = std::move(in_keys_[i]);
        for (auto& m : in_members_[i]) fields.push_back(std::move(m));
        size_t row = buffer_->size();
        buffer_->Append(fields);
        auto it = index.find(in_enc_[i]);
        if (it == index.end()) {
          index.emplace(std::move(in_enc_[i]), group_rows_.size());
          group_rows_.push_back({row});
        } else {
          group_rows_[it->second].push_back(row);
        }
      }
      in_pos_ = n;
    }
    NoteOperatorBytes(static_cast<int64_t>(buffer_->MemoryBytes()));
    return Status::OK();
  }

  Result<bool> NextFromSorted(Tuple* out) {
    size_t nkeys = cl_.group_keys.size();
    size_t nvars = cl_.group_vars.size();
    if (group_pos_ >= group_rows_.size()) return false;
    const std::vector<size_t>& rows = group_rows_[group_pos_++];
    GroupAccumulator g;
    g.active = true;
    for (size_t k = 0; k < nkeys; ++k) {
      ALDSP_ASSIGN_OR_RETURN(Sequence v, buffer_->GetField(rows.front(), k));
      g.key_values.push_back(std::move(v));
    }
    g.member_values.resize(nvars);
    for (size_t row : rows) {
      for (size_t m = 0; m < nvars; ++m) {
        ALDSP_ASSIGN_OR_RETURN(Sequence v, buffer_->GetField(row, nkeys + m));
        xml::AppendSequence(g.member_values[m], v);
      }
    }
    *out = EmitGroup(g);
    return true;
  }

  const Clause& cl_;

  // Batched input state: the current batch plus its precomputed per-row
  // key encodings/values and member values.
  TupleBatch in_;
  size_t in_pos_ = 0;
  bool input_done_ = false;
  std::vector<std::string> in_enc_;
  std::vector<std::vector<Sequence>> in_keys_;
  std::vector<std::vector<Sequence>> in_members_;
  std::vector<std::vector<Sequence>> key_cols_;

  // Streaming state.
  GroupAccumulator current_;

  // Materializing-fallback state.
  bool sorted_ready_ = false;
  std::unique_ptr<TupleBuffer> buffer_;
  std::vector<std::vector<size_t>> group_rows_;  // first-appearance order
  size_t group_pos_ = 0;
};

// ----- Order-by ----------------------------------------------------------

/// Order-by: materializes the input with its atomized sort keys, sorts
/// stably, then emits whole batches of sorted rows. Batch-native: input
/// arrives a batch at a time, and each sort key evaluates as one atomized
/// column per batch.
class OrderByOp final : public PhysicalOperator {
 public:
  OrderByOp(std::unique_ptr<PhysicalOperator> input, const Clause& cl,
            std::string label)
      : PhysicalOperator(std::move(input), std::move(label)), cl_(cl) {}

 protected:

  Result<bool> NextBatchImpl(TupleBatch* out) override {
    if (!ready_) {
      ALDSP_RETURN_NOT_OK(Materialize());
      ready_ = true;
    }
    int target = batch_target();
    while (pos_ < rows_.size() && static_cast<int>(out->size()) < target) {
      out->PushRow(std::move(rows_[pos_].tuple));
      ++pos_;
    }
    return !out->empty();
  }

 private:
  struct SortRow {
    Tuple tuple;
    std::vector<Sequence> keys;  // atomized
  };

  Status Materialize() {
    size_t bytes = 0;
    size_t nk = cl_.order_keys.size();
    TupleBatch in;
    while (true) {
      ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&in));
      if (!more) break;
      size_t n = in.size();
      if (n == 0) continue;
      key_cols_.resize(nk);
      for (size_t k = 0; k < nk; ++k) {
        ALDSP_RETURN_NOT_OK(EvalColumn(env(), *cl_.order_keys[k].expr, in,
                                       /*atomize=*/true, &key_cols_[k]));
      }
      for (size_t i = 0; i < n; ++i) {
        SortRow row;
        row.tuple = in.MaterializeRow(i);
        row.keys.reserve(nk);
        for (size_t k = 0; k < nk; ++k) {
          bytes += xml::SequenceMemoryBytes(key_cols_[k][i]);
          row.keys.push_back(std::move(key_cols_[k][i]));
        }
        rows_.push_back(std::move(row));
      }
    }
    NoteOperatorBytes(static_cast<int64_t>(bytes));
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const SortRow& a, const SortRow& b) {
                       for (size_t i = 0; i < cl_.order_keys.size(); ++i) {
                         int c = OrderCompareKeys(a.keys[i], b.keys[i]);
                         if (c != 0) {
                           return cl_.order_keys[i].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    return Status::OK();
  }

  const Clause& cl_;
  bool ready_ = false;
  std::vector<SortRow> rows_;
  std::vector<std::vector<Sequence>> key_cols_;
  size_t pos_ = 0;
};

// ----- Return ------------------------------------------------------------

/// Evaluates the return expression per tuple and binds the resulting
/// sequence to kResultBinding; the tree driver delivers those sequences.
/// Emitted rows carry only the result column over an empty base: the
/// drivers read nothing else (the atomic layout is their fast path).
class ReturnOp final : public PhysicalOperator {
 public:
  ReturnOp(std::unique_ptr<PhysicalOperator> input, const Expr* ret)
      : PhysicalOperator(std::move(input), "return"), ret_(ret) {}

 protected:
  Status OpenImpl() override {
    kernel_ = ret_ != nullptr && KernelSupports(*ret_);
    in_.Clear();
    in_pos_ = 0;
    input_done_ = false;
    kernel_vals_.clear();
    return Status::OK();
  }

  // Buffers one upstream batch at a time, so the pipeline below stays
  // vectorized (a PP-k join below hands over a short batch rather than
  // wait on a fetch, so the buffer holds about one block's rows). A
  // kernel-evaluable return expression is pure and is computed for the
  // whole buffered batch; any other is evaluated only for the rows this
  // pull emits, so a driver pulling one row at a time pays for exactly
  // one result expression (external calls included) per delivered item.
  // A pull that has emitted rows returns at the end of the buffered batch
  // instead of waiting on the next one. No row is read again once its
  // result is built, so each is released then (a kernel-evaluated batch
  // all at once): what only the row holds, such as a group's members,
  // is freed while later results are built.
  Result<bool> NextBatchImpl(TupleBatch* out) override {
    const size_t want = batch_target();
    BatchColumn* col = out->AddColumn(kResultBinding);
    while (out->size() < want) {
      if (in_pos_ >= in_.size()) {
        if (input_done_ || !out->empty()) break;
        in_pos_ = 0;
        ALDSP_ASSIGN_OR_RETURN(bool more, input()->NextBatch(&in_));
        if (!more) {
          input_done_ = true;
          break;
        }
        in_.Compact();
        if (kernel_) {
          ALDSP_RETURN_NOT_OK(KernelEvalRows(*ret_, in_, &kernel_vals_, false,
                                             ctx()->literals.get()));
          for (size_t i = 0; i < in_.size(); ++i) in_.ReleaseRow(i);
        }
        continue;
      }
      Sequence v;
      if (kernel_) {
        v = std::move(kernel_vals_[in_pos_]);
      } else if (ret_ != nullptr) {
        ALDSP_ASSIGN_OR_RETURN(
            v, eval()->EvalExpr(*ret_, in_.MaterializeRow(in_pos_)));
        in_.ReleaseRow(in_pos_);
      }
      out->AddRow(Tuple());
      col->AppendSeq(std::move(v));
      ++in_pos_;
    }
    return !out->empty();  // an empty pull means the input ended
  }

 private:
  const Expr* ret_;
  bool kernel_ = false;
  TupleBatch in_;
  size_t in_pos_ = 0;
  bool input_done_ = false;
  std::vector<Sequence> kernel_vals_;
};

// Minimum estimated upstream rows before the builder inserts an
// exchange; unknown estimates (-1) never parallelize.
constexpr int64_t kParallelRowThreshold = 64;

JoinMethod ResolveJoinMethod(const Clause& cl) {
  JoinMethod m = cl.method;
  if (m == JoinMethod::kAuto) {
    m = cl.equi_keys.empty() ? JoinMethod::kNestedLoop
                             : JoinMethod::kIndexNestedLoop;
  }
  if ((m == JoinMethod::kPPkNestedLoop ||
       m == JoinMethod::kPPkIndexNestedLoop) &&
      (cl.ppk_fetch == nullptr || cl.equi_keys.empty())) {
    // PP-k requires a parameterized fetch plan; degrade gracefully.
    m = cl.equi_keys.empty() ? JoinMethod::kNestedLoop
                             : JoinMethod::kIndexNestedLoop;
  }
  return m;
}

}  // namespace

// ----- Lowering ----------------------------------------------------------

std::unique_ptr<PhysicalOperator> BuildPlan(const Expr& flwor) {
  return BuildPlan(flwor, BuildOptions{});
}

std::unique_ptr<PhysicalOperator> BuildPlan(const Expr& flwor,
                                            const BuildOptions& opts) {
  std::unique_ptr<PhysicalOperator> op = std::make_unique<SingletonSourceOp>();
  const bool parallel = opts.max_dop > 1;
  // Running estimate of the tuple stream flowing into the next clause,
  // from the optimizer's observed-cost annotations. The singleton source
  // emits exactly one tuple; an unknown estimate (-1) stays unknown and
  // never triggers an exchange.
  int64_t upstream_rows = 1;
  auto combine = [](int64_t a, int64_t b) -> int64_t {
    return (a >= 0 && b >= 0) ? a * b : -1;
  };
  auto crosses = [&](int64_t est) {
    return parallel && est >= 0 && est >= kParallelRowThreshold;
  };
  std::string dop_detail = "dop=" + std::to_string(opts.max_dop);
  for (size_t ci = 0; ci < flwor.clauses.size(); ++ci) {
    const Clause& cl = flwor.clauses[ci];
    switch (cl.kind) {
      case Clause::Kind::kFor: {
        std::string label = "for $" + cl.var;
        bool sql_region =
            cl.expr != nullptr && cl.expr->kind == ExprKind::kSqlQuery;
        std::string detail;
        if (!cl.positional_var.empty()) detail = "at $" + cl.positional_var;
        if (sql_region) detail += detail.empty() ? "sql-region" : " sql-region";
        // Parallelize across input tuples when the upstream stream is
        // known to be large; the leading for's input is the singleton,
        // so it always stays serial. SQL regions stay serial too (one
        // pushed statement — nothing to partition).
        if (!sql_region && crosses(upstream_rows)) {
          auto scan = std::make_unique<ParallelForScanOp>(
              std::move(op), cl, std::move(label), dop_detail, opts.max_dop);
          detail += detail.empty() ? dop_detail : " " + dop_detail;
          scan->explain().detail = std::move(detail);
          scan->explain().expr = cl.expr.get();
          op = std::move(scan);
        } else {
          std::unique_ptr<ForScanOp> scan;
          if (sql_region) {
            scan = std::make_unique<SqlRegionScanOp>(std::move(op), cl,
                                                     std::move(label));
          } else {
            scan = std::make_unique<ForScanOp>(std::move(op), cl,
                                               std::move(label));
          }
          scan->explain().detail = std::move(detail);
          scan->explain().expr = cl.expr.get();
          op = std::move(scan);
        }
        upstream_rows = combine(upstream_rows, cl.estimated_rows);
        break;
      }
      case Clause::Kind::kLet: {
        // A run of consecutive lets the optimizer marked as one parallel
        // group fans out as a single operator.
        if (parallel && cl.parallel_group >= 0) {
          std::vector<const Clause*> run;
          size_t cj = ci;
          while (cj < flwor.clauses.size() &&
                 flwor.clauses[cj].kind == Clause::Kind::kLet &&
                 flwor.clauses[cj].parallel_group == cl.parallel_group) {
            run.push_back(&flwor.clauses[cj]);
            ++cj;
          }
          if (run.size() >= 2) {
            std::string vars;
            for (const Clause* lc : run) {
              vars += vars.empty() ? "$" + lc->var : " $" + lc->var;
            }
            auto fan = std::make_unique<ParallelLetOp>(
                std::move(op), std::move(run), "let[parallel]",
                "n=" + std::to_string(cj - ci));
            fan->explain().detail = vars;
            fan->explain().expr = cl.expr.get();
            op = std::move(fan);
            ci = cj - 1;
            break;
          }
        }
        auto let = std::make_unique<LetBindOp>(std::move(op), cl,
                                               "let $" + cl.var);
        let->explain().expr = cl.expr.get();
        op = std::move(let);
        break;
      }
      case Clause::Kind::kWhere: {
        auto where = std::make_unique<FilterOp>(std::move(op), cl, "where");
        where->explain().expr = cl.expr.get();
        op = std::move(where);
        break;
      }
      case Clause::Kind::kJoin: {
        JoinMethod m = ResolveJoinMethod(cl);
        bool ppk = m == JoinMethod::kPPkNestedLoop ||
                   m == JoinMethod::kPPkIndexNestedLoop;
        std::string label = std::string("join[") + xquery::JoinMethodName(m) +
                            "] $" + cl.var;
        // The span detail is a compatibility surface (profiles assert
        // exactly "k=20"); EXPLAIN-only qualifiers go in explain().detail.
        std::string span_detail;
        if (ppk) {
          span_detail = "k=" + std::to_string(std::max(1, cl.ppk_block_size));
        }
        if (cl.left_outer) {
          span_detail += span_detail.empty() ? "left-outer" : " left-outer";
        }
        // NL/INL probes partition across worker threads when the probe
        // stream is known to be large; PP-k parallelizes internally via
        // its prefetch pipeline instead.
        bool partitioned = !ppk && crosses(upstream_rows);
        std::unique_ptr<PhysicalOperator> join_op;
        ExplainNode* explain = nullptr;
        if (partitioned) {
          std::string par_detail =
              span_detail.empty() ? dop_detail : dop_detail + " " + span_detail;
          auto join = std::make_unique<ParallelJoinProbeOp>(
              std::move(op), cl, m, std::move(label), std::move(par_detail),
              opts.max_dop);
          join->explain().detail = dop_detail;
          explain = &join->explain();
          join_op = std::move(join);
        } else {
          std::unique_ptr<JoinOpBase> join;
          switch (m) {
            case JoinMethod::kNestedLoop:
              join = std::make_unique<NestedLoopJoinOp>(
                  std::move(op), cl, m, std::move(label),
                  std::move(span_detail));
              break;
            case JoinMethod::kIndexNestedLoop:
              join = std::make_unique<IndexNLJoinOp>(
                  std::move(op), cl, m, std::move(label),
                  std::move(span_detail));
              break;
            default:
              join = std::make_unique<PPkJoinOp>(
                  std::move(op), cl, m, std::move(label),
                  std::move(span_detail));
              break;
          }
          explain = &join->explain();
          join_op = std::move(join);
        }
        if (ppk) {
          explain->detail +=
              explain->detail.empty() ? "prefetch" : " prefetch";
          explain->ppk = cl.ppk_fetch.get();
        }
        explain->expr = cl.expr.get();
        explain->condition = cl.condition.get();
        op = std::move(join_op);
        // An equi join on a key/foreign-key pair emits about one tuple
        // per right-side row, so a known annotation propagates; anything
        // unknown stays unknown.
        upstream_rows = upstream_rows >= 0 ? cl.estimated_rows : -1;
        break;
      }
      case Clause::Kind::kGroupBy: {
        op = std::make_unique<StreamGroupByOp>(
            std::move(op), cl,
            cl.pre_clustered ? "group-by[streaming]" : "group-by[sort]");
        upstream_rows = -1;
        break;
      }
      case Clause::Kind::kOrderBy: {
        op = std::make_unique<OrderByOp>(std::move(op), cl, "order-by");
        break;
      }
    }
  }
  const Expr* ret = flwor.children.empty() ? nullptr : flwor.children[0].get();
  auto root = std::make_unique<ReturnOp>(std::move(op), ret);
  root->explain().expr = ret;
  return root;
}

}  // namespace aldsp::runtime::physical
