#ifndef ALDSP_RUNTIME_PHYSICAL_OPERATOR_H_
#define ALDSP_RUNTIME_PHYSICAL_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/engine.h"
#include "runtime/context.h"
#include "runtime/physical/batch.h"
#include "runtime/tuple.h"
#include "xquery/ast.h"

namespace aldsp::runtime::physical {

/// Variable the Return operator binds each evaluated return sequence to;
/// starts with a control byte so it can never collide with a query
/// variable.
inline constexpr char kResultBinding[] = "\x01result";

/// Callback into the expression interpreter. Physical operators own
/// iteration (tuple flow, joins, grouping) but delegate scalar/XML
/// expression evaluation — key expressions, predicates, return bodies —
/// back to the interpreter. Implementations must be callable from worker
/// threads (the PP-k prefetcher evaluates key expressions off-thread).
class ExprEvaluator {
 public:
  virtual ~ExprEvaluator() = default;
  virtual Result<xml::Sequence> EvalExpr(const xquery::Expr& e,
                                         const Tuple& env) = 0;
  /// fn:data(e): a child step over a flat row reads the row's cells.
  virtual Result<xml::Sequence> EvalAtomized(const xquery::Expr& e,
                                             const Tuple& env) = 0;
  /// Runs a kSqlQuery expression's statement (with the interpreter's
  /// source bookkeeping) and returns its rows as cells, so a scan can
  /// build row elements one batch at a time (xml::XNode::Row).
  virtual Result<relational::ResultSet> RunSqlQuery(const xquery::Expr& e,
                                                    const Tuple& env) = 0;
};

/// Execution environment shared by every operator in one tree.
struct ExecEnv {
  const RuntimeContext* ctx = nullptr;
  ExprEvaluator* eval = nullptr;
  /// The environment the FLWOR itself evaluates in: join right sides and
  /// group emission rebind on top of this, not on the flowing tuple.
  Tuple base_env;
};

/// Static descriptor of one operator for EXPLAIN: what would run, before
/// (or without) running it. PROFILE adds the runtime counters via the
/// operator's QueryTrace span; both views come from the same tree.
struct ExplainNode {
  std::string label;   // e.g. "join[ppk-inl] $cc"
  std::string detail;  // e.g. "k=20 prefetch"
  const xquery::Expr* expr = nullptr;       // clause input expression
  const xquery::Expr* condition = nullptr;  // join residual condition
  const xquery::PPkFetchSpec* ppk = nullptr;
};

/// Volcano-style physical operator over batches of Tuple (paper §5.2:
/// compiled plans execute as streams of tuples flowing through an
/// explicit operator repertoire). Lifecycle: Open once, NextBatch until
/// it returns false (or errors), Close once; Describe works without
/// Open. Every operator produces batches (NextBatchImpl); batch_size=1
/// runs the same code a row at a time.
///
/// Tracing is built into the base class: when the context has a
/// QueryTrace, Open begins a span labeled with the operator's clause
/// label (parented on the calling thread's innermost scope — the
/// enclosing flwor span), every NextBatch is timed inclusive of the
/// input chain with the span as the thread's scope (so source events
/// fired inside attach to it), and Close flushes row/time metrics. The
/// destructor flushes an unclosed span so error paths still report
/// partial counts.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator();
  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  Status Open(ExecEnv* env);
  /// Clears `out` and fills it with up to ctx()->batch_size rows
  /// (`max_rows` caps lower when positive, e.g. the exchange scattering
  /// chunk-sized batches). Returns true while the stream continues — a
  /// true result with an EMPTY batch is legal (a filter may select
  /// nothing); false means end of stream. Cancel is polled once per
  /// batch, and row/time span metrics accumulate per row (rows += batch
  /// size) so profiles stay comparable at every batch size.
  Result<bool> NextBatch(TupleBatch* out, int max_rows = 0);
  void Close();

  /// Appends this subtree's descriptors in pipeline order (input first).
  /// Virtual so composite operators (the exchange pair) can emit more
  /// than one descriptor; the default walks the input then appends
  /// explain_ when labeled.
  virtual void Describe(std::vector<ExplainNode>* out) const;

  /// Descriptor access for the plan builder (to attach expr/condition/
  /// ppk pointers or extend the detail).
  ExplainNode& explain() { return explain_; }
  const ExplainNode& explain() const { return explain_; }

 protected:
  /// `label` is both the trace span kind and the EXPLAIN label; an empty
  /// label makes the operator invisible (no span, no explain node) — used
  /// by the singleton source. `span_detail` must match the legacy span
  /// detail format exactly (profile output is a compatibility surface);
  /// EXPLAIN-only qualifiers go into explain().detail instead.
  PhysicalOperator(std::unique_ptr<PhysicalOperator> input, std::string label,
                   std::string span_detail = "");

  virtual Status OpenImpl() { return Status::OK(); }
  /// Batch production into a cleared `out`, up to batch_target() rows;
  /// same true/false contract as NextBatch.
  virtual Result<bool> NextBatchImpl(TupleBatch* out) = 0;
  virtual void CloseImpl() {}

  PhysicalOperator* input() { return input_.get(); }
  const PhysicalOperator* input() const { return input_.get(); }
  const ExecEnv& env() const { return *env_; }
  const RuntimeContext* ctx() const { return env_->ctx; }
  ExprEvaluator* eval() const { return env_->eval; }
  const Tuple& base_env() const { return env_->base_env; }
  QueryTrace* trace() const { return trace_; }
  int span() const { return span_; }
  /// Row target for the batch currently being produced: the consumer's
  /// cap when one was passed to NextBatch, else the context batch_size
  /// (clamped at Open).
  int batch_target() const { return batch_limit_; }

  /// Reports bytes materialized by a blocking stage against both the
  /// peak-memory stat and this operator's span.
  void NoteOperatorBytes(int64_t bytes);

 private:
  void FlushSpan();

  std::unique_ptr<PhysicalOperator> input_;
  ExplainNode explain_;
  std::string span_detail_;
  ExecEnv* env_ = nullptr;
  QueryTrace* trace_ = nullptr;  // cached at Open; outlives the tree
  // Live-query control block, cached at Open like trace_. NextBatch()
  // polls its cancel flag (one relaxed load) so CancelQuery() stops every
  // pipeline in the tree at the next batch boundary.
  observability::QueryControl* exec_ = nullptr;
  int span_ = -1;
  int64_t rows_ = 0;
  int64_t micros_ = 0;
  bool opened_ = false;
  bool flushed_ = false;
  // Batch plumbing: the clamped context batch size and the active target
  // for the batch in flight.
  int batch_size_ = 1;
  int batch_limit_ = 1;
  // Timeline mode: origin-relative first/last row production marks,
  // flushed onto the span with the row/time metrics.
  bool timeline_ = false;
  int64_t first_row_micros_ = -1;
  int64_t last_row_micros_ = -1;
};

}  // namespace aldsp::runtime::physical

#endif  // ALDSP_RUNTIME_PHYSICAL_OPERATOR_H_
