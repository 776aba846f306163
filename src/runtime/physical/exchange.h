#ifndef ALDSP_RUNTIME_PHYSICAL_EXCHANGE_H_
#define ALDSP_RUNTIME_PHYSICAL_EXCHANGE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/physical/operator.h"
#include "runtime/worker_pool.h"

namespace aldsp::runtime::physical {

/// Encapsulated Volcano-style exchange (Graefe's model): one operator
/// that scatters its input into chunks run as WorkerPool tasks, applies
/// a subclass-defined per-batch transform on worker threads, and gathers
/// the results back onto the driving thread. The rest of the plan is
/// oblivious — upstream is pulled only by the driving thread, and
/// downstream sees an ordinary Next stream.
///
/// Scheduling: the driving thread keeps a bounded window of up to
/// 2*dop outstanding chunk tasks (the backpressure bound: upstream is
/// never drained more than one window ahead of the consumer). Gather
/// blocks on a chunk via Task::Wait, which claims unstarted tasks and
/// runs them inline — so a saturated or size-1 pool degrades to serial
/// execution instead of deadlocking, even with exchanges nested under
/// worker tasks. Chunks emit strictly in input order, so results are
/// deterministic and identical to the serial plan's.
///
/// Tracing: each chunk runs under a "task[exchange]" span (queue wait
/// split out via SetSpanQueueMicros), and every blocking gather emits a
/// wait event referencing the awaited chunk's span, so exchange queue
/// time lands in the critical-path queue-wait bucket.
///
/// Teardown: Close (and the destructor, for error paths) cancels the
/// task group and drains in-flight chunks before upstream operators are
/// destroyed.
class ExchangeOpBase : public PhysicalOperator {
 public:
  /// Descriptor access for the builder: the scatter side of the pair
  /// (the work node itself is explain(), the gather side is synthesized
  /// by Describe from dop).
  ExplainNode& scatter_explain() { return scatter_explain_; }

  /// Emits input, exchange[scatter], the work node, exchange[gather].
  void Describe(std::vector<ExplainNode>* out) const override;

 protected:
  ExchangeOpBase(std::unique_ptr<PhysicalOperator> input, std::string label,
                 std::string span_detail, int dop);
  ~ExchangeOpBase() override;

  Status OpenImpl() final;
  Result<bool> NextBatchImpl(TupleBatch* out) final;
  void CloseImpl() final;

  /// One-time setup on the driving thread before any chunk is scheduled
  /// (e.g. materializing a join build side). Default no-op.
  virtual Status OpenShared() { return Status::OK(); }

  /// The parallel work: transforms one chunk-batch into zero or more
  /// output tuples. Runs on worker threads, possibly several at once —
  /// implementations may only touch state that is immutable after
  /// OpenShared plus the thread-safe runtime services (evaluator, stats,
  /// trace). The worker polls cancellation once per chunk-batch before
  /// calling this.
  virtual Status ProcessBatch(const TupleBatch& in,
                              std::vector<Tuple>* out) = 0;

  int dop() const { return dop_; }

  /// Concrete subclasses call this first in their destructor: in-flight
  /// chunks invoke the subclass's ProcessBatch, so they must drain before
  /// the derived object starts tearing down (the base destructor would
  /// run too late).
  void DrainForDestruction() {
    if (group_.has_value()) group_->CancelAndWait();
  }

 private:
  struct Chunk {
    /// Scattered unit of work: one whole TupleBatch (the upstream pull is
    /// NextBatch capped at the chunk size, so chunk granularity — and
    /// with it the exchange_chunks stat and fan-out behavior — is bounded
    /// by the chunk size, not the context batch size).
    TupleBatch in;
    std::vector<Tuple> out;
    Status status;
    WorkerPool::Task task;
    int task_span = -1;
  };

  /// Reads upstream and submits chunk tasks until the window holds
  /// 2*dop chunks or the input is exhausted.
  Status FillWindow();
  void Submit(std::unique_ptr<Chunk> chunk);
  /// Blocks until `chunk` completes, emitting the gather wait event.
  void AwaitChunk(Chunk* chunk);

  int dop_;
  std::optional<WorkerPool::TaskGroup> group_;
  std::deque<std::unique_ptr<Chunk>> window_;
  bool input_done_ = false;
  std::vector<Tuple> ready_;
  size_t ready_pos_ = 0;
  ExplainNode scatter_explain_;
};

}  // namespace aldsp::runtime::physical

#endif  // ALDSP_RUNTIME_PHYSICAL_EXCHANGE_H_
