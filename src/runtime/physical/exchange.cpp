#include "runtime/physical/exchange.h"

#include <algorithm>
#include <utility>

namespace aldsp::runtime::physical {

namespace {
constexpr int kChunkSize = 8;
}  // namespace

ExchangeOpBase::ExchangeOpBase(std::unique_ptr<PhysicalOperator> input,
                               std::string label, std::string span_detail,
                               int dop)
    : PhysicalOperator(std::move(input), std::move(label),
                       std::move(span_detail)),
      dop_(std::max(1, dop)) {
  scatter_explain_.label = "exchange[scatter]";
  scatter_explain_.detail = "chunk=" + std::to_string(kChunkSize);
}

ExchangeOpBase::~ExchangeOpBase() {
  // Subclass destructors have already drained (ProcessBatch is theirs);
  // this is the safety net for the base-only window state.
  if (group_.has_value()) group_->CancelAndWait();
}

void ExchangeOpBase::Describe(std::vector<ExplainNode>* out) const {
  if (input() != nullptr) input()->Describe(out);
  out->push_back(scatter_explain_);
  if (!explain().label.empty()) out->push_back(explain());
  ExplainNode gather;
  gather.label = "exchange[gather]";
  gather.detail = "dop=" + std::to_string(dop_) + " ordered";
  out->push_back(std::move(gather));
}

Status ExchangeOpBase::OpenImpl() {
  group_.emplace(&WorkerPool::For(ctx()->pool));
  return OpenShared();
}

void ExchangeOpBase::CloseImpl() {
  if (group_.has_value()) group_->CancelAndWait();
  window_.clear();
}

Status ExchangeOpBase::FillWindow() {
  size_t cap = static_cast<size_t>(2 * dop_);
  while (!input_done_ && window_.size() < cap) {
    auto chunk = std::make_unique<Chunk>();
    // One upstream batch per chunk, capped at the chunk size so small
    // latency-bound streams still fan out across workers instead of
    // collapsing into one context-sized batch.
    ALDSP_ASSIGN_OR_RETURN(bool more,
                           input()->NextBatch(&chunk->in, kChunkSize));
    if (!more) {
      input_done_ = true;
      break;
    }
    // An empty batch (filter selected nothing) is legal upstream but is
    // not worth a worker task.
    if (chunk->in.empty()) continue;
    Submit(std::move(chunk));
  }
  return Status::OK();
}

void ExchangeOpBase::Submit(std::unique_ptr<Chunk> chunk) {
  if (ctx()->stats != nullptr) ctx()->stats->exchange_chunks += 1;
  QueryTrace* tr = trace();
  int sp = span();
  int task_span = -1;
  int64_t enqueue_rel = 0;
  if (tr != nullptr && tr->has_timeline()) {
    task_span = tr->BeginSpanUnder(sp, "task[exchange]", "");
    enqueue_rel = tr->NowRelMicros();
  }
  Chunk* c = chunk.get();
  c->task_span = task_span;
  c->task = group_->Submit([this, c, tr, sp, task_span, enqueue_rel] {
    // Worker threads start with an empty scope stack; re-establish the
    // chunk's task span (or the exchange span) so events recorded by
    // ProcessBatch attach where they would have inline.
    std::optional<QueryTrace::Scope> scope;
    if (tr != nullptr) scope.emplace(tr, task_span >= 0 ? task_span : sp);
    int64_t run_begin = 0;
    if (task_span >= 0) {
      tr->SetSpanQueueMicros(task_span, tr->NowRelMicros() - enqueue_rel);
      run_begin = tr->NowRelMicros();
    }
    // One cancel poll per chunk-batch, same checkpoint as every other
    // poll site: cancel latency is bounded by one chunk of work.
    c->status = CheckCancelled(ctx()->exec);
    if (c->status.ok()) c->status = ProcessBatch(c->in, &c->out);
    if (task_span >= 0) {
      tr->AddSpanMetrics(task_span, static_cast<int64_t>(c->out.size()),
                         tr->NowRelMicros() - run_begin);
      tr->EndSpan(task_span);
    }
  });
  window_.push_back(std::move(chunk));
}

void ExchangeOpBase::AwaitChunk(Chunk* chunk) {
  // Record the gather-side stall even when the chunk already finished
  // (a ~0us wait): critical-path attribution then sees every await, and
  // "no stall" shows up as a zero-cost wait rather than a missing one.
  QueryTrace* tr = trace();
  bool timed = tr != nullptr && tr->has_timeline() && chunk->task_span >= 0;
  int64_t wait_begin = timed ? tr->NowRelMicros() : 0;
  chunk->task.Wait();
  if (timed) {
    tr->AddWaitEvent(chunk->task_span, tr->NowRelMicros() - wait_begin,
                     "exchange-gather");
  }
}

Result<bool> ExchangeOpBase::NextBatchImpl(TupleBatch* out) {
  int target = batch_target();
  while (static_cast<int>(out->size()) < target) {
    if (ready_pos_ < ready_.size()) {
      out->PushRow(std::move(ready_[ready_pos_++]));
      continue;
    }
    ready_.clear();
    ready_pos_ = 0;
    ALDSP_RETURN_NOT_OK(FillWindow());
    if (window_.empty()) return !out->empty();
    // The gather takes the oldest chunk: output keeps input order.
    AwaitChunk(window_.front().get());
    std::unique_ptr<Chunk> finished = std::move(window_.front());
    window_.pop_front();
    ALDSP_RETURN_NOT_OK(finished->status);
    ready_ = std::move(finished->out);
    // Top the window back up before draining the finished chunk, so
    // workers chew on the next chunks while downstream consumes this one.
    ALDSP_RETURN_NOT_OK(FillWindow());
  }
  return true;
}

}  // namespace aldsp::runtime::physical
