#include "runtime/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "compiler/builtins.h"
#include "relational/sql_ast.h"
#include "runtime/physical/builder.h"
#include "runtime/physical/operator.h"
#include "runtime/source_timing.h"
#include "runtime/worker_pool.h"
#include "xml/node.h"

namespace aldsp::runtime {

using compiler::Builtin;
using compiler::ExternalFunction;
using compiler::LookupBuiltin;
using compiler::UserFunction;
using relational::Cell;
using xml::AtomicType;
using xml::AtomicValue;
using xml::Item;
using xml::NodePtr;
using xml::Sequence;
using xml::XNode;
using xquery::Clause;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::JoinMethod;

std::string EncodeAtomic(const AtomicValue& v) {
  char buf[64];
  switch (v.type()) {
    case AtomicType::kInteger:
      std::snprintf(buf, sizeof(buf), "n%.17g",
                    static_cast<double>(v.AsInteger()));
      return buf;
    case AtomicType::kDecimal:
    case AtomicType::kDouble:
      std::snprintf(buf, sizeof(buf), "n%.17g", v.AsDouble());
      return buf;
    case AtomicType::kBoolean:
      return v.AsBoolean() ? "b1" : "b0";
    case AtomicType::kDateTime:
      std::snprintf(buf, sizeof(buf), "t%lld",
                    static_cast<long long>(v.AsDateTime()));
      return buf;
    case AtomicType::kString:
    case AtomicType::kUntyped:
      return std::string("s").append(v.AsString());
  }
  return "?";
}

std::string EncodeAtomicSequence(const Sequence& atomized) {
  if (atomized.empty()) return std::string("\x01empty", 6);
  std::string out;
  for (const auto& item : atomized) {
    std::string e = EncodeAtomic(item.atomic());
    out += std::to_string(e.size());
    out += ':';
    out += e;
  }
  return out;
}

namespace {

// Coerces untyped values toward the other operand's type.
Result<std::pair<AtomicValue, AtomicValue>> CoerceComparisonPair(
    const AtomicValue& a, const AtomicValue& b) {
  if (a.type() == AtomicType::kUntyped && b.type() != AtomicType::kUntyped) {
    ALDSP_ASSIGN_OR_RETURN(AtomicValue ca, a.CastTo(b.type()));
    return std::make_pair(ca, b);
  }
  if (b.type() == AtomicType::kUntyped && a.type() != AtomicType::kUntyped) {
    ALDSP_ASSIGN_OR_RETURN(AtomicValue cb, b.CastTo(a.type()));
    return std::make_pair(a, cb);
  }
  return std::make_pair(a, b);
}

Result<bool> CompareAtomPair(const AtomicValue& a, const AtomicValue& b,
                             const std::string& op) {
  ALDSP_ASSIGN_OR_RETURN(auto pair, CoerceComparisonPair(a, b));
  ALDSP_ASSIGN_OR_RETURN(int c, pair.first.Compare(pair.second));
  if (op == "eq" || op == "=") return c == 0;
  if (op == "ne" || op == "!=") return c != 0;
  if (op == "lt" || op == "<") return c < 0;
  if (op == "le" || op == "<=") return c <= 0;
  if (op == "gt" || op == ">") return c > 0;
  if (op == "ge" || op == ">=") return c >= 0;
  return Status::InvalidArgument("unknown comparison operator: " + op);
}

}  // namespace

Result<Sequence> CompareAtomizedOperands(const Sequence& la, const Sequence& ra,
                                         const std::string& op, bool general) {
  if (general) {
    // Existential semantics over all pairs.
    for (const auto& a : la) {
      for (const auto& b : ra) {
        ALDSP_ASSIGN_OR_RETURN(bool match,
                               CompareAtomPair(a.atomic(), b.atomic(), op));
        if (match) {
          return Sequence{Item(AtomicValue::Boolean(true))};
        }
      }
    }
    return Sequence{Item(AtomicValue::Boolean(false))};
  }
  // Value comparison: empty propagates; singletons required.
  if (la.empty() || ra.empty()) return Sequence{};
  if (la.size() > 1 || ra.size() > 1) {
    return Status::RuntimeError("value comparison on multi-item sequence");
  }
  ALDSP_ASSIGN_OR_RETURN(
      bool match, CompareAtomPair(la.front().atomic(), ra.front().atomic(), op));
  return Sequence{Item(AtomicValue::Boolean(match))};
}

Result<bool> CompareOperandsToBool(const Sequence& l, const Sequence& r,
                                   const std::string& op, bool general) {
  if (general) {
    for (const auto& a : l) {
      const AtomicValue av = a.Atomize();
      for (const auto& b : r) {
        ALDSP_ASSIGN_OR_RETURN(bool match,
                               CompareAtomPair(av, b.Atomize(), op));
        if (match) return true;
      }
    }
    return false;
  }
  if (l.empty() || r.empty()) return false;  // EBV of the empty sequence
  if (l.size() > 1 || r.size() > 1) {
    return Status::RuntimeError("value comparison on multi-item sequence");
  }
  return CompareAtomPair(l.front().Atomize(), r.front().Atomize(), op);
}

xml::Sequence RowsToItems(relational::ResultSet rs,
                          const std::string& row_name) {
  auto schema = std::make_shared<const xml::RowSchema>(
      xml::RowSchema{row_name, std::move(rs.column_names)});
  Sequence out;
  out.reserve(rs.rows.size());
  for (relational::Row& cells : rs.rows) {
    out.emplace_back(XNode::Row(schema, std::move(cells)));
  }
  return out;
}

namespace {

Cell AtomicToCell(const AtomicValue& v) { return Cell::Of(v); }

// Circuit-breaker admission gate, consulted before every source
// interaction. An open breaker rejects immediately (fast SourceError, no
// round trip, no timeout) — fn-bea:fail-over catches it like any other
// source failure and takes the alternate.
Status GateSource(const RuntimeContext& ctx, const std::string& source) {
  if (ctx.health != nullptr &&
      !ctx.health->AllowRequest(source, HealthNowMicros())) {
    return Status::SourceError("circuit breaker open for source '" + source +
                               "'");
  }
  return Status::OK();
}

void NoteSourceOutcome(const RuntimeContext& ctx, const std::string& source,
                       bool ok, int64_t micros) {
  if (ctx.health == nullptr) return;
  if (ok) {
    ctx.health->NoteSuccess(source, micros, HealthNowMicros());
  } else {
    ctx.health->NoteFailure(source, HealthNowMicros());
  }
}

// True when the attached trace will replay its source observations into
// the observed-cost model at completion (FeedObservedCost): only a
// timeline trace keeps the event list that replay walks. With a
// counters-mode trace (or none) observations must be recorded inline.
bool TraceReplaysObservations(const RuntimeContext& ctx) {
  return ctx.trace != nullptr && ctx.trace->has_timeline();
}

class Evaluator {
 public:
  explicit Evaluator(const RuntimeContext& ctx) : ctx_(ctx) {}

  Result<Sequence> Eval(const Expr& e, const Tuple& env, int depth) {
    if (depth > ctx_.max_call_depth) {
      return Status::RuntimeError("maximum evaluation depth exceeded");
    }
    switch (e.kind) {
      case ExprKind::kLiteral:
        return Sequence{Item(xquery::LiteralValue(e, ctx_.literals.get()))};
      case ExprKind::kEmptySequence:
        return Sequence{};
      case ExprKind::kSequence:
        return EvalChildrenConcat(e, env, depth);
      case ExprKind::kVarRef: {
        const Sequence* v = env.Lookup(e.var_name);
        if (v == nullptr) {
          return Status::RuntimeError("unbound variable $" + e.var_name);
        }
        return *v;
      }
      case ExprKind::kFLWOR:
        return EvalFLWOR(e, env, depth);
      case ExprKind::kPathStep:
        return EvalPathStep(e, env, depth);
      case ExprKind::kFilter:
        return EvalFilter(e, env, depth);
      case ExprKind::kElementCtor:
        return EvalElementCtor(e, env, depth);
      case ExprKind::kAttributeCtor: {
        ALDSP_ASSIGN_OR_RETURN(Sequence data,
                               EvalAtomized(*e.children[0], env, depth));
        AtomicValue value = AtomicValue::String("");
        if (data.size() == 1) {
          value = data.front().atomic();
        } else if (data.size() > 1) {
          std::string joined;
          for (size_t i = 0; i < data.size(); ++i) {
            if (i > 0) joined += ' ';
            joined += data[i].atomic().Lexical();
          }
          value = AtomicValue::String(std::move(joined));
        }
        return Sequence{Item(XNode::Attribute(e.ctor_name, std::move(value)))};
      }
      case ExprKind::kIf: {
        ALDSP_ASSIGN_OR_RETURN(Sequence c, Eval(*e.children[0], env, depth));
        ALDSP_ASSIGN_OR_RETURN(bool b, xml::EffectiveBooleanValue(c));
        return Eval(b ? *e.children[1] : *e.children[2], env, depth);
      }
      case ExprKind::kQuantified:
        return EvalQuantified(e, env, depth);
      case ExprKind::kComparison:
        return EvalComparison(e, env, depth);
      case ExprKind::kArith:
        return EvalArith(e, env, depth);
      case ExprKind::kLogical: {
        ALDSP_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0], env, depth));
        ALDSP_ASSIGN_OR_RETURN(bool lb, xml::EffectiveBooleanValue(l));
        if (e.op == "and" && !lb) return BoolSeq(false);
        if (e.op == "or" && lb) return BoolSeq(true);
        ALDSP_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1], env, depth));
        ALDSP_ASSIGN_OR_RETURN(bool rb, xml::EffectiveBooleanValue(r));
        return BoolSeq(rb);
      }
      case ExprKind::kFunctionCall:
        return EvalFunctionCall(e, env, depth);
      case ExprKind::kCastAs: {
        ALDSP_ASSIGN_OR_RETURN(Sequence data,
                               EvalAtomized(*e.children[0], env, depth));
        if (data.empty()) {
          if (e.target_type.allows_empty()) return Sequence{};
          return Status::RuntimeError("cast of empty sequence to " +
                                      e.target_type.ToString());
        }
        if (data.size() > 1) {
          return Status::RuntimeError("cast of multi-item sequence");
        }
        AtomicType target = xsd::AtomizedType(e.target_type);
        ALDSP_ASSIGN_OR_RETURN(AtomicValue out,
                               data.front().atomic().CastTo(target));
        return Sequence{Item(std::move(out))};
      }
      case ExprKind::kInstanceOf: {
        ALDSP_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env, depth));
        return BoolSeq(MatchesType(v, e.target_type));
      }
      case ExprKind::kCastable: {
        // `x castable as T`: true iff the cast would succeed.
        ALDSP_ASSIGN_OR_RETURN(Sequence data,
                               EvalAtomized(*e.children[0], env, depth));
        if (data.empty()) return BoolSeq(e.target_type.allows_empty());
        if (data.size() > 1) return BoolSeq(false);
        AtomicType target = xsd::AtomizedType(e.target_type);
        return BoolSeq(data.front().atomic().CastTo(target).ok());
      }
      case ExprKind::kTypematch: {
        ALDSP_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0], env, depth));
        if (!MatchesType(v, e.target_type)) {
          return Status::RuntimeError("typematch failed: value is not a " +
                                      e.target_type.ToString());
        }
        return v;
      }
      case ExprKind::kSqlQuery: {
        ALDSP_ASSIGN_OR_RETURN(relational::ResultSet rs,
                               RunSqlQuery(e, env, depth));
        return RowsToItems(std::move(rs), e.sql->row_name);
      }
      case ExprKind::kCustomQuery:
        return EvalCustomQuery(e, env, depth);
      case ExprKind::kError:
        return Status::RuntimeError("attempt to execute an error expression: " +
                                    e.error_message);
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  static Result<Sequence> BoolSeq(bool b) {
    return Sequence{Item(AtomicValue::Boolean(b))};
  }

  // ----- Async-aware child evaluation ----------------------------------

  static bool IsAsyncCall(const Expr& e) {
    return e.kind == ExprKind::kFunctionCall &&
           LookupBuiltin(e.fn_name) == Builtin::kAsync;
  }

  // True when `e` contains an fn-bea:async call reachable without
  // crossing a FLWOR or function-call boundary — such subtrees are
  // hoisted onto worker threads wholesale so independent slow-source
  // calls inside sibling constructors overlap (paper §5.4).
  static bool ContainsHoistableAsync(const Expr& e) {
    if (IsAsyncCall(e)) return true;
    switch (e.kind) {
      case ExprKind::kElementCtor:
      case ExprKind::kAttributeCtor:
      case ExprKind::kSequence:
      case ExprKind::kIf:
        for (const auto& c : e.children) {
          if (c && ContainsHoistableAsync(*c)) return true;
        }
        return false;
      default:
        return false;
    }
  }

  /// Result slot a worker-pool task fills; shared so an abandoned task
  /// (never happens here — every child is waited on) could not dangle.
  struct AsyncSlot {
    Result<Sequence> result = Sequence{};
  };

  // Evaluates children, running fn-bea:async children (and children
  // containing hoistable async calls) concurrently on the bounded
  // worker pool, preserving order. Task::Wait runs not-yet-started
  // tasks inline on this thread, so nested async under a small pool
  // cannot deadlock and never exceeds the pool's thread bound.
  Result<std::vector<Sequence>> EvalChildren(
      const std::vector<ExprPtr>& children, const Tuple& env, int depth) {
    WorkerPool& pool = WorkerPool::For(ctx_.pool);
    std::vector<WorkerPool::Task> tasks(children.size());
    std::vector<std::shared_ptr<AsyncSlot>> slots(children.size());
    std::vector<Sequence> results(children.size());
    std::vector<int> task_spans(children.size(), -1);
    // Worker threads have an empty scope stack; capture the launching
    // thread's innermost span so the async subtree's events attach there.
    // In timeline mode each hoisted subtree additionally gets its own
    // task span, opened at submit time so its begin marks the enqueue
    // and SetSpanQueueMicros splits queue wait from run time.
    int parent_span = QueryTrace::CurrentSpan(ctx_.trace);
    auto launch = [&](size_t i, ExprPtr body, const char* what) {
      auto slot = std::make_shared<AsyncSlot>();
      slots[i] = slot;
      Tuple env_copy = env;
      QueryTrace* trace = ctx_.trace;
      int task_span = -1;
      int64_t enqueue_rel = 0;
      if (trace != nullptr && trace->has_timeline()) {
        task_span = trace->BeginSpanUnder(parent_span, "task[async]", what);
        enqueue_rel = trace->NowRelMicros();
      }
      task_spans[i] = task_span;
      tasks[i] = pool.Submit([this, body, env_copy, depth, parent_span, slot,
                              trace, task_span, enqueue_rel]() {
        std::optional<QueryTrace::Scope> scope;
        if (trace != nullptr) {
          scope.emplace(trace, task_span >= 0 ? task_span : parent_span);
        }
        int64_t run_begin = 0;
        if (task_span >= 0) {
          trace->SetSpanQueueMicros(task_span,
                                    trace->NowRelMicros() - enqueue_rel);
          run_begin = trace->NowRelMicros();
        }
        slot->result = Eval(*body, env_copy, depth + 1);
        if (task_span >= 0) {
          trace->AddSpanMetrics(
              task_span,
              slot->result.ok()
                  ? static_cast<int64_t>(slot->result.value().size())
                  : 0,
              trace->NowRelMicros() - run_begin);
          trace->EndSpan(task_span);
        }
      });
    };
    for (size_t i = 0; i < children.size(); ++i) {
      const ExprPtr& c = children[i];
      if (IsAsyncCall(*c) && !c->children.empty()) {
        if (ctx_.stats != nullptr) ctx_.stats->async_tasks += 1;
        if (ctx_.trace != nullptr) {
          ctx_.trace->AddEvent(QueryTrace::EventKind::kAsyncTask, "",
                               "fn-bea:async", 0, 0);
        }
        launch(i, c->children[0], "fn-bea:async");
      } else if (ContainsHoistableAsync(*c)) {
        if (ctx_.trace != nullptr) {
          ctx_.trace->AddEvent(QueryTrace::EventKind::kAsyncTask, "",
                               "hoisted async subtree", 0, 0);
        }
        launch(i, c, "hoisted async subtree");
      }
    }
    Status first_error = Status::OK();
    for (size_t i = 0; i < children.size(); ++i) {
      if (tasks[i].valid()) continue;
      Result<Sequence> r = Eval(*children[i], env, depth);
      if (!r.ok()) {
        if (first_error.ok()) first_error = r.status();
        continue;
      }
      results[i] = std::move(r).value();
    }
    for (size_t i = 0; i < children.size(); ++i) {
      if (!tasks[i].valid()) continue;
      bool timed = ctx_.trace != nullptr && ctx_.trace->has_timeline() &&
                   task_spans[i] >= 0;
      int64_t wait_begin = timed ? ctx_.trace->NowRelMicros() : 0;
      tasks[i].Wait();
      if (timed) {
        ctx_.trace->AddWaitEvent(task_spans[i],
                                 ctx_.trace->NowRelMicros() - wait_begin,
                                 "async-join");
      }
      Result<Sequence> r = std::move(slots[i]->result);
      if (!r.ok()) {
        if (first_error.ok()) first_error = r.status();
        continue;
      }
      results[i] = std::move(r).value();
    }
    if (!first_error.ok()) return first_error;
    return results;
  }

  Result<Sequence> EvalChildrenConcat(const Expr& e, const Tuple& env,
                                      int depth) {
    ALDSP_ASSIGN_OR_RETURN(std::vector<Sequence> parts,
                           EvalChildren(e.children, env, depth));
    Sequence out;
    for (auto& p : parts) xml::AppendSequence(out, p);
    return out;
  }

  // ----- Node construction ----------------------------------------------

  Result<Sequence> EvalElementCtor(const Expr& e, const Tuple& env,
                                   int depth) {
    ALDSP_ASSIGN_OR_RETURN(std::vector<Sequence> parts,
                           EvalChildren(e.children, env, depth));
    // First pass: attributes (attribute items may come from any content
    // expression, e.g. a conditional attribute constructor).
    std::vector<NodePtr> attributes;
    Sequence content;
    bool only_atomics = true;
    for (auto& p : parts) {
      for (auto& item : p) {
        if (item.is_node() &&
            item.node()->kind() == xml::NodeKind::kAttribute) {
          attributes.push_back(item.node()->Clone());
        } else {
          only_atomics = only_atomics && item.is_atomic();
          content.push_back(std::move(item));
        }
      }
    }
    // Second pass: content. Adjacent atomic values join into one text
    // value separated by spaces; a single atomic keeps its runtime type
    // annotation (paper §3.1: annotations survive construction). Content
    // that is only atomic values makes a leaf holding that one value.
    auto join = [&content](size_t i, size_t j) {
      if (j - i == 1) return content[i].TakeAtomic();
      std::string joined;
      for (size_t k = i; k < j; ++k) {
        if (k > i) joined += ' ';
        joined += content[k].atomic().Lexical();
      }
      return AtomicValue::String(std::move(joined));
    };
    if (attributes.empty() && only_atomics && !content.empty()) {
      return Sequence{
          Item(XNode::TypedElement(e.ctor_name, join(0, content.size())))};
    }
    NodePtr el = XNode::Element(e.ctor_name);
    for (auto& a : attributes) el->AddAttribute(std::move(a));
    std::vector<NodePtr> children;
    children.reserve(content.size());
    size_t i = 0;
    while (i < content.size()) {
      if (content[i].is_node()) {
        children.push_back(content[i].node()->Clone());
        ++i;
        continue;
      }
      size_t j = i;
      while (j < content.size() && content[j].is_atomic()) ++j;
      children.push_back(XNode::Text(join(i, j)));
      i = j;
    }
    el->SetChildren(std::move(children));
    return Sequence{Item(std::move(el))};
  }

  // ----- Paths and filters ----------------------------------------------

  // fn:data(e). A child step is atomized as it steps, so a step over a
  // flat row reads the row's cells and builds no child nodes.
  Result<Sequence> EvalAtomized(const Expr& e, const Tuple& env, int depth) {
    if (e.kind != ExprKind::kPathStep || e.is_attribute_step) {
      ALDSP_ASSIGN_OR_RETURN(Sequence v, Eval(e, env, depth));
      return xml::Atomize(v);
    }
    ALDSP_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0], env, depth));
    Sequence out;
    for (const auto& item : in) {
      if (item.is_atomic()) {
        return Status::RuntimeError("path step '" + e.step_name +
                                    "' applied to an atomic value");
      }
      xml::AppendChildData(*item.node(), e.step_name, &out);
    }
    return out;
  }

  Result<Sequence> EvalPathStep(const Expr& e, const Tuple& env, int depth) {
    ALDSP_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0], env, depth));
    Sequence out;
    for (const auto& item : in) {
      if (item.is_atomic()) {
        return Status::RuntimeError("path step '" + e.step_name +
                                    "' applied to an atomic value");
      }
      const NodePtr& node = item.node();
      if (e.is_attribute_step) {
        NodePtr attr = node->AttributeNamed(e.step_name);
        if (attr != nullptr) out.emplace_back(attr);
      } else {
        for (const auto& child : node->ChildrenNamed(e.step_name)) {
          out.emplace_back(child);
        }
      }
    }
    return out;
  }

  Result<Sequence> EvalFilter(const Expr& e, const Tuple& env, int depth) {
    ALDSP_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0], env, depth));
    Sequence out;
    for (size_t i = 0; i < in.size(); ++i) {
      Tuple item_env = env.Bind(".", Sequence{in[i]});
      ALDSP_ASSIGN_OR_RETURN(Sequence pred,
                             Eval(*e.children[1], item_env, depth));
      // Numeric predicate selects by position (1-based).
      if (pred.size() == 1 && pred.front().is_atomic() &&
          pred.front().atomic().is_numeric()) {
        double want = pred.front().atomic().NumericAsDouble();
        if (static_cast<double>(i + 1) == want) out.push_back(in[i]);
        continue;
      }
      ALDSP_ASSIGN_OR_RETURN(bool keep, xml::EffectiveBooleanValue(pred));
      if (keep) out.push_back(in[i]);
    }
    return out;
  }

  // ----- Comparisons and arithmetic -------------------------------------

  // min/max in evaluator_builtins.inc coerce running extrema the same
  // way comparisons coerce operand pairs.
  static Result<std::pair<AtomicValue, AtomicValue>> CoercePair(
      const AtomicValue& a, const AtomicValue& b) {
    return CoerceComparisonPair(a, b);
  }

  Result<Sequence> EvalComparison(const Expr& e, const Tuple& env, int depth) {
    ALDSP_ASSIGN_OR_RETURN(Sequence l,
                           EvalAtomized(*e.children[0], env, depth));
    ALDSP_ASSIGN_OR_RETURN(Sequence r,
                           EvalAtomized(*e.children[1], env, depth));
    // The comparison itself is shared with the batch filter kernel so
    // both paths stay semantically identical.
    return CompareAtomizedOperands(l, r, e.op, e.general_comparison);
  }

  Result<Sequence> EvalArith(const Expr& e, const Tuple& env, int depth) {
    ALDSP_ASSIGN_OR_RETURN(Sequence la,
                           EvalAtomized(*e.children[0], env, depth));
    ALDSP_ASSIGN_OR_RETURN(Sequence ra,
                           EvalAtomized(*e.children[1], env, depth));
    if (la.empty() || ra.empty()) return Sequence{};
    if (la.size() > 1 || ra.size() > 1) {
      return Status::RuntimeError("arithmetic on multi-item sequence");
    }
    AtomicValue a = la.front().atomic();
    AtomicValue b = ra.front().atomic();
    if (a.type() == AtomicType::kUntyped) {
      ALDSP_ASSIGN_OR_RETURN(a, a.CastTo(AtomicType::kDouble));
    }
    if (b.type() == AtomicType::kUntyped) {
      ALDSP_ASSIGN_OR_RETURN(b, b.CastTo(AtomicType::kDouble));
    }
    if (!a.is_numeric() || !b.is_numeric()) {
      return Status::RuntimeError("arithmetic on non-numeric values");
    }
    bool both_int = a.type() == AtomicType::kInteger &&
                    b.type() == AtomicType::kInteger;
    const std::string& op = e.op;
    if (op == "idiv" || op == "mod") {
      int64_t x = static_cast<int64_t>(a.NumericAsDouble());
      int64_t y = static_cast<int64_t>(b.NumericAsDouble());
      if (y == 0) return Status::RuntimeError(op + " by zero");
      return Sequence{
          Item(AtomicValue::Integer(op == "mod" ? x % y : x / y))};
    }
    if (op == "div") {
      double y = b.NumericAsDouble();
      if (y == 0.0) return Status::RuntimeError("division by zero");
      return Sequence{Item(AtomicValue::Double(a.NumericAsDouble() / y))};
    }
    if (both_int) {
      int64_t x = a.AsInteger();
      int64_t y = b.AsInteger();
      int64_t v = op == "+" ? x + y : (op == "-" ? x - y : x * y);
      return Sequence{Item(AtomicValue::Integer(v))};
    }
    double x = a.NumericAsDouble();
    double y = b.NumericAsDouble();
    double v = op == "+" ? x + y : (op == "-" ? x - y : x * y);
    bool decimalish = a.type() != AtomicType::kDouble &&
                      b.type() != AtomicType::kDouble;
    return Sequence{Item(decimalish ? AtomicValue::Decimal(v)
                                    : AtomicValue::Double(v))};
  }

  Result<Sequence> EvalQuantified(const Expr& e, const Tuple& env, int depth) {
    ALDSP_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0], env, depth));
    for (const auto& item : in) {
      Tuple bound = env.Bind(e.var_name2, Sequence{item});
      ALDSP_ASSIGN_OR_RETURN(Sequence s, Eval(*e.children[1], bound, depth));
      ALDSP_ASSIGN_OR_RETURN(bool b, xml::EffectiveBooleanValue(s));
      if (e.is_every && !b) return BoolSeq(false);
      if (!e.is_every && b) return BoolSeq(true);
    }
    return BoolSeq(e.is_every);
  }

  // ----- Type matching ---------------------------------------------------

  static bool ItemMatchesType(const Item& item, const xsd::TypePtr& t) {
    using K = xsd::XType::Kind;
    switch (t->kind()) {
      case K::kAnyItem:
        return true;
      case K::kAnyNode:
        return item.is_node();
      case K::kAtomic: {
        if (!item.is_atomic()) return false;
        AtomicType at = item.atomic().type();
        if (at == t->atomic_type()) return true;
        if (at == AtomicType::kInteger &&
            t->atomic_type() == AtomicType::kDecimal) {
          return true;
        }
        return false;
      }
      case K::kElement:
        return item.is_node() &&
               item.node()->kind() == xml::NodeKind::kElement &&
               xml::NameMatches(item.node()->name(), t->name());
      case K::kAttribute:
        return item.is_node() &&
               item.node()->kind() == xml::NodeKind::kAttribute &&
               xml::NameMatches(item.node()->name(), t->name());
      case K::kError:
        return false;
    }
    return false;
  }

  static bool MatchesType(const Sequence& v, const xsd::SequenceType& t) {
    if (t.is_empty_sequence()) return v.empty();
    if (v.empty()) return t.allows_empty();
    if (v.size() > 1 && !t.allows_many()) return false;
    for (const auto& item : v) {
      if (!ItemMatchesType(item, t.item)) return false;
    }
    return true;
  }

  // ----- FLWOR: physical operator tree -----------------------------------

  /// Bridges physical operators back into this interpreter for scalar/XML
  /// expression evaluation (key expressions, predicates, return bodies).
  /// Stateless beyond (evaluator, depth), so the PP-k prefetcher may call
  /// it from a worker thread concurrently with the driving thread.
  class InterpreterShim final : public physical::ExprEvaluator {
   public:
    InterpreterShim(Evaluator* ev, int depth) : ev_(ev), depth_(depth) {}
    Result<Sequence> EvalExpr(const Expr& e, const Tuple& env) override {
      return ev_->Eval(e, env, depth_);
    }
    Result<Sequence> EvalAtomized(const Expr& e, const Tuple& env) override {
      return ev_->EvalAtomized(e, env, depth_);
    }
    Result<relational::ResultSet> RunSqlQuery(const Expr& e,
                                              const Tuple& env) override {
      return ev_->RunSqlQuery(e, env, depth_);
    }

   private:
    Evaluator* ev_;
    int depth_;
  };

  /// The one FLWOR drive loop: lowers `e` into an operator tree, pulls
  /// its root `max_rows` rows at a time (0 pulls full batches) and hands
  /// each result item to `deliver`. The loop reads the return operator's
  /// kResultBinding column directly (the atomic layout is the fast path:
  /// no Sequence is built for single-atomic results). Cancel is polled
  /// per delivered row even though execution polls per batch: a consumer
  /// that cancels the query sees the stream stop at the next row
  /// boundary, not after the rest of an already-produced batch.
  template <typename Deliver>
  Status DriveFLWOR(const Expr& e, const Tuple& env, int depth, int max_rows,
                    const char* span_detail, const Deliver& deliver) {
    int span = -1;
    std::optional<QueryTrace::Scope> scope;
    auto t0 = std::chrono::steady_clock::now();
    if (ctx_.trace != nullptr) {
      span = ctx_.trace->BeginSpan("flwor", span_detail);
      scope.emplace(ctx_.trace, span);
    }
    int64_t produced = 0;
    InterpreterShim shim(this, depth);
    physical::ExecEnv xenv{&ctx_, &shim, env};
    std::unique_ptr<physical::PhysicalOperator> plan =
        physical::BuildPlan(e, physical::BuildOptionsFor(ctx_));
    Status result = [&]() -> Status {
      ALDSP_RETURN_NOT_OK(plan->Open(&xenv));
      physical::TupleBatch batch;
      while (true) {
        ALDSP_ASSIGN_OR_RETURN(bool more, plan->NextBatch(&batch, max_rows));
        if (!more) return Status::OK();
        const physical::BatchColumn& col =
            *batch.FindColumn(physical::kResultBinding);
        for (size_t r = 0; r < col.rows(); ++r) {
          ALDSP_RETURN_NOT_OK(CheckCancelled(ctx_.exec));
          if (col.atomic()) {
            ALDSP_RETURN_NOT_OK(deliver(Item(col.atoms[r])));
            ++produced;
            continue;
          }
          for (const Item& item : col.seqs[r]) {
            ALDSP_RETURN_NOT_OK(deliver(item));
            ++produced;
          }
        }
      }
    }();
    plan->Close();
    if (ctx_.trace != nullptr) {
      ctx_.trace->AddSpanMetrics(span, produced, MicrosSince(t0));
      ctx_.trace->EndSpan(span);
    }
    return result;
  }

  // runtime::Evaluate and nested FLWORs pull full batches.
  Result<Sequence> EvalFLWOR(const Expr& e, const Tuple& env, int depth) {
    Sequence out;
    ALDSP_RETURN_NOT_OK(DriveFLWOR(e, env, depth, 0, "",
                                   [&](const Item& item) -> Status {
                                     out.push_back(item);
                                     return Status::OK();
                                   }));
    return out;
  }

 public:
  // Streaming FLWOR: the root is pulled one row at a time, so each
  // delivered item pays for exactly one interpreted return expression
  // (external calls included). The operators beneath the root fill
  // batches up to the full width, except that a PP-k join hands over the
  // rows it holds as a short batch instead of waiting on a fetch, so
  // items reach the sink while later blocks are still in flight.
  Status StreamFLWOR(const Expr& e, const Tuple& env,
                     const std::function<Status(const Item&)>& sink) {
    return DriveFLWOR(e, env, 0, 1, "streaming", sink);
  }

 private:

  // ----- Function calls --------------------------------------------------

  Result<Sequence> EvalFunctionCall(const Expr& e, const Tuple& env,
                                    int depth) {
    Builtin b = LookupBuiltin(e.fn_name);
    if (b != Builtin::kUnknown) return EvalBuiltin(b, e, env, depth);
    if (ctx_.functions == nullptr) {
      return Status::RuntimeError("no function table in runtime context");
    }
    if (const UserFunction* fn = ctx_.functions->FindUser(e.fn_name)) {
      if (!fn->valid || fn->body == nullptr) {
        return Status::RuntimeError("function is not executable: " +
                                    e.fn_name);
      }
      Tuple call_env;  // user functions see only their parameters
      for (size_t i = 0; i < fn->params.size(); ++i) {
        ALDSP_ASSIGN_OR_RETURN(Sequence arg, Eval(*e.children[i], env, depth));
        call_env = call_env.Bind(fn->params[i].name, std::move(arg));
      }
      return Eval(*fn->body, call_env, depth + 1);
    }
    if (const ExternalFunction* fn = ctx_.functions->FindExternal(e.fn_name)) {
      return InvokeExternal(*fn, e, env, depth);
    }
    return Status::RuntimeError("unknown function: " + e.fn_name);
  }

  Result<Sequence> InvokeExternal(const ExternalFunction& fn, const Expr& e,
                                  const Tuple& env, int depth) {
    // Cancel checkpoint before a source round trip: queries that are a
    // straight function call never reach an operator batch poll.
    ALDSP_RETURN_NOT_OK(CheckCancelled(ctx_.exec));
    std::vector<Sequence> args;
    args.reserve(e.children.size());
    for (const auto& c : e.children) {
      ALDSP_ASSIGN_OR_RETURN(Sequence arg, Eval(*c, env, depth));
      args.push_back(std::move(arg));
    }
    // Function cache (paper §5.5): checked before invocation; results are
    // inserted with the administratively configured TTL.
    std::string cache_key;
    bool cacheable = ctx_.function_cache != nullptr &&
                     ctx_.function_cache->IsEnabled(fn.name);
    if (cacheable) {
      cache_key = FunctionCache::MakeKey(fn.name, args);
      Sequence cached;
      if (ctx_.function_cache->Lookup(cache_key, &cached)) {
        if (ctx_.trace != nullptr) {
          ctx_.trace->AddEvent(QueryTrace::EventKind::kCacheHit,
                               fn.Property("source"), fn.name,
                               static_cast<int64_t>(cached.size()), 0);
        }
        return cached;
      }
      if (ctx_.trace != nullptr) {
        ctx_.trace->AddEvent(QueryTrace::EventKind::kCacheMiss,
                             fn.Property("source"), fn.name, 0, 0);
      }
    }
    if (ctx_.adaptors == nullptr) {
      return Status::SourceError("no adaptor registry in runtime context");
    }
    Adaptor* adaptor = ctx_.adaptors->Find(fn.Property("source"));
    if (adaptor == nullptr) {
      return Status::SourceError("no adaptor for source '" +
                                 fn.Property("source") + "' (function " +
                                 fn.name + ")");
    }
    ALDSP_RETURN_NOT_OK(GateSource(ctx_, fn.Property("source")));
    if (ctx_.stats != nullptr) ctx_.stats->source_invocations += 1;
    relational::Database* db =
        fn.is_relational()
            ? ctx_.adaptors->FindDatabase(fn.Property("source"))
            : nullptr;
    int64_t sim_mark = VirtualLatencyMark(db);
    auto t0 = std::chrono::steady_clock::now();
    Result<Sequence> invoked = adaptor->Invoke(fn.name, args);
    int64_t micros = MicrosSince(t0) + VirtualLatencyDelta(db, sim_mark);
    NoteSourceOutcome(ctx_, fn.Property("source"), invoked.ok(), micros);
    if (!invoked.ok()) return invoked.status();
    Sequence result = std::move(invoked).value();
    if (ctx_.metrics != nullptr) {
      ctx_.metrics->RecordSourceLatency(fn.Property("source"), micros);
    }
    if (ctx_.trace != nullptr) {
      int64_t roundtrip = -1;
      int64_t transfer = 0;
      if (db != nullptr) {
        SplitSourceMicros(db, static_cast<int64_t>(result.size()), micros,
                          &roundtrip, &transfer);
      }
      ctx_.trace->AddEvent(QueryTrace::EventKind::kSourceInvoke,
                           fn.Property("source"), fn.name,
                           static_cast<int64_t>(result.size()), micros,
                           fn.is_relational() ? fn.Property("table") : "",
                           roundtrip, transfer);
    }
    // A timeline trace replays its events into the observed-cost model at
    // completion (FeedObservedCost), so inline recording would double
    // count; the always-on counters trace keeps no events, so the inline
    // path must still feed the model.
    if (!TraceReplaysObservations(ctx_) && ctx_.observed != nullptr &&
        fn.is_relational()) {
      ctx_.observed->RecordTableScan(fn.Property("source"),
                                     fn.Property("table"),
                                     static_cast<int64_t>(result.size()),
                                     micros);
    }
    if (cacheable) {
      ctx_.function_cache->Insert(cache_key, result,
                                  ctx_.function_cache->TtlFor(fn.name));
    }
    return result;
  }

  // Runs a pushed SQL region's statement with its gate, health, metrics,
  // trace and observed-cost bookkeeping, and returns the rows as cells;
  // callers build the row elements (all at once, or a batch at a time).
  Result<relational::ResultSet> RunSqlQuery(const Expr& e, const Tuple& env,
                                            int depth) {
    const auto& spec = e.sql;
    if (!spec || !spec->select) {
      return Status::Internal("malformed SQL query node");
    }
    std::vector<Cell> params;
    for (const auto& c : e.children) {
      ALDSP_ASSIGN_OR_RETURN(Sequence data, EvalAtomized(*c, env, depth));
      if (data.empty()) {
        params.push_back(Cell::Null());
      } else {
        params.push_back(AtomicToCell(data.front().atomic()));
      }
    }
    if (ctx_.adaptors == nullptr) {
      return Status::SourceError("no adaptor registry in runtime context");
    }
    relational::Database* db = ctx_.adaptors->FindDatabase(spec->source);
    if (db == nullptr) {
      return Status::SourceError("no relational source '" + spec->source + "'");
    }
    ALDSP_RETURN_NOT_OK(GateSource(ctx_, spec->source));
    if (ctx_.stats != nullptr) ctx_.stats->sql_pushdowns += 1;
    int64_t sim_mark = VirtualLatencyMark(db);
    auto t0 = std::chrono::steady_clock::now();
    Result<relational::ResultSet> executed =
        db->ExecuteSelect(*spec->select, params, ctx_.literals.get());
    int64_t micros = MicrosSince(t0) + VirtualLatencyDelta(db, sim_mark);
    NoteSourceOutcome(ctx_, spec->source, executed.ok(), micros);
    if (!executed.ok()) return executed.status();
    relational::ResultSet rs = std::move(executed).value();
    // A bare single-table scan observes the table's cardinality.
    const relational::SelectStmt& s = *spec->select;
    bool bare_scan = s.joins.empty() && s.where == nullptr &&
                     s.group_by.empty() && !s.distinct && s.range_start < 0 &&
                     !s.from.table_name.empty();
    if (ctx_.metrics != nullptr) {
      ctx_.metrics->RecordSourceLatency(spec->source, micros);
    }
    if (ctx_.trace != nullptr) {
      int64_t roundtrip = -1;
      int64_t transfer = 0;
      SplitSourceMicros(db, static_cast<int64_t>(rs.rows.size()), micros,
                        &roundtrip, &transfer);
      ctx_.trace->AddEvent(QueryTrace::EventKind::kSql, spec->source,
                           relational::DebugString(*spec->select,
                                                   ctx_.literals.get()),
                           static_cast<int64_t>(rs.rows.size()), micros,
                           bare_scan ? s.from.table_name : "", roundtrip,
                           transfer);
    }
    // Only a timeline trace replays observations at completion; under the
    // counters trace (or none) the model is fed inline.
    if (!TraceReplaysObservations(ctx_) && ctx_.observed != nullptr) {
      int64_t roundtrip = -1;
      int64_t transfer = 0;
      SplitSourceMicros(db, static_cast<int64_t>(rs.rows.size()), micros,
                        &roundtrip, &transfer);
      if (roundtrip >= 0) {
        ctx_.observed->RecordStatementSplit(spec->source, roundtrip, transfer,
                                            static_cast<int64_t>(
                                                rs.rows.size()));
      } else {
        ctx_.observed->RecordStatement(spec->source, micros);
      }
      if (bare_scan) {
        ctx_.observed->RecordTableScan(spec->source, s.from.table_name,
                                       static_cast<int64_t>(rs.rows.size()),
                                       micros);
      }
    }
    return rs;
  }

  // A pushed filter for a custom queryable source (§9 extensible
  // pushdown): parameters evaluate in the XQuery runtime; the adaptor
  // applies the conjuncts and returns only matching items.
  Result<Sequence> EvalCustomQuery(const Expr& e, const Tuple& env,
                                   int depth) {
    if (!e.custom) return Status::Internal("malformed custom query node");
    std::vector<AtomicValue> params;
    for (const auto& c : e.children) {
      ALDSP_ASSIGN_OR_RETURN(Sequence data, EvalAtomized(*c, env, depth));
      if (data.size() != 1) {
        return Status::RuntimeError(
            "pushed filter parameter is not a single value");
      }
      params.push_back(data.front().atomic());
    }
    if (ctx_.adaptors == nullptr) {
      return Status::SourceError("no adaptor registry in runtime context");
    }
    Adaptor* adaptor = ctx_.adaptors->Find(e.custom->source);
    if (adaptor == nullptr) {
      return Status::SourceError("no adaptor for source '" +
                                 e.custom->source + "'");
    }
    ALDSP_RETURN_NOT_OK(GateSource(ctx_, e.custom->source));
    if (ctx_.stats != nullptr) ctx_.stats->source_invocations += 1;
    auto t0 = std::chrono::steady_clock::now();
    Result<Sequence> invoked = adaptor->InvokeFiltered(*e.custom, params);
    int64_t micros = MicrosSince(t0);
    NoteSourceOutcome(ctx_, e.custom->source, invoked.ok(), micros);
    if (!invoked.ok()) return invoked.status();
    Sequence result = std::move(invoked).value();
    if (ctx_.metrics != nullptr) {
      ctx_.metrics->RecordSourceLatency(e.custom->source, micros);
    }
    if (ctx_.trace != nullptr) {
      std::string detail = e.custom->function;
      for (const auto& c : e.custom->conjuncts) {
        detail += " [" + c.attribute + " " + c.op + " ?]";
      }
      ctx_.trace->AddEvent(QueryTrace::EventKind::kCustomPushdown,
                           e.custom->source, detail,
                           static_cast<int64_t>(result.size()), micros);
    }
    return result;
  }

  // ----- Builtins ---------------------------------------------------------

  Result<Sequence> EvalBuiltin(Builtin b, const Expr& e, const Tuple& env,
                               int depth);
  Result<Sequence> EvalWithTimeout(const ExprPtr& prim, const Tuple& env,
                                   int depth, int64_t millis);

  /// Statically collects the source ids a subtree may contact: pushed SQL
  /// regions, PP-k fetch specs, custom pushdowns, external function
  /// calls, and the bodies of user functions it calls (cycle-guarded).
  /// Used by fn-bea:fail-over / fn-bea:timeout to consult the health
  /// board about the primary before paying for its evaluation.
  void CollectSources(const Expr& e, std::set<std::string>* out,
                      std::set<std::string>* visited_fns) const {
    switch (e.kind) {
      case ExprKind::kSqlQuery:
        if (e.sql) out->insert(e.sql->source);
        break;
      case ExprKind::kCustomQuery:
        if (e.custom) out->insert(e.custom->source);
        break;
      case ExprKind::kFunctionCall:
        if (ctx_.functions != nullptr) {
          if (const ExternalFunction* fn =
                  ctx_.functions->FindExternal(e.fn_name)) {
            out->insert(fn->Property("source"));
          } else if (const UserFunction* fn =
                         ctx_.functions->FindUser(e.fn_name)) {
            if (fn->body != nullptr && visited_fns->insert(e.fn_name).second) {
              CollectSources(*fn->body, out, visited_fns);
            }
          }
        }
        break;
      default:
        break;
    }
    for (const auto& c : e.children) {
      if (c != nullptr) CollectSources(*c, out, visited_fns);
    }
    for (const Clause& cl : e.clauses) {
      if (cl.expr != nullptr) CollectSources(*cl.expr, out, visited_fns);
      if (cl.condition != nullptr) {
        CollectSources(*cl.condition, out, visited_fns);
      }
      for (const auto& gk : cl.group_keys) {
        if (gk.expr != nullptr) CollectSources(*gk.expr, out, visited_fns);
      }
      for (const auto& ok : cl.order_keys) {
        if (ok.expr != nullptr) CollectSources(*ok.expr, out, visited_fns);
      }
      for (const auto& [lhs, rhs] : cl.equi_keys) {
        if (lhs != nullptr) CollectSources(*lhs, out, visited_fns);
        if (rhs != nullptr) CollectSources(*rhs, out, visited_fns);
      }
      if (cl.ppk_fetch != nullptr) out->insert(cl.ppk_fetch->source);
    }
  }

  /// True when any source the subtree depends on has an open breaker
  /// (still inside its cooldown). Fills `sources` for NoteTimeout.
  bool AnySourceBreakerOpen(const Expr& e,
                            std::set<std::string>* sources) const {
    if (ctx_.health == nullptr) return false;
    std::set<std::string> visited_fns;
    CollectSources(e, sources, &visited_fns);
    int64_t now = HealthNowMicros();
    for (const std::string& source : *sources) {
      if (ctx_.health->IsOpen(source, now)) return true;
    }
    return false;
  }

  const RuntimeContext& ctx_;
};

// The builtin library is defined in an .inc file included here so it
// shares this translation unit's anonymous-namespace Evaluator definition
// while keeping file sizes reviewable (Google style allows .inc for such
// deliberate inclusion).
#include "runtime/evaluator_builtins.inc"

}  // namespace

Result<Sequence> Evaluate(const Expr& expr, const Tuple& env,
                          const RuntimeContext& ctx) {
  Evaluator ev(ctx);
  return ev.Eval(expr, env, 0);
}

Result<Sequence> Evaluate(const Expr& expr, const RuntimeContext& ctx) {
  return Evaluate(expr, Tuple(), ctx);
}

Status EvaluateStream(const Expr& expr, const RuntimeContext& ctx,
                      const std::function<Status(const xml::Item&)>& sink) {
  Evaluator ev(ctx);
  if (expr.kind == ExprKind::kFLWOR) {
    return ev.StreamFLWOR(expr, Tuple(), sink);
  }
  ALDSP_ASSIGN_OR_RETURN(Sequence result, ev.Eval(expr, Tuple(), 0));
  for (const auto& item : result) {
    ALDSP_RETURN_NOT_OK(sink(item));
  }
  return Status::OK();
}

}  // namespace aldsp::runtime
