#ifndef ALDSP_RUNTIME_EVALUATOR_H_
#define ALDSP_RUNTIME_EVALUATOR_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "runtime/context.h"
#include "runtime/tuple.h"
#include "xml/item.h"
#include "xquery/ast.h"

namespace aldsp::runtime {

/// Evaluates an analyzed (and typically optimized) expression tree
/// against a variable environment. This is the ALDSP runtime system's
/// entry point: a FLWOR root is lowered through physical::BuildPlan into
/// an Open/Next/Close operator tree (src/runtime/physical/) covering the
/// paper's operator repertoire — for/let/where, the four cross-source
/// join methods (nested loop, index nested loop, PP-k over both), the
/// streaming pre-clustered group operator with sort fallback, order-by,
/// and pushed-down SQL regions executed through relational adaptors —
/// while non-FLWOR expressions take the interpreter path directly.
/// EXPLAIN renders the same tree's descriptors; PROFILE its trace spans.
///
/// fn-bea:async arguments inside element constructors and sequences,
/// fn-bea:timeout bodies and the PP-k block prefetcher all run on the
/// context's bounded WorkerPool (paper §5.4/§5.6); fn-bea:timeout and
/// fn-bea:fail-over implement the §5.6 fail-over semantics. The
/// RuntimeContext must outlive any in-flight timeout evaluations.
Result<xml::Sequence> Evaluate(const xquery::Expr& expr, const Tuple& env,
                               const RuntimeContext& ctx);

/// Convenience entry point with an empty environment.
Result<xml::Sequence> Evaluate(const xquery::Expr& expr,
                               const RuntimeContext& ctx);

/// Streaming evaluation (the paper's server-side API that lets same-JVM
/// applications "consume the results of a data service call or query
/// incrementally, as a stream ... without materializing them first"):
/// a top-level FLWOR pipelines tuple by tuple, invoking `sink` per result
/// item as it is produced; a sink error aborts evaluation immediately.
/// Non-FLWOR roots fall back to materialize-then-deliver.
Status EvaluateStream(const xquery::Expr& expr, const RuntimeContext& ctx,
                      const std::function<Status(const xml::Item&)>& sink);

/// XQuery comparison over already-atomized operands — the single
/// implementation behind the interpreter's kComparison and the batch
/// filter kernel. `general` selects existential (general-comparison)
/// semantics over all operand pairs; otherwise value-comparison rules
/// apply: an empty operand yields the empty sequence, a multi-item
/// operand errors. Untyped values coerce toward the other operand's
/// type, as in the interpreter.
Result<xml::Sequence> CompareAtomizedOperands(const xml::Sequence& la,
                                              const xml::Sequence& ra,
                                              const std::string& op,
                                              bool general);

/// Allocation-free variant for the batch filter kernel: atomizes the raw
/// operand sequences item-wise and returns the effective boolean value
/// the CompareAtomizedOperands + EffectiveBooleanValue pipeline would
/// produce (a value comparison with an empty operand yields false, the
/// EBV of its empty result), with identical error behavior.
Result<bool> CompareOperandsToBool(const xml::Sequence& l,
                                   const xml::Sequence& r,
                                   const std::string& op, bool general);

/// Canonical encoding of an atomic value used for grouping, distinct-
/// values and join keys (numeric values encode equal across numeric
/// types; the empty sequence has a distinguished encoding).
std::string EncodeAtomic(const xml::AtomicValue& v);
std::string EncodeAtomicSequence(const xml::Sequence& atomized);

/// Converts a relational result set into row elements named `row_name`,
/// each a flat row (xml/node.h) sharing one schema and holding its row's
/// cells, moved out of `rs`; NULL cells are missing child elements (paper
/// §4.4).
xml::Sequence RowsToItems(relational::ResultSet rs,
                          const std::string& row_name);

}  // namespace aldsp::runtime

#endif  // ALDSP_RUNTIME_EVALUATOR_H_
