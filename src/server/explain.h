#ifndef ALDSP_SERVER_EXPLAIN_H_
#define ALDSP_SERVER_EXPLAIN_H_

#include <string>
#include <vector>

#include "runtime/physical/builder.h"
#include "runtime/query_trace.h"
#include "server/server.h"

namespace aldsp::server {

/// EXPLAIN: the compiled operator tree annotated with everything the
/// compiler knows — per-phase compile micros, pushdown statistics, called
/// functions, join methods with their PP-k parameters, and the SQL text
/// of every pushed-down region (the paper's §4.1 query-plan view).
///
/// The BuildOptions overloads describe the plan the server would actually
/// run under those parallelism knobs — exchange scatter/gather pairs and
/// their DOP appear as plan nodes. The plain overloads describe the
/// serial plan.
std::string RenderPlanText(const CompiledPlan& plan,
                           const runtime::physical::BuildOptions& opts);
std::string RenderPlanText(const CompiledPlan& plan);
std::string RenderPlanJson(const CompiledPlan& plan,
                           const runtime::physical::BuildOptions& opts);
std::string RenderPlanJson(const CompiledPlan& plan);

/// EXPLAIN ANALYZE: the executed span tree of one profiled run — rows,
/// inclusive wall micros and materialized bytes per operator instance —
/// with every source interaction (SQL issued, PP-k fetches, invocations,
/// cache hits, timeouts, fail-overs) nested under the operator it fired
/// in.
std::string RenderProfileText(const CompiledPlan& plan,
                              const runtime::QueryTrace& trace);
std::string RenderProfileJson(const CompiledPlan& plan,
                              const runtime::QueryTrace& trace);

/// Chrome/Perfetto trace_event JSON of one profiled run: one lane per
/// engine thread, spans and source round trips as complete ("X") slices,
/// queue waits nested under their task slices. Open in chrome://tracing
/// or ui.perfetto.dev. Meaningful for timeline-mode traces; other traces
/// degrade to a flat ts=0 layout.
std::string RenderChromeTrace(const runtime::QueryTrace& trace);

/// The deterministic subset of the serial EXPLAIN — query text, pushdown
/// statistics, called functions and the operator tree, without the
/// per-compile phase timings. This is what the plan-version history
/// retains per version: two compiles of the same plan shape render
/// byte-identical snapshots, so a structural diff shows only real
/// plan changes.
std::string RenderPlanSnapshotText(const CompiledPlan& plan);

/// Structural diff of two rendered EXPLAIN texts, for plan-regression
/// reports: unchanged lines print with two leading spaces, lines only in
/// `before` with "- ", lines only in `after` with "+ ". An LCS alignment
/// keeps shared plan structure matched up, so a join-method flip shows as
/// one -/+ pair instead of resynchronizing the whole tree.
std::string RenderExplainDiff(const std::string& before,
                              const std::string& after);

}  // namespace aldsp::server

#endif  // ALDSP_SERVER_EXPLAIN_H_
