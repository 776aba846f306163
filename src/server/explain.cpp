#include "server/explain.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "observability/critical_path.h"
#include "observability/json_util.h"
#include "observability/trace_export.h"
#include "relational/sql_ast.h"
#include "runtime/physical/builder.h"
#include "runtime/physical/operator.h"
#include "xquery/ast.h"

namespace aldsp::server {

namespace {

using runtime::QueryTrace;
using xquery::Expr;
using xquery::ExprKind;

// The one JSON string escaper (observability/json_util) behind the
// ostream interface this renderer uses throughout.
void AppendJsonString(std::ostream& os, const std::string& s) {
  std::string buf;
  observability::AppendJsonString(&buf, s);
  os << buf;
}

/// EXPLAIN and execution see the same operator tree: a FLWOR is lowered
/// through physical::BuildPlan (the lowering the evaluator runs) and the
/// resulting descriptors are rendered in pipeline order.
std::string PlanNodeLabel(const runtime::physical::ExplainNode& n) {
  return n.detail.empty() ? n.label : n.label + " " + n.detail;
}

std::vector<runtime::physical::ExplainNode> DescribeFLWOR(
    const Expr& e, const runtime::physical::BuildOptions& opts) {
  std::vector<runtime::physical::ExplainNode> nodes;
  runtime::physical::BuildPlan(e, opts)->Describe(&nodes);
  return nodes;
}

// `slots` are the literal values of the text a rebound plan serves (null
// for a plan compiled in full); slotted literals render with them.
std::string ExprLabel(const Expr& e, const xquery::SlotValues* slots) {
  switch (e.kind) {
    case ExprKind::kSqlQuery:
      return "sql[" + e.sql->source + "] " +
             relational::DebugString(*e.sql->select, slots);
    case ExprKind::kCustomQuery: {
      std::string label =
          "custom-pushdown[" + e.custom->source + "] " + e.custom->function;
      for (const auto& c : e.custom->conjuncts) {
        label += " [" + c.attribute + " " + c.op + " ?]";
      }
      return label;
    }
    case ExprKind::kFunctionCall:
      return "call " + e.fn_name;
    case ExprKind::kVarRef:
      return "$" + e.var_name;
    case ExprKind::kLiteral:
      return "literal " + xquery::LiteralValue(e, slots).Lexical();
    case ExprKind::kElementCtor:
      return "element <" + e.ctor_name + ">";
    case ExprKind::kAttributeCtor:
      return "attribute " + e.ctor_name;
    case ExprKind::kPathStep:
      return std::string("step ") + (e.is_attribute_step ? "@" : "") +
             e.step_name;
    case ExprKind::kComparison:
    case ExprKind::kArith:
    case ExprKind::kLogical:
      return std::string(xquery::ExprKindName(e.kind)) + " " + e.op;
    default:
      return xquery::ExprKindName(e.kind);
  }
}

void RenderExprText(const Expr& e, const std::string& indent,
                    const runtime::physical::BuildOptions& opts,
                    const xquery::SlotValues* slots, std::ostream& os) {
  os << indent << ExprLabel(e, slots) << "\n";
  if (e.kind == ExprKind::kFLWOR) {
    for (const auto& n : DescribeFLWOR(e, opts)) {
      os << indent << "  " << PlanNodeLabel(n) << "\n";
      if (n.expr != nullptr) {
        RenderExprText(*n.expr, indent + "    ", opts, slots, os);
      }
      if (n.condition != nullptr) {
        os << indent << "    on\n";
        RenderExprText(*n.condition, indent + "      ", opts, slots, os);
      }
      if (n.ppk != nullptr) {
        os << indent << "    ppk-fetch[" << n.ppk->source << "] "
           << relational::DebugString(*n.ppk->select_template, slots)
           << " + "
           << n.ppk->in_alias << "." << n.ppk->in_column << " IN (...)\n";
      }
    }
    return;
  }
  for (const auto& c : e.children) {
    if (c) RenderExprText(*c, indent + "  ", opts, slots, os);
  }
}

void RenderExprJson(const Expr& e,
                    const runtime::physical::BuildOptions& opts,
                    const xquery::SlotValues* slots, std::ostream& os) {
  os << "{\"label\":";
  AppendJsonString(os, ExprLabel(e, slots));
  os << ",\"kind\":";
  AppendJsonString(os, xquery::ExprKindName(e.kind));
  os << ",\"children\":[";
  bool first = true;
  auto emit_labeled = [&](const std::string& label, const Expr* child) {
    if (!first) os << ",";
    first = false;
    os << "{\"label\":";
    AppendJsonString(os, label);
    os << ",\"children\":[";
    if (child != nullptr) RenderExprJson(*child, opts, slots, os);
    os << "]}";
  };
  if (e.kind == ExprKind::kFLWOR) {
    for (const auto& n : DescribeFLWOR(e, opts)) {
      emit_labeled(PlanNodeLabel(n), n.expr);
    }
  } else {
    for (const auto& c : e.children) {
      if (!c) continue;
      if (!first) os << ",";
      first = false;
      RenderExprJson(*c, opts, slots, os);
    }
  }
  os << "]}";
}

void RenderCompileHeader(const CompiledPlan& plan, std::ostream& os) {
  os << "compile: parse=" << plan.parse_micros
     << "us analyze=" << plan.analyze_micros
     << "us optimize=" << plan.optimize_micros
     << "us pushdown=" << plan.pushdown_micros << "us";
  if (plan.rebound) os << " bind=" << plan.bind_micros << "us rebound";
  os << "\n";
  os << "pushdown: " << plan.pushdown.regions_pushed << " region(s), "
     << plan.pushdown.bare_scans_pushed << " bare scan(s), "
     << plan.pushdown.outer_joins_pushed << " outer join(s), "
     << plan.pushdown.custom_filters_pushed << " custom filter(s), "
     << plan.pushdown.columns_pruned << " column(s) pruned\n";
  if (!plan.called_functions.empty()) {
    os << "calls:";
    for (const auto& f : plan.called_functions) os << " " << f;
    os << "\n";
  }
}

void RenderCompileJson(const CompiledPlan& plan, std::ostream& os) {
  os << "\"compile\":{\"parse_micros\":" << plan.parse_micros
     << ",\"analyze_micros\":" << plan.analyze_micros
     << ",\"optimize_micros\":" << plan.optimize_micros
     << ",\"pushdown_micros\":" << plan.pushdown_micros
     << ",\"bind_micros\":" << plan.bind_micros
     << ",\"rebound\":" << (plan.rebound ? "true" : "false")
     << "},\"pushdown\":{\"regions\":" << plan.pushdown.regions_pushed
     << ",\"bare_scans\":" << plan.pushdown.bare_scans_pushed
     << ",\"outer_joins\":" << plan.pushdown.outer_joins_pushed
     << ",\"exists\":" << plan.pushdown.exists_pushed
     << ",\"ranges\":" << plan.pushdown.ranges_pushed
     << ",\"custom_filters\":" << plan.pushdown.custom_filters_pushed
     << ",\"columns_pruned\":" << plan.pushdown.columns_pruned
     << "}";
}

// ----- Profile rendering -------------------------------------------------

std::string SpanLine(const QueryTrace::Span& span) {
  std::ostringstream os;
  os << span.kind;
  if (!span.detail.empty()) os << " (" << span.detail << ")";
  os << "  rows=" << span.rows << " time=" << span.micros << "us";
  if (span.bytes > 0) os << " bytes=" << span.bytes;
  // Timeline annotations ride after the legacy fields (the prefix is a
  // compatibility surface for profile-text consumers).
  if (span.begin_micros >= 0 && span.end_micros >= 0) {
    os << " @[" << span.begin_micros << ".." << span.end_micros << "]us";
  }
  if (span.lane > 0) os << " lane=" << span.lane;
  if (span.queue_micros >= 0) os << " queue=" << span.queue_micros << "us";
  if (span.first_row_micros >= 0) {
    os << " first-row=@" << span.first_row_micros << "us last-row=@"
       << span.last_row_micros << "us";
  }
  if (!span.finished) os << " [unfinished]";
  return os.str();
}

std::string EventLine(const QueryTrace::Event& event) {
  std::ostringstream os;
  os << "* " << QueryTrace::EventKindName(event.kind);
  if (!event.source.empty()) os << "[" << event.source << "]";
  if (!event.detail.empty()) os << " " << event.detail;
  os << "  rows=" << event.rows << " time=" << event.micros << "us";
  if (event.roundtrip_micros >= 0) {
    os << " (roundtrip=" << event.roundtrip_micros
       << "us transfer=" << event.transfer_micros << "us)";
  }
  return os.str();
}

struct ProfileIndex {
  std::map<int, std::vector<int>> span_children;   // parent -> span ids
  std::map<int, std::vector<size_t>> span_events;  // span id -> event idx
  std::vector<QueryTrace::Span> spans;
  std::vector<QueryTrace::Event> events;

  explicit ProfileIndex(const QueryTrace& trace)
      : spans(trace.spans()), events(trace.events()) {
    for (const auto& span : spans) {
      span_children[span.parent].push_back(span.id);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      span_events[events[i].span].push_back(i);
    }
  }
};

void RenderSpanText(const ProfileIndex& index, int id,
                    const std::string& indent, std::ostream& os) {
  os << indent << SpanLine(index.spans[id]) << "\n";
  auto ev = index.span_events.find(id);
  if (ev != index.span_events.end()) {
    for (size_t i : ev->second) {
      os << indent << "  " << EventLine(index.events[i]) << "\n";
    }
  }
  auto children = index.span_children.find(id);
  if (children != index.span_children.end()) {
    for (int child : children->second) {
      RenderSpanText(index, child, indent + "  ", os);
    }
  }
}

void RenderEventJson(const QueryTrace::Event& event, std::ostream& os) {
  os << "{\"kind\":";
  AppendJsonString(os, QueryTrace::EventKindName(event.kind));
  os << ",\"source\":";
  AppendJsonString(os, event.source);
  os << ",\"detail\":";
  AppendJsonString(os, event.detail);
  if (!event.table.empty()) {
    os << ",\"table\":";
    AppendJsonString(os, event.table);
  }
  os << ",\"rows\":" << event.rows << ",\"micros\":" << event.micros;
  if (event.at_micros >= 0) {
    os << ",\"at_micros\":" << event.at_micros << ",\"lane\":" << event.lane;
  }
  if (event.roundtrip_micros >= 0) {
    os << ",\"roundtrip_micros\":" << event.roundtrip_micros
       << ",\"transfer_micros\":" << event.transfer_micros;
  }
  if (event.ref_span >= 0) os << ",\"awaited_span\":" << event.ref_span;
  os << "}";
}

void RenderSpanJson(const ProfileIndex& index, int id, std::ostream& os) {
  const QueryTrace::Span& span = index.spans[id];
  os << "{\"kind\":";
  AppendJsonString(os, span.kind);
  os << ",\"detail\":";
  AppendJsonString(os, span.detail);
  os << ",\"rows\":" << span.rows << ",\"micros\":" << span.micros
     << ",\"bytes\":" << span.bytes
     << ",\"finished\":" << (span.finished ? "true" : "false");
  if (span.begin_micros >= 0) {
    os << ",\"begin_micros\":" << span.begin_micros
       << ",\"end_micros\":" << span.end_micros << ",\"lane\":" << span.lane;
    if (span.queue_micros >= 0) {
      os << ",\"queue_micros\":" << span.queue_micros;
    }
    if (span.first_row_micros >= 0) {
      os << ",\"first_row_micros\":" << span.first_row_micros
         << ",\"last_row_micros\":" << span.last_row_micros;
    }
  }
  os << ",\"events\":[";
  bool first = true;
  auto ev = index.span_events.find(id);
  if (ev != index.span_events.end()) {
    for (size_t i : ev->second) {
      if (!first) os << ",";
      first = false;
      RenderEventJson(index.events[i], os);
    }
  }
  os << "],\"children\":[";
  first = true;
  auto children = index.span_children.find(id);
  if (children != index.span_children.end()) {
    for (int child : children->second) {
      if (!first) os << ",";
      first = false;
      RenderSpanJson(index, child, os);
    }
  }
  os << "]}";
}

}  // namespace

std::string RenderPlanText(const CompiledPlan& plan,
                           const runtime::physical::BuildOptions& opts) {
  std::ostringstream os;
  os << "=== plan ===\n";
  os << "query: " << plan.text << "\n";
  RenderCompileHeader(plan, os);
  if (plan.plan != nullptr) {
    RenderExprText(*plan.plan, "", opts, plan.literals.get(), os);
  }
  return os.str();
}

std::string RenderPlanText(const CompiledPlan& plan) {
  return RenderPlanText(plan, runtime::physical::BuildOptions{});
}

std::string RenderPlanSnapshotText(const CompiledPlan& plan) {
  std::ostringstream os;
  os << "query: " << plan.text << "\n";
  os << "pushdown: " << plan.pushdown.regions_pushed << " region(s), "
     << plan.pushdown.bare_scans_pushed << " bare scan(s), "
     << plan.pushdown.outer_joins_pushed << " outer join(s), "
     << plan.pushdown.custom_filters_pushed << " custom filter(s), "
     << plan.pushdown.columns_pruned << " column(s) pruned\n";
  if (!plan.called_functions.empty()) {
    os << "calls:";
    for (const auto& f : plan.called_functions) os << " " << f;
    os << "\n";
  }
  if (plan.plan != nullptr) {
    RenderExprText(*plan.plan, "", runtime::physical::BuildOptions{},
                   plan.literals.get(), os);
  }
  return os.str();
}

std::string RenderPlanJson(const CompiledPlan& plan,
                           const runtime::physical::BuildOptions& opts) {
  std::ostringstream os;
  os << "{\"query\":";
  AppendJsonString(os, plan.text);
  os << ",";
  RenderCompileJson(plan, os);
  os << ",\"plan\":";
  if (plan.plan != nullptr) {
    RenderExprJson(*plan.plan, opts, plan.literals.get(), os);
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

std::string RenderPlanJson(const CompiledPlan& plan) {
  return RenderPlanJson(plan, runtime::physical::BuildOptions{});
}

std::string RenderProfileText(const CompiledPlan& plan,
                              const runtime::QueryTrace& trace) {
  std::ostringstream os;
  os << "=== profile ===\n";
  os << "query: " << plan.text << "\n";
  RenderCompileHeader(plan, os);
  os << "row materializations: " << trace.RowMaterializations() << "\n";
  ProfileIndex index(trace);
  auto roots = index.span_children.find(-1);
  if (roots != index.span_children.end()) {
    for (int id : roots->second) {
      RenderSpanText(index, id, "", os);
    }
  }
  // Events fired outside any span (e.g. from a plan without a FLWOR).
  auto loose = index.span_events.find(-1);
  if (loose != index.span_events.end()) {
    for (size_t i : loose->second) {
      os << EventLine(index.events[i]) << "\n";
    }
  }
  // Timeline traces get the wall-time attribution appended, EXPLAIN
  // ANALYZE style.
  if (trace.has_timeline()) {
    os << observability::RenderCriticalPathText(
        observability::AnalyzeCriticalPath(trace.BuildTimeline()));
  }
  return os.str();
}

std::string RenderProfileJson(const CompiledPlan& plan,
                              const runtime::QueryTrace& trace) {
  std::ostringstream os;
  os << "{\"query\":";
  AppendJsonString(os, plan.text);
  os << ",";
  RenderCompileJson(plan, os);
  os << ",\"row_materializations\":" << trace.RowMaterializations();
  ProfileIndex index(trace);
  os << ",\"spans\":[";
  bool first = true;
  auto roots = index.span_children.find(-1);
  if (roots != index.span_children.end()) {
    for (int id : roots->second) {
      if (!first) os << ",";
      first = false;
      RenderSpanJson(index, id, os);
    }
  }
  os << "],\"unattached_events\":[";
  first = true;
  auto loose = index.span_events.find(-1);
  if (loose != index.span_events.end()) {
    for (size_t i : loose->second) {
      if (!first) os << ",";
      first = false;
      RenderEventJson(index.events[i], os);
    }
  }
  os << "]";
  if (trace.has_timeline()) {
    os << ",\"critical_path\":"
       << observability::RenderCriticalPathJson(
              observability::AnalyzeCriticalPath(trace.BuildTimeline()));
  }
  os << "}";
  return os.str();
}

std::string RenderChromeTrace(const runtime::QueryTrace& trace) {
  return observability::ChromeTraceJson(trace.BuildTimeline());
}

namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

std::string RenderExplainDiff(const std::string& before,
                              const std::string& after) {
  const std::vector<std::string> a = SplitLines(before);
  const std::vector<std::string> b = SplitLines(after);
  // Classic O(n*m) LCS table — EXPLAIN outputs are tens of lines, so the
  // quadratic table is trivially cheap and keeps the alignment optimal.
  const size_t n = a.size(), m = b.size();
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      lcs[i][j] = (a[i] == b[j])
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::string out;
  size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      out += "  " + a[i] + "\n";
      ++i, ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      out += "- " + a[i] + "\n";
      ++i;
    } else {
      out += "+ " + b[j] + "\n";
      ++j;
    }
  }
  for (; i < n; ++i) out += "- " + a[i] + "\n";
  for (; j < m; ++j) out += "+ " + b[j] + "\n";
  return out;
}

}  // namespace aldsp::server
