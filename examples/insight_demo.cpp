// Statement-insight-plane demo: runs a small workload against the
// running example, then walks the insight surfaces —
//
//   1. cumulative per-statement statistics keyed by statement fingerprint
//      (same statement with different literals folds into one entry),
//   2. the live query registry, observed mid-stream from a result sink,
//   3. cooperative cancellation: CancelQuery() stops an in-flight join
//      and the cancel shows up in the audit logs and per-tenant counters,
//   4. the plan lifecycle plane: per-statement plan-version history with
//      compile-trigger attribution, plus the regression sentinel's event
//      ring (empty here — every statement keeps its first plan),
//   5. workload capture & replay: the journal that recorded the workload
//      above is exported to JSONL, imported back, and replayed open-loop
//      at 2x the captured rate with a per-statement comparison report.
//
// Every surface is its plane's snapshot document, printed with
// observability::RenderText. With --json, stdout carries a single JSON
// document combining the statement statistics, live queries, plan
// history, plan regressions, workload journal, replay report, admission
// and source-health documents (so it pipes cleanly into
// `python3 -m json.tool`); the narration goes to stderr. --prom prints
// the Prometheus text exposition of the metrics snapshot to stdout;
// --journal prints the workload journal JSONL export to stdout.

#include <cstdio>
#include <cstring>
#include <string>

#include "examples/example_env.h"
#include "server/server.h"

using namespace aldsp;
using observability::RenderJson;
using observability::RenderText;

int main(int argc, char** argv) {
  const bool json_mode = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const bool prom_mode = argc > 1 && std::strcmp(argv[1], "--prom") == 0;
  const bool journal_mode = argc > 1 && std::strcmp(argv[1], "--journal") == 0;
  FILE* out = (json_mode || prom_mode || journal_mode) ? stderr : stdout;

  server::DataServicePlatform aldsp;
  examples::WireRunningExample(aldsp, /*customers=*/60);
  auto stat_statements = [&] {
    auto& stats = aldsp.stat_statements();
    return observability::StatStatements::Doc(stats.TopK(10),
                                              stats.entry_count(),
                                              stats.evictions());
  };
  auto live_queries = [&] {
    auto& registry = aldsp.query_registry();
    return observability::QueryRegistry::Doc(registry.Snapshot(),
                                             registry.total_started(),
                                             registry.total_cancel_requests());
  };
  auto& history = aldsp.plan_history();
  auto& journal = aldsp.workload_journal();

  // --- 1. One fingerprint, many literals --------------------------------
  std::fprintf(out, "== running the workload ==\n");
  for (const char* cid : {"CUST001", "CUST002", "CUST003", "CUST004"}) {
    std::string q = "for $c in ns3:CUSTOMER() where $c/CID eq \"";
    q += cid;
    q += "\" return fn:data($c/LAST_NAME)";
    if (auto r = aldsp.Execute(q); !r.ok()) {
      std::fprintf(stderr, "execute failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  // A second statement shape, run on behalf of a named principal: its
  // resources land in that tenant's rolling windows.
  security::Principal analyst{"analyst", {"support"}};
  (void)aldsp.ExecuteAs("fn:count(ns2:CREDIT_CARD())", analyst);

  // --- 2. Live registry + cooperative cancel ----------------------------
  const std::string join =
      "for $c in ns3:CUSTOMER(), $cc in ns2:CREDIT_CARD() "
      "where $c/CID eq $cc/CID "
      "return <CO>{fn:data($c/CID)}{fn:data($cc/LIMIT_AMT)}</CO>";
  int items = 0;
  Status st = aldsp.ExecuteStream(join, [&](const xml::Item&) -> Status {
    if (++items == 2) {
      // From inside the stream the query is visible as live...
      std::fprintf(out, "\n== live queries (mid-stream) ==\n%s",
                   RenderText(live_queries()).c_str());
      // ...and cancellable by id.
      auto live = aldsp.query_registry().Snapshot();
      if (!live.empty()) (void)aldsp.CancelQuery(live[0].query_id);
    }
    return Status::OK();
  });
  std::fprintf(out, "\njoin delivered %d item(s), then: %s\n", items,
               st.ToString().c_str());

  // --- 3. The insight surfaces ------------------------------------------
  std::fprintf(out, "\n== stat statements (by total wall time) ==\n%s",
               RenderText(stat_statements()).c_str());
  std::fprintf(out, "\n== live queries (after) ==\n%s",
               RenderText(live_queries()).c_str());

  auto snapshot = aldsp.MetricsSnapshot();
  std::fprintf(out, "\n== per-tenant attribution ==\n");
  for (const auto& [name, c] : snapshot.windowed_counters) {
    if (name.rfind("tenant.", 0) == 0) {
      std::fprintf(out, "%-40s total=%lld\n", name.c_str(),
                   static_cast<long long>(c.total));
    }
  }

  // --- 4. Plan lifecycle plane ------------------------------------------
  const auto history_doc = observability::PlanHistory::HistoryDoc(
      history.Snapshot(), history.statement_count(),
      history.statement_evictions(), history.plan_changes_total());
  const auto regressions_doc = observability::PlanHistory::RegressionsDoc(
      history.Regressions(), history.regressions_total());
  std::fprintf(out, "\n== plan history (all statements) ==\n%s",
               RenderText(history_doc).c_str());
  std::fprintf(out, "\n== plan regressions ==\n%s",
               RenderText(regressions_doc).c_str());

  auto audit = aldsp.execution_audit().Records();
  if (!audit.empty()) {
    std::fprintf(out, "\nlast execution outcome: %s\n",
                 audit.back().outcome_name());
  }

  // --- 5. Workload capture -> export -> import -> replay ----------------
  const auto journal_doc = observability::WorkloadJournal::Doc(
      journal.Records(), journal.total_appended(), journal.capacity());
  const std::string jsonl =
      observability::RenderJsonLines(journal_doc.Member("entries"));
  std::fprintf(out, "\n== workload journal (captured above) ==\n%s",
               RenderText(journal_doc).c_str());
  auto imported = observability::WorkloadJournal::ParseJsonl(jsonl);
  observability::ReplayReport replay;
  if (imported.ok()) {
    observability::ReplayOptions ropts;
    ropts.mode = observability::ReplayOptions::Mode::kOpenLoop;
    ropts.speed = 2.0;  // replay the capture at twice the recorded rate
    ropts.clients = 2;
    replay = aldsp.ReplayWorkload(*imported, ropts);
    std::fprintf(out, "\n== replay at 2x (from the JSONL export) ==\n%s",
                 RenderText(replay.Doc()).c_str());
  } else {
    std::fprintf(stderr, "journal import failed: %s\n",
                 imported.status().ToString().c_str());
    return 1;
  }

  if (json_mode) {
    auto doc = observability::SnapshotDoc::Object();
    doc.Add("stat_statements", stat_statements())
        .Add("live_queries", live_queries())
        .Add("plan_history", history_doc)
        .Add("plan_regressions", regressions_doc)
        .Add("workload_journal", journal_doc)
        .Add("replay", replay.Doc())
        .Add("admission", aldsp.admission().Snapshot().Doc())
        .Add("source_health", aldsp.SourceHealthDoc());
    std::fprintf(stdout, "%s\n", RenderJson(doc).c_str());
  }
  if (prom_mode) {
    std::fprintf(stdout, "%s", aldsp.MetricsPrometheusText().c_str());
  }
  if (journal_mode) {
    std::fprintf(stdout, "%s", jsonl.c_str());
  }
  return st.code() == StatusCode::kCancelled ? 0 : 1;
}
