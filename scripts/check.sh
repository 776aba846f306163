#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest in the default build tree, then
# repeat the test suite under AddressSanitizer/UndefinedBehaviorSanitizer
# in a separate build tree, and finally run the concurrency suites under
# ThreadSanitizer. Run from anywhere; paths resolve to the repo.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# A compiler warning fails the gate. Only what a build recompiles can
# print one, so each gated build starts clean: every translation unit
# recompiles and every file's warnings reach the log given here.
fail_on_warnings() {
  if grep -q "warning:" "$1"; then
    echo "the $2 build printed compiler warnings:" >&2
    grep "warning:" "$1" >&2
    exit 1
  fi
}

echo "== tier-1: release build + ctest =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j "$jobs" --clean-first 2>&1 |
  tee "$repo/build/build.log"
fail_on_warnings "$repo/build/build.log" release
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

# Running-example pushdown: tns:getProfileByID's key predicate must reach
# the CUSTOMER SQL through the unfolded PROFILE view (paper §4.2, Fig. 5),
# not filter the constructed profiles after a full scan.
echo "== tier-1: getProfileByID key predicate in the CUSTOMER SQL =="
cmake --build "$repo/build" -j "$jobs" --target customer_profile
"$repo/build/examples/customer_profile" > "$repo/build/customer_profile.txt"
if ! grep -F '[SQL -> customer_db]' "$repo/build/customer_profile.txt" |
    grep -qF "FROM \"CUSTOMER\" t1 WHERE (t1.\"CID\" = 'CUST003')"; then
  echo "getProfileByID's CUSTOMER SQL lacks the CID predicate:" >&2
  grep -F '[SQL -> ' "$repo/build/customer_profile.txt" >&2 || true
  exit 1
fi
echo "pushdown ok: getProfileByID filters CUSTOMER on CID in SQL"

# Trace validation: run the demo query under a timeline trace, round-trip
# the Chrome trace_event export through a real JSON parser, and assert
# the fields Perfetto/chrome://tracing rely on (ph/tid everywhere, ts on
# every non-metadata record, dur on complete slices, >= 1 lane).
echo "== tier-1: Chrome trace export validation =="
cmake --build "$repo/build" -j "$jobs" --target trace_demo
"$repo/build/examples/trace_demo" 2>/dev/null > "$repo/build/trace_demo.json"
python3 -m json.tool "$repo/build/trace_demo.json" >/dev/null
python3 - "$repo/build/trace_demo.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "no trace events exported"
lanes = set()
slices = 0
for ev in events:
    assert "ph" in ev and "tid" in ev and "name" in ev, ev
    lanes.add(ev["tid"])
    if ev["ph"] == "M":
        continue
    assert "ts" in ev and ev["ts"] >= 0, ev
    assert "dur" in ev and ev["dur"] >= 0, ev
    if ev["ph"] == "X":
        slices += 1
assert slices > 0, "no complete (X) slices in the export"
assert len(lanes) >= 1, "no thread lanes registered"
names = {ev["name"] for ev in events}
assert "query" in names, "root query slice missing"
print(f"trace ok: {len(events)} events, {slices} slices, {len(lanes)} lane(s)")
PYEOF

# Insight-plane validation: run the statement-insight demo (which ends
# with a cooperative cancel) and round-trip its statement statistics,
# live queries, plan history, plan regressions, workload journal, replay,
# admission and source-health JSON documents through a real JSON parser,
# then check every line of its workload journal JSONL export.
echo "== tier-1: statement insight plane JSON validation =="
cmake --build "$repo/build" -j "$jobs" --target insight_demo
"$repo/build/examples/insight_demo" --json 2>/dev/null > "$repo/build/insight_demo.json"
python3 -m json.tool "$repo/build/insight_demo.json" >/dev/null
python3 - "$repo/build/insight_demo.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
stats = doc["stat_statements"]
assert stats["entry_count"] >= 2, stats
assert stats["statements"], "no statement entries exported"
top = stats["statements"][0]
for field in ("fingerprint", "statement_fingerprint", "calls", "errors",
              "cancels", "total_wall_micros", "mean_wall_micros",
              "p95_wall_micros_upper", "rows_returned"):
    assert field in top, f"missing {field}: {top}"
folded = [s for s in stats["statements"] if s["calls"] >= 4]
assert folded, "literal-varied statements did not fold into one fingerprint"
cancelled = [s for s in stats["statements"] if s["cancels"] >= 1]
assert cancelled, "the demo's cancelled join is missing from the stats"
live = doc["live_queries"]
assert live["live_count"] == 0, live
assert live["total_started"] >= 6, live
assert live["total_cancel_requests"] >= 1, live
history = doc["plan_history"]
assert history["statement_count"] >= 3, history
assert history["statements"], "no plan history exported"
for s in history["statements"]:
    assert s["versions"], f"statement with no plan versions: {s}"
    for v in s["versions"]:
        assert v["trigger"] in ("cold compile", "cache eviction",
                                "cost-model-advice change"), v
        assert v["explain"], "version retained no EXPLAIN snapshot"
# Four literal variants of one statement: the first compiles, the
# second compiles again to verify the plan template, later ones may be
# rebound from the template, which plan history does not record.
folded_hist = [s for s in history["statements"]
               if any(v["compiles"] >= 2 for v in s["versions"])]
assert folded_hist, "literal-varied statements did not fold in the history"
regressions = doc["plan_regressions"]
assert regressions["regressions_total"] == 0, regressions
assert regressions["regressions"] == [], regressions
journal = doc["workload_journal"]
assert journal["retained"] == len(journal["entries"]), journal
replay = doc["replay"]
assert replay["ops"] >= 1, replay
assert replay["fingerprint_mismatches"] == 0, replay
admission = doc["admission"]
for field in ("enabled", "max_concurrent_queries", "max_concurrent_analytics",
              "running", "queue_depth", "admitted", "queued",
              "shed_queue_full", "shed_timeout", "wait", "tenants"):
    assert field in admission, f"missing admission.{field}: {admission}"
for field in ("count", "mean_micros", "p95_micros_upper", "p99_micros_upper",
              "max_micros"):
    assert field in admission["wait"], f"missing wait.{field}: {admission}"
health = doc["source_health"]
assert health, "no source health exported"
for source, h in health.items():
    for field in ("state", "ewma_latency_micros", "successes", "failures",
                  "timeouts", "consecutive_failures", "trips"):
        assert field in h, f"missing {source}.{field}: {h}"
    assert h["state"] in ("closed", "open", "half-open"), h
print(f"insight ok: {stats['entry_count']} statements, "
      f"{live['total_started']} executions, "
      f"{live['total_cancel_requests']} cancel(s), "
      f"{history['statement_count']} statement histories, "
      f"{replay['ops']} replayed ops, {len(health)} source(s)")
PYEOF
"$repo/build/examples/insight_demo" --journal 2>/dev/null > "$repo/build/insight_demo.jsonl"
python3 - "$repo/build/insight_demo.jsonl" <<'PYEOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty workload journal export"
seqs = []
for line in lines:
    entry = json.loads(line)
    assert entry.get("text"), f"entry without text: {entry}"
    seqs.append(entry["seq"])
assert all(a < b for a, b in zip(seqs, seqs[1:])), f"seq not increasing: {seqs}"
print(f"journal ok: {len(lines)} entries, seq {seqs[0]}..{seqs[-1]}")
PYEOF

# Prometheus exposition validation: render the demo server's metrics in
# text exposition format and assert the shape scrapers rely on — every
# sample line belongs to an aldsp_-prefixed family with a # TYPE header,
# the per-tenant gauges fold into labelled families, and the source
# histogram emits monotonic cumulative buckets ending in +Inf with
# matching _sum/_count.
echo "== tier-1: Prometheus exposition shape validation =="
"$repo/build/examples/insight_demo" --prom 2>/dev/null > "$repo/build/insight_demo.prom"
python3 - "$repo/build/insight_demo.prom" <<'PYEOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty exposition"
typed = set()
samples = 0
hist = {}
sample_re = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+]+|\+Inf)$')
for line in lines:
    if not line:
        continue
    if line.startswith("# TYPE "):
        typed.add(line.split()[2])
        continue
    if line.startswith("#"):
        continue
    m = sample_re.match(line)
    assert m, f"malformed sample line: {line!r}"
    name, labels = m.group(1), m.group(2) or ""
    assert name.startswith("aldsp_"), f"unprefixed family: {line!r}"
    family = re.sub(r'_(bucket|sum|count)$', '', name)
    assert family in typed or name in typed, f"sample without # TYPE: {line!r}"
    samples += 1
    if name.endswith("_bucket"):
        le = re.search(r'le="([^"]*)"', labels).group(1)
        key = labels[:labels.index("le=")]
        hist.setdefault(key, []).append((le, float(m.group(3))))
assert samples > 0, "no samples rendered"
assert any(n.startswith("aldsp_tenant_") for n in typed), typed
assert "aldsp_source_latency_micros" in typed, typed
assert "aldsp_server_in_flight" in typed, typed
for key, buckets in hist.items():
    assert buckets[-1][0] == "+Inf", f"{key}: buckets must end at +Inf"
    counts = [c for _, c in buckets]
    assert counts == sorted(counts), f"{key}: non-monotonic buckets {counts}"
print(f"prometheus ok: {samples} samples, {len(typed)} families, "
      f"{len(hist)} histogram series")
PYEOF

# Batch-width validation: sweep the vectorized runtime's batch_size knob
# on a shrunk data set (--smoke) and round-trip the emitted grid through
# a real JSON parser. The benchmark self-checks byte-identical output at
# every width; a workload that fails the check emits no rows, which the
# per-workload assertion below turns into a gate failure.
echo "== tier-1: batch width smoke sweep + JSON validation =="
cmake --build "$repo/build" -j "$jobs" --target bench_batch_width
(cd "$repo/build" && ./bench/bench_batch_width --smoke >/dev/null)
python3 -m json.tool "$repo/build/BENCH_batch_width.json" >/dev/null
python3 - "$repo/build/BENCH_batch_width.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "batch_width", doc
rows = doc["rows"]
assert rows, "no batch width rows emitted"
workloads = {r["workload"] for r in rows}
assert {"scan_project", "scan_filter", "group_by"} <= workloads, workloads
for w in workloads:
    # A workload that trips the byte-identity self-check stops before its
    # wide widths, so demand at least one batched row per workload.
    wide = [r for r in rows if r["workload"] == w and r["batch_size"] > 1]
    assert wide, f"no batched row for {w}: identity check failed?"
for r in rows:
    assert r["batch_size"] >= 1 and r["ms"] > 0, r
print(f"batch width ok: {len(rows)} rows over {len(workloads)} workloads")
PYEOF

# Concurrent-load validation: replay a captured workload through the
# admission gate at several client counts on a shrunk data set (--smoke)
# and round-trip the emitted JSON. The bench itself exits non-zero on
# replay errors, fingerprint mismatches or a gate that fails to drain;
# the assertions below additionally pin the shape the perf tracking and
# the mixed-workload isolation claim rely on.
echo "== tier-1: concurrent load smoke sweep + JSON validation =="
cmake --build "$repo/build" -j "$jobs" --target bench_concurrent_load
(cd "$repo/build" && ./bench/bench_concurrent_load --smoke >/dev/null)
python3 -m json.tool "$repo/build/BENCH_concurrent_load.json" >/dev/null
python3 - "$repo/build/BENCH_concurrent_load.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "concurrent_load", doc
assert doc["max_concurrent_queries"] >= 1, doc
rows = doc["rows"]
assert rows, "no client-level rows emitted"
for r in rows:
    assert r["clients"] >= 1 and r["ops"] > 0, r
    assert r["errors"] == 0 and r["fingerprint_mismatches"] == 0, r
    # The gate must fully drain after every level.
    assert r["drain_queue_depth"] == 0 and r["drain_running"] == 0, r
    assert r["admitted"] >= r["ops"], r
queued = [r for r in rows if r["clients"] > doc["max_concurrent_queries"]]
assert any(r["admission_queued"] > 0 for r in queued), \
    "oversubscribed levels never queued: gate not engaging"
mixed = doc["mixed"]
assert mixed["lookup_ops"] > 0 and mixed["analytics_ops"] > 0, mixed
assert mixed["isolated_lookup_p99_us"] > 0, mixed
print(f"concurrent load ok: {len(rows)} levels, "
      f"mixed p99 ratio {mixed['ratio']:.2f}")
PYEOF

echo "== tier-1: ASan/UBSan build + ctest =="
cmake -B "$repo/build-asan" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
# The Debug build can warn where the optimized one does not (without
# optimization GCC's -Wformat-truncation assumes every int may be the
# widest), so its log is gated too.
cmake --build "$repo/build-asan" -j "$jobs" --clean-first 2>&1 |
  tee "$repo/build-asan/build.log"
fail_on_warnings "$repo/build-asan/build.log" ASan/UBSan
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"

# The TSan gate covers the suites that exercise the worker pool, the
# PP-k prefetcher, the observability plane's shared rings (audit,
# slow-query and workload journal, which the completion parity suite
# drives from concurrent executions), the server's shared plan and
# view-plan caches and plan templates (the shared-state paths), and the
# pruned scans and PP-k fetches at dop 8 (the column pruning suite), and
# streamed PP-k joins stopped mid-stream with fetches in flight (the
# short-batch suite), and readers scanning stored tables in place beside
# a writer on one backend (the relational engine suite), and the
# streaming contract with fn-bea:async/fn-bea:timeout evaluations on the
# pool (the runtime evaluation suite), and flat source rows building
# their child nodes once while several threads read them (the flat row
# suite), and concurrent callers redacted into the one shared security
# audit (the security suite), and leaves building their text child once
# while several threads read them (the node layout suite), and threads
# copying, comparing and atomizing one shared sequence of inline and
# out-of-line atomic values (the atomic value suite). The
# short-batch suite runs as ctest shards (stream_short_batch_test_shardN).
# query_trace_test is excluded: its timeout test deliberately abandons
# an evaluation past the end of the test body, which is the documented
# fn-bea:timeout contract, not a data race in the runtime.
echo "== tier-1: TSan build + concurrency suites =="
cmake -B "$repo/build-tsan" -S "$repo" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "$repo/build-tsan" -j "$jobs" \
  --target physical_parity_test parallel_exec_test worker_pool_test \
  join_methods_test observability_test insight_plane_test \
  batch_runtime_test plan_history_test workload_replay_test admission_test \
  server_test plan_rebind_test completion_parity_test column_pruning_test \
  stream_short_batch_test relational_engine_test runtime_eval_test \
  flat_row_test security_test node_layout_test xml_value_test
ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
  -R '^(physical_parity_test|parallel_exec_test|worker_pool_test|join_methods_test|observability_test|insight_plane_test|batch_runtime_test|plan_history_test|workload_replay_test|admission_test|server_test|plan_rebind_test|completion_parity_test|column_pruning_test|stream_short_batch_test_shard[0-9]+|relational_engine_test|runtime_eval_test|flat_row_test|security_test|node_layout_test|xml_value_test)$'

echo "== all checks passed =="
