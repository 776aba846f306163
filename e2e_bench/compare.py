#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 e2e_bench/compare.py RUNS_A RUNS_B [--same-code] [--all]

RUNS_A and RUNS_B are result files written by aldsp_bench (<workload>.json)
or directories searched recursively for them; A is the parent (or the
first set), B the change (or the second set). Traced results
(*.traced.json) and Chrome traces (*.trace.json) are ignored.

For every end-to-end metric of BENCHMARK.json x workload it prints each
side's median and quartiles, how much worse B's median is than A's, the
larger of the two sides' spreads (interquartile range / median), the share
of pairs B wins (runs are paired by seed when both sides ran the same
seeds, otherwise every A run meets every B run; ties count for neither
side), and a verdict:

  regressed   B's median is worse than A's by more than the bound, and
              the spread does not hide it: the spread is within the bound,
              or B's median is worse by more than the spread, or every B
              run is worse than every A run
  unresolved  otherwise, when the spread exceeds the bound, unless every
              B run beats every A run
  improved    B wins >= 90% of pairs and its median is better than A's by
              more than A's interquartile range
  unchanged   otherwise

setup_s is judged on its median alone: set-up takes milliseconds, so its
spread is wide, and only a median worse by more than the bound counts.
Bounds are the ones in BENCHMARK.json, all relative. Exits 1 on any
regression.

With --same-code, A and B are two sets of runs of one commit. It checks
that every median agrees within its bound in both directions and that no
spread but setup_s's exceeds it, and exits 1 otherwise.

With --all, it also prints every other metric the result files hold
(medians, quartiles and the change of the median), without a verdict:
only the metrics of BENCHMARK.json are gated.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(path):
    """Maps workload -> list of result dicts found under `path`."""
    p = Path(path)
    files = [p] if p.is_file() else sorted(p.rglob("*.json"))
    runs = {}
    for f in files:
        if f.name.endswith((".trace.json", ".traced.json")):
            continue
        try:
            r = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(r, dict) or "workload" not in r or r.get("traced"):
            continue
        runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q):
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def pairs(a_runs, b_runs, name):
    by_seed_a = {r["host"]["seed"]: r["metrics"][name]["value"] for r in a_runs}
    by_seed_b = {r["host"]["seed"]: r["metrics"][name]["value"] for r in b_runs}
    if len(by_seed_a) == len(a_runs) and by_seed_a.keys() == by_seed_b.keys():
        return [(by_seed_a[s], by_seed_b[s]) for s in sorted(by_seed_a)]
    return [(a, b) for a in by_seed_a.values() for b in by_seed_b.values()]


def judge(name, better, bound, a_runs, b_runs, same_code):
    a = [r["metrics"][name]["value"] for r in a_runs]
    b = [r["metrics"][name]["value"] for r in b_runs]
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive `worse` means B's median is worse than A's, as a share of A's.
    worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    wide = max(spread(qa), spread(qb))
    ps = pairs(a_runs, b_runs, name)
    win_share = sum(1 for x, y in ps if sign * (x - y) > 0) / len(ps)
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    median_only = name == "setup_s"
    if same_code:
        verdict = "agree" if abs(worse) <= bound else "DISAGREE"
        if wide > bound and not median_only:
            verdict = "SPREAD > BOUND" if verdict == "agree" else verdict + ", SPREAD > BOUND"
    elif worse > bound and (median_only or wide <= bound or worse > wide or all_worse):
        verdict = "regressed"
    elif wide > bound and not median_only and not all_better:
        verdict = "unresolved"
    elif win_share >= 0.9 and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return qa, qb, worse, wide, win_share, verdict


def quart_cell(q, n):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({n})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("runs_a")
    ap.add_argument("runs_b")
    ap.add_argument("--same-code", action="store_true",
                    help="A and B are two run sets of one commit")
    ap.add_argument("--all", action="store_true",
                    help="also print every ungated metric, without a verdict")
    args = ap.parse_args()

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    a_all, b_all = load_runs(args.runs_a), load_runs(args.runs_b)
    if not a_all or not b_all:
        print("compare.py: no untraced result files found", file=sys.stderr)
        return 2

    print("| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) "
          "| B worse by | spread | bound | B wins | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    bad = 0
    ungated_rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        a_runs, b_runs = a_all.get(w, []), b_all.get(w, [])
        if not a_runs or not b_runs:
            print(f"| {w} | (missing runs: A={len(a_runs)} B={len(b_runs)}) "
                  "| | | | | | | |")
            bad += 1
            continue
        for m in gated.values():
            qa, qb, worse, wide, win_share, verdict = judge(
                m["name"], m["better"], m["bound"], a_runs, b_runs, args.same_code)
            print(f"| {w} | {m['name']} | {quart_cell(qa, len(a_runs))} "
                  f"| {quart_cell(qb, len(b_runs))} | {100 * worse:+.1f}% "
                  f"| {100 * wide:.1f}% | {100 * m['bound']:g}% "
                  f"| {100 * win_share:.0f}% | {verdict} |")
            if verdict == "regressed" or verdict.startswith(("DISAGREE", "SPREAD")):
                bad += 1
        if args.all:
            names = sorted(set.intersection(*(set(r["metrics"]) for r in a_runs + b_runs)))
            for name in names:
                if name in gated:
                    continue
                qa = quartiles([r["metrics"][name]["value"] for r in a_runs])
                qb = quartiles([r["metrics"][name]["value"] for r in b_runs])
                change = f"{100 * (qb[1] / qa[1] - 1):+.1f}%" if qa[1] else "—"
                ungated_rows.append(
                    f"| {w} | {name} | {quart_cell(qa, len(a_runs))} "
                    f"| {quart_cell(qb, len(b_runs))} | {change} |")
    if ungated_rows:
        print("\nUngated metrics (no verdict):\n")
        print("| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) "
              "| B median vs A |")
        print("|---|---|---|---|---|")
        print("\n".join(ungated_rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
