#!/usr/bin/env bash
# One command for the end-to-end benchmark: builds aldsp_bench (Release,
# from this checkout's sources) and runs one workload or all of them.
#
#   bash e2e_bench/run.sh [--workload W|all] [--seed N] [--seconds S]
#                         [--trace [0|1]] [--smoke] [--out DIR]
#
# Run from the repository root. Build output and results go under
# ${CARGO_TARGET_DIR:-.bench_build}; results land in <out>/<workload>.json
# (untraced), <workload>.traced.json and <workload>.trace.json (Chrome
# trace, opens in ui.perfetto.dev). The last stdout line of each workload
# is its JSON summary. Exits non-zero on a build failure, a wrong result
# or an undrained gauge.
set -euo pipefail

workload=all
seed=1
seconds=30
trace=0
smoke=()
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=(--smoke); shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

root="$(pwd)"
here="$root/e2e_bench"
if [[ ! -f "$here/CMakeLists.txt" ]]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
out="${out:-${CARGO_TARGET_DIR:-.bench_build}/bench_out/seed$seed}"
mkdir -p "$build" "$out"

# Build logs go to stderr so stdout stays metric lines plus the JSON line.
# The build is skipped when no source is newer than the binary.
bin="$build/aldsp_bench"
if [[ ! -x "$bin" || -n "$(find "$root/src" "$here" -newer "$bin" -print -quit)" ]]; then
  {
    # Configure once; the build step re-runs it when a CMakeLists.txt changes.
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
      cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" --target aldsp_bench -j "$(nproc)"
  } >&2
fi

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "$workload" == all ]]; then
  workloads=(profile_lookup profile_update federated_report contended_mix)
else
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  "$build/aldsp_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${smoke[@]}" --out "$out" --commit "$commit" || status=$?
done
exit "$status"
