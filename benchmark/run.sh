#!/usr/bin/env bash
# The repository benchmark: builds benchmark/ (its own CMake project over
# ../src) into .bench_build/, then runs workloads, each in its own
# process. Run from anywhere; it works from the repository root.
#
# One workload, one run (the last stdout line is the result JSON):
#   bash benchmark/run.sh --workload tcad_xval --seed 3 --seconds 30 --trace 0
# Every workload, N sets, with a results file and a host fingerprint:
#   bash benchmark/run.sh [--seed N] [--sets N] [--trace] [--smoke]
#                         [--seconds S] [--perfdb DIR] [--out FILE]
#
# --trace adds a traced run per workload (per-layer metrics, spans in
# .bench_build/run/TRACE_<workload>.json); --smoke runs 1/10-size units
# for a quick sanity pass; --perfdb appends every run to a perfdb store
# that `obs_trend show` reads.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
BUILD=.bench_build
BIN="$BUILD/subscale_benchmark"
WORK="$BUILD/run"

workload=""
seed=1
seconds=""
trace=0
sets=1
smoke=0
perfdb=""
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --sets) sets="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --perfdb) perfdb="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    -h|--help) sed -n '2,15p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
  if [[ $smoke == 1 ]]; then seconds=$(( seconds / 10 > 0 ? seconds / 10 : 1 )); fi
fi

# Build. Compiler scratch files stay inside the checkout too.
mkdir -p "$BUILD/tmp" "$WORK"
export TMPDIR="$ROOT/$BUILD/tmp"
if ! cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       > "$BUILD/build.log" 2>&1 ||
   ! cmake --build "$BUILD" -j 4 --target subscale_benchmark \
       >> "$BUILD/build.log" 2>&1; then
  tail -n 30 "$BUILD/build.log" >&2
  echo "run.sh: build failed (log: $BUILD/build.log)" >&2
  exit 1
fi

rev="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
run_args=(--rev "$rev")
[[ -n "$perfdb" ]] && run_args+=(--perfdb "$perfdb")
[[ $smoke == 1 ]] && run_args+=(--smoke)

if [[ -n "$workload" ]]; then
  exec "$BIN" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${run_args[@]}"
fi

# Suite mode: every workload, `sets` times, seed advancing per set.
runs="$WORK/runs.jsonl"
: > "$runs"
status=0
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
modes=(0)
[[ $trace == 1 ]] && modes+=(1)
for (( s = 0; s < sets; ++s )); do
  for w in $workloads; do
    for t in "${modes[@]}"; do
      run_seed=$(( seed + s ))
      echo "== $w set $((s + 1))/$sets seed $run_seed trace $t" >&2
      log="$WORK/$w.$s.$t.out"
      if ! "$BIN" --workload "$w" --seed "$run_seed" --seconds "$seconds" \
          --trace "$t" "${run_args[@]}" > "$log"; then
        status=1
      fi
      grep -v '^{' "$log" >&2 || true
      printf '{"workload": "%s", "set": %d, "seed": %d, "trace": %d, "result": %s}\n' \
        "$w" "$s" "$run_seed" "$t" "$(tail -n 1 "$log")" >> "$runs"
    done
  done
done

compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"
host="$(python3 - "$rev" "$compiler" "$build_type" <<'EOF'
import json, os, subprocess, sys
rev, compiler, build_type = sys.argv[1:4]
cpu = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
version = subprocess.run([compiler or "c++", "--version"], capture_output=True,
                         text=True).stdout.splitlines()
print(json.dumps({"nproc": os.cpu_count(), "cpu": cpu,
                  "compiler": version[0] if version else compiler,
                  "build_type": build_type, "rev": rev}))
EOF
)"
out="${out:-$WORK/results-$(date +%Y%m%d-%H%M%S).json}"
python3 benchmark/results.py summarize "$runs" --host "$host" --out "$out" \
  --seconds "$seconds" --smoke "$smoke" || status=1
exit $status
