#!/usr/bin/env bash
# Deterministic chaos + resume harness for the multi-process study
# orchestrator (src/orch). Proves the crash-tolerance contract end to
# end, from the CLI, with real forked workers:
#
#   1. Golden: a serial in-process run (workers=0) of a small coarse-mesh
#      study produces the reference merged JSON.
#   2. Chaos: the same study runs with forked workers under a seeded
#      ChaosPolicy — every initial worker SIGKILLs itself mid-unit (the
#      kill site is derived from the seed: after claiming the lease,
#      after the equilibrium solve, or after solving but before
#      publishing). The orchestrator must detect the stale leases,
#      reassign, respawn, and finish with nothing poisoned — and the
#      merged output must be byte-for-byte the golden file.
#   3. Mid-flight kill + resume: a fresh multi-worker run is SIGKILLed
#      from the outside (orchestrator and workers), then rerun against
#      the same study/cache dirs. The rerun must report claimed=0 only
#      if the first run finished; either way it completes, solves only
#      the missing units, and matches the golden bytes.
#
#   ./tools/chaos_study.sh [build_dir]     # default ./build
#
# Fixed seeds make every kill site reproducible run-to-run; there is no
# wall-clock randomness anywhere in the harness.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
orch="$build_dir/tools/subscale_orch"
[[ -x "$orch" ]] || { echo "chaos_study: $orch not built" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Small but real: 2 nodes x 3-point sweeps on the coarse mesh keeps the
# whole harness in seconds while still forking real TCAD workers.
study_args=(--nodes 0,1 --points 3 --coarse-mesh --lease-timeout 1.0)

echo "== golden: serial reference run =="
"$orch" "${study_args[@]}" --workers 0 \
    --study-dir "$tmp/golden/study" --cache-dir "$tmp/golden/cache" \
    --out "$tmp/golden.json"

echo "== chaos: every worker SIGKILLed mid-unit (seeds 0 1 2) =="
for seed in 0 1 2; do
  summary="$("$orch" "${study_args[@]}" --workers 2 \
      --chaos-kill-after 1 --chaos-seed "$seed" \
      --study-dir "$tmp/chaos$seed/study" --cache-dir "$tmp/chaos$seed/cache" \
      --out "$tmp/chaos$seed.json")"
  echo "seed $seed: $summary"
  [[ "$summary" != *"poisoned=0"* ]] && {
    echo "chaos_study: seed $seed poisoned a unit" >&2; exit 1; }
  [[ "$summary" == *"reassigned=0"* ]] && {
    echo "chaos_study: seed $seed saw no reassignment (chaos not armed?)" >&2
    exit 1; }
  cmp "$tmp/golden.json" "$tmp/chaos$seed.json" || {
    echo "chaos_study: seed $seed merge differs from golden" >&2; exit 1; }
done

echo "== mid-flight SIGKILL of the orchestrator, then resume =="
"$orch" "${study_args[@]}" --workers 2 \
    --study-dir "$tmp/resume/study" --cache-dir "$tmp/resume/cache" \
    --out "$tmp/resume.json" &
orch_pid=$!
sleep 0.5   # enough for workers to start; whether a unit published yet
            # is box-dependent, and the invariants hold either way
# Kill the whole process group stand-ins: orchestrator first, then any
# workers it left behind (their parent died; forked workers keep the
# orchestrator's command line, so find them by it).
kill -KILL "$orch_pid" 2>/dev/null || true
wait "$orch_pid" 2>/dev/null || true
pkill -KILL -f "subscale_orch.*$tmp/resume" 2>/dev/null || true

summary="$("$orch" "${study_args[@]}" --workers 2 \
    --study-dir "$tmp/resume/study" --cache-dir "$tmp/resume/cache" \
    --out "$tmp/resume.json")"
echo "resume: $summary"
cmp "$tmp/golden.json" "$tmp/resume.json" || {
  echo "chaos_study: resumed merge differs from golden" >&2; exit 1; }

echo "== pure resume: rerun must claim nothing =="
summary="$("$orch" "${study_args[@]}" --workers 2 \
    --study-dir "$tmp/resume/study" --cache-dir "$tmp/resume/cache" \
    --out "$tmp/resume2.json")"
echo "rerun:  $summary"
[[ "$summary" == *"claimed=0"* ]] || {
  echo "chaos_study: pure resume still claimed units" >&2; exit 1; }
cmp "$tmp/resume.json" "$tmp/resume2.json"

echo "chaos_study: all recovery invariants held"
