#!/usr/bin/env bash
# Tier-1 verify in one command: configure, build, ctest.
#
#   ./tools/check.sh                          # plain RelWithDebInfo, -Werror
#   SUBSCALE_SANITIZE=address ./tools/check.sh
#   SUBSCALE_SANITIZE=undefined ./tools/check.sh
#   SUBSCALE_SANITIZE=address,undefined ./tools/check.sh
#   SUBSCALE_SANITIZE=thread ./tools/check.sh   # TSAN + concurrency tests
#
# Sanitized runs use their own build tree (build-asan, ...) so the plain
# ./build tree stays warm. The thread mode builds with -fsanitize=thread
# and runs only the exec-layer / determinism suites (Exec*, TaskPool,
# Parallel*) — TSAN slows the numeric suites ~10x for no extra coverage,
# since everything else is single-threaded unless it goes through exec.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitize="${SUBSCALE_SANITIZE:-}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

build_dir="$repo_root/build"
cmake_args=()
# The tier-1 label is the seed gate: every suite carries it (see
# tests/CMakeLists.txt), so this is "plain ctest" parity by construction
# and stays honest if a future suite opts out of the tier.
ctest_args=("-L" "tier1")
if [[ -n "$sanitize" ]]; then
  case "$sanitize" in
    address) build_dir="$repo_root/build-asan" ;;
    undefined) build_dir="$repo_root/build-ubsan" ;;
    thread)
      build_dir="$repo_root/build-tsan"
      # Only the suites that actually spin up threads.
      ctest_args+=("-R" "^(Exec|TaskPool|Parallel)")
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
      ;;
    *) build_dir="$repo_root/build-san" ;;
  esac
  cmake_args+=("-DSUBSCALE_SANITIZE=$sanitize")
  # Abort on the first UBSan report instead of printing and continuing.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
else
  # The plain tree builds warning-free; -Werror keeps it that way.
  cmake_args+=("-DSUBSCALE_WERROR=ON")
fi

# The design layers (physics, doping, compact, opt, scaling, circuits)
# are pure functions of their inputs: none of them may include a cache/
# header. The solve cache serves TCAD devices, the serve daemon and the
# orchestrator only. Any file listed here breaks that rule.
if grep -rlE '^[[:space:]]*#[[:space:]]*include[[:space:]]*["<]cache/' \
    "$repo_root"/src/{physics,doping,compact,opt,scaling,circuits}; then
  echo "check.sh: a design-layer file above includes a cache/ header" >&2
  exit 1
fi

cmake -B "$build_dir" -S "$repo_root" "${cmake_args[@]}"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" "${ctest_args[@]}"

# run_bench DIR BENCH [VAR=VALUE...]: run the self-gating BENCH in DIR
# with the given environment, its stdout kept in DIR/BENCH.log. A
# bench that fails its own gate is named on stderr with its [shape]
# verdict and the log's tail, and the script exits 1.
run_bench() {
  local dir=$1 bench=$2
  shift 2
  if ! (cd "$dir" && env "$@" "$build_dir/bench/$bench" \
      > "$dir/$bench.log"); then
    {
      echo "check.sh: $bench failed its own gate"
      grep '^\[shape' "$dir/$bench.log" || true
      tail -n 20 "$dir/$bench.log"
    } >&2
    exit 1
  fi
}

# Plain builds also validate the bench telemetry schema (sanitized
# trees skip this — bench wall times are meaningless there): run one
# fast bench to produce a fresh record and check it against the schema
# table with `obs_trend schema`. The same record then exercises the
# diff gate and the schema check both ways: the clean record must pass,
# and a synthetically inflated effort counter or a renamed key must
# fail.
if [[ -z "$sanitize" ]]; then
  bench_tmp="$(mktemp -d)"
  # SUBSCALE_CACHE_DIR exercises the env-installed solve cache along the
  # way: a cold run must publish records (cache.store > 0 in the bench
  # telemetry proves the wiring, not just that the env var was read).
  # SUBSCALE_PERFDB_DIR exercises the bench-side perf-history wiring:
  # the run must land in the store as an obs_trend-visible record.
  run_bench "$bench_tmp" bench_tcad_validation SUBSCALE_PROFILE=1 \
      SUBSCALE_CACHE_DIR="$bench_tmp/cache" \
      SUBSCALE_PERFDB_DIR="$bench_tmp/perfdb"
  "$build_dir/tools/obs_trend" schema "$bench_tmp"/BENCH_*.json
  if ! grep -Eq '"cache\.store": [1-9]' "$bench_tmp"/BENCH_*.json; then
    echo "check.sh: env-installed cache published no records" >&2
    exit 1
  fi

  record="$(ls "$bench_tmp"/BENCH_*.json | head -n 1)"
  "$build_dir/tools/obs_trend" diff "$record" "$record"
  # Inflate one deterministic effort counter ~1.5x; the gate must trip.
  awk '{
    if ($0 ~ /"tcad.gummel.outer_iterations":/) {
      match($0, /[0-9]+/)
      v = substr($0, RSTART, RLENGTH)
      sub(/[0-9]+/, int(v * 3 / 2) + 1)
    }
    print
  }' "$record" > "$bench_tmp/perturbed.json"
  if "$build_dir/tools/obs_trend" diff "$record" \
      "$bench_tmp/perturbed.json"; then
    echo "check.sh: obs_trend diff failed to flag a 50% counter" \
         "regression" >&2
    exit 1
  fi
  echo "obs_trend diff: regression gate trips on perturbed record (expected)"
  # The schema check must trip too: rename one obs key so the copy
  # carries a key outside the schema table.
  sed 's/"tcad\.gummel\.retries":/"tcad.gummel.retriez":/' "$record" \
      > "$bench_tmp/renamed.json"
  if "$build_dir/tools/obs_trend" schema "$bench_tmp/renamed.json" \
      > /dev/null; then
    echo "check.sh: obs_trend schema accepted an unknown obs key" >&2
    exit 1
  fi
  echo "obs_trend schema: rejects a record with a renamed key (expected)"

  # Perf-history round-trip smoke (src/perfdb + tools/obs_trend). First:
  # the bench run above, with SUBSCALE_PERFDB_DIR set, must already have
  # appended itself to the store.
  if ! "$build_dir/tools/obs_trend" list --db "$bench_tmp/perfdb" \
      | grep -q "tcad_validation"; then
    echo "check.sh: bench run did not land in the perf-history store" >&2
    exit 1
  fi
  # Then the trend gate both ways on a synthetic history: three appends
  # of the same record form a flat baseline the gate must pass, and the
  # perturbed record (same +50% effort counter as the diff check)
  # appended as the newest run must trip it.
  trend_db="$bench_tmp/trend-db"
  for i in 1 2 3; do
    "$build_dir/tools/obs_trend" append --db "$trend_db" \
        --ts "$((1000 + i))" --rev "self$i" "$record" > /dev/null
  done
  "$build_dir/tools/obs_trend" gate --db "$trend_db" \
      --bench tcad_validation
  "$build_dir/tools/obs_trend" append --db "$trend_db" --ts 2000 \
      --rev drift "$bench_tmp/perturbed.json" > /dev/null
  if "$build_dir/tools/obs_trend" gate --db "$trend_db" \
      --bench tcad_validation; then
    echo "check.sh: obs_trend failed to flag a 50% drift vs baseline" >&2
    exit 1
  fi
  echo "obs_trend: trend gate trips on drifted history (expected)"
  # Rollup query sanity: show must summarize the gated counter's series.
  if ! "$build_dir/tools/obs_trend" show --db "$trend_db" \
      --bench tcad_validation --metric tcad.gummel.outer_iterations \
      | grep -q "median="; then
    echo "check.sh: obs_trend show produced no rollup stats" >&2
    exit 1
  fi

  # gate_budget LABEL BENCH PASS-ARGS TRIP-ARGS: BENCH's newest record
  # in the perf history must meet the budget flags PASS-ARGS, and the
  # impossible budget TRIP-ARGS must trip the same gate, which proves
  # the gate live.
  gate_budget() {
    local label=$1 bench=$2 pass trip
    read -ra pass <<< "$3"
    read -ra trip <<< "$4"
    "$build_dir/tools/obs_trend" gate --db "$bench_tmp/perfdb" \
        --bench "$bench" "${pass[@]}"
    if "$build_dir/tools/obs_trend" gate --db "$bench_tmp/perfdb" \
        --bench "$bench" "${trip[@]}" > /dev/null; then
      echo "check.sh: $label budget gate failed to trip" >&2
      exit 1
    fi
    echo "obs_trend: $label budget gate enforced"
  }

  # Cold-solve acceleration budget. The bench already self-gates the
  # >=3x speedup inside its shape verdict; this enforces the same floor
  # a second time at the perf-history level (obs_trend --metric-min on
  # the recorded headline number) plus a generous absolute wall ceiling
  # on the accelerated cold solve, so a pathological slowdown fails
  # even on a run where the ratio happens to hold. Then the gate is
  # proven live by demanding an impossible floor trips it.
  gate_budget cold-solve tcad_validation \
      "--metric-min cold_speedup=3.0 --metric-max cold_solve_ms_accel=30000" \
      "--metric-min cold_speedup=1000000"
  if ! "$build_dir/tools/obs_trend" show --db "$bench_tmp/perfdb" \
      --bench tcad_validation --metric cold_solve_ms_accel \
      | grep -q "median="; then
    echo "check.sh: cold-solve series missing from perf history" >&2
    exit 1
  fi

  # Poisson Newton budget. bench_tcad_validation records the Poisson
  # Newton iterations per Gummel outer iteration over its sweep
  # (deterministic counters). The ceiling sits ~1.25x above the measured
  # 3.10, so a Newton that stops converging quadratically (a Jacobian
  # that drifts from the true one, a step clamp that binds on every
  # iteration) fails here; the 0.5 V clamp's 3.70 still passes, and the
  # exact count ObsTcad.SweepPublishesCounters pins is what holds the
  # clamp. An impossible budget must trip the same gate.
  gate_budget "Poisson Newton" tcad_validation \
      "--metric-max poisson_newton_per_outer=3.9" \
      "--metric-max poisson_newton_per_outer=1"

  # Poisson factorization budget. bench_tcad_validation also records the
  # LDLᵀ factorizations of Poisson's Newton Jacobian per Gummel outer
  # iteration over its sweep. A Newton iteration reuses the held factor
  # while the state stays within 1e-4 V of where it was assembled, which
  # reads 1.66 against 3.12 Newton iterations; the ceiling sits ~1.25x
  # above it, so a solver that refactors on every iteration again fails
  # here, and the Newton budget above caps a reuse threshold set too
  # loose. An impossible budget must trip the same gate.
  gate_budget "Poisson factorization" tcad_validation \
      "--metric-max poisson_factorizations_per_outer=2.1" \
      "--metric-max poisson_factorizations_per_outer=1"

  # Band-storage budget. bench_tcad_validation also records the band
  # storage its factorizations covered per Gummel outer iteration
  # (tcad.linalg.band_entries: rows x (kl + ku + 1) per continuity LU,
  # rows x (kl + 1) per Poisson LDLᵀ). Each system numbers only its
  # unknowns, which reads 92775; the ceiling sits ~1.05x above it, so
  # systems that carry their contact and oxide rows again (126211) fail
  # here. An impossible budget must trip the same gate.
  gate_budget band-storage tcad_validation \
      "--metric-max band_entries_per_outer=97500" \
      "--metric-max band_entries_per_outer=1"

  # Density-floor budget. bench_tcad_validation also records the
  # continuity densities its sweep raised to the 1e-20 n_i floor. Every
  # continuity system is an M-matrix with a right-hand side of one sign,
  # so the count is 0; a factorization or assembly that breaks the
  # column dominance (the row-equilibrated, pivoting LU clamped
  # thousands) fails here. A negative budget must trip the same gate.
  gate_budget density-floor tcad_validation \
      "--metric-max continuity_clamped_nodes=0" \
      "--metric-max continuity_clamped_nodes=-1"

  # VTC Newton budget. bench_fig04 records the Newton iterations per
  # inverter output-node solve (circuits.vtc.* counters, deterministic).
  # The ceiling sits ~1.25x above the measured 7.29, far below the ~43
  # steps of a pure-bisection fallback, so a Newton that quietly stops
  # converging fails here; an impossible budget must trip the same gate.
  run_bench "$bench_tmp" bench_fig04_snm \
      SUBSCALE_PERFDB_DIR="$bench_tmp/perfdb"
  "$build_dir/tools/obs_trend" schema "$bench_tmp"/BENCH_fig04_snm.json
  gate_budget "VTC Newton" fig04_snm \
      "--metric-max vtc_newton_per_solve=9.1" \
      "--metric-max vtc_newton_per_solve=1"

  # Transient Newton budget. bench_fig06 records the Newton iterations per
  # backward-Euler step of its V_min transients (circuits.tran.* counters,
  # deterministic). The ceiling sits ~1.25x above the measured 2.00, so a
  # stamped Jacobian that drifts from the true one (Newton going linear)
  # fails here; an impossible budget must trip the same gate.
  run_bench "$bench_tmp" bench_fig06_energy_vmin \
      SUBSCALE_PERFDB_DIR="$bench_tmp/perfdb"
  "$build_dir/tools/obs_trend" schema \
      "$bench_tmp"/BENCH_fig06_energy_vmin.json
  gate_budget "transient Newton" fig06_energy_vmin \
      "--metric-max tran_newton_per_step=2.5" \
      "--metric-max tran_newton_per_step=1"
  rm -rf "$bench_tmp"

  # Cache round-trip smoke: bench_ext_cache gates itself (warm replay
  # >= 5x over cold, cache hits observed, warm results bitwise-identical
  # to the uncached run) and exits non-zero on any violation. Its record
  # must also satisfy the telemetry schema.
  cache_tmp="$(mktemp -d)"
  run_bench "$cache_tmp" bench_ext_cache
  "$build_dir/tools/obs_trend" schema "$cache_tmp"/BENCH_*.json
  echo "bench_ext_cache: cache round-trip smoke passed"
  rm -rf "$cache_tmp"

  # Card round-trip smoke: bench_ext_cards gates itself (one-node card
  # save -> load -> re-serialize byte-identical, and the reloaded card's
  # 1-node design study bitwise-equal to the builtin's) and exits
  # non-zero on any violation. Its record must also carry the card id
  # and satisfy the telemetry schema.
  cards_tmp="$(mktemp -d)"
  run_bench "$cards_tmp" bench_ext_cards
  "$build_dir/tools/obs_trend" schema "$cards_tmp"/BENCH_*.json
  if ! grep -q '"card": "' "$cards_tmp"/BENCH_*.json; then
    echo "check.sh: bench record does not name its technology card" >&2
    exit 1
  fi
  echo "bench_ext_cards: card round-trip smoke passed"
  rm -rf "$cards_tmp"

  # Parallel TCAD validation: bench_ext_parallel_study runs all four
  # nodes' sweeps serially and on 4 threads and gates itself (every node
  # usable, bitwise-identical results, >= 2x speedup where 4 hardware
  # threads exist), exiting non-zero on any violation. It runs under an
  # env-installed cache, which both passes must bypass: a cache hit
  # means the pooled pass replayed the serial one instead of solving.
  parallel_tmp="$(mktemp -d)"
  run_bench "$parallel_tmp" bench_ext_parallel_study SUBSCALE_CACHE=1
  "$build_dir/tools/obs_trend" schema "$parallel_tmp"/BENCH_*.json
  if grep -Eq '"cache\.hit": [1-9]' "$parallel_tmp"/BENCH_*.json; then
    echo "check.sh: bench_ext_parallel_study read the env cache" >&2
    exit 1
  fi
  echo "bench_ext_parallel_study: parallel validation passed"
  rm -rf "$parallel_tmp"

  # Golden regeneration: golden_gen must reproduce the six compact
  # fixtures (five device-level ones and the circuit figures in
  # circuits_paper.json) byte for byte. tcad_equivalence.json is left
  # out: its committed copy predates the short-axis node numbering and
  # does not regenerate byte-identical, so test_solver_equivalence holds
  # the TCAD stack against it at the tier's bounds instead.
  golden_tmp="$(mktemp -d)"
  "$build_dir/tools/golden_gen" "$golden_tmp" > /dev/null
  for fixture in table2_supervth table3_subvth fig02_ss_ionioff \
      fig09_lpoly_ss nanowire_idvg circuits_paper; do
    cmp "$repo_root/tests/golden/$fixture.json" \
        "$golden_tmp/$fixture.json" || {
      echo "check.sh: golden_gen no longer reproduces $fixture.json" >&2
      exit 1
    }
  done
  echo "golden_gen: the six compact fixtures regenerate byte-identical"
  rm -rf "$golden_tmp"

  # Orchestrator resume smoke: a forked-worker study, then a rerun
  # against the same dirs. The rerun must be a pure resume (claimed=0 —
  # every unit found in the content-addressed store, nothing re-solved)
  # and merge to byte-identical output. The full chaos tier (seeded
  # worker SIGKILLs, mid-flight orchestrator kill) lives in
  # tools/chaos_study.sh; this keeps the fast path honest.
  orch_tmp="$(mktemp -d)"
  orch_args=(--nodes 0,1 --points 3 --coarse-mesh --workers 2
             --study-dir "$orch_tmp/study" --cache-dir "$orch_tmp/cache")
  "$build_dir/tools/subscale_orch" "${orch_args[@]}" \
      --out "$orch_tmp/run1.json" > /dev/null
  resume_summary="$("$build_dir/tools/subscale_orch" "${orch_args[@]}" \
      --out "$orch_tmp/run2.json")"
  if [[ "$resume_summary" != *"claimed=0"* ]]; then
    echo "check.sh: orchestrator resume re-solved units: $resume_summary" >&2
    exit 1
  fi
  cmp "$orch_tmp/run1.json" "$orch_tmp/run2.json" || {
    echo "check.sh: orchestrator resume output differs from first run" >&2
    exit 1
  }
  echo "subscale_orch: resume smoke passed ($resume_summary)"
  rm -rf "$orch_tmp"

  # Serve chaos smoke: bring up the design-query daemon on a warm-able
  # cache dir, answer one query, SIGKILL the daemon (no graceful
  # shutdown), restart it in place, and demand (a) the repeated query is
  # answered from the persistent cache and (b) the daemon's response
  # bytes match the one-shot subscale_query CLI exactly — transport adds
  # nothing, a crash loses nothing.
  serve_tmp="$(mktemp -d)"
  serve_query=(--kind sweep --node 0 --points 3 --coarse-mesh)
  # serve_roundtrip VAR: query the daemon, retrying while it comes up
  # (a SIGKILLed daemon leaves a stale socket file behind, so waiting on
  # the path alone is not enough — wait for an actual answer).
  serve_roundtrip() {
    local -n out=$1
    for _ in $(seq 100); do
      if out="$("$build_dir/tools/subscale_query" "${serve_query[@]}" \
          --socket "$serve_tmp/sock" 2>/dev/null)"; then
        return 0
      fi
      sleep 0.1
    done
    echo "check.sh: serve daemon never answered" >&2
    return 1
  }
  "$build_dir/tools/subscale_serve" --socket "$serve_tmp/sock" \
      --cache-dir "$serve_tmp/cache" > "$serve_tmp/daemon1.log" &
  serve_pid=$!
  serve_roundtrip first
  kill -KILL "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  "$build_dir/tools/subscale_serve" --socket "$serve_tmp/sock" \
      --cache-dir "$serve_tmp/cache" > "$serve_tmp/daemon2.log" &
  serve_pid=$!
  serve_roundtrip second
  info="$("$build_dir/tools/subscale_query" --kind metrics \
      --socket "$serve_tmp/sock")"
  # Live telemetry export: the metrics query must answer from the daemon
  # in both wire formats, and the Prometheus rendering must carry the
  # serve-layer instruments.
  metrics_prom="$("$build_dir/tools/subscale_query" --kind metrics \
      --format prometheus --socket "$serve_tmp/sock")"
  if ! grep -q "subscale_serve_requests" <<< "$metrics_prom"; then
    echo "check.sh: daemon metrics export lacks serve instruments" >&2
    exit 1
  fi
  kill -TERM "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  if [[ "$first" != "$second" ]]; then
    echo "check.sh: serve restart answer differs from pre-kill answer" >&2
    exit 1
  fi
  if ! grep -Eq '"cache.hit": [1-9]' <<< "$info"; then
    echo "check.sh: restarted daemon did not answer from the cache" >&2
    exit 1
  fi
  # The daemon's bytes must equal the transport-free CLI dispatch on the
  # same warm cache (command substitution strips the trailing newline on
  # both sides, so this is a byte comparison of the JSON documents).
  oneshot="$("$build_dir/tools/subscale_query" "${serve_query[@]}" \
      --cache-dir "$serve_tmp/cache")"
  if [[ "$second" != "$oneshot" ]]; then
    echo "check.sh: daemon response differs from one-shot CLI dispatch" >&2
    exit 1
  fi
  echo "subscale_serve: kill/restart chaos smoke passed (warm, bitwise)"
  rm -rf "$serve_tmp"
fi
