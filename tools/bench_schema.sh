#!/usr/bin/env bash
# Validate the telemetry block of BENCH_<name>.json records against the
# canonical metric schema (src/obs/names.h). Fails when:
#   * a record has no "obs" block at all (telemetry was not wired in),
#   * a required headline metric key is missing, or
#   * the block contains a key outside the schema — a metric is declared
#     ONCE, as an X(...) row in src/obs/names.h; this script derives its
#     whitelist from that table, so adding a metric never touches it.
#
#   ./tools/bench_schema.sh BENCH_tcad_validation.json [more.json ...]
#   ./tools/bench_schema.sh            # validates ./BENCH_*.json
set -euo pipefail

# The whitelist, derived from the SUBSCALE_OBS_SCHEMA X-macro rows
# (one per line by contract — see the names.h file comment). Histogram
# rows expand to the ".count"/".sum" pair write_metrics_snapshot()
# flattens them into.
names_h="$(dirname "$0")/../src/obs/names.h"
if [[ ! -f "$names_h" ]]; then
  echo "bench_schema: schema table not found: $names_h" >&2
  exit 1
fi
allowed_keys="$(awk '
  /^ *X\(k/ {
    if (match($0, /"[^"]+"/)) {
      name = substr($0, RSTART + 1, RLENGTH - 2)
      if ($0 ~ /kLatencyHistogram|kIterationHistogram/) {
        print name ".count"
        print name ".sum"
      } else {
        print name
      }
    }
  }' "$names_h")"
if [[ -z "$allowed_keys" ]]; then
  echo "bench_schema: no X(...) schema rows parsed from $names_h" >&2
  exit 1
fi

# Every bench must carry at least these (the cross-PR trajectory keys).
required_keys="
tcad.gummel.outer_iterations
tcad.gummel.retries
tcad.poisson.newton_iterations
exec.pool.utilization_pct
"

files=("$@")
if [[ ${#files[@]} -eq 0 ]]; then
  shopt -s nullglob
  files=(BENCH_*.json)
  shopt -u nullglob
  if [[ ${#files[@]} -eq 0 ]]; then
    echo "bench_schema: no BENCH_*.json files found" >&2
    exit 1
  fi
fi

status=0
for f in "${files[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "bench_schema: $f: no such file" >&2
    status=1
    continue
  fi
  if ! grep -q '"obs"' "$f"; then
    echo "bench_schema: $f: missing \"obs\" metrics block" >&2
    status=1
    continue
  fi
  # The obs block is flat: extract its keys (everything between the
  # "obs" opener and the next closing brace).
  keys="$(awk '
    /"obs": \{/ { in_obs = 1; next }
    in_obs && /\}/ { in_obs = 0 }
    in_obs {
      if (match($0, /"[^"]+"/)) {
        print substr($0, RSTART + 1, RLENGTH - 2)
      }
    }' "$f")"
  if [[ -z "$keys" ]]; then
    echo "bench_schema: $f: empty \"obs\" block" >&2
    status=1
    continue
  fi
  while IFS= read -r key; do
    if ! grep -qxF "$key" <<< "$allowed_keys"; then
      echo "bench_schema: $f: unknown metric key \"$key\" (declare it" \
           "as an X(...) row in src/obs/names.h)" >&2
      status=1
    fi
  done <<< "$keys"
  while IFS= read -r key; do
    [[ -z "$key" ]] && continue
    if ! grep -qxF "$key" <<< "$keys"; then
      echo "bench_schema: $f: required metric key \"$key\" missing" >&2
      status=1
    fi
  done <<< "$required_keys"
done

if [[ $status -eq 0 ]]; then
  echo "bench_schema: ${#files[@]} record(s) OK"
fi
exit $status
