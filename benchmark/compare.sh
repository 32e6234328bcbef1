#!/usr/bin/env bash
# Compare two result sets written by run.sh --sets N:
#   bash benchmark/compare.sh A.json B.json
# Prints both sets' median and IQR per workload and metric; exits 1 when
# an end-to-end metric's medians differ by more than its bound in
# BENCHMARK.json or its IQR is wider than the bound ("unresolved").
set -euo pipefail
if [[ $# -ne 2 ]]; then
  echo "usage: bash benchmark/compare.sh A.json B.json" >&2
  exit 2
fi
exec python3 "$(dirname "${BASH_SOURCE[0]}")/results.py" compare "$1" "$2"
