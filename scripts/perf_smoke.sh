#!/usr/bin/env bash
# Same-host perf gate: scripts/perf_ab.sh with 3 pairs over every
# BENCHMARK.json workload, HEAD against its merge base with main (or
# HEAD~1 when HEAD is on main). Exits non-zero on any REGRESSION
# verdict or failed run. Extra arguments go to perf_ab.sh and win
# over these defaults.
#
#   scripts/perf_smoke.sh
#   scripts/perf_smoke.sh --workloads detailed_mem --pairs 5
set -euo pipefail
cd "$(dirname "$0")/.."

base=$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD)
[ "$base" != "$(git rev-parse HEAD)" ] || base=HEAD~1
exec scripts/perf_ab.sh --base "$base" --head HEAD --pairs 3 "$@"
