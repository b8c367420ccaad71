#!/usr/bin/env bash
# Build, test, and regenerate every experiment.
#
#   scripts/run_all.sh                  # full experiment windows
#   scripts/run_all.sh --quick          # quarter-size windows (smoke)
#   scripts/run_all.sh --jobs 8         # sweep threads per bench
#   scripts/run_all.sh --dist-smoke     # also shard one grid across a
#                                       # 2-worker fleet and byte-diff
#                                       # the merge vs a local run
#   scripts/run_all.sh --chaos-smoke    # also run one seeded
#                                       # fault-injection sweep against
#                                       # a spawned fleet
#                                       # (scripts/chaos_soak.sh)
#
# Sweep thread count: --jobs N beats $ELFSIM_JOBS beats nproc.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${ELFSIM_JOBS:-$(nproc 2>/dev/null || echo 1)}"
DIST_SMOKE=0
CHAOS_SMOKE=0
EXTRA=()
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)
            JOBS="$2"
            shift 2
            ;;
        --dist-smoke)
            DIST_SMOKE=1
            shift
            ;;
        --chaos-smoke)
            CHAOS_SMOKE=1
            shift
            ;;
        *)
            EXTRA+=("$1")
            shift
            ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Sweep benches drop a machine-readable artifact per figure here.
RESULTS=build/results
mkdir -p "$RESULTS"

# One shared compiled-trace cache for the whole campaign: the first
# bench touching a workload compiles and saves its trace, every later
# bench maps the artifact (content-keyed, so stale files just miss).
# The cache lives under a subdirectory named after the artifact format
# version (elfsim-trace-v2), so artifacts written by a checkout with a
# different format can never be picked up here — keep the path in sync
# with the magic string when bumping the format.
TRACE_CACHE=build/trace-cache/elfsim-trace-v2
mkdir -p "$TRACE_CACHE"

# A bench killed mid-export leaves a truncated JSON behind; never let
# such a partial artifact masquerade as results.
CURRENT_ARTIFACT=""
remove_partial() {
    if [ -n "$CURRENT_ARTIFACT" ] && [ -f "$CURRENT_ARTIFACT" ]; then
        echo "removing partial artifact $CURRENT_ARTIFACT" >&2
        rm -f "$CURRENT_ARTIFACT"
    fi
    CURRENT_ARTIFACT=""
}
trap 'remove_partial; echo "interrupted" >&2; exit 130' INT TERM

ARTIFACTS=()
SPECS=()
FAILED=()
for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    name="$(basename "$b")"
    echo "######## $b"
    status=0
    case "$name" in
        bench_micro_components)
            # google-benchmark binary: rejects unknown flags.
            "$b" || status=$?
            ;;
        elfsimd)
            # Long-running daemon, not a batch experiment — it would
            # block the campaign. test_service covers it in-process.
            echo "skipping daemon binary (see test_service)"
            ;;
        elfsim_coord)
            # Distributed coordinator: needs a spec and a fleet, not a
            # batch experiment. The opt-in --dist-smoke step below (and
            # test_dist) exercise it.
            echo "skipping coordinator binary (see --dist-smoke)"
            ;;
        bench_fig2_timing|bench_table1_workloads|bench_table2_config)
            # Characterization tables: no RunResults to export.
            "$b" --jobs "$JOBS" --trace-cache "$TRACE_CACHE" \
                 ${EXTRA[@]+"${EXTRA[@]}"} || status=$?
            ;;
        *)
            # --dump-spec archives the exact declarative grid next to
            # the results: the pair re-runs bit-identically later via
            # `--spec FILE` or a `POST /sweep` to elfsimd.
            CURRENT_ARTIFACT="$RESULTS/$name.json"
            "$b" --jobs "$JOBS" --json "$RESULTS/$name.json" \
                 --dump-spec "$RESULTS/$name.spec.json" \
                 --trace-cache "$TRACE_CACHE" \
                 ${EXTRA[@]+"${EXTRA[@]}"} || status=$?
            if [ "$status" -eq 0 ]; then
                ARTIFACTS+=("$RESULTS/$name.json")
                SPECS+=("$RESULTS/$name.spec.json")
            fi
            CURRENT_ARTIFACT=""
            ;;
    esac
    if [ "$status" -ne 0 ]; then
        # Exit 3 means the sweep completed but marked cells failed:
        # the artifact is a valid v2 document with the holes recorded,
        # so keep it for inspection. Anything else is a crash or an
        # export error, and its artifact (if any) is a stale partial.
        if [ "$status" -ne 3 ]; then
            remove_partial
        fi
        CURRENT_ARTIFACT=""
        FAILED+=("$name (exit $status)")
        echo "FAILED: $name (exit $status)" >&2
    fi
done

# Perf gate: a same-host A/B of HEAD against its merge base over
# every BENCHMARK.json workload; any REGRESSION verdict fails it.
echo "######## perf smoke"
scripts/perf_smoke.sh || FAILED+=("perf smoke")

if [ ${#ARTIFACTS[@]} -gt 0 ]; then
    echo "######## schema check"
    python3 scripts/check_results.py "${ARTIFACTS[@]}" \
        || FAILED+=("schema check")
fi
if [ ${#SPECS[@]} -gt 0 ]; then
    echo "######## sweepspec check"
    python3 scripts/check_results.py --spec "${SPECS[@]}" \
        || FAILED+=("sweepspec check")
fi

# Opt-in distributed smoke: shard one archived grid across a spawned
# 2-worker fleet and require the merged document to be byte-identical
# to a single-process run of the same spec. Any scheduling difference
# leaking into the output bytes fails the cmp.
if [ "$DIST_SMOKE" -eq 1 ]; then
    echo "######## distributed smoke (coordinator + 2 local workers)"
    if [ ${#SPECS[@]} -eq 0 ]; then
        FAILED+=("dist smoke (no archived spec to run)")
    else
        SPEC="${SPECS[0]}"
        LEDGER="$RESULTS/dist_smoke.ledger.jsonl"
        rm -f "$LEDGER"
        status=0
        build/bench/elfsim_coord --spec "$SPEC" --local \
            --jobs "$JOBS" --trace-cache "$TRACE_CACHE" \
            --json "$RESULTS/dist_smoke.local.json" || status=$?
        [ "$status" -eq 0 ] || FAILED+=("dist smoke local (exit $status)")
        status=0
        build/bench/elfsim_coord --spec "$SPEC" --spawn 2 \
            --worker-jobs "$JOBS" --trace-cache "$TRACE_CACHE" \
            --ledger "$LEDGER" \
            --json "$RESULTS/dist_smoke.fleet.json" || status=$?
        [ "$status" -eq 0 ] || FAILED+=("dist smoke fleet (exit $status)")
        if [ "$status" -eq 0 ]; then
            cmp "$RESULTS/dist_smoke.local.json" \
                "$RESULTS/dist_smoke.fleet.json" \
                || FAILED+=("dist smoke (merged bytes differ)")
            python3 scripts/check_results.py --ledger "$LEDGER" \
                || FAILED+=("dist smoke (ledger check)")
        fi
    fi
fi

# Opt-in chaos smoke: one seeded round per fault class (plus the
# quarantine / hedge / fleet-loss scenarios) against a spawned
# 2-worker fleet; every merged document must be byte-identical to a
# local run. scripts/chaos_soak.sh alone runs the longer soak.
if [ "$CHAOS_SMOKE" -eq 1 ]; then
    echo "######## chaos smoke (seeded fault injection)"
    scripts/chaos_soak.sh --rounds 1 --out "$RESULTS/chaos-soak" \
        || FAILED+=("chaos smoke")
fi

if [ ${#FAILED[@]} -gt 0 ]; then
    echo "######## ${#FAILED[@]} step(s) failed:" >&2
    printf '  %s\n' "${FAILED[@]}" >&2
    exit 1
fi
