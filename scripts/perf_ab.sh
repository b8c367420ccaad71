#!/usr/bin/env bash
# A/B the repository benchmark between two revisions on this host.
#
#   scripts/perf_ab.sh                          # HEAD~1 vs HEAD, all workloads, 10 pairs
#   scripts/perf_ab.sh --base REV --head REV --workloads detailed_mem,fleet_sweep \
#                      --pairs 10 --seed-base 101
#
# Extracts `git archive`s of both revisions into a temporary directory
# and runs `python3 perfbench/run.py --workload W --seed S` in each
# checkout, one pair per seed (seeds seed-base .. seed-base+pairs-1),
# alternating which side runs first. Each checkout builds its own
# benchmark program once, before any timed run. For every workload and
# every end-to-end metric in BENCHMARK.json it prints both sides'
# median and quartiles, the base's interquartile distance, how much
# better the head's median is than the base's (relative, negative when
# worse) next to the metric's `bound`, how many pairs the head won (ties count for neither side), and a verdict:
#
#   GAIN         the head wins at least 9/10 of the pairs and its median
#                beats the base's by more than the base's interquartile
#                distance (a claimable gain);
#   REGRESSION   the head's median is worse than the base's by more than
#                the bound;
#   unresolved   the base's interquartile distance is wider than the
#                bound, so a change within the bound cannot be told from
#                noise, and not every head run beats every base run;
#   within bound otherwise; `identical` when every pair matches exactly.
#
# Exit status: 0 when no metric is a REGRESSION and every run was
# correct; 1 on any REGRESSION verdict or any failed, incorrect or
# missing run; 2 on bad arguments (--pairs below 1, a workload not in
# BENCHMARK.json, an unknown revision), before anything is built.
#
# The checkouts are deleted on exit; the raw result lines (runs.tsv)
# and the build/run logs stay in the printed mktemp directory, which is
# yours to delete.
#
# To measure uncommitted changes, stage them and pass
# `--head "$(git stash create)"`.
set -euo pipefail
cd "$(dirname "$0")/.."

base=HEAD~1
head=HEAD
workloads=""
pairs=10
seed_base=1
usage() { echo "perf_ab.sh: $*" >&2; exit 2; }
while [ $# -gt 0 ]; do
    case "$1" in
      --base|--head|--workloads|--pairs|--seed-base)
        [ $# -ge 2 ] || usage "$1 needs a value" ;;
    esac
    case "$1" in
      --base) base=$2; shift 2 ;;
      --head) head=$2; shift 2 ;;
      --workloads) workloads=$2; shift 2 ;;
      --pairs) pairs=$2; shift 2 ;;
      --seed-base) seed_base=$2; shift 2 ;;
      -h|--help) sed -n '2,38p' "$0"; exit 0 ;;
      *) usage "unknown argument $1" ;;
    esac
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage "--pairs must be at least 1, got '$pairs'"
[[ $seed_base =~ ^[0-9]+$ ]] || usage "--seed-base must be a number, got '$seed_base'"
known=$(python3 -c \
    'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
[ -n "$workloads" ] || workloads=$known
IFS=, read -r -a wl <<<"$workloads"
for w in "${wl[@]}"; do
    [[ ,$known, == *",$w,"* ]] || usage "unknown workload '$w' (BENCHMARK.json has $known)"
done
base_rev=$(git rev-parse -q --verify "$base^{commit}") || usage "unknown revision '$base'"
head_rev=$(git rev-parse -q --verify "$head^{commit}") || usage "unknown revision '$head'"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$workdir/base" "$workdir/head"' EXIT
for side in base head; do
    rev=${side}_rev
    mkdir "$workdir/$side"
    git archive "${!rev}" | tar -x -C "$workdir/$side"
done

echo "perf_ab: base $base_rev, head $head_rev"
echo "perf_ab: host $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //'), nproc $(nproc)"
echo "perf_ab: workloads $workloads, $pairs pairs, seeds $seed_base..$((seed_base + pairs - 1))"
echo "perf_ab: work directory $workdir"

# One run: last stdout line of run.py, tagged with side/workload/seed.
run_side() {
    local side=$1 w=$2 seed=$3 line
    line=$(cd "$workdir/$side" && python3 perfbench/run.py --workload "$w" \
           --seed "$seed" 2>>"$workdir/$side.log" | tail -n 1)
    printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$seed" "$line" >>"$workdir/runs.tsv"
}

: >"$workdir/runs.tsv"
# Build both benchmark programs before anything is timed.
for side in base head; do
    (cd "$workdir/$side" && python3 perfbench/run.py --workload "${wl[0]}" \
         --seed "$seed_base" --seconds 1 >/dev/null 2>>"$workdir/$side.log")
done
for w in "${wl[@]}"; do
    for ((i = 0; i < pairs; ++i)); do
        seed=$((seed_base + i))
        if ((i % 2 == 0)); then
            run_side base "$w" "$seed"; run_side head "$w" "$seed"
        else
            run_side head "$w" "$seed"; run_side base "$w" "$seed"
        fi
        echo "perf_ab: $w pair $((i + 1))/$pairs done" >&2
    done
done

python3 - "$workdir/runs.tsv" <<'EOF'
import json
import math
import statistics
import sys

bench = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
runs = {}
bad = []
regressions = 0
for row in open(sys.argv[1]):
    side, w, seed, line = row.rstrip("\n").split("\t", 3)
    try:
        doc = json.loads(line)
    except ValueError:
        bad.append((side, w, seed, "no result line"))
        continue
    if not doc.get("correct") or doc.get("failed"):
        bad.append((side, w, seed, "correct=%s failed=%s" %
                    (doc.get("correct"), doc.get("failed"))))
    runs.setdefault((w, int(seed)), {})[side] = doc["metrics"]


def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, ref):
    # delta / |ref|, signed so that > 0 is better; a zero reference
    # makes any difference infinitely large.
    if ref:
        return delta / abs(ref)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


print("%-15s %-17s %25s %25s %10s %16s %6s  %s" %
      ("workload", "metric", "base q1/med/q3", "head q1/med/q3",
       "base IQR", "better (bound)", "wins", "verdict"))
for w in dict.fromkeys(k[0] for k in runs):
    seeds = sorted(s for (ww, s) in runs if ww == w)
    pairs = [runs[(w, s)] for s in seeds
             if "base" in runs[(w, s)] and "head" in runs[(w, s)]]
    for m, (direction, bound) in metrics.items():
        if not pairs or m not in pairs[0]["base"]:
            continue
        b = [p["base"][m]["value"] for p in pairs]
        h = [p["head"][m]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        bq, hq = quart(b), quart(h)
        iqr = bq[2] - bq[0]
        gap = sign * (hq[1] - bq[1])
        change = relative(gap, bq[1])
        spread = relative(iqr, bq[1])
        separated = all(sign * (y - x) > 0 for x in b for y in h)
        if b == h:
            verdict = "identical"
        elif wins * 10 >= 9 * len(pairs) and gap > iqr:
            # The factor reads > 1 for a gain in either direction.
            num, den = (hq[1], bq[1]) if sign > 0 else (bq[1], hq[1])
            verdict = "GAIN (%.2fx)" % (num / den if den else math.inf)
        elif change < -bound:
            verdict = "REGRESSION (beyond bound)"
            regressions += 1
        elif spread > bound and not separated:
            verdict = "unresolved (base IQR %.0f%% > bound)" % (100 * spread)
        else:
            verdict = "within bound"
        print("%-15s %-17s %25s %25s %10.4g %16s %3d/%-2d  %s" %
              (w, m, "%.4g/%.4g/%.4g" % bq, "%.4g/%.4g/%.4g" % hq, iqr,
               "%+.1f%% (%.0f%%)" % (100 * change, 100 * bound),
               wins, len(pairs), verdict))
for side, w, seed, why in bad:
    print("perf_ab: %s %s seed %s: %s" % (side, w, seed, why))
if regressions:
    print("perf_ab: %d REGRESSION verdict(s)" % regressions)
sys.exit(1 if bad or regressions else 0)
EOF
