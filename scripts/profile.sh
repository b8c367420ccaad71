#!/usr/bin/env bash
# gprof flat profile of one benchmark workload, built from the working tree.
#
#   scripts/profile.sh WORKLOAD [SECONDS]     # e.g. detailed_mem 10
#
# Configures a `-pg` RelWithDebInfo build of perfbench/ (the benchmark
# program and the elfsim library from src/) in a fresh mktemp
# directory, writes WORKLOAD's sweep spec with perfbench/run.py's
# make_spec(WORKLOAD, 0), runs `elfsim_perfbench --trace 0` once for
# SECONDS (default 10) with run.py's set-up count for that workload,
# and prints the top 25 rows of the gprof flat profile and the total
# self seconds. The build directory is deleted on exit; nothing is
# written under perfbench/ or .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
workload=$1
seconds=${2:-10}

work=$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")
trap 'rm -rf "$work"' EXIT

# run.py's module-level code only defines tables and functions, so it
# imports cleanly; -B keeps Python from writing perfbench/__pycache__.
mode=$(python3 -B - "$workload" "$work/spec.json" <<'EOF'
import json, sys
sys.path.insert(0, "perfbench")
import run
workload, path = sys.argv[1], sys.argv[2]
if workload not in run.WORKLOADS:
    sys.exit("profile.sh: unknown workload %s (one of %s)"
             % (workload, ", ".join(sorted(run.WORKLOADS))))
with open(path, "w") as f:
    json.dump(run.make_spec(workload, 0), f, indent=2)
print(run.WORKLOADS[workload]["mode"], run.WORKLOADS[workload]["setup_reps"])
EOF
)
read -r mode setup_reps <<<"$mode"

jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
echo "profile: $workload ($mode), ${seconds}s, build in $work" >&2
cmake -S perfbench -B "$work/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >"$work/build.log" 2>&1
cmake --build "$work/build" -j "$jobs" >>"$work/build.log" 2>&1 ||
    { tail -n 40 "$work/build.log" >&2; exit 1; }

# gmon.out lands in the program's working directory.
mkdir "$work/run"
(cd "$work/run" &&
 env -u ELFSIM_JOBS TMPDIR="$work/run" "$work/build/elfsim_perfbench" \
     --mode "$mode" --spec "$work/spec.json" --seconds "$seconds" \
     --setup-reps "$setup_reps" --trace 0 --work "$work/run/scratch" \
     --out "$work/run/raw.json" >"$work/run.log" 2>&1) ||
    { tail -n 40 "$work/run.log" >&2; exit 1; }

gprof -b -p "$work/build/elfsim_perfbench" "$work/run/gmon.out" >"$work/flat.txt"
# Rows start at "  %   cumulative"; print the header and the top 25.
awk '/^  %  *cumulative/ {hdr=NR} hdr && NR >= hdr && NR <= hdr + 26' "$work/flat.txt"
awk 'hdr && NF >= 4 && $1 ~ /^[0-9.]+$/ {s += $3}
     /^  %  *cumulative/ {hdr=1; getline}
     END {printf "total self seconds: %.2f\n", s}' "$work/flat.txt"
