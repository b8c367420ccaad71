#!/usr/bin/env python3
"""elfsim benchmark: four named workloads, end-to-end metrics per
workload, a traced run for per-layer numbers, and a steadiness report.

Run from the repository root:

    python3 perfbench/run.py --workload detailed_fetch --seed 1 --trace 0
    python3 perfbench/run.py --steadiness 10            # every workload
    python3 perfbench/run.py --compare A.json B.json    # result documents
    python3 perfbench/run.py --write-digests            # seed-0 digests

Each run builds the benchmark program elfsim_perfbench
(perfbench/CMakeLists.txt, incremental after the first time) under
.bench_build/perfbench, generates the workload's sweep spec from --seed
(it becomes the spec's base_seed), starts the program in a fresh
process, checks the simulated outputs, and prints one JSON object as
the last line of standard output. The full result
document, with the host fingerprint, goes to
.bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
DIGESTS = BENCH_DIR / "digests_seed0.json"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Percentiles considered for the tail of a timing, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

PROGRAM_TIMEOUT_S = 170
CATALOG_VARIANTS = ["NoDCF", "DCF", "L-ELF", "U-ELF"]


def _group(workloads, variants):
    return {"workloads": workloads,
            "configs": [{"variant": v} for v in variants]}


def _run(warmup, measure, period=0, length=0, sample_warmup=0):
    return {"warmup_insts": warmup, "measure_insts": measure,
            "interval_insts": 0, "sample_period_insts": period,
            "sample_length_insts": length,
            "sample_warmup_insts": sample_warmup}


# Each workload: sweep threads, set-ups before each pass (setup_s is the
# median of all but the one right after a pass; cheap set-ups repeat
# more), program mode, spec run options and groups. The detailed grids
# run on 2 sweep threads: on one thread, host speed swings of 25% within
# a run made wall_s spread 10-20% run to run; on two it was about 5%. The
# fleet's two workers have 1 thread each. Why each one is in the
# benchmark: BENCHMARK.json, README.md.
WORKLOADS = {
    "detailed_fetch": {
        "jobs": 2,
        "setup_reps": 5,
        "mode": "detailed",
        "run": _run(10000, 40000),
        "groups": [_group(
            [{"name": n} for n in
             ["641.leela", "458.sjeng", "445.gobmk", "401.bzip2",
              "620.omnetpp", "srv1.subtest_1", "srv1.subtest_3",
              "srv2.subtest_1"]],
            CATALOG_VARIANTS)],
    },
    "detailed_mem": {
        "jobs": 2,
        "setup_reps": 20,
        "mode": "detailed",
        "run": _run(10000, 40000),
        "groups": [_group(
            [{"name": n} for n in
             ["605.mcf", "srv2.subtest_3", "lbm_like", "437.leslie3d",
              "473.astar", "bwaves_like"]],
            ["DCF", "U-ELF"])],
    },
    "sampled_long": {
        "jobs": 1,
        "setup_reps": 3,
        "mode": "sampled",
        "run": _run(0, 100_000_000, period=5_000_000, length=5000,
                    sample_warmup=1000),
        "groups": [_group([{"name": "srv1.subtest_1"}], ["U-ELF"])],
    },
    "fleet_sweep": {
        "jobs": 1,
        "setup_reps": 10,
        "mode": "fleet",
        "run": _run(5000, 20000),
        "groups": [_group([{"set": "catalog", "stride": 1}],
                          CATALOG_VARIANTS)],
    },
}


# ----------------------------------------------------------------- spec

def make_spec(workload, seed):
    """The elfsim-sweepspec-v1 document for @workload; @seed is the
    spec's base_seed (SweepRunner::setBaseSeed, per-cell rngSeed)."""
    w = WORKLOADS[workload]
    return {
        "schema": "elfsim-sweepspec-v1",
        "name": "perfbench-" + workload,
        "jobs": w["jobs"],
        "base_seed": int(seed),
        "run": dict(w["run"]),
        "policy": {"keep_going": True, "deadline_seconds": 0,
                   "stall_seconds": 0, "max_retries": 0,
                   "manifest_path": "", "resume": False},
        "groups": [dict(g) for g in w["groups"]],
    }


# ------------------------------------------------------------ statistics

def tail_percentile(n):
    """Highest percentile of the ladder with at least TAIL_MIN_BEYOND of
    @n samples beyond it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        # In tenths of a percent, so 99.9 of 10000 is exactly 10 beyond.
        if n * (1000 - round(p * 10)) >= TAIL_MIN_BEYOND * 1000:
            return p
    return None


def percentile(values, p):
    """Linear-interpolated percentile (0..100) of @values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize_timing(values):
    """Median, the tail percentile with >= 10 samples beyond it (if any)
    and the sample count: the reporting rule for every timing."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    p = tail_percentile(n)
    if p is not None:
        out["tail_pct"] = p
        out["tail"] = percentile(values, p)
    return out


def geomean(xs):
    xs = [x for x in xs if x > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def iqr_spread(values):
    """Interquartile distance as a share of the median (the bound test)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


# ----------------------------------------------------------- correctness

def cell_digest(cell):
    return {"workload": cell["workload"], "variant": cell["variant"],
            "cycles": cell["cycles"], "insts": cell["insts"],
            "est_total_cycles": cell["est_total_cycles"]}


def failed_cells(cells, mismatched, digest):
    """Indices of cells that failed, did not match a cross-check, or (when
    @digest is given) differ from their stored seed-0 digest."""
    bad = set(mismatched)
    for i, c in enumerate(cells):
        if not c["ok"]:
            bad.add(i)
    if digest is not None:
        if len(digest) != len(cells):
            bad.update(range(len(cells)))
        for i, (c, d) in enumerate(zip(cells, digest)):
            if cell_digest(c) != d:
                bad.add(i)
    return bad


def load_digest(workload):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


# ------------------------------------------------------------- metrics

def end_to_end(raw):
    """End-to-end metrics of an untraced raw document, plus the timing
    summaries behind them."""
    passes = raw["passes"]
    cells = raw["cells"]
    n_cells = len(cells)
    covered = sum(c["covered_insts"] for c in cells)
    est_cycles = sum(c["est_total_cycles"] for c in cells)
    walls = [p["wall_s"] for p in passes]
    # Empty only when no cell ran where it was timed (a fleet that ran
    # nothing); the run's checks then fail.
    cell_s = [x for p in passes for x in p["cell_s"]] or [0.0]
    metrics = {
        "mips": (statistics.median([covered / w / 1e6 for w in walls]),
                 "MIPS"),
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "cells_per_s": (statistics.median([n_cells / w for w in walls]),
                        "1/s"),
        "cell_p50_s": (statistics.median(cell_s), "s"),
        "ns_per_sim_cycle": (
            statistics.median([w * 1e9 / est_cycles for w in walls]),
            "ns"),
        "sim_cycles": (sum(c["cycles"] for c in cells), "cycles"),
        "ipc_geomean": (geomean([c["ipc"] for c in cells]), "IPC"),
    }
    timings = {"wall_s": summarize_timing(walls),
               "setup_s": summarize_timing(raw["setup_s"]),
               "cell_s": summarize_timing(cell_s)}
    reruns = [p["rerun_s"] for p in passes if p["rerun_s"] > 0]
    if reruns:
        timings["rerun_s"] = summarize_timing(reruns)
    return metrics, timings


# -------------------------------------------------------------- host

def fingerprint(raw):
    """Host and build identity: absolute times compare only when equal."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    rev = "none"
    if Path(".git").exists():  # never ask a repository above this one
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                rev = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted(Path("src").rglob("*")):
        if p.is_file():
            h.update(str(p).encode())
            h.update(p.read_bytes())
    return {"cpu_model": cpu, "nproc": nproc,
            "compiler": raw["build"]["compiler"],
            "build_type": raw["build"]["build_type"],
            "git_revision": rev, "source_sha256": h.hexdigest()[:16]}


def host_key(fp):
    """Fields that must match before absolute times may be compared."""
    return (fp["cpu_model"], fp["nproc"], fp["compiler"], fp["build_type"])


# ------------------------------------------------------------- build

def out_root():
    return Path(".bench_build") / "perfbench"


def build_program(env):
    """Configure (once) and build elfsim_perfbench; returns its path."""
    build = out_root() / "build"
    build.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    if not (build / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build), "-j", jobs],
                   check=True, stdout=log, stderr=log, env=env)
    return build / "elfsim_perfbench"


def clean_env():
    """The environment of elfsim_perfbench: no inherited ELFSIM_* knobs (fault
    injection, cache directories, thread counts), temp files inside the
    checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ELFSIM_")}
    tmp = (out_root() / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


# ---------------------------------------------------------------- run

def run_once(workload, seed, seconds, trace, use_digest=True):
    """Build, run elfsim_perfbench once, check and summarize. Returns the
    result document (the last stdout line is derived from it). Without
    @use_digest the stored seed-0 digests are not consulted."""
    if not Path("src/CMakeLists.txt").is_file():
        raise SystemExit("perfbench: run from the root of an elfsim "
                         "checkout (src/CMakeLists.txt not found)")
    bench = json.loads(BENCHMARK_JSON.read_text())
    env = clean_env()
    program = build_program(env)

    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    work = out_root() / "runs" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(make_spec(workload, seed), indent=2))
    raw_path = work / "raw.json"
    trace_path = work / "trace.json"
    cmd = [str(program), "--mode", WORKLOADS[workload]["mode"],
           "--spec", str(spec_path), "--seconds", str(seconds),
           "--setup-reps", str(WORKLOADS[workload]["setup_reps"]), "--trace", str(trace),
           "--work", str(work / "scratch"), "--out", str(raw_path)]
    if trace:
        cmd += ["--trace-file", str(trace_path)]
    subprocess.run(cmd, check=True, env=env, timeout=PROGRAM_TIMEOUT_S,
                   stdout=sys.stderr)
    raw = json.loads(raw_path.read_text())
    shutil.rmtree(work / "scratch", ignore_errors=True)
    return summarize(bench, workload, seed, trace, raw,
                     trace_path if trace else None, use_digest)


def summarize(bench, workload, seed, trace, raw, trace_path,
              use_digest=True):
    """Correctness verdict and metrics of one raw elfsim_perfbench
    document."""
    if raw["base_seed"] != seed:
        raise SystemExit("perfbench: seed did not reach the spec")
    cells = raw["cells"]
    digest = load_digest(workload) if seed == 0 and use_digest else None
    bad = failed_cells(cells, raw["mismatched_cells"], digest)
    checks = dict(raw["checks"])
    if digest is not None:
        checks["digests_match"] = not any(
            cell_digest(c) != d for c, d in zip(cells, digest)) and \
            len(digest) == len(cells)
    if not all(checks.values()) and not bad:
        bad = set(range(len(cells)))  # a document-level mismatch
    runs = len(raw["passes"])
    attempted = len(cells) * runs
    failed = len(bad) * runs

    doc = {"schema": "elfsim-perfbench-result-v1", "workload": workload,
           "seed": seed, "trace": trace, "fingerprint": fingerprint(raw),
           "spec_base_seed": raw["base_seed"],
           "sweep_threads": raw["sweep_threads"],
           "attempted": attempted, "failed": failed,
           "failed_frac": failed / attempted, "checks": checks,
           "passes": runs}
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layers = raw["layers"]
        missing = [n for n in names if n not in layers]
        if missing:
            raise SystemExit("perfbench: elfsim_perfbench lacks layers %s" % missing)
        doc["metrics"] = {n: {"value": layers[n], "unit": units[n]}
                          for n in names}
        doc["layers_extra"] = {k: v for k, v in layers.items()
                               if k not in units}
        doc["trace_file"] = str(trace_path)
        doc["trace_events"] = raw["trace_events"]
    else:
        metrics, timings = end_to_end(raw)
        names = [m["name"] for m in bench["end_to_end"]]
        missing = [n for n in names if n not in metrics]
        if missing:
            raise SystemExit("perfbench: no value for %s" % missing)
        doc["metrics"] = {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                          for n in names}
        doc["timings"] = timings
    for n in doc["metrics"]:
        if not valid_metric_name(n):
            raise SystemExit("perfbench: invalid metric name %r" % n)
    doc["correct"] = failed == 0 and all(checks.values())
    doc["cells"] = [cell_digest(c) for c in cells]
    results = out_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(doc, indent=2) + "\n")
    doc["document"] = str(path)
    return doc


def print_report(doc):
    """Human-readable lines (every timing with median, tail and count)."""
    fp = doc["fingerprint"]
    print("perfbench %s seed=%d trace=%d  host: %s x%d, %s %s" % (
        doc["workload"], doc["seed"], doc["trace"], fp["cpu_model"],
        fp["nproc"], fp["compiler"], fp["build_type"]))
    print("  attempted=%d failed=%d failed_frac=%.4f checks=%s" % (
        doc["attempted"], doc["failed"], doc["failed_frac"],
        ",".join("%s:%s" % kv for kv in sorted(doc["checks"].items()))))
    for name, t in sorted(doc.get("timings", {}).items()):
        tail = (" p%g=%.6g" % (t["tail_pct"], t["tail"])
                if "tail_pct" in t else " (no tail: n<20)")
        print("  timing %-10s median=%.6g%s n=%d" % (
            name, t["median"], tail, t["n"]))
    for name, m in doc["metrics"].items():
        print("  %-28s %.6g %s" % (name, m["value"], m["unit"]))
    print("  document: %s" % doc["document"])


def final_line(doc):
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": doc["metrics"]})


# --------------------------------------------------------- steadiness

def steadiness(workloads, n, seconds, seed_base):
    """Run each workload @n times (fresh process, distinct seeds) and
    print each end-to-end metric's median and interquartile spread next
    to its bound."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        run_s = []
        for k in range(n):
            seed = seed_base + k
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True)
            run_s.append(time.monotonic() - t0)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                raise SystemExit("perfbench: %s seed %d failed" % (w, seed))
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                raise SystemExit("perfbench: %s seed %d incorrect" % (w, seed))
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
            print("  %s seed %d: wall_s=%.4f setup_s=%.4f run %.1f s" % (
                w, seed, last["metrics"]["wall_s"]["value"],
                last["metrics"]["setup_s"]["value"], run_s[-1]), flush=True)
        report[w] = {"run_s": run_s}
        print("%s (%d runs, %.1f s each on average)" % (
            w, n, statistics.mean(run_s)))
        for name, bound in bounds.items():
            spread = iqr_spread(values[name])
            verdict = ("steady" if spread < bound / 3 else
                       "within" if spread <= bound else "NOISY")
            report[w][name] = {"median": statistics.median(values[name]),
                               "iqr_spread": spread, "bound": bound,
                               "values": values[name]}
            print("  %-18s median=%-14.6g spread=%6.2f%%  bound=%5.1f%%  %s"
                  % (name, statistics.median(values[name]), 100 * spread,
                     100 * bound, verdict))
    path = out_root() / "steadiness.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print("report: %s" % path)


# ------------------------------------------------------------ compare

# Units of absolute host-time metrics (times and rates derived from them).
TIME_UNITS = {"s", "ms", "ns", "1/s", "MIPS"}


def compare_docs(a, b, bench):
    """Rows (name, old, new, relative change, verdict) comparing result
    documents @a and @b against the bounds in @bench. The verdict is
    "ok", "worse" (beyond the bound) or "refused": absolute host-time
    metrics are never compared across host fingerprints."""
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        raise SystemExit("perfbench: documents are of different runs")
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    same_host = host_key(a["fingerprint"]) == host_key(b["fingerprint"])
    rows = []
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / abs(va) if va else 0.0
        if ma["unit"] in TIME_UNITS and not same_host:
            rows.append((name, va, vb, change, "refused"))
            continue
        m = spec.get(name, {})
        bound = m.get("bound", float("inf"))
        worse = (m.get("better") == "lower" and change > bound or
                 m.get("better") == "higher" and -change > bound)
        rows.append((name, va, vb, change, "worse" if worse else "ok"))
    return rows


def compare(path_a, path_b):
    """Print compare_docs of two result documents; exit 1 if any metric
    is worse than its bound."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bench = json.loads(BENCHMARK_JSON.read_text())
    if host_key(a["fingerprint"]) != host_key(b["fingerprint"]):
        print("fingerprints differ: %s vs %s; absolute times not compared"
              % (host_key(a["fingerprint"]), host_key(b["fingerprint"])))
    rows = compare_docs(a, b, bench)
    for name, va, vb, change, verdict in rows:
        if verdict == "refused":
            print("  %-28s refused (cross-host time)" % name)
        else:
            print("  %-28s %.6g -> %.6g (%+.2f%%)%s" % (
                name, va, vb, 100 * change,
                "  WORSE than bound" if verdict == "worse" else ""))
    return 1 if any(r[4] == "worse" for r in rows) else 0


# ------------------------------------------------------------ digests

def write_digests():
    """Regenerate the stored seed-0 per-cell digests. Each workload runs
    in two processes; both must pass every other check and give the
    same cells."""
    out = {}
    for w in WORKLOADS:
        docs = [run_once(w, 0, 0.001, 0, use_digest=False)
                for _ in range(2)]
        if not all(d["correct"] for d in docs):
            raise SystemExit("perfbench: %s failed a check" % w)
        if docs[0]["cells"] != docs[1]["cells"]:
            raise SystemExit("perfbench: %s is not deterministic" % w)
        out[w] = docs[0]["cells"]
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % DIGESTS)


def arg_parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=json.loads(BENCHMARK_JSON.read_text())
                    ["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar="DOC")
    ap.add_argument("--write-digests", action="store_true")
    return ap


def main(argv=None):
    ap = arg_parser()
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.write_digests:
        write_digests()
        return 0
    if args.steadiness:
        steadiness([args.workload] if args.workload else list(WORKLOADS),
                   args.steadiness, args.seconds, args.seed_base)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    doc = run_once(args.workload, args.seed, args.seconds, args.trace)
    print_report(doc)
    print(final_line(doc))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        sys.stderr.write("perfbench: %s exited %s\n" % (e.cmd[0], e.returncode))
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: %s timed out\n" % e.cmd[0])
        sys.exit(1)
