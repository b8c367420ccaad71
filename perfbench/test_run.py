#!/usr/bin/env python3
"""Unit tests of the benchmark's own rules (no build needed):

    python3 perfbench/test_run.py
"""

import contextlib
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def fake_raw(seed, cells, mismatched=(), traced=False):
    raw = {
        "schema": "elfsim-perfbench-raw-v1", "base_seed": seed,
        "sweep_threads": 1, "traced": traced,
        "build": {"compiler": "GNU 12.2.0", "build_type": "RelWithDebInfo"},
        "setup_s": [0.5, 0.4, 0.6],
        "passes": [{"wall_s": 2.0 + 0.1 * k, "rerun_s": 0.0,
                    "cell_s": [0.1] * len(cells), "digest": "0"}
                   for k in range(3)],
        "cells": cells, "mismatched_cells": list(mismatched),
        "checks": {"passes_identical": True}, "peak_rss_kb": 20480,
    }
    return raw


@contextlib.contextmanager
def in_scratch_dir():
    """Run summarize() where its result documents land in a throwaway
    directory under .bench_build."""
    scratch = Path(".bench_build")
    scratch.mkdir(exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(here)


def fake_cell(name, cycles):
    return {"workload": name, "variant": "U-ELF", "ok": True, "error": "",
            "cycles": cycles, "insts": 1000, "ipc": 1000 / cycles,
            "covered_insts": 5000,
            "est_total_cycles": float(cycles)}


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(1))
        self.assertIsNone(run.tail_percentile(39))
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        for n in (40, 100, 1000, 10000, 123456):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n * (1000 - round(p * 10)), 10 * 1000)

    def test_summary_reports_median_tail_and_count(self):
        xs = [float(i) for i in range(1, 101)]
        s = run.summarize_timing(xs)
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertAlmostEqual(s["tail"], 90.1)
        small = run.summarize_timing([3.0, 1.0, 2.0])
        self.assertEqual(small, {"median": 2.0, "n": 3})

    def test_spread_is_iqr_over_median(self):
        self.assertEqual(run.iqr_spread([5.0] * 10), 0.0)
        self.assertGreater(run.iqr_spread([1.0, 2.0, 3.0, 4.0]), 0.0)


class MetricNames(unittest.TestCase):
    def test_validity(self):
        for ok in ("wall_s", "sim.ns_per_cycle", "a-b.c_d", "9lives"):
            self.assertTrue(run.valid_metric_name(ok), ok)
        for bad in ("", "_x", ".x", "has space", "a/b", "x" * 65, "ü"):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_benchmark_json_names_are_valid_and_unique(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        names = [m["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(run.valid_metric_name(n), n)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))
        self.assertLessEqual(setup[0]["bound"], 0.25)


class Digests(unittest.TestCase):
    def test_perturbed_digest_counts_the_cell_failed(self):
        cells = [fake_cell("a", 1000), fake_cell("b", 2000)]
        digest = [run.cell_digest(c) for c in cells]
        self.assertEqual(run.failed_cells(cells, [], digest), set())
        digest[1] = dict(digest[1], cycles=2001)
        self.assertEqual(run.failed_cells(cells, [], digest), {1})

    def test_cross_check_mismatch_and_error_count_failed(self):
        cells = [fake_cell("a", 1000), fake_cell("b", 2000)]
        self.assertEqual(run.failed_cells(cells, [0], None), {0})
        cells[1]["ok"] = False
        self.assertEqual(run.failed_cells(cells, [], None), {1})

    def test_seed0_run_against_perturbed_stored_digest_fails(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        cells = [fake_cell("a", 1000), fake_cell("b", 2000)]
        digest = [run.cell_digest(c) for c in cells]
        digest[0] = dict(digest[0], est_total_cycles=999.0)
        with in_scratch_dir(), \
                mock.patch.object(run, "load_digest", lambda w: digest):
            doc = run.summarize(bench, "detailed_mem", 0, 0,
                                fake_raw(0, cells), None)
        self.assertFalse(doc["correct"])
        self.assertFalse(doc["checks"]["digests_match"])
        self.assertEqual((doc["attempted"], doc["failed"]), (6, 3))

    def test_stored_digests_cover_every_workload(self):
        stored = json.loads(run.DIGESTS.read_text())
        self.assertEqual(sorted(stored), sorted(run.WORKLOADS))


class Compare(unittest.TestCase):
    def doc(self, cpu, wall, cycles):
        fp = {"cpu_model": cpu, "nproc": 4, "compiler": "GNU 12.2.0",
              "build_type": "RelWithDebInfo"}
        return {"workload": "detailed_mem", "trace": 0, "fingerprint": fp,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "sim_cycles": {"value": cycles,
                                           "unit": "cycles"}}}

    def test_refuses_absolute_times_across_fingerprints(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        rows = run.compare_docs(self.doc("cpu A", 1.0, 100),
                                self.doc("cpu B", 9.0, 100), bench)
        verdict = {r[0]: r[4] for r in rows}
        self.assertEqual(verdict, {"wall_s": "refused", "sim_cycles": "ok"})

    def test_same_host_applies_bounds(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        rows = run.compare_docs(self.doc("cpu A", 1.0, 100),
                                self.doc("cpu A", 9.0, 100), bench)
        self.assertEqual({r[0]: r[4] for r in rows},
                         {"wall_s": "worse", "sim_cycles": "ok"})


class Seed(unittest.TestCase):
    def test_seed_becomes_base_seed(self):
        for w in run.WORKLOADS:
            for seed in (0, 1, 987654321):
                spec = run.make_spec(w, seed)
                self.assertEqual(spec["base_seed"], seed)
                self.assertEqual(spec["schema"], "elfsim-sweepspec-v1")

    def test_seed_is_recorded_and_checked(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        cells = [fake_cell("a", 1000), fake_cell("b", 2000)]
        with in_scratch_dir():
            doc = run.summarize(bench, "detailed_mem", 42, 0,
                                fake_raw(42, cells), None)
            self.assertEqual(doc["seed"], 42)
            self.assertEqual(doc["spec_base_seed"], 42)
            self.assertTrue(doc["correct"])
            self.assertEqual(doc["attempted"], 6)
            self.assertEqual(set(doc["metrics"]),
                             {m["name"] for m in bench["end_to_end"]})
            with self.assertRaises(SystemExit):
                run.summarize(bench, "detailed_mem", 43, 0,
                              fake_raw(42, cells), None)
            bad = run.summarize(bench, "detailed_mem", 42, 0,
                                fake_raw(42, cells, mismatched=[1]), None)
            self.assertFalse(bad["correct"])
            self.assertEqual(bad["failed"], 3)

    def test_failed_document_check_fails_every_cell(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        cells = [fake_cell("a", 1000), fake_cell("b", 2000)]
        raw = fake_raw(7, cells)
        raw["checks"]["fleet_ran_every_cell"] = False
        with in_scratch_dir():
            doc = run.summarize(bench, "fleet_sweep", 7, 0, raw, None)
        self.assertFalse(doc["correct"])
        self.assertEqual(doc["failed"], doc["attempted"])

    def test_seconds_default_is_run_seconds(self):
        bench = json.loads(run.BENCHMARK_JSON.read_text())
        args = run.arg_parser().parse_args(["--workload", "fleet_sweep"])
        self.assertEqual(args.seconds, bench["run_seconds"])


if __name__ == "__main__":
    unittest.main()
