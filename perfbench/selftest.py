"""Self-test of the benchmark, on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced through the real
command line and checks that every metric ``BENCHMARK.json`` names is
emitted with its unit; that the traced per-layer self times plus the
unattributed residue add up to the traced wall time; and that a
corrupted reference digest makes the run count failed cases.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread limits before numpy loads)

run.import_program()

import workloads  # noqa: E402
from metrics import per_layer_units, traced_pass_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_cli(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--tiny", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


def tiny(name: str):
    workload = workloads.WORKLOADS[name](0, True, run.OUT / "selftest")
    workload.setup()
    return workload


class TestEmittedNames(unittest.TestCase):
    def check_names(self, trace: int, spec_key: str) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                result = run_cli(name, trace)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_names_and_units(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check_names(1, "per_layer")

    def test_workload_names(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOAD_NAMES))


class TestTraceAccounting(unittest.TestCase):
    def test_self_times_plus_residue_equal_wall(self):
        prefixes = workloads.stc_metric_prefixes()
        units = per_layer_units(prefixes)
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                result = tiny(name).timed_pass(Tracer())
                tracer, wall = result.tracer, result.wall_s
                layer_s = sum(r.self_s for r in tracer.records
                              if r.layer != "bench")
                bench_s = sum(r.self_s for r in tracer.records
                              if r.layer == "bench")
                roots = [r for r in tracer.records if r.parent is None]
                gaps = wall - sum(r.end - r.start for r in roots)
                self.assertGreaterEqual(gaps, -1e-6)
                self.assertTrue(all(r.self_s > -1e-6 for r in tracer.records))
                self.assertAlmostEqual(layer_s + bench_s + gaps, wall, delta=1e-6)
                frac = traced_pass_metrics(result, prefixes, units)[
                    "trace.unattributed_frac"]
                self.assertAlmostEqual(layer_s + frac * wall, wall, delta=1e-6)

    def test_misnested_spans_are_rejected(self):
        tracer = Tracer()
        with tracer.span("kernels", "enumerate"):
            pass
        tracer.records[0].self_s += 1.0
        with self.assertRaises(ValueError):
            tracer.unattributed(10.0)


class TestReferenceCheck(unittest.TestCase):
    def test_corrupted_reference_counts_failures(self):
        workload = tiny("cold-all")
        result = workload.run_pass()
        good = [d[:workloads.REFERENCE_CHARS] for d in result.digests]
        bad = list(good)
        bad[3] = "x" * workloads.REFERENCE_CHARS  # never a hex digest
        saved = workloads.load_reference
        try:
            workloads.load_reference = lambda name, seed: good
            failed, attempted, _ = run.check(workload, [result], tiny=False)
            self.assertEqual(failed, 0)
            workloads.load_reference = lambda name, seed: bad
            failed, attempted, _ = run.check(workload, [result], tiny=False)
        finally:
            workloads.load_reference = saved
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)

    def test_pass_mismatch_against_setup_reference(self):
        workload = tiny("warm-lru")
        workload.setup_reference = ["f" * 64] + workload.setup_reference[1:]
        failed, _, _ = run.check(workload, [workload.run_pass()], tiny=True)
        self.assertEqual(failed, 1)

    def test_committed_references_are_well_formed(self):
        for name in run.WORKLOAD_NAMES:
            path = workloads.REFERENCE_DIR / f"{name}.json"
            with self.subTest(workload=name):
                seeds = json.loads(path.read_text())["seeds"]
                self.assertIn("0", seeds)
                lengths = {len(blob) for blob in seeds.values()}
                self.assertEqual(len(lengths), 1)
                self.assertEqual(lengths.pop() % workloads.REFERENCE_CHARS, 0)

    def test_seeds_change_the_inputs(self):
        a, b = tiny("cold-all"), workloads.ColdAll(1, True, run.OUT / "selftest")
        b.setup()
        self.assertNotEqual(a.run_pass().digests, b.run_pass().digests)


if __name__ == "__main__":
    unittest.main(verbosity=2)
