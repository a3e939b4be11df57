"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/bench_tests.py

Each workload runs at the tiny size for about a second, in its own process
as the benchmark's contract has it, and in-process with a wrong result
injected, which must show up in error_ratio.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
GATED = [w["name"] for w in SPEC["workloads"]]


def run_cli(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=170)
    return proc


def run_injected(name, op=None, patch_dseq=None):
    """Run a workload in-process at the tiny size, with its op replaced by
    `op(original, workload, key)` or a fault put into the freshly imported
    dseq package by `patch_dseq(dseq)`."""
    cls = run.WORKLOADS[name]
    original = cls.op
    load = run.import_dseq

    def importing():
        dseq = load()
        if patch_dseq is not None:
            patch_dseq(dseq)
        return dseq

    def replaced(workload, key):
        return op(original, workload, key)

    with mock.patch.object(run, "import_dseq", importing), \
            mock.patch.object(cls, "op", replaced if op else original):
        return run.run_workload(name, 3, 0.5, 0, size="tiny")


class ContractTest(unittest.TestCase):

    def check_last_line(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertGreaterEqual(last["attempted"], 1)
        for name, unit in names:
            self.assertIn(name, last["metrics"])
            self.assertEqual(last["metrics"][name]["unit"], unit)
            self.assertIsInstance(last["metrics"][name]["value"], (int, float))
        return last

    def test_every_workload_emits_every_metric(self):
        end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                last = self.check_last_line(run_cli(workload, 0), end_to_end)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(last["metrics"][m["name"]]["value"], 0)
                if workload in GATED:
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                self.check_last_line(run_cli(workload, 1), per_layer)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_cli(GATED[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class InjectedFaultTest(unittest.TestCase):

    def assert_caught(self, result):
        self.assertFalse(result["correct"])
        self.assertGreater(result["error_ratio"], 0)

    def test_clean_runs_pass(self):
        for name in GATED:
            with self.subTest(workload=name):
                result = run_injected(name)
                self.assertTrue(result["correct"])
                self.assertEqual(result["error_ratio"], 0)

    def test_poly_compose_wrong_tower(self):
        def swapped(original, workload, key):
            # g-then-f instead of f-then-g: a valid tower of the wrong map
            f, g, n = workload.inputs[key]
            return workload.dseq.omega(g, n).compose(workload.dseq.omega(f, n))
        self.assert_caught(run_injected("poly_compose", swapped))

    def test_elem_check_wrong_tower(self):
        def swapped(original, workload, key):
            (f, g), spec = workload.inputs[key]
            workload.inputs[key] = ((g, f), spec)
            try:
                return original(workload, key)
            finally:
                workload.inputs[key] = ((f, g), spec)
        self.assert_caught(run_injected("elem_check", swapped))

    def test_elem_check_always_equal(self):
        def always(dseq):
            dseq.ElemMap.equal_witness = \
                lambda self, other, tol=None: (True, None)
        self.assert_caught(run_injected("elem_check", patch_dseq=always))

    def test_tower_roundtrip_wrong_file(self):
        def corrupted(original, workload, key):
            out = original(workload, key)
            path = workload.inputs[key][2][2]
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["terms"][0]["components"][0] += " + 1"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return out
        self.assert_caught(run_injected("tower_roundtrip", corrupted))

    def test_law_check_failed_report(self):
        def failed(original, workload, key):
            reports = original(workload, key)
            reports[-1] = dict(reports[-1], **{"pass": False})
            return reports
        self.assert_caught(run_injected("law_check", failed))

    def test_law_check_always_equal(self):
        def always(dseq):
            dseq.reports.compare_maps = lambda f, g, tol=None: (True, None)
        self.assert_caught(run_injected("law_check", patch_dseq=always))

    def test_selftest_failed_verdict(self):
        def failed(original, workload, key):
            return dict(original(workload, key), **{"pass": False})
        self.assert_caught(run_injected("selftest", failed))


class TracerTest(unittest.TestCase):

    def test_counts_only_inside_ops(self):
        dseq = run.import_dseq()
        f = dseq.parse_map(["x0^2 + x0"], 1, 1)
        tracer = run.Tracer()
        tracer.install(dseq)
        try:
            f.then(f)
            tracer.start_op(0)
            f.then(f)
            tracer.end_op()
            f.then(f)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(1.0)
        self.assertEqual(metrics["poly.PolyMap.then.calls"]["value"], 1)
        self.assertGreater(metrics["poly.init.calls"]["value"], 0)
        self.assertEqual({span[2] for span in tracer.spans}, {0})


class TailTest(unittest.TestCase):

    def test_needs_ten_beyond(self):
        self.assertIsNone(run.tail([0.1] * 19))
        self.assertEqual(run.tail(list(range(20))), (50, 9, 10))
        p, value, beyond = run.tail([float(i) for i in range(200)])
        self.assertEqual((p, beyond), (95, 10))
        self.assertEqual(value, 189.0)


if __name__ == "__main__":
    unittest.main()
