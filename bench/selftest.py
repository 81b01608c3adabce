"""Tests of the benchmark harness itself.

    python3 bench/selftest.py

They run the harness at smoke sizes (seconds, not minutes), so they check
plumbing, accounting and output format, never performance.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _smoke(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"smoke run failed: {proc.stderr[-2000:]}")
    return proc.stdout


class SmokeTest(unittest.TestCase):
    """Every workload runs at tiny sizes and prints every metric with its unit."""

    def check(self, trace, metrics):
        out = _smoke(trace)
        blocks = out.split("== ")[1:]
        self.assertEqual([b.split()[0] for b in blocks], list(run.workloads.WORKLOADS))
        for block in blocks:
            for name, unit in metrics:
                self.assertRegex(block, rf"(?m)^{re.escape(name)} +\S+ +{re.escape(unit)}\b",
                                 f"{name} [{unit}] missing in:\n{block}")
        last = json.loads(out.strip().splitlines()[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = spec["per_layer" if trace else "end_to_end"]
        for name, line in last.items():
            self.assertTrue(line["correct"], name)
            self.assertEqual(line["failed"], 0, name)
            self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()},
                             {m["name"]: m["unit"] for m in listed}, name)

    def test_untraced(self):
        self.check(0, run.E2E_METRICS + (("failed_frac", "1"),))

    def test_traced(self):
        self.check(1, run.E2E_METRICS + tracer.LAYER_METRICS)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            (0.0, 10.0, -1),   # 0 root
            (1.0, 4.0, 0),     # 1 child
            (2.0, 3.0, 1),     # 2 grandchild
            (3.0, 6.0, 0),     # 3 child overlapping child 1 on [3, 4]
            (9.0, 12.0, 0),    # 4 child running past its parent's end
        ]
        # root: 10 minus the union [1, 6] and [9, 10] of its children
        self.assertEqual(tracer.self_times(spans), [4.0, 2.0, 1.0, 3.0, 3.0])

    def test_nested_scheme_counts_as_outer(self):
        t = tracer.Tracer()
        t.names = ["cli.main", "solvers.block_solve", "solvers.amm_solve",
                   "potentials.inf_conv_decompose"]
        t.spans = [
            [0, 0.0, 10.0, -1, "a"],
            [1, 1.0, 9.0, 0, "a"],
            [2, 2.0, 8.0, 1, "a"],
            [3, 3.0, 5.0, 2, "a"],
        ]
        m = t.layer_metrics()
        self.assertEqual(m["solvers.block_s"], 2.0 + 4.0)
        self.assertEqual(m["solvers.amm_s"], 0.0)
        self.assertEqual(m["potentials.decompose_s"], 2.0)
        self.assertEqual(m["potentials.decompose_calls"], 1)
        self.assertEqual(m["cli.self_s"], 2.0)


class RescaleTest(unittest.TestCase):
    def test_slower_core_gives_the_same_wall(self):
        def one_pass(slowdown):
            return {"calibration_s": [0.02 * slowdown, 0.02 * slowdown, 0.03 * slowdown],
                    "invocations": [{"id": "a", "seconds": 0.5 * slowdown},
                                    {"id": "b", "seconds": 0.25 * slowdown}]}

        fast = run.rescaled_wall([one_pass(1.0)])
        self.assertAlmostEqual(run.rescaled_wall([one_pass(1.7), one_pass(1.0),
                                                  one_pass(1.2)]), fast)
        self.assertAlmostEqual(fast, run.REFERENCE_CALIBRATION_S * (0.5 / 0.02 + 0.25 / 0.025))
        self.assertAlmostEqual(
            run.rescaled_import({"import_s": 0.2, "numpy_import_s": 0.1}),
            run.REFERENCE_NUMPY_IMPORT_S * 2.0)


class AccountingTest(unittest.TestCase):
    def test_bad_invocation_is_counted_not_raised(self):
        import splitflow.cli as cli

        good = run.workloads.build("ce-exact", 0, smoke=True)[2]
        bad = {"id": "bad-override", "argv": ["run", "--model", "counterexample",
                                              "--override", "foo=1"]}
        flag = {"id": "bad-flag", "argv": ["run", "--no-such-flag"]}
        with tempfile.TemporaryDirectory() as tmp:
            records = worker.run_pass(cli, [good, bad, flag], tmp)
        attempted, failed, correct, failures = run.tally([{"invocations": records}])
        self.assertEqual((attempted, failed, correct), (3, 2, True))
        self.assertAlmostEqual(failed / attempted, 2 / 3)
        reasons = {inv: reason for _, inv, reason in failures}
        self.assertIn("uncaught TypeError", reasons["bad-override"])
        self.assertIn("exit code 2", reasons["bad-flag"])

    def test_changed_csv_between_repeats_is_wrong(self):
        def rec(digest):
            return {"id": "x", "failures": [], "wrong": False,
                    "csv_sha256": {"trajectory.csv": digest}}

        passes = [{"invocations": [rec("aa")]}, {"invocations": [rec("aa")]},
                  {"invocations": [rec("bb")]}]
        hashes = run.compare_repeats(passes)
        self.assertEqual(hashes, {"x": {"trajectory.csv": "aa"}})
        self.assertEqual(run.tally(passes)[1:3], (1, False))

    def test_paper_anchors_from_the_closed_form(self):
        from splitflow.models import make_model

        preset = make_model("counterexample")
        self.assertAlmostEqual(worker.arrival_time(preset, "effective"), 0.75, delta=1e-15)
        self.assertAlmostEqual(worker.arrival_time(preset, "split-limit"), 11 / 12,
                               delta=1e-15)


if __name__ == "__main__":
    unittest.main()
