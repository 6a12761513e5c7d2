"""Fast self-test of the benchmark harness on tiny configurations.

    python3 perfbench/selftest.py

Runs each workload kind at q=2, n=60 (HOPM at n=20) with and without
tracing, and checks that every metric named in BENCHMARK.json is emitted
with its unit, that corrupted outputs trip the correctness gates, and that
the runner refuses to run without the tetracomm sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "design": lambda: harness.DesignWorkload(q=2, n=60),
    "verify": lambda: harness.VerifyWorkload(q=2, n=60, setup_repeats=2),
    "hopm": lambda: harness.HopmWorkload(n=20, setup_repeats=2),
}


def one_op(workload, workdir: Path):
    """inputs, set-up state and output of one untimed operation."""
    inputs = workload.inputs(5, workdir)
    state = workload.setup(inputs)
    return inputs, state, workload.run(inputs, state)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT)
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_spec_matches_harness_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, harness.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, harness.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(harness.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for kind, make in TINY.items():
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(kind=kind, trace=trace):
                    result, record = harness.measure(make(), seed=3, seconds=0, trace=trace, workdir=self.workdir)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], record["problems"])
                    self.assertGreaterEqual(result["attempted"], 2 if trace else 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts_on_tiny_design(self):
        result, _ = harness.measure(TINY["verify"](), seed=3, seconds=0, trace=True, workdir=self.workdir)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(values["words_per_vector_max"], 30)  # 60*3/5 - 60/10
        self.assertEqual(values["steps_per_vector"], 9)  # 8/2 + 12/2 - 1
        self.assertEqual(values["schedule.steps"], 9)
        self.assertEqual(values["simulator.ternary_total"], 60 * 60 * 61 // 2)
        self.assertEqual(values["tensor_core.sttsv_calls"], 1)
        self.assertGreater(values["finite_field.ops"], 0)
        self.assertGreater(values["matching.max_matching_calls"], 0)

    def test_untouched_outputs_pass(self):
        for kind, make in TINY.items():
            with self.subTest(kind=kind):
                w = make()
                problems, counts = w.check(*one_op(w, self.workdir))
                self.assertEqual(problems, [])
                self.assertTrue(counts)

    def test_perturbed_y_trips_the_gate(self):
        w = TINY["verify"]()
        inputs, state, verdict = one_op(w, self.workdir)
        verdict.report.y[7] += 1e-6
        problems, _ = w.check(inputs, state, verdict)
        self.assertTrue(any("numpy reference" in p for p in problems), problems)

    def test_wrong_ternary_count_trips_the_gate(self):
        w = TINY["verify"]()
        inputs, state, verdict = one_op(w, self.workdir)
        verdict.report.per_proc[0].ternary_mults += 1
        problems, _ = w.check(inputs, state, verdict)
        self.assertTrue(any("ternary" in p for p in problems), problems)

    def test_dropped_schedule_step_trips_the_gate(self):
        w = TINY["design"]()
        inputs, state, out = one_op(w, self.workdir)
        out["schedule"].steps.pop()
        problems, _ = w.check(inputs, state, out)
        self.assertTrue(any("steps per vector" in p for p in problems), problems)

    def test_perturbed_eigenvector_trips_the_gate(self):
        w = TINY["hopm"]()
        inputs, state, result = one_op(w, self.workdir)
        x = result.x.copy()
        x[0] += 1e-3
        problems, _ = w.check(inputs, state, dataclasses.replace(result, x=x))
        self.assertTrue(any("residual" in p for p in problems), problems)

    def test_count_drift_between_operations_fails_the_later_one(self):
        ops = [harness.OpRecord([0.1], 1.0, [], {"steps_per_vector": 9}) for _ in range(3)]
        ops[2].counts = {"steps_per_vector": 10}
        harness.flag_count_drift(ops)
        self.assertEqual([bool(op.problems) for op in ops], [False, False, True])

    def test_runner_refuses_without_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hopm-n120", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
