"""Tests of perfbench/run.py: its output contract and its checks.

    python3 -m unittest perfbench/tests/test_run.py

from the repository root. The end-to-end cases build perfbench_run on
first use and run the shrunken (--quick) fleets.
"""

import contextlib
import io
import json
import unittest

from perfbench import run


def _rep(digest, correct=True, metrics=None, wall=1.0):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "digest": digest, "timed_wall_s": wall, "probe_ns": 10.0,
            "failures": [],
            "metrics": metrics or {}, "exit": 0}


class SummarizeTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.e2e = {m["name"]: 1.0 for m in self.spec["end_to_end"]}

    def test_medians_over_repetitions(self):
        reps = [_rep("a", metrics=dict(self.e2e, setup_s=v))
                for v in (3.0, 1.0, 2.0)]
        with contextlib.redirect_stderr(io.StringIO()):
            result = run.summarize(self.spec, reps, [], trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["setup_s"]["value"], 2.0)
        self.assertEqual(result["attempted"], 30)

    def test_digest_mismatch_fails_every_transaction(self):
        reps = [_rep("a", metrics=self.e2e), _rep("b", metrics=self.e2e)]
        with contextlib.redirect_stderr(io.StringIO()):
            result = run.summarize(self.spec, reps, [], trace=0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_missing_metric_is_an_error(self):
        reps = [_rep("a", metrics={"setup_s": 1.0})]
        with self.assertRaises(RuntimeError):
            run.summarize(self.spec, reps, [], trace=0)


class EndToEndTest(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed, with its unit."""

    def _run(self, workload, trace):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace),
                             "--quick"])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_metric_with_its_unit(self):
        spec = run.load_spec()
        for workload in run.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self._run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in spec[group]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], float)


if __name__ == "__main__":
    unittest.main()
