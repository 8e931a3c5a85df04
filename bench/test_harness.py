"""Fast self-test of the benchmark harness on tiny counters (``1,1`` and ``1,1,1``).

Runs real CLI jobs in fresh interpreters, so it also catches a harness that
no longer matches the program.  Standard library only:

    python3 bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "verify": run.Workload((1, 1), "verify"),
    "build": run.Workload((1, 1, 1), "build", ("--format", "json"), f_vector=(1, 12, 24, 13)),
    "collapse": run.Workload((1, 1, 1), "collapse", steps=24),
}


def job_output(workload, text):
    job = run.spawn(["-c", run.JOB, *workload.argv(text)], deadline=time.monotonic() + 60)
    return job.code, job.out


class CounterText(unittest.TestCase):
    def test_seed_zero_is_identity(self):
        self.assertEqual(run.counter_text((2, 2, 2, 1), 0), "2,2,2,1")

    def test_relabelling_keeps_values_and_is_deterministic(self):
        texts = {run.counter_text((2, 2, 2, 1), seed) for seed in range(1, 40)}
        self.assertGreater(len(texts), 5)
        for text in texts:
            tokens = text.split(",")
            self.assertEqual(sorted(t for t in tokens if t != "x"), ["1", "2", "2", "2"])
            self.assertNotEqual(tokens[-1], "x")
            self.assertLessEqual(len(tokens), 6)
        self.assertEqual(run.counter_text((1, 1, 1), 9), run.counter_text((1, 1, 1), 9))


class OutputChecks(unittest.TestCase):
    def test_real_output_passes_on_relabelled_counters(self):
        for w in TINY.values():
            for seed in (0, 4):
                text = run.counter_text(w.values, seed)
                code, out = job_output(w, text)
                with self.subTest(command=w.command, counter=text):
                    self.assertIsNone(w.check(text, code, out))

    def test_empty_output_and_bad_exit_fail(self):
        # ``python -m snapcomplex.cli`` exits 0 and prints nothing
        for w in TINY.values():
            self.assertIsNotNone(w.check("1,1,1", 0, b""))
            self.assertIsNotNone(w.check("1,1,1", 1, b""))

    def test_wrong_results_fail(self):
        _, out = job_output(TINY["build"], "1,1,1")
        wrong = run.Workload((1, 1, 1), "build", f_vector=(1, 12, 24, 14))
        self.assertIsNotNone(wrong.check("1,1,1", 0, out))
        _, out = job_output(TINY["collapse"], "1,1,1")
        self.assertIsNotNone(run.Workload((1, 1, 1), "collapse", steps=23).check("1,1,1", 0, out))
        _, out = job_output(TINY["verify"], "1,1")
        self.assertIsNotNone(TINY["verify"].check("1,x,1", 0, out))


class LayerMetrics(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        payload = {
            "spans": {
                "name": ["cli.main", "complexes.build", "witness.ghost_one", "witness.ghost_one"],
                "parent": [-1, 0, 1, 1],
                "start": [0.0, 1.0, 2.0, 4.0],
                "end": [10.0, 7.0, 3.0, 6.0],
            },
            "facts": {"simplices": 5, "tops": 2, "facet_entries": 6},
        }
        m = run.layer_metrics(payload)
        self.assertEqual(m["cli.main_s"], 10.0)
        self.assertEqual(m["cli.overhead_s"], 4.0)
        self.assertEqual(m["complexes.build_s"], 6.0)
        self.assertEqual(m["complexes.self_s"], 3.0)
        self.assertEqual(m["witness.ghost_one_calls"], 2)
        self.assertEqual(m["witness.ghost_one_us"], 1.5e6)
        self.assertEqual(m["complexes.face_dedup_ratio"], 0.5)


class ResultShape(unittest.TestCase):
    def check_result(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertTrue(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()))
        json.dumps(result)

    def test_untraced_and_traced_runs(self):
        for name, w in TINY.items():
            with self.subTest(workload=name):
                result, lines = run.run(w, seed=3, seconds=0, trace=0)
                self.check_result(result, SPEC["end_to_end"])
                self.assertTrue(any("wall_s" in line for line in lines))
                result, _ = run.run(w, seed=3, seconds=0, trace=1)
                self.check_result(result, SPEC["per_layer"])
                self.assertEqual(result["attempted"], 2)

    def test_traced_counts(self):
        result, _ = run.run(TINY["collapse"], seed=0, seconds=0, trace=1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["complexes.simplices"], 50)
        self.assertEqual(m["topology.collapse_steps"], 24)
        self.assertGreater(m["witness.ghost_one_calls"], 0)
        self.assertGreater(m["cli.main_s"], m["complexes.build_s"])

    def test_spec_names_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])

    def test_missing_program_exits_nonzero(self):
        saved = run.SRC
        run.SRC = Path(run.ROOT / "no-such-dir")
        try:
            self.assertEqual(run.main(["--workload", "verify-1111"]), 2)
        finally:
            run.SRC = saved


if __name__ == "__main__":
    unittest.main()
