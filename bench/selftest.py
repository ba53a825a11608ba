"""Self-tests of the benchmark harness (not of contactloci itself).

Run from the root of a checkout with either of

    python3 bench/selftest.py
    python3 -m pytest -q bench/selftest.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import worker  # noqa: E402

_MAIN = None


def program_main():
    global _MAIN
    if _MAIN is None:
        _MAIN = worker.load_program().main
    return _MAIN


def _sample_jobs() -> list[dict]:
    """A few cheap jobs of every workload, the oracle ones included."""
    ladder = jobs.generate("ladder", 5)
    wide = jobs.generate("wide", 5)
    oracle = [j for j in jobs.generate("oracle", 5) if j["id"].endswith(("x^2+y^3/m3/v0", "x*y/m3/v0"))]
    return ladder[:4] + wide[:4] + oracle


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for name in jobs.WORKLOADS:
            self.assertEqual(jobs.generate(name, 7), jobs.generate(name, 7))
            self.assertNotEqual(jobs.generate(name, 7), jobs.generate(name, 8))

    def test_every_workload_has_at_least_100_jobs(self):
        for name in jobs.WORKLOADS:
            self.assertGreaterEqual(len(jobs.generate(name, 1)), 100, name)

    def test_job_ids_are_unique(self):
        for name in jobs.WORKLOADS:
            ids = [j["id"] for j in jobs.generate(name, 1)]
            self.assertEqual(len(ids), len(set(ids)), name)

    def test_wide_germs_are_distinct(self):
        for seed in range(20):
            polys = [j["calls"][0][1] for j in jobs.generate("wide", seed)]
            self.assertEqual(len(polys), len(set(polys)))

    def test_oracle_pools_follow_the_congruence(self):
        for job in jobs.generate("oracle", 2):
            r, mod = job["congruence"]
            self.assertEqual(len(job["pool"]), jobs.POOL_SIZE)
            self.assertTrue(all(q % mod == r % mod for q in job["pool"]), job["id"])
            primes = ",".join(str(q) for q in job["pool"])
            self.assertIn(primes, job["calls"][0])
            self.assertEqual([c[c.index("--q") + 1] for c in job["calls"][1:]], [str(q) for q in job["pool"]])

    def test_oracle_seed_keeps_the_newton_polygon(self):
        # x^2 + y^3 at m = 3 needs q = 1 mod 3; the pool must not depend on the seed
        pools = {tuple(j["pool"]) for s in range(5) for j in jobs.generate("oracle", s) if "x^2+y^3/m3/" in j["id"]}
        self.assertEqual(pools, {(7, 13, 19)})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(worker.percentile(values, 50), 50)
        self.assertEqual(worker.percentile(values, 90), 90)
        self.assertEqual(worker.percentile(values, 100), 100)
        self.assertEqual(worker.percentile([3.0], 90), 3.0)
        self.assertEqual(worker.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90), 9)
        self.assertEqual(worker.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_no_values(self):
        with self.assertRaises(ValueError):
            worker.percentile([], 50)


class CheckTest(unittest.TestCase):
    def test_wrong_expectation_is_a_failed_job(self):
        good = jobs.generate("ladder", 1)[:2]
        wrong = json.loads(json.dumps(good[0]))
        wrong["id"] += "/wrong"
        wrong["expect"]["verdict"] = "FAIL"
        result = worker.measure(program_main(), good + [wrong], 0, False, min_passes=1)
        self.assertEqual([f["job"] for f in result["failures"]], [wrong["id"]])

    def test_crashing_call_is_a_failed_job(self):
        bad = {"id": "bad", "calls": [["report", "--poly=x^2+y^3", "--m", "0", "--format", "json"]],
               "expect": {"exit": 0, "verdict": "PASS"}}
        result = worker.measure(program_main(), [bad], 0, False, min_passes=1)
        self.assertEqual(len(result["failures"]), 1)

    def test_strata_total_must_match_report_count(self):
        job = json.loads(json.dumps([j for j in jobs.generate("oracle", 1) if "x*y/m2/" in j["id"]][0]))
        job["calls"][2][job["calls"][2].index("--m") + 1] = "3"  # strata at another m
        _, _, results = worker.run_job(program_main(), job, [worker.reference_time()])
        reason, _ = worker.check_job(job, results)
        self.assertIn("strata total", reason)


class TraceTest(unittest.TestCase):
    def test_traced_and_untraced_outputs_are_identical(self):
        sample = _sample_jobs()
        result = worker.measure(program_main(), sample, 0, True, min_passes=2)
        self.assertEqual([p["traced"] for p in result["passes"]], [False, True])
        self.assertEqual(result["failures"], [])
        plain, traced = (p["checked"] for p in result["passes"])
        self.assertEqual([d for _, d in plain], [d for _, d in traced])
        layers = result["passes"][1]["layers"]
        for key in ("weights.solve_s", "curves.factor_s", "jets.count_s", "jets.strata_nodes", "model.validate_s"):
            self.assertGreater(layers[key], 0, key)
        self.assertEqual(layers["cli.calls"], sum(len(j["calls"]) for j in sample))

    def test_self_time_excludes_child_spans(self):
        from tracing import self_times, summarize

        spans = [
            ["cli.main", 0.0, 1.0, None, "j", None],
            ["weights.solve", 0.1, 0.6, 0, "j", {"weights.exc_divisors": 3}],
            ["weights.definite", 0.2, 0.3, 1, "j", None],
            ["cli.main", 2.0, 2.5, None, "k", None],
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs["cli.main"], 1.0)
        self.assertAlmostEqual(selfs["weights.solve"], 0.4)
        layers = summarize(spans)
        self.assertAlmostEqual(layers["weights.solve_s"], 0.5)
        self.assertAlmostEqual(layers["weights.definite_s"], 0.1)
        self.assertAlmostEqual(layers["cli.self_s"], 1.0)
        self.assertEqual((layers["weights.exc_divisors"], layers["cli.calls"]), (3, 2))

    def test_tracer_restores_the_program(self):
        import contactloci.cli as cli
        import contactloci.curves as curves
        from tracing import Tracer

        program_main()
        before = (cli.solve_weights, curves.sympy)
        with Tracer():
            self.assertIsNot(cli.solve_weights, before[0])
        self.assertEqual((cli.solve_weights, curves.sympy), before)


class CommandTest(unittest.TestCase):
    def test_refuses_a_tree_without_the_program(self):
        import shutil
        import tempfile

        worker.OUT_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT_DIR) as tmp:
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
