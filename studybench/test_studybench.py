"""Tests of the study benchmark itself.

The property checks must reject broken outputs, every workload must run end
to end in smoke mode (BFS only) with and without tracing, and the benchmark
must refuse to report anything where the repository's sources are missing.

    python3 -m unittest discover -s studybench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class StudyBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()

    def bench(self, *args, cwd=run.ROOT):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "studybench", "run.py"), *args],
            capture_output=True, text=True, cwd=cwd, timeout=600)

    def test_checks_reject_broken_outputs(self):
        r = subprocess.run([self.bins["selftest"]], capture_output=True,
                           text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stdout)
        for broken in ("BFS level one too high", "MIS with an adjacent pair",
                       "CC label split across an edge",
                       "PR rank perturbed by 5%", "TC count off by one"):
            self.assertIn(f"[ok]   {broken} on grid2d", r.stdout)

    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)

    def test_every_workload_runs_in_smoke_mode(self):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    r = self.bench("--workload", workload, "--seed", "5",
                                   "--seconds", "1", "--trace", trace,
                                   "--smoke")
                    self.assertEqual(r.returncode, 0, r.stderr)
                    res = json.loads(r.stdout.splitlines()[-1])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    names = run.PER_LAYER if trace == "1" else run.END_TO_END
                    self.assertEqual(set(res["metrics"]),
                                     {name for name, _ in names})

    def test_refuses_without_the_repository(self):
        bare = os.path.join(os.path.dirname(run.build_dir()), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "studybench"))
            r = self.bench("--workload", "cuda_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
