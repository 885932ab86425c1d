"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

rc = worker.import_program()


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class InjectedFailure(workloads._SweepWorkload):
    """A small variant grid whose second cell's `replace(...)` raises
    ConfigurationError inside sweep's try (a negative tax)."""

    name = "injected-failure"

    def grid(self, seeds):
        return {"pipelines": ["procedural"], "taus": [0.25, -1.0], "seeds": seeds}


class SelfTest(unittest.TestCase):
    def setUp(self):
        OUT.mkdir(exist_ok=True)
        self.scratch = OUT / "selftest"
        self.addCleanup(shutil.rmtree, self.scratch, True)

    def test_perturbed_golden_digest_fails_the_run(self):
        expected = golden.load()
        name = "game-solve"
        expected["workload_sha256"][name] = "0" * 64
        out = io.StringIO()
        with mock.patch.object(golden, "load", return_value=expected), redirect_stdout(out):
            worker.main(["--workload", name, "--seed", "1", "--seconds", "0.5"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn(f"golden digest mismatch: workload_sha256[{name}]", out.getvalue())

    def test_failed_ops_frac_counts_an_injected_failing_cell(self):
        base = replace(rc.load_config(str(worker.CONFIG)), horizon=5)
        wl = InjectedFailure(rc, base, 0, self.scratch)
        attempted, failed, metrics, _, _ = worker.measure(wl, [3], 0.0)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertEqual(failed / attempted, 0.5)
        self.assertTrue(wl.failures[0].startswith("ConfigurationError"))
        self.assertGreater(metrics["ops_per_s"]["value"], 0)

    def test_a_failed_operation_fails_the_run(self):
        out = io.StringIO()
        with mock.patch.object(rc, "is_epsilon_ne", return_value=False), redirect_stdout(out):
            worker.main(["--workload", "game-solve", "--seed", "1", "--seconds", "0.5"])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("operations failed: (2, 2) game: not an 1e-06-equilibrium", out.getvalue())

    def test_missing_binding_fails_loudly(self):
        bindings = tracing.BINDINGS
        tracing.BINDINGS = bindings + (("rivercommons.harness", "no_such_function", "x"),)
        tracer = tracing.Tracer()
        try:
            with self.assertRaises(tracing.BindingError):
                tracer.install()
        finally:
            tracing.BINDINGS = bindings
        self.assertEqual(tracer._installed, [])

    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _, _ in tracing.LAYER_METRICS])
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["ops_per_s", "setup_s", "peak_rss_mb"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_run_without_the_program_fails_without_a_result(self):
        bare = self.scratch / "bare"
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "game-solve", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
