"""Smoke test of the demos: each runs to completion against this checkout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["ecology_dynamics.py", "equilibrium_solving.py",
                                  "pipeline_comparison.py", "tax_robustness.py"])
def test_demo_runs(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIVERCOMMONS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp_path)    # where tax_robustness.py writes its artifacts
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
