"""The benchmark's traced run wraps layer functions at the names their callers
resolve at call time (perfbench/tracing.py BINDINGS). This test runs a short
cell of every pipeline under that tracer, so moving a traced callee out of the
namespace its caller looks it up in fails here, not only in the benchmark.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rivercommons
from conftest import short_config

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")

# Spans every traced run of the five pipelines plus emit_outputs must record.
EXPECTED_SPANS = ("ecology.advance_year", "harness.inflow_year",
                  "policies.expert_egta_decide", "policies.generative_decide",
                  "policies.naive_egta_decide", "games.parse_llm_game")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_record_calls(tmp_path):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for pipeline in PIPELINES:
            artifacts = rivercommons.run_simulation(
                short_config(pipeline=pipeline, horizon=3))
        rivercommons.emit_outputs(artifacts, str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    calls = {name: len(durations) for name, (durations, _) in tracer.by_name().items()}
    assert [name for name in EXPECTED_SPANS if not calls.get(name)] == []
    assert calls["harness.run_simulation"] == len(PIPELINES)
    assert calls["harness.emit_outputs"] == 1


def test_benchmark_selftest_passes():
    """The benchmark's own checks (binding resolution, failed-operation
    counting, the golden gate) run with the unit tests."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIVERCOMMONS_")}
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
