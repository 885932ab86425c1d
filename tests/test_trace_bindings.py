"""The benchmark's traced run wraps layer functions at the names their callers
resolve at call time (perfbench/tracing.py BINDINGS). These tests run a short
cell of every pipeline, and one short batch of every benchmark workload, under
that tracer, so moving a traced callee out of the namespace its caller looks
it up in, or bypassing a layer a workload names as dominant, fails here, not
only in the benchmark.
"""
import importlib.util
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import rivercommons
from conftest import short_config

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")

# Spans every traced run of the five pipelines plus emit_outputs must record.
EXPECTED_SPANS = ("ecology.advance_year", "harness.inflow_year",
                  "policies.expert_egta_decide", "policies.generative_decide",
                  "policies.naive_egta_decide", "games.parse_llm_game",
                  "equilibrium.select_equilibrium")


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("perfbench_tracing", TRACING)


BENCH_WORKLOADS = load_module("perfbench_workloads", WORKLOADS).WORKLOADS


def test_traced_bindings_record_calls(tmp_path):
    # Earlier tests may have drawn this river already; a cached series would
    # leave harness.inflow_year without calls.
    rivercommons.harness._synthetic_series.cache_clear()
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


def traced_batch(name, tmp_path, monkeypatch):
    """One short batch of a benchmark workload under the tracer:
    (workload, attempted, failed, tracer, wall seconds)."""
    for key in [k for k in os.environ if k.startswith("RIVERCOMMONS_")]:
        monkeypatch.delenv(key)
    base = replace(rivercommons.load_config(str(DEFAULT_CONFIG)), horizon=3)
    wl = BENCH_WORKLOADS[name](rivercommons, base, 0, tmp_path)
    inputs = wl.inputs(0)
    tracer = load_tracing().Tracer()
    wl.op = tracer.op
    tracer.install()
    try:
        start = time.perf_counter()
        attempted, failed = wl.run(inputs)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return wl, attempted, failed, tracer, wall


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_workload_dominant_layers_record_calls(name, tmp_path, monkeypatch):
    """One short batch of each benchmark workload under the tracer: no
    operation fails, spans nest, and every layer the workload names as
    dominant records calls, as the benchmark's traced run requires."""
    wl, attempted, failed, tracer, wall = traced_batch(name, tmp_path, monkeypatch)
    assert attempted > 0 and failed == 0, wl.failures
    assert tracer.check(wall)[0] == []
    spans = tracer.by_name()
    assert [layer for layer in wl.dominant_layers if not spans.get(layer)] == []


def test_expert_pair_games_pass_every_traced_solve_layer(tmp_path, monkeypatch):
    """Every pair game the expert pipeline solves is built, enumerated and
    then selected from or handed to Lemke-Howson through the traced names,
    so a faster path that bypasses one of these layers fails here."""
    wl, attempted, failed, tracer, _ = traced_batch("expert-tax-grid", tmp_path, monkeypatch)
    assert attempted > 0 and failed == 0, wl.failures
    spans = tracer.by_name()
    calls = {name: len(spans[name][0]) if name in spans else 0 for name in (
        "games.build_irrigation_game", "equilibrium.enumerate_pure_ne",
        "equilibrium.select_equilibrium", "equilibrium.lemke_howson")}
    assert (calls["games.build_irrigation_game"] == calls["equilibrium.enumerate_pure_ne"]
            == calls["equilibrium.select_equilibrium"] + calls["equilibrium.lemke_howson"]
            > 0), calls
