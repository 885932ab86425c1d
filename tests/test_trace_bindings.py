"""The benchmark's traced run wraps layer functions at the names their callers
resolve at call time (perfbench/tracing.py BINDINGS). This test runs a short
cell of every pipeline under that tracer, so moving a traced callee out of the
namespace its caller looks it up in fails here, not only in the benchmark.
"""
import importlib.util
from pathlib import Path

import rivercommons
from conftest import short_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

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
