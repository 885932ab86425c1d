"""The byte-identical gate of the benchmark, run with the unit tests.

perfbench/golden.json holds the sha256 of records.csv for one cell of each of
the five pipelines at the shipped configuration. This test recomputes them
with the benchmark's own perfbench/golden.py, so a change that moves a single
byte of records.csv fails here, not only in a benchmark run.
"""
import importlib.util
import os
from pathlib import Path

import rivercommons

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden.py"
CONFIG = ROOT / "configs" / "default.json"


def load_golden():
    spec = importlib.util.spec_from_file_location("perfbench_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_csv_digests_equal_golden(tmp_path, monkeypatch):
    # The benchmark clears these before it loads the config; the gateway
    # section reads the model and endpoint from them.
    for key in [k for k in os.environ if k.startswith("RIVERCOMMONS_")]:
        monkeypatch.delenv(key)
    golden = load_golden()
    base = rivercommons.load_config(str(CONFIG))
    actual = golden.records_digests(rivercommons, base, tmp_path)
    assert actual == golden.load()["records_csv_sha256"]
