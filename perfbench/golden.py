"""Golden output digests, taken on the seed code and checked on every run.

- the sha256 of records.csv for one fixed cell of each of the five pipelines
  (the byte-identical gate);
- one digest per workload of the outputs of a fixed instance of it (summary
  rows for the sweeps, emitted files for rules-run-emit, pure equilibria and
  rounded Lemke-Howson profiles for game-solve).

Print the current digests with `python3 perfbench/worker.py --print-golden`.
Change golden.json only with a change whose outputs are meant to differ.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")


def records_digests(rc, base, scratch: Path) -> dict:
    """records.csv sha256 per pipeline, at the config's tax and seed."""
    out = {}
    for pipeline in PIPELINES:
        artifacts = rc.run_simulation(replace(base, pipeline=pipeline))
        paths = rc.emit_outputs(artifacts, str(scratch / "golden" / pipeline))
        out[pipeline] = hashlib.sha256(Path(paths["records"]).read_bytes()).hexdigest()
    return out


def compute(rc, base, workloads, scratch: Path) -> dict:
    return {"records_csv_sha256": records_digests(rc, base, scratch),
            "workload_sha256": {wl.name: wl.golden() for wl in workloads}}


def load(path=GOLDEN_FILE) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def mismatches(actual: dict, expected: dict) -> list:
    """One line per digest that differs from (or is missing in) the golden file."""
    out = []
    for section, digests in actual.items():
        for name, value in digests.items():
            want = expected.get(section, {}).get(name)
            if value != want:
                out.append(f"{section}[{name}]: got {value[:12]}, golden {str(want)[:12]}")
    return out
