"""The wide golden grid: the sha256 of records.csv in each of 490 cells.

    python3 tools/golden_grid.py [--rev REV] [--out PATH]

The grid is the shipped config, `configs/default.json`, run for 40 years in
every cell of

    5 pipelines x mean_annual {40, 200, 500, 800, 1400} x tau {0, 0.25, 1}
    x seed {0, 3} x n_households {9, 4, 2}.

The cells at mean_annual 40 also take a low-river ecology (c 1, w 5, y0 11,
ys 9, kappa 0), where the expert pipeline meets pair games with no pure
equilibrium and decides them by the Lemke-Howson fallback. Forty more cells
run the shipped river and 9 households with one override each:

    5 pipelines x tau {0, 0.25} x seed {0, 3}
    x (authority_window 3 or max_fields 4).

Without `--rev` the grid runs the working tree's `src/`; with `--rev` it
runs that revision's `src/`, unpacked from `git archive REV` into a
temporary directory, in a subprocess. Either way the script prints each
cell whose digest differs from the checked-in table, `tests/golden_grid.json`,
and exits with status 1 if any does. `--out PATH` writes the computed table
to PATH; the checked-in table was written by `--rev 3cbb1d2 --out
tests/golden_grid.json`. `tests/test_golden_grid.py` recomputes every digest
with this module's `digests`.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden_grid.json"
BASE_CONFIG = ROOT / "configs" / "default.json"

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")
MEAN_ANNUAL = (40.0, 200.0, 500.0, 800.0, 1400.0)
TAUS = (0.0, 0.25, 1.0)
SEEDS = (0, 3)
N_HOUSEHOLDS = (9, 4, 2)
HORIZON = 40
LOW_RIVER = 40.0
LOW_RIVER_ECOLOGY = {"c": 1.0, "w": 5.0, "y0": 11.0, "ys": 9.0, "kappa": 0.0}
OVERRIDE_TAUS = (0.0, 0.25)
OVERRIDES = (("authority_window", 3), ("max_fields", 4))


def base_config() -> dict:
    return json.loads(BASE_CONFIG.read_text(encoding="utf-8"))


def cells(base: dict):
    """(key, config dict) of each grid cell, in grid order."""
    for pipeline, mean, tau, seed, n in itertools.product(
            PIPELINES, MEAN_ANNUAL, TAUS, SEEDS, N_HOUSEHOLDS):
        data = copy.deepcopy(base)
        data.update(pipeline=pipeline, horizon=HORIZON, tau=tau, seed=seed, n_households=n)
        data.setdefault("inflow", {})["mean_annual"] = mean
        if mean == LOW_RIVER:
            data.setdefault("ecology", {}).update(LOW_RIVER_ECOLOGY)
        key = f"{pipeline} mean_annual={mean:g} tau={tau:g} seed={seed} n_households={n}"
        yield key, data
    for pipeline, tau, seed, (name, value) in itertools.product(
            PIPELINES, OVERRIDE_TAUS, SEEDS, OVERRIDES):
        data = copy.deepcopy(base)
        data.update({"pipeline": pipeline, "horizon": HORIZON, "tau": tau, "seed": seed,
                     "n_households": 9, name: value})
        yield f"{pipeline} tau={tau:g} seed={seed} {name}={value}", data


def digests(rc, base: dict, scratch: Path) -> dict:
    """The sha256 of records.csv for each cell, run by the package `rc`
    (`config_from_dict`, `run_simulation`, `emit_outputs`) with its outputs
    in `scratch`. Clear the RIVERCOMMONS_* environment first: the gateway
    reads its model and endpoint from it."""
    out = {}
    for key, data in cells(base):
        artifacts = rc.run_simulation(rc.config_from_dict(data))
        records = rc.emit_outputs(artifacts, str(scratch))["records"]
        out[key] = hashlib.sha256(Path(records).read_bytes()).hexdigest()
    return out


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))["records_csv_sha256"]


def _compute_here(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import rivercommons
    with tempfile.TemporaryDirectory() as scratch:
        return digests(rivercommons, base_config(), Path(scratch))


def _compute_at(rev: str) -> tuple:
    """(full revision, digests) of `rev`'s src/, run in a subprocess."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True).stdout
    full = git("rev-parse", rev).decode().strip()
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", full, "src"))) as tar:
            tar.extractall(tmp)
        env = {k: v for k, v in os.environ.items() if not k.startswith("RIVERCOMMONS_")}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--src", str(Path(tmp) / "src"), "--out", "-"]
        result = subprocess.run(command, check=True, capture_output=True, env=env, cwd=tmp)
    return full, json.loads(result.stdout)["records_csv_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="run this revision's src/ instead of the working tree's")
    parser.add_argument("--out", help="write the computed table here ('-' for stdout)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rev:
        revision, table = _compute_at(args.rev)
    else:
        for key in [k for k in os.environ if k.startswith("RIVERCOMMONS_")]:
            del os.environ[key]
        revision, table = "working tree", _compute_here(args.src)
    text = json.dumps({"revision": revision, "records_csv_sha256": table}, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    expected = load_table() if TABLE.exists() else {}
    moved = [key for key in table if table[key] != expected.get(key)]
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(moved)} of {len(table)} cells differ from {TABLE.relative_to(ROOT)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
