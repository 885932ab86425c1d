"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --workload NAME \\
        --seeds 2801 2810 [--seconds 20] --out BENCH_N.json

Each side runs from its own scratch copy of the repository: the parent from
`git archive REV`, the change from the working tree's tracked and untracked
(not ignored) files, uncommitted edits included. So neither side writes a
`.perfbench_out/` into the checkout. For each seed from the first to the last
of `--seeds`, both sides run

    python3 perfbench/run.py --workload NAME --seed SEED --seconds T --trace 0

one after the other. The parent runs first on the first seed, and the first
side alternates from seed to seed.

The workload's entry in the `end_to_end` block of `--out` is then (re)written
in the format of the repository's `BENCH_*.json` files: the seeds, which side
ran first, whether every run was correct, the failed and attempted operation
counts, and for each end-to-end metric of `BENCHMARK.json` each side's
median and quartiles (`statistics.quantiles`, n=4, inclusive), the change's
median over the parent's, every run in seed order, the number of pairs in
which the change read better, and two flags:

- `claim_rule_met`: at least 10 pairs ran, the change read better in at
  least 9 of each 10 of them, and the change's median is better than the
  parent's by more than the parent's quartile spread (q3 - q1);
- `within_bound`: the change's median is worse than the parent's by no
  more than the metric's `BENCHMARK.json` bound, a share of the parent's
  median.

`parent_revision`, `host` and `src_lines` are set; `src_lines` is
`{"parent": N, "change": M}`, the lines of `src/**/*.py` in each side's
copy. Every other key already in the file is kept, so the prose (`what`,
`change`, `claim`, `notes`) is written by hand.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def parent_copy(rev: str, dest: Path) -> str:
    """Unpack `git archive rev` into dest; return the full revision."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)
    return git("rev-parse", rev).decode().strip()


def change_copy(dest: Path):
    """Copy the working tree's tracked and untracked, not ignored, files."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_lines(tree: Path) -> int:
    """The number of lines of `src/**/*.py` in `tree`."""
    return sum(len(path.read_bytes().splitlines()) for path in tree.glob("src/**/*.py"))


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON record of one `perfbench/run.py` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree.name} run of {workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(runs: dict, metric: dict) -> dict:
    """One metric's entry from its runs, {"parent": [...], "change": [...]},
    and its `BENCHMARK.json` entry (`better`, `bound`)."""
    entry = {}
    for side in ("parent", "change"):
        q1, _, q3 = statistics.quantiles(runs[side], n=4, method="inclusive")
        entry[side] = {"q1": q1, "median": statistics.median(runs[side]), "q3": q3}
    parent, change = entry["parent"], entry["change"]
    entry["change_over_parent_median"] = change["median"] / parent["median"]
    entry["parent_runs"], entry["change_runs"] = runs["parent"], runs["change"]
    sign = 1 if metric["better"] == "higher" else -1  # gains are positive
    pairs = len(runs["parent"])
    better = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    gain = sign * (change["median"] - parent["median"])
    entry["pairs_change_better"] = better
    entry["claim_rule_met"] = (pairs >= 10 and 10 * better >= 9 * pairs
                               and gain > parent["q3"] - parent["q1"])
    entry["within_bound"] = -gain <= metric["bound"] * parent["median"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seeds[1] <= args.seeds[0]:
        parser.error("--seeds must span at least two seeds, for the quartiles")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    first_side = ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))]
    records = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        for tree in trees.values():
            tree.mkdir()
        revision = parent_copy(args.parent, trees["parent"])
        change_copy(trees["change"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src lines: parent {lines['parent']}, change {lines['change']}", flush=True)
        for seed, first in zip(seeds, first_side):
            for side in (first, "change" if first == "parent" else "parent"):
                record = run_side(trees[side], args.workload, seed, args.seconds)
                records[side].append(record)
                print(f"{args.workload} seed {seed} {side}: ops_per_s "
                      f"{record['metrics']['ops_per_s']['value']:.4g}", flush=True)

    entry = {
        "seeds": seeds, "runs_per_side": len(seeds), "first_side": first_side,
        "correct": all(r["correct"] for side in records.values() for r in side),
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in records.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in rs)
                          for side, rs in records.items()},
    }
    for metric in metrics:
        name = metric["name"]
        entry[name] = summary({side: [r["metrics"][name]["value"] for r in rs]
                               for side, rs in records.items()}, metric)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench["parent_revision"] = revision
    bench["host"] = {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                     "nproc": os.cpu_count()}
    bench["src_lines"] = lines
    bench.setdefault("end_to_end", {})[args.workload] = entry
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for metric in metrics:
        m = entry[metric["name"]]
        print(f"{args.workload}: {metric['name']} change/parent median "
              f"{m['change_over_parent_median']:.4f}, change better in "
              f"{m['pairs_change_better']} of {len(seeds)} pairs, claim_rule_met "
              f"{m['claim_rule_met']}, within_bound {m['within_bound']}", flush=True)
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
