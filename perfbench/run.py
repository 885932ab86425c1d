"""rivercommons benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run measures one workload in a fresh worker process (perfbench/worker.py)
and prints its metrics by name with their units, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones from a traced pass. --all runs every workload both ways and
prints a table. The run exits non-zero if the worker fails or an output
check (including a golden digest) does not hold. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6      # set-up-only processes timed beside the measuring one
# Process start-up on a shared host drifts with load outside the container.
# Each set-up sample is paired with a fresh interpreter that only imports
# numpy, and set-up is reported at the speed where that takes NOMINAL_START_S.
START_REFERENCE = ["-c", "import numpy; print('ready', flush=True)"]
NOMINAL_START_S = 0.15
DEADLINE_S = 170.0    # for one run, children included


def child_env():
    """The caller's environment without RIVERCOMMONS_* variables, with numpy
    kept single-threaded and string hashing fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIVERCOMMONS_")}
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Child:
    """A Python process, killed if it outlives the run's deadline."""

    def __init__(self, args, deadline):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                     env=child_env(), stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()

    def ready_after(self):
        """Seconds from spawn to the process's "ready" line, or None."""
        line = self.proc.stdout.readline()
        return time.perf_counter() - self.start if line.strip() == "ready" else None

    def finish(self):
        out = self.proc.stdout.read()
        self.proc.wait()
        self._timer.cancel()
        return self.proc.returncode, out


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_one(workload, seed, seconds, trace):
    """Measure one workload; returns (result line, report) or raises RuntimeError."""
    deadline = time.monotonic() + DEADLINE_S
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_revision": git_revision(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}
    base_args = [str(WORKER), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)]

    def time_to_ready(args):
        child = Child(args, deadline)
        ready = child.ready_after()
        code, _ = child.finish()
        if ready is None or code != 0:
            raise RuntimeError(f"set-up of {args[-1]} failed (exit {code})")
        return ready

    setup = []
    start_reference = []
    if not trace:
        for _ in range(SETUP_PROBES):
            start_reference.append(time_to_ready(START_REFERENCE))
            setup.append(time_to_ready(base_args + ["--setup-only"]))
        start_reference.append(time_to_ready(START_REFERENCE))

    child = Child(base_args + ["--trace", str(trace)], deadline)
    ready = child.ready_after()
    code, out = child.finish()
    lines = out.strip().splitlines()
    if ready is None or code != 0 or not lines:
        raise RuntimeError(f"worker for {workload} failed (exit {code})")
    worker = json.loads(lines[-1])

    metrics = dict(worker["metrics"])
    samples = dict(worker["info"].pop("samples"))
    if not trace:
        setup.append(ready)
        wall = statistics.median(setup)
        start_slowdown = statistics.median(start_reference) / NOMINAL_START_S
        metrics["setup_s"] = {"value": wall / start_slowdown, "unit": "s"}
        samples["setup_s"] = len(setup)
        meta.update(setup_s_wall=wall, setup_samples_s=setup,
                    start_reference_s=start_reference, start_slowdown=start_slowdown)
        metrics = {k: metrics[k] for k in ("ops_per_s", "setup_s", "peak_rss_mb")}
    result = {"correct": worker["correct"], "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}
    meta.update(worker["info"], samples=samples, errors=worker["errors"],
                failed_ops_frac=worker["failed"] / worker["attempted"])
    return result, meta


def report(result, meta):
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    samples = meta["samples"]
    for name, m in result["metrics"].items():
        n = samples.get(name, samples.get(name.rsplit(".", 1)[0], ""))
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} n={n}")
    if "ops_per_s_wall" in meta:
        print(f"  unscaled: ops_per_s {meta['ops_per_s_wall']:.6g} 1/s at host slowdown "
              f"{meta['host_slowdown']:.4f}; setup_s {meta['setup_s_wall']:.6g} s at start-up "
              f"slowdown {meta['start_slowdown']:.4f}")
    print(f"  {'failed_ops_frac':42s} {meta['failed_ops_frac']:>14.6g} {'frac':6s} "
          f"({result['failed']} of {result['attempted']})")
    print(f"  golden digests: {meta['golden_checked'] - meta['golden_mismatched']} of "
          f"{meta['golden_checked']} match")
    for err in meta["errors"]:
        print(f"  ERROR {err}")
    for failure in meta["failures"]:
        print(f"  failed op: {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))


def run_all(seed, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = []
    ok = True
    for wl in [w["name"] for w in spec["workloads"]]:
        plain, plain_meta = run_one(wl, seed, seconds, 0)
        traced, traced_meta = run_one(wl, seed, seconds, 1)
        for result, meta in ((plain, plain_meta), (traced, traced_meta)):
            report(result, meta)
            ok = ok and result["correct"]
        m = plain["metrics"]
        rows.append((wl, m["ops_per_s"]["value"], plain_meta["failed_ops_frac"],
                     m["setup_s"]["value"], m["peak_rss_mb"]["value"],
                     traced["metrics"]["trace.overhead_frac"]["value"],
                     plain["correct"] and traced["correct"]))
    print(f"\n{'workload':16s} {'ops_per_s (1/s)':>16s} {'failed_ops_frac':>16s} "
          f"{'setup_s (s)':>12s} {'peak_rss_mb (MB)':>17s} {'trace overhead':>15s}  correct")
    for wl, ops, failed, setup, rss, overhead, correct in rows:
        print(f"{wl:16s} {ops:16.4f} {failed:16.4f} {setup:12.4f} {rss:17.1f} "
              f"{overhead:15.2%}  {correct}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="rivercommons benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both ways")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rivercommons" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'rivercommons'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload or --all is required")
        result, meta = run_one(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "meta": meta}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report(result, meta)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
