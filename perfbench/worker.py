"""One benchmark process: set up a workload, measure it, check its outputs.

perfbench/run.py starts this in a fresh interpreter for every run, so set-up
time and peak memory belong to one workload. Set-up is importing numpy and
rivercommons, loading the config and generating the first batch of inputs;
the process prints "ready" when it is done. With --setup-only it then exits;
otherwise it measures, checks the golden digests outside the timed section
and prints one JSON line.

    python3 perfbench/worker.py --print-golden   # digests of the current code
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
CONFIG = ROOT / "configs" / "default.json"


def import_program():
    """rivercommons from this checkout's src/, never an installed copy."""
    package = ROOT / "src" / "rivercommons"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(package.parent))
    import rivercommons

    if Path(rivercommons.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {rivercommons.__file__}, not {package}")
    return rivercommons


def _timed(wl, inputs, sampler=None):
    """(seconds, attempted, failed) of one batch, less calibration samples."""
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    attempted, failed = wl.run(inputs)
    dt = time.perf_counter() - t0
    return dt - (sampler.spent - spent if sampler else 0.0), attempted, failed


def measure(wl, first, seconds):
    """Whole batches until `seconds` of timed work; input generation is untimed.
    ops_per_s is scaled to the nominal host speed (see calibration.py)."""
    from calibration import Sampler, slowdown

    busy = 0.0
    attempted = failed = batches = 0
    inputs = first
    batch_s = []
    with Sampler() as sampler:
        while True:
            dt, a, f = _timed(wl, inputs, sampler)
            batch_s.append((dt, a - f))
            busy += dt
            attempted += a
            failed += f
            batches += 1
            if busy >= seconds:
                break
            inputs = wl.inputs(batches)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_rate = (attempted - failed) / busy
    metrics = {"ops_per_s": {"value": wall_rate * slowdown(sampler.samples), "unit": "1/s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    info = {"busy_s": busy, "batches": batches, "batch_s": batch_s, "ops_per_s_wall": wall_rate,
            "host_slowdown": slowdown(sampler.samples),
            "samples": {"ops_per_s": attempted, "peak_rss_mb": 1,
                        "calibration": len(sampler.samples)}}
    return attempted, failed, metrics, info, []


def measure_traced(wl, first, seconds, trace_path):
    """A fixed set of batches, sized from `seconds`, each run untraced and
    then traced, so counts repeat exactly for a seed and the two times give
    the tracing overhead under the same host load."""
    from tracing import Tracer, layer_metrics

    n = max(1, round(seconds / 2 / wl.nominal_batch_s))
    batches = [first] + [wl.inputs(b) for b in range(1, n)]
    _timed(wl, first)  # warm-up, so the first untraced batch is not the colder one
    tracer = Tracer()
    untraced = wall = 0.0
    attempted = failed = 0
    for inputs in batches:
        untraced += _timed(wl, inputs)[0]
        tracer.install()
        wl.op = tracer.op
        try:
            dt, a, f = _timed(wl, inputs)
        finally:
            tracer.uninstall()
            wl.op = nullcontext
        wall += dt
        attempted += a
        failed += f
    tracer.write(trace_path)

    errors, unattributed = tracer.check(wall)
    stats = tracer.by_name()
    errors += [f"traced layer {name} recorded no calls on {wl.name}"
               for name in wl.dominant_layers if not stats.get(name)]
    metrics = layer_metrics(tracer, wall, unattributed, untraced, attempted, failed)
    info = {"batches": n, "trace_file": str(trace_path),
            "samples": {name: len(durs) for name, (durs, _) in sorted(stats.items())}}
    return attempted, failed, metrics, info, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--print-golden", action="store_true")
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("RIVERCOMMONS_")]:
        del os.environ[key]
    rc = import_program()
    import numpy

    import golden
    from workloads import WORKLOADS

    if not args.print_golden and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    scratch = OUT / f"scratch-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        base = rc.load_config(str(CONFIG))
        if args.print_golden:
            wls = [cls(rc, base, 0, scratch) for cls in WORKLOADS.values()]
            print(json.dumps(golden.compute(rc, base, wls, scratch), indent=2, sort_keys=True))
            return 0
        wl = WORKLOADS[args.workload](rc, base, args.seed, scratch)
        first = wl.inputs(0)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
            attempted, failed, metrics, info, errors = measure_traced(
                wl, first, args.seconds, trace_path)
        else:
            attempted, failed, metrics, info, errors = measure(wl, first, args.seconds)

        wl.check_outputs()
        actual = {"records_csv_sha256": golden.records_digests(rc, base, scratch),
                  "workload_sha256": {wl.name: wl.golden()}}
        mismatched = golden.mismatches(actual, golden.load())
        errors = wl.errors + errors + [f"golden digest mismatch: {m}" for m in mismatched]
        if failed:
            errors.append(f"{failed} of {attempted} operations failed: "
                          + "; ".join(wl.failures[:3]))
        info.update(numpy=numpy.__version__, golden_checked=sum(map(len, actual.values())),
                    golden_mismatched=len(mismatched), failures=wl.failures[:5])
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                          "metrics": metrics, "errors": errors, "info": info}), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
