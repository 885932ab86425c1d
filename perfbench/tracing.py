"""Layer spans for the traced benchmark run.

The spans are recorded from the benchmark's own files: each layer function
is replaced, while a traced batch runs, by a wrapper installed at the
binding site its caller resolves. Nothing under src/ is edited. Spans stay in
memory and are written out when the run ends.

The per-cell scalar functions (`pair_payoffs`, `irrigated_fields` and the CPR
`payoff` closure) run about 400 k times per cell, so they are not wrapped;
their work is reported as computed counts (`games.payoff_cells`).
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# (module whose namespace the caller resolves the name in, attribute, span).
# A name the benchmark itself calls is wrapped on the package, because the
# benchmark resolves it there at call time.
BINDINGS = (
    ("rivercommons", "sweep", "harness.sweep"),
    ("rivercommons", "run_simulation", "harness.run_simulation"),
    ("rivercommons.harness", "run_simulation", "harness.run_simulation"),
    ("rivercommons", "emit_outputs", "harness.emit_outputs"),
    ("rivercommons.harness", "SyntheticInflow.year", "harness.inflow_year"),
    ("rivercommons.harness", "advance_year", "ecology.advance_year"),
    ("rivercommons.ecology", "route_river", "ecology.route_river"),
    ("rivercommons.ecology", "step_fish", "ecology.step_fish"),
    ("rivercommons.ecology", "crop_outcome", "ecology.crop_outcome"),
    ("rivercommons.harness", "expert_egta_decide", "policies.expert_egta_decide"),
    ("rivercommons.harness", "generative_decide", "policies.generative_decide"),
    ("rivercommons.harness", "naive_egta_decide", "policies.naive_egta_decide"),
    ("rivercommons.policies", "solve_irrigation_game", "games.solve_irrigation_game"),
    ("rivercommons.policies", "build_cpr_fishing_game", "games.build_cpr_fishing_game"),
    ("rivercommons.policies", "solve_symmetric_cpr", "equilibrium.solve_symmetric_cpr"),
    ("rivercommons.games", "build_irrigation_game", "games.build_irrigation_game"),
    ("rivercommons.games", "enumerate_pure_ne", "equilibrium.enumerate_pure_ne"),
    ("rivercommons.games", "select_equilibrium", "equilibrium.select_equilibrium"),
    ("rivercommons.games", "lemke_howson", "equilibrium.lemke_howson"),
    ("rivercommons.harness", "parse_llm_game", "games.parse_llm_game"),
    ("rivercommons.gateway", "Gateway.complete", "gateway.complete"),
    ("rivercommons.policies", "render_prompt", "gateway.render_prompt"),
    ("rivercommons.policies", "extract_structured", "gateway.extract_structured"),
    ("rivercommons.games", "extract_structured", "gateway.extract_structured"),
    ("rivercommons", "enumerate_pure_ne", "equilibrium.enumerate_pure_ne"),
    ("rivercommons", "lemke_howson", "equilibrium.lemke_howson"),
    ("rivercommons", "is_epsilon_ne", "equilibrium.is_epsilon_ne"),
)

# Sweep workloads have no benchmark-side span per cell; a run started by
# `sweep` opens its own operation instead.
OP_ROOTS = {("rivercommons.harness", "run_simulation")}

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("harness.run_simulation.calls", "count", "higher"),
    ("harness.run_simulation.p50_ms", "ms", "lower"),
    ("harness.sweep.overhead_s", "s", "lower"),
    ("harness.inflow_year.total_s", "s", "lower"),
    ("harness.emit_outputs.total_s", "s", "lower"),
    ("harness.records_csv_bytes", "B", "lower"),
    ("ecology.advance_year.calls", "count", "lower"),
    ("ecology.advance_year.self_s", "s", "lower"),
    ("ecology.route_river.total_s", "s", "lower"),
    ("ecology.step_fish.total_s", "s", "lower"),
    ("ecology.crop_outcome.total_s", "s", "lower"),
    ("policies.expert_egta_decide.self_s", "s", "lower"),
    ("policies.generative_decide.self_s", "s", "lower"),
    ("policies.naive_egta_decide.self_s", "s", "lower"),
    ("policies.fallbacks", "count", "lower"),
    ("policies.clamps", "count", "lower"),
    ("games.build_irrigation_game.calls", "count", "lower"),
    ("games.build_irrigation_game.total_s", "s", "lower"),
    ("games.build_irrigation_game.p50_us", "us", "lower"),
    ("games.payoff_cells", "count", "lower"),
    ("games.solve_irrigation_game.self_s", "s", "lower"),
    ("games.build_cpr_fishing_game.total_s", "s", "lower"),
    ("games.parse_llm_game.total_s", "s", "lower"),
    ("equilibrium.enumerate_pure_ne.calls", "count", "lower"),
    ("equilibrium.enumerate_pure_ne.total_s", "s", "lower"),
    ("equilibrium.pure_ne_per_game", "count", "lower"),
    ("equilibrium.select_equilibrium.total_s", "s", "lower"),
    ("equilibrium.solve_symmetric_cpr.calls", "count", "lower"),
    ("equilibrium.solve_symmetric_cpr.total_s", "s", "lower"),
    ("equilibrium.cpr_unverified_frac", "frac", "lower"),
    ("equilibrium.lemke_howson.calls", "count", "lower"),
    ("equilibrium.lemke_howson.total_s", "s", "lower"),
    ("equilibrium.lemke_howson.p50_ms", "ms", "lower"),
    ("equilibrium.is_epsilon_ne.total_s", "s", "lower"),
    ("gateway.complete.calls", "count", "lower"),
    ("gateway.complete.total_s", "s", "lower"),
    ("gateway.render_prompt.total_s", "s", "lower"),
    ("gateway.extract_structured.total_s", "s", "lower"),
    ("gateway.parse_ok_frac", "frac", "higher"),
    ("bench.failed_ops_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
)


class BindingError(RuntimeError):
    """A mapped binding site no longer exists."""


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    fn = getattr(owner, leaf, None) if owner is not None else None
    if not callable(fn):
        raise BindingError(f"traced binding {module_name}.{attr} no longer exists; "
                           "update perfbench/tracing.py BINDINGS")
    return owner, leaf, fn


class Tracer:
    """In-memory span recorder.

    Span i is (names[i], starts[i], ends[i], parents[i], ops[i]); parents
    index the same columns, -1 at top level. Columns of plain floats and ints
    keep the garbage collector from scanning every recorded span.
    """

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.ops = [], [], [], [], []
        self.counts = Counter()
        self.pure_ne_counts = []
        self._stack = []
        self._op = None
        self._next_op = 0
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, starts_op):
        if starts_op:
            self._op = self._next_op
            self._next_op += 1
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i, starts_op):
        self.ends[i] = time.perf_counter()
        self._stack.pop()
        if starts_op:
            self._op = None

    @contextmanager
    def op(self):
        """Span for one benchmark operation; its children share its op id."""
        i = self._open("bench.op", True)
        try:
            yield
        finally:
            self._close(i, True)

    def _wrap(self, fn, name, starts_op):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            i = self._open(name, starts_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, starts_op)
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding site; raises BindingError if one is missing."""
        resolved = [(_resolve(module, attr), name, (module, attr) in OP_ROOTS)
                    for module, attr, name in BINDINGS]
        for (owner, leaf, fn), name, starts_op in resolved:
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, starts_op))

    def uninstall(self):
        while self._installed:
            owner, leaf, fn = self._installed.pop()
            setattr(owner, leaf, fn)

    # -- analysis ----------------------------------------------------------

    def by_name(self):
        """name -> (durations, self times)."""
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durs)
        for parent, d in zip(self.parents, durs):
            if parent >= 0:
                covered[parent] += d
        out = {}
        for name, d, c in zip(self.names, durs, covered):
            entry = out.setdefault(name, ([], []))
            entry[0].append(d)
            entry[1].append(d - c)
        return out

    def check(self, wall):
        """(errors, unattributed seconds). Errors if spans do not nest, or if
        self times plus the unattributed remainder do not add up to the traced
        wall time."""
        errors = []
        for i, (start, end, parent) in enumerate(zip(self.starts, self.ends, self.parents)):
            if end < start:
                errors.append(f"span {i} ({self.names[i]}) ends before it starts")
            elif parent >= 0 and (start < self.starts[parent] or end > self.ends[parent]):
                errors.append(f"span {i} ({self.names[i]}) leaves its parent {parent}")
            if len(errors) >= 5:
                break
        self_total = sum(sum(selfs) for _, selfs in self.by_name().values())
        unattributed = wall - sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                                  if p < 0)
        if unattributed < -1e-6:
            errors.append(f"top-level spans cover {-unattributed:.6f} s more than the wall time")
        if abs(self_total + unattributed - wall) > 1e-6 * max(1.0, wall):
            errors.append(f"self times {self_total:.6f} s + unattributed {unattributed:.6f} s "
                          f"!= wall {wall:.6f} s")
        return errors, unattributed

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span)))
                         + "\n")


def _after_run(tracer, artifacts, args):
    tracer.counts["fallbacks"] += artifacts.fallback_events
    tracer.counts["clamps"] += artifacts.clamp_events


def _after_emit(tracer, paths, args):
    with open(paths["records"], "rb") as fh:
        tracer.counts["records_csv_bytes"] += len(fh.read())


def _after_build(tracer, game, args):
    tracer.counts["payoff_cells"] += game.shape[0] * game.shape[1]


def _after_enumerate(tracer, cells, args):
    tracer.pure_ne_counts.append(len(cells))


def _after_cpr(tracer, solution, args):
    tracer.counts["cpr_unverified"] += not solution.is_equilibrium


def _after_extract(tracer, value, args):
    tracer.counts["extract_ok"] += 1


# Counters read from a wrapped call's result; each runs after the span closes.
_AFTER = {
    "harness.run_simulation": _after_run,
    "harness.emit_outputs": _after_emit,
    "games.build_irrigation_game": _after_build,
    "equilibrium.enumerate_pure_ne": _after_enumerate,
    "equilibrium.solve_symmetric_cpr": _after_cpr,
    "gateway.extract_structured": _after_extract,
}


def layer_metrics(tracer, wall, unattributed, untraced_wall, attempted, failed):
    """Every LAYER_METRICS value, keyed by name, from one traced pass."""
    stats = tracer.by_name()

    def calls(name):
        return len(stats.get(name, ((), ()))[0])

    def total(name):
        return sum(stats.get(name, ((), ()))[0])

    def self_time(name):
        return sum(stats.get(name, ((), ()))[1])

    def p50(name):
        durs = stats.get(name, ((), ()))[0]
        return statistics.median(durs) if durs else 0.0

    def frac(part, whole):
        return part / whole if whole else 0.0

    c = tracer.counts
    values = {
        "harness.run_simulation.calls": calls("harness.run_simulation"),
        "harness.run_simulation.p50_ms": p50("harness.run_simulation") * 1e3,
        "harness.sweep.overhead_s": self_time("harness.sweep"),
        "harness.inflow_year.total_s": total("harness.inflow_year"),
        "harness.emit_outputs.total_s": total("harness.emit_outputs"),
        "harness.records_csv_bytes": c["records_csv_bytes"],
        "ecology.advance_year.calls": calls("ecology.advance_year"),
        "ecology.advance_year.self_s": self_time("ecology.advance_year"),
        "ecology.route_river.total_s": total("ecology.route_river"),
        "ecology.step_fish.total_s": total("ecology.step_fish"),
        "ecology.crop_outcome.total_s": total("ecology.crop_outcome"),
        "policies.expert_egta_decide.self_s": self_time("policies.expert_egta_decide"),
        "policies.generative_decide.self_s": self_time("policies.generative_decide"),
        "policies.naive_egta_decide.self_s": self_time("policies.naive_egta_decide"),
        "policies.fallbacks": c["fallbacks"],
        "policies.clamps": c["clamps"],
        "games.build_irrigation_game.calls": calls("games.build_irrigation_game"),
        "games.build_irrigation_game.total_s": total("games.build_irrigation_game"),
        "games.build_irrigation_game.p50_us": p50("games.build_irrigation_game") * 1e6,
        "games.payoff_cells": c["payoff_cells"],
        "games.solve_irrigation_game.self_s": self_time("games.solve_irrigation_game"),
        "games.build_cpr_fishing_game.total_s": total("games.build_cpr_fishing_game"),
        "games.parse_llm_game.total_s": total("games.parse_llm_game"),
        "equilibrium.enumerate_pure_ne.calls": calls("equilibrium.enumerate_pure_ne"),
        "equilibrium.enumerate_pure_ne.total_s": total("equilibrium.enumerate_pure_ne"),
        "equilibrium.pure_ne_per_game": (statistics.fmean(tracer.pure_ne_counts)
                                         if tracer.pure_ne_counts else 0.0),
        "equilibrium.select_equilibrium.total_s": total("equilibrium.select_equilibrium"),
        "equilibrium.solve_symmetric_cpr.calls": calls("equilibrium.solve_symmetric_cpr"),
        "equilibrium.solve_symmetric_cpr.total_s": total("equilibrium.solve_symmetric_cpr"),
        "equilibrium.cpr_unverified_frac": frac(c["cpr_unverified"],
                                                calls("equilibrium.solve_symmetric_cpr")),
        "equilibrium.lemke_howson.calls": calls("equilibrium.lemke_howson"),
        "equilibrium.lemke_howson.total_s": total("equilibrium.lemke_howson"),
        "equilibrium.lemke_howson.p50_ms": p50("equilibrium.lemke_howson") * 1e3,
        "equilibrium.is_epsilon_ne.total_s": total("equilibrium.is_epsilon_ne"),
        "gateway.complete.calls": calls("gateway.complete"),
        "gateway.complete.total_s": total("gateway.complete"),
        "gateway.render_prompt.total_s": total("gateway.render_prompt"),
        "gateway.extract_structured.total_s": total("gateway.extract_structured"),
        "gateway.parse_ok_frac": frac(c["extract_ok"], calls("gateway.extract_structured")),
        "bench.failed_ops_frac": frac(failed, attempted),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.unattributed_s": unattributed,
        "trace.wall_s": wall,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
