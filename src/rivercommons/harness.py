"""Run configuration, the pipeline types and the annual run loop, robustness
sweeps, summary metrics, CSV/SVG emission, and the CLI.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import numbers
import os
import sys
import typing
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .ecology import (ActivityClass, Decision, EcologyParams, FishPopulation,
                      HouseholdState, RiverYear, WorldState, YearRecord,
                      advance_year)
from .equilibrium import BimatrixGame, enumerate_pure_ne, lemke_howson
from .errors import (ConfigurationError, RiverCommonsError, SimulationError,
                     _finite, check_finite)
from .games import parse_llm_game
from .gateway import ChatRequest, Gateway, GatewayConfig
from .policies import (AuthorityState, BehaviourProfile, centralized_allocate,
                       default_fish_target, expert_egta_decide,
                       generative_decide, naive_egta_decide, procedural_decide)

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")
BEHAVIOURS = ("altruistic", "balanced", "rational")
LLM_PIPELINES = ("generative", "naive-egta")

DEFAULT_INITIAL_FISH = (3000.0, 1500.0, 1200.0, 1000.0, 800.0) + (250.0,) * 8


@dataclass(frozen=True)
class InflowConfig:
    """Synthetic seasonal generator (seeded sinusoid + lognormal noise) or a
    CSV series with columns year, month, inflow."""

    source: str = "synthetic"        # "synthetic" or "csv"
    csv_path: str = None
    mean_annual: float = 800.0
    noise_sigma: float = 0.1
    peak_month: float = 7.0          # month of the seasonal flow peak
    shape_power: float = 2.0         # sharpness of the seasonal profile

    def __post_init__(self):
        check_finite(self)
        if self.source not in ("synthetic", "csv"):
            raise ConfigurationError(f"unknown inflow source: {self.source!r}")
        if self.mean_annual < 0 or self.noise_sigma < 0 or self.shape_power < 0:
            raise ConfigurationError("inflow parameters must be non-negative")


@dataclass(frozen=True)
class RunConfig:
    pipeline: str = "procedural"
    horizon: int = 100
    n_households: int = 9
    max_fields: int = 10
    tau: float = 0.0
    behaviour: str = "balanced"
    seed: int = 0
    subsistence: float = 50.0
    initial_budget: float = 100.0
    authority_budget: float = 1000.0
    authority_window: int = 20
    low_action: int = 2              # integer mapped to the abstract "low" label
    fish_target_base: int = 5
    e_max: int = 5
    effort_cost: float = 1.0
    pair_stress_threshold: float = 6.0
    ecology: EcologyParams = field(default_factory=EcologyParams)
    initial_fish: tuple = DEFAULT_INITIAL_FISH
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    inflow: InflowConfig = field(default_factory=InflowConfig)
    prompts_dir: str = None

    def __post_init__(self):
        check_finite(self)
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(
                f"unknown pipeline {self.pipeline!r}; valid: {', '.join(PIPELINES)}")
        if self.behaviour not in BEHAVIOURS:
            raise ConfigurationError(
                f"unknown behaviour {self.behaviour!r}; valid: {', '.join(BEHAVIOURS)}")
        if self.horizon < 1 or self.n_households < 1:
            raise ConfigurationError("horizon and n_households must be >= 1")
        if self.tau < 0:
            raise ConfigurationError("tau must be >= 0")
        if self.max_fields < 0 or self.e_max < 0 or self.low_action < 0:
            raise ConfigurationError("action bounds must be non-negative")


# The JSON values a scalar config field accepts. bool is a number to Python
# but never a valid count or coefficient, so it is rejected separately.
_FIELD_KINDS = {int: (numbers.Integral, "an integer"),
                float: (numbers.Real, "a number"),
                str: (str, "a string")}


def _build_section(cls, data, name):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {', '.join(sorted(unknown))}")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if hints[key] not in _FIELD_KINDS or (value is None and fields[key].default is None):
            continue
        kind, label = _FIELD_KINDS[hints[key]]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(f"{name} key {key!r} must be {label}, got {value!r}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    for name, cls in (("ecology", EcologyParams), ("gateway", GatewayConfig),
                      ("inflow", InflowConfig)):
        if name in data:
            data[name] = _build_section(cls, data[name], name)
    if "initial_fish" in data:
        fish = data["initial_fish"]
        if not isinstance(fish, (list, tuple)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in fish):
            raise ConfigurationError(
                f"config key 'initial_fish' must be a list of numbers, got {fish!r}")
        if not all(map(_finite, fish)):
            raise ConfigurationError(
                f"config key 'initial_fish' must hold finite numbers, got {fish!r}")
        data["initial_fish"] = tuple(float(v) for v in fish)
    return _build_section(RunConfig, data, "config")


def _load_json_object(path: str, kind: str) -> dict:
    """The JSON object in a file; any failure is a ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read {kind} file {path}: {err}") from err
    except ValueError as err:
        raise ConfigurationError(f"{kind} file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigurationError(f"{kind} file {path} must hold a JSON object")
    return data


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file, apply defaults, validate invariants."""
    return config_from_dict(_load_json_object(path, "config"))


# ---------------------------------------------------------------------------
# Inflow series


_SEASON_STREAM = 0x5EA50
_MONTHS = np.arange(1, 13)


def seasonal_weights(peak_month: float, shape_power: float) -> np.ndarray:
    """Monthly inflow shares. With shape_power >= 0 the month nearest the
    peak has a base of at least 1, so the division is safe."""
    base = (1.0 + np.cos(2.0 * np.pi * (_MONTHS - peak_month) / 12.0)) ** shape_power
    return base / base.sum()


class SyntheticInflow:
    """Deterministic per-(seed, year) seasonal inflow."""

    def __init__(self, cfg: InflowConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.weights = seasonal_weights(cfg.peak_month, cfg.shape_power)

    def year(self, t: int) -> RiverYear:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, _SEASON_STREAM, t]))
        sigma = self.cfg.noise_sigma
        noise = rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=12) \
            if sigma > 0 else np.ones(12)
        monthly = self.cfg.mean_annual * self.weights * noise
        return RiverYear(monthly)


class CsvInflow:
    """Inflow read from a year,month,inflow CSV; years cycle when the
    horizon outruns the series."""

    def __init__(self, path: str):
        table = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = {"year", "month", "inflow"} - set(reader.fieldnames or ())
            if missing:
                raise ConfigurationError(
                    f"inflow CSV {path} lacks columns {', '.join(sorted(missing))}")
            for row in reader:
                try:
                    y, m, inflow = int(row["year"]), int(row["month"]), float(row["inflow"])
                except (TypeError, ValueError) as err:
                    raise ConfigurationError(
                        f"inflow CSV {path} line {reader.line_num}: {err}") from err
                if not math.isfinite(inflow):
                    raise ConfigurationError(
                        f"inflow CSV {path} line {reader.line_num}: inflow must be "
                        f"finite, got {inflow}")
                table.setdefault(y, {})[m] = inflow
        self.years = sorted(table)
        if not self.years:
            raise ConfigurationError(f"inflow CSV {path} holds no rows")
        for y in self.years:
            if sorted(table[y]) != list(range(1, 13)):
                raise ConfigurationError(f"inflow CSV year {y} must have 12 months")
        self.table = table

    def year(self, t: int) -> RiverYear:
        y = self.years[t % len(self.years)]
        monthly = np.array([self.table[y][m] for m in range(1, 13)])
        return RiverYear(monthly)


def make_inflow(config: RunConfig):
    cfg = config.inflow
    if cfg.source == "csv" and cfg.csv_path and os.path.exists(cfg.csv_path):
        return CsvInflow(cfg.csv_path)
    # Missing CSV falls back to the documented synthetic generator.
    return SyntheticInflow(cfg, config.seed)


# ---------------------------------------------------------------------------
# Prompts and fixtures


PROMPT_FILES = ("role", "as_action", "as_extraction",
                "altruistic", "balanced", "rational")


def load_prompts(prompts_dir: str = None) -> dict:
    """Every prompt template, from `prompts_dir` or else the packaged copies."""
    root = (resources.files("rivercommons") / "prompts" if prompts_dir is None
            else Path(prompts_dir))
    prompts = {}
    for name in PROMPT_FILES:
        path = root / (name + ".txt")
        try:
            prompts[name] = path.read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigurationError(f"cannot read prompt file {path}: {err}") from err
    return prompts


# ---------------------------------------------------------------------------
# Simulation loop


@dataclass
class RunArtifacts:
    config: RunConfig
    records: list                      # YearRecord, year-major then household
    fish_series: list                  # adult stock at the end of each year
    fallback_events: int = 0
    clamp_events: int = 0
    as_models: list = field(default_factory=list)


def _initial_state(config: RunConfig, inflow) -> WorldState:
    year0 = inflow.year(0)
    households = tuple(
        HouseholdState(index=i + 1, budget=config.initial_budget,
                       last_yield_income=config.subsistence,
                       last_node_inflow=year0.annual_total)
        for i in range(config.n_households))
    fish = FishPopulation(np.array(config.initial_fish, dtype=float))
    rng = np.random.default_rng(config.seed)
    return WorldState(households=households, fish=fish, river=year0, rng=rng)


def _household_view(config: RunConfig, h: HouseholdState) -> dict:
    return {
        "predicted_water": round(h.last_node_inflow, 2),
        "water_per_field": config.ecology.w,
        "irrigation_cost": config.ecology.c,
        "past_yield": round(h.last_yield_income, 2),
        "subsistence": config.subsistence,
        "budget": round(h.budget, 2),
        "max_fields": config.max_fields,
        "e_max": config.e_max,
        "default_fish_target": default_fish_target(
            h.index, config.n_households, config.fish_target_base),
    }


class _Procedural:
    """The procedural pipeline and the base of the other four: its rule is
    the LLM pipelines' fallback, and its hooks do nothing."""

    as_models = ()

    def __init__(self, config: RunConfig, state: WorldState):
        self.config = config

    def rule(self, h: HouseholdState) -> Decision:
        cfg = self.config
        return procedural_decide(
            h, h.last_node_inflow, cfg.ecology, cfg.subsistence, cfg.max_fields,
            default_fish_target(h.index, cfg.n_households, cfg.fish_target_base))

    def decide(self, state: WorldState, year: int):
        """(one Decision per household, "fallback" and "clamp" events)."""
        return [self.rule(h) for h in state.households], ()

    def end_year(self, river: RiverYear, year_records: list):
        pass

    def close(self):
        pass


class _Centralized(_Procedural):
    """The national authority allocates fields from its inflow history and
    budget; fish targets follow the procedural rule."""

    def __init__(self, config: RunConfig, state: WorldState):
        super().__init__(config, state)
        self.authority = AuthorityState(config.authority_budget, [state.river.annual_total],
                                        config.authority_window)

    def decide(self, state: WorldState, year: int):
        cfg = self.config
        allocation = centralized_allocate(
            self.authority, cfg.ecology, cfg.n_households, cfg.max_fields)
        return [Decision(a, default_fish_target(h.index, cfg.n_households, cfg.fish_target_base))
                for a, h in zip(allocation, state.households)], ()

    def end_year(self, river: RiverYear, year_records: list):
        cfg = self.config
        self.authority.inflow_history.append(river.annual_total)
        crop = sum(r.crop_income for r in year_records)
        irr_cost = cfg.ecology.c * sum(r.irrigated for r in year_records)
        consumption = cfg.ecology.kappa * cfg.n_households
        self.authority.budget += crop - irr_cost - consumption


class _ExpertEgta(_Procedural):
    def decide(self, state: WorldState, year: int):
        cfg = self.config
        return expert_egta_decide(
            state, cfg.tau, cfg.ecology, cfg.pair_stress_threshold,
            cfg.max_fields, cfg.e_max, cfg.effort_cost, state.rng), ()


class _Generative(_Procedural):
    """The generative pipeline and the base of the naive one: the gateway,
    prompts and profile of the LLM pipelines, asked once per household."""

    def __init__(self, config: RunConfig, state: WorldState):
        super().__init__(config, state)
        self.prompts = load_prompts(config.prompts_dir)
        self.profile = BehaviourProfile(config.behaviour, self.prompts[config.behaviour])
        gw_cfg = config.gateway
        if gw_cfg.backend == "stub" and not gw_cfg.fixture_path:
            gw_cfg = replace(gw_cfg, fixture_path=str(
                resources.files("rivercommons") / "fixtures" / "stub_default.json"))
        self.gateway = Gateway(gw_cfg)

    def decide(self, state: WorldState, year: int):
        decisions, events = [], []
        for h in state.households:
            tags = {"year": year, "household": h.index, "pipeline": self.config.pipeline}
            decision, household_events = self.decide_one(
                _household_view(self.config, h), lambda h=h: self.rule(h), tags)
            decisions.append(decision)
            events.extend(household_events)
        return decisions, events

    def decide_one(self, view: dict, fallback, tags: dict):
        return generative_decide(view, self.profile, self.gateway, self.prompts["role"],
                                 self.config.max_fields, self.config.e_max, fallback, tags)

    def close(self):
        self.gateway.close()


class _NaiveEgta(_Generative):
    def decide(self, state: WorldState, year: int):
        if not self.as_models:
            # Step 1 of the naive pipeline: one extraction call at run start.
            request = ChatRequest(model=self.gateway.config.model,
                                  messages=(("user", self.prompts["as_extraction"]),))
            self.as_models = parse_llm_game(
                self.gateway.complete(request, tags={"stage": "as_extraction"}))
        return super().decide(state, year)

    def decide_one(self, view: dict, fallback, tags: dict):
        cfg = self.config
        return naive_egta_decide(self.as_models, view, self.profile, self.gateway,
                                 self.prompts["as_action"], cfg.max_fields, cfg.e_max,
                                 cfg.low_action, fallback, tags)


PIPELINE_TYPES = {"procedural": _Procedural, "generative": _Generative,
                  "naive-egta": _NaiveEgta, "expert-egta": _ExpertEgta,
                  "centralized": _Centralized}


def run_simulation(config: RunConfig) -> RunArtifacts:
    """Run one complete simulation; identical config + seed gives identical
    artifacts (and byte-identical CSV output) for every pipeline when the
    gateway uses the stub backend."""
    inflow = make_inflow(config)
    state = _initial_state(config, inflow)
    pipeline = PIPELINE_TYPES[config.pipeline](config, state)
    records, fish_series, fallbacks, clamps = [], [], 0, 0
    try:
        for year in range(1, config.horizon + 1):
            river = inflow.year(year)
            state = WorldState(households=state.households, fish=state.fish,
                               river=river, rng=state.rng, year=state.year)
            decisions, events = pipeline.decide(state, year)
            state, year_records = advance_year(state, decisions, config.ecology)
            pipeline.end_year(river, year_records)
            records.extend(year_records)
            fish_series.append(state.fish.adult_total)
            fallbacks += events.count("fallback")
            clamps += events.count("clamp")
    finally:
        pipeline.close()
    return RunArtifacts(config=config, records=records, fish_series=fish_series,
                        fallback_events=fallbacks, clamp_events=clamps,
                        as_models=list(pipeline.as_models))


# ---------------------------------------------------------------------------
# Metrics and outputs


SUMMARY_FIELDS = ("min_budget_final", "max_budget_final", "pct_both",
                  "pct_irrig_only", "pct_fish_only", "pct_none")


def summarize(artifacts: RunArtifacts) -> dict:
    """Final-year budget extremes and whole-run activity percentages."""
    records = artifacts.records
    final_year = max(r.year for r in records)
    finals = [r.budget for r in records if r.year == final_year]
    total = len(records)
    counts = {cls: 0 for cls in ActivityClass}
    for r in records:
        counts[r.activity] += 1
    return {
        "min_budget_final": min(finals),
        "max_budget_final": max(finals),
        "pct_both": 100.0 * counts[ActivityClass.BOTH] / total,
        "pct_irrig_only": 100.0 * counts[ActivityClass.FARMING_ONLY] / total,
        "pct_fish_only": 100.0 * counts[ActivityClass.FISHING_ONLY] / total,
        "pct_none": 100.0 * counts[ActivityClass.NONE] / total,
    }


GRID_FIELDS = ("pipeline", "tau", "behaviour", "seed")
SWEEP_COLUMNS = GRID_FIELDS + SUMMARY_FIELDS + ("fallback_events", "error")


def _summary_row(cell: dict, artifacts: RunArtifacts = None, error: str = "") -> dict:
    """A SWEEP_COLUMNS row: the cell's GRID_FIELDS values, then the run's
    summary, or blank summary fields and the error of a failed cell."""
    row = dict(cell, fallback_events=0, error=error)
    if artifacts is None:
        row.update(dict.fromkeys(SUMMARY_FIELDS, ""))
    else:
        row.update(summarize(artifacts), fallback_events=artifacts.fallback_events)
    return row


def sweep(base: RunConfig, pipelines=None, taus=None, behaviours=None, seeds=None):
    """One summary row per grid cell. A cell that fails with a package error
    (RiverCommonsError) is recorded in its row's `error` column and does not
    stop the remaining cells; any other exception propagates."""
    pipelines = list(pipelines or [base.pipeline])
    taus = list(taus if taus is not None else [base.tau])
    behaviours = list(behaviours or [base.behaviour])
    seeds = list(seeds if seeds is not None else [base.seed])
    rows = []
    for values in itertools.product(pipelines, taus, behaviours, seeds):
        cell = dict(zip(GRID_FIELDS, values))
        try:
            artifacts = run_simulation(replace(base, **cell))
        except RiverCommonsError as err:
            rows.append(_summary_row(cell, error=f"{type(err).__name__}: {err}"))
        else:
            rows.append(_summary_row(cell, artifacts))
    return rows


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, ActivityClass):
        return value.value
    return str(value)


RECORD_COLUMNS = YearRecord._fields


def _record_cells(r: YearRecord) -> tuple:
    """One records.csv row: the int columns as they are, repr of each float
    and the activity's value."""
    return (r.year, r.household, r.planted, r.irrigated, repr(r.delivered),
            repr(r.node_inflow), repr(r.stress), repr(r.crop_income), repr(r.catch),
            repr(r.fish_income), repr(r.budget), r.activity.value)


def _write_rows(fh, rows, columns):
    """CSV header plus one line per row mapping; missing cells are blank."""
    writer = csv.writer(fh)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col, "")) for col in columns])


def write_summary_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, rows, SWEEP_COLUMNS)


# -- minimal hand-rolled SVG charts (CSV is canonical; SVG is derived) ------

_SVG_W, _SVG_H, _SVG_PAD = 720, 360, 45

_ACTIVITY_COLORS = {
    ActivityClass.FARMING_ONLY: "#3b6fb5",
    ActivityClass.FISHING_ONLY: "#c23b3b",
    ActivityClass.BOTH: "#7b4fb5",
    ActivityClass.NONE: "#9a9a9a",
}


def _svg_header(title):
    return [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SVG_W}" height="{_SVG_H}">',
            f'<title>{title}</title>',
            f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>']


def budgets_svg(records) -> str:
    by_household = {}
    for r in records:
        by_household.setdefault(r.household, []).append((r.year, r.budget))
    years = sorted({r.year for r in records})
    budgets = [r.budget for r in records]
    lo, hi = min(budgets + [0.0]), max(budgets + [0.0])
    span = (hi - lo) or 1.0
    x0, x1 = _SVG_PAD, _SVG_W - _SVG_PAD
    y0, y1 = _SVG_H - _SVG_PAD, _SVG_PAD
    xmax = max(years) or 1

    def sx(year):
        return x0 + (x1 - x0) * (year - years[0]) / max(xmax - years[0], 1)

    def sy(v):
        return y0 - (y0 - y1) * (v - lo) / span

    parts = _svg_header("household budgets over time")
    zero_y = sy(0.0)
    parts.append(f'<line x1="{x0}" y1="{zero_y:.1f}" x2="{x1}" y2="{zero_y:.1f}" '
                 'stroke="#cccccc" stroke-dasharray="4 3"/>')
    n = len(by_household)
    for idx, (household, points) in enumerate(sorted(by_household.items())):
        hue = int(210 * idx / max(n - 1, 1))
        points.sort()
        pts = " ".join(f"{sx(y):.1f},{sy(b):.1f}" for y, b in points)
        parts.append(f'<polyline fill="none" stroke="hsl({hue},70%,45%)" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{x1 + 4}" y="{sy(points[-1][1]):.1f}" '
                     f'font-size="9">{household}</text>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    parts.append(f'<text x="4" y="{y1}" font-size="10">budget</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def activity_svg(records) -> str:
    by_year = {}
    for r in records:
        by_year.setdefault(r.year, []).append(r.activity)
    years = sorted(by_year)
    x0, x1 = _SVG_PAD, _SVG_W - _SVG_PAD
    y0, y1 = _SVG_H - _SVG_PAD, _SVG_PAD
    bar_w = (x1 - x0) / len(years)
    parts = _svg_header("activity shares per year")
    order = (ActivityClass.BOTH, ActivityClass.FARMING_ONLY,
             ActivityClass.FISHING_ONLY, ActivityClass.NONE)
    for i, year in enumerate(years):
        classes = by_year[year]
        total = len(classes)
        x = x0 + i * bar_w
        y = y0
        for cls in order:
            share = classes.count(cls) / total
            if share <= 0:
                continue
            h = (y0 - y1) * share
            y -= h
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                         f'height="{h:.2f}" fill="{_ACTIVITY_COLORS[cls]}"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    legend_x = x0
    for cls in order:
        parts.append(f'<rect x="{legend_x}" y="{y1 - 24}" width="10" height="10" '
                     f'fill="{_ACTIVITY_COLORS[cls]}"/>')
        parts.append(f'<text x="{legend_x + 14}" y="{y1 - 15}" font-size="9">'
                     f'{cls.value}</text>')
        legend_x += 120
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(artifacts: RunArtifacts, out_dir: str) -> dict:
    """Write records.csv, summary.csv and the two derived SVG charts.

    Returns a name -> path map. Re-emission of identical artifacts produces
    identical bytes.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        paths["records"] = os.path.join(out_dir, "records.csv")
        with open(paths["records"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RECORD_COLUMNS)
            writer.writerows(map(_record_cells, artifacts.records))
        cell = {name: getattr(artifacts.config, name) for name in GRID_FIELDS}
        paths["summary"] = os.path.join(out_dir, "summary.csv")
        write_summary_csv([_summary_row(cell, artifacts)], paths["summary"])
        for name, chart in (("budgets", budgets_svg), ("activity", activity_svg)):
            paths[name] = os.path.join(out_dir, name + ".svg")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(chart(artifacts.records))
        return paths
    except OSError as err:
        raise SimulationError(f"cannot write outputs under {out_dir}: {err}")


# ---------------------------------------------------------------------------
# Calibration gate


CALIBRATE_MIN_HORIZON = 30


def calibrate_check(config: RunConfig, taus=(0.0, 0.25, 1.0)) -> dict:
    """Run the expert pipeline over the tax grid and check the qualitative
    outcome pattern: tragedy without the tax, full sustainability with it.

    Failures are report content, not exceptions.
    """
    config = replace(config, pipeline="expert-egta")
    report = {"checks": [], "passed": True,
              "insufficient_horizon": config.horizon < CALIBRATE_MIN_HORIZON}

    def check(name, ok, detail):
        report["checks"].append({"name": name, "passed": bool(ok), "detail": detail})
        report["passed"] = report["passed"] and bool(ok)

    for tau in taus:
        summary = summarize(run_simulation(replace(config, tau=tau)))
        lo = summary["min_budget_final"]
        both = summary["pct_both"]
        if tau == 0:
            check(f"tau={tau}: some household in debt", lo < 0,
                  f"min final budget {lo:.2f}")
            check(f"tau={tau}: mixed economy collapses", both < 50.0,
                  f"pct_both {both:.1f}")
        else:
            check(f"tau={tau}: all budgets non-negative", lo >= 0,
                  f"min final budget {lo:.2f}")
            check(f"tau={tau}: full mixed economy", both == 100.0,
                  f"pct_both {both:.1f}")
    return report


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args):
    config = load_config(args.config)
    if args.out:
        gw = config.gateway
        if config.pipeline in LLM_PIPELINES and not gw.log_path:
            gw = dataclasses.replace(
                gw, log_path=os.path.join(args.out, "requests.jsonl"))
            os.makedirs(args.out, exist_ok=True)
            if os.path.exists(gw.log_path):
                os.remove(gw.log_path)
            config = replace(config, gateway=gw)
    artifacts = run_simulation(config)
    if args.out:
        paths = emit_outputs(artifacts, args.out)
        for name, path in sorted(paths.items()):
            print(f"{name}: {path}")
    summary = summarize(artifacts)
    for key in SUMMARY_FIELDS:
        print(f"{key}: {summary[key]:.2f}")
    return 0


def _cmd_sweep(args):
    base = load_config(args.config)
    rows = sweep(base,
                 pipelines=args.pipelines or None,
                 taus=args.taus or None,
                 behaviours=args.profiles or None,
                 seeds=args.seeds or None)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep.csv")
        write_summary_csv(rows, path)
        print(f"sweep: {path}")
    _write_rows(sys.stdout, rows, SWEEP_COLUMNS)
    return 0


def _cmd_solve_game(args):
    data = _load_json_object(args.game, "game")
    missing = {"row_payoffs", "col_payoffs"} - set(data)
    if missing:
        raise ConfigurationError(
            f"game file {args.game} lacks {', '.join(sorted(missing))}")
    try:
        row = np.array(data["row_payoffs"], dtype=float)
        col = np.array(data["col_payoffs"], dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(
            f"game file {args.game} payoffs must be rectangular numeric matrices: {err}") from err
    game = BimatrixGame(row, col, tuple(data.get("row_actions", ())),
                        tuple(data.get("col_actions", ())))
    pure = sorted(enumerate_pure_ne(game))
    print("pure equilibria:")
    if pure:
        for i, j in pure:
            print(f"  ({game.row_actions[i]}, {game.col_actions[j]})")
    else:
        print("  (none)")
    profile = lemke_howson(game, initial_label=args.initial_label)
    print("lemke-howson profile:")
    print(f"  row: {[round(float(p), 6) for p in profile.row_dist]}")
    print(f"  col: {[round(float(p), 6) for p in profile.col_dist]}")
    return 0


def _cmd_calibrate_check(args):
    config = load_config(args.config)
    report = calibrate_check(config, taus=args.taus or (0.0, 0.25, 1.0))
    if report["insufficient_horizon"]:
        print(f"warning: horizon {config.horizon} is below "
              f"{CALIBRATE_MIN_HORIZON}; pattern checks are unreliable")
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']} ({check['detail']})")
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rivercommons",
        description="Irrigation/fishing commons simulation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="robustness sweep over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--pipelines", nargs="*", default=None)
    p.add_argument("--taus", nargs="*", type=float, default=None)
    p.add_argument("--profiles", nargs="*", default=None)
    p.add_argument("--seeds", nargs="*", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve-game", help="solve a bimatrix game from JSON")
    p.add_argument("--game", required=True)
    p.add_argument("--initial-label", type=int, default=0)
    p.set_defaults(func=_cmd_solve_game)

    p = sub.add_parser("calibrate-check", help="verify the shipped defaults")
    p.add_argument("--config", required=True)
    p.add_argument("--taus", nargs="*", type=float, default=None)
    p.set_defaults(func=_cmd_calibrate_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiverCommonsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
