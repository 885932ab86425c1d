"""The run loop: the inflow series, the pipeline types, `run_simulation` (each
year: inflow, `pipeline.decide`, `ecology.advance_year`, `pipeline.end_year`),
sweeps over a grid of runs and the calibration check."""
from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import InflowConfig, RunConfig, load_prompts
from .ecology import (Decision, FishPopulation, RiverYear, WorldState,
                      YearRecord, advance_year)
from .errors import ConfigurationError, RiverCommonsError
from .games import parse_llm_game
from .gateway import Gateway
from .outputs import GRID_FIELDS, summarize, summary_row
from .policies import (AuthorityState, BehaviourProfile, centralized_allocate,
                       default_fish_target, expert_egta_decide,
                       generative_decide, naive_egta_decide, procedural_decide)


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
                if not 0 <= inflow < math.inf:
                    raise ConfigurationError(
                        f"inflow CSV {path} line {reader.line_num}: inflow must be "
                        f"finite and non-negative, got {inflow}")
                table.setdefault(y, {})[m] = inflow
        if not table:
            raise ConfigurationError(f"inflow CSV {path} holds no rows")
        for y, months in table.items():
            if sorted(months) != list(range(1, 13)):
                raise ConfigurationError(f"inflow CSV year {y} must have 12 months")
        self.years = [RiverYear(np.array([table[y][m] for m in range(1, 13)]))
                      for y in sorted(table)]

    def year(self, t: int) -> RiverYear:
        return self.years[t % len(self.years)]


def make_inflow(config: RunConfig):
    cfg = config.inflow
    if cfg.csv_path and os.path.exists(cfg.csv_path):
        return CsvInflow(cfg.csv_path)
    # Missing CSV falls back to the documented synthetic generator.
    return SyntheticInflow(cfg, config.seed)


# ---------------------------------------------------------------------------
# Simulation loop


@dataclass
class RunArtifacts:
    config: RunConfig
    records: list                      # YearRecord, year-major then household
    fallback_events: int = 0
    clamp_events: int = 0
    as_models: list = field(default_factory=list)


def _initial_state(config: RunConfig, year0: RiverYear) -> WorldState:
    households = tuple(
        YearRecord(year=0, household=i + 1, node_inflow=year0.annual_total,
                   crop_income=config.subsistence, budget=config.initial_budget)
        for i in range(config.n_households))
    return WorldState(households=households, fish=FishPopulation(config.initial_fish))


def _household_view(config: RunConfig, h: YearRecord) -> dict:
    return {
        "predicted_water": round(h.node_inflow, 2),
        "water_per_field": config.ecology.w,
        "irrigation_cost": config.ecology.c,
        "past_yield": round(h.crop_income, 2),
        "subsistence": config.subsistence,
        "budget": round(h.budget, 2),
        "max_fields": config.max_fields,
        "e_max": config.e_max,
        "default_fish_target": default_fish_target(
            h.household, config.n_households, config.fish_target_base),
    }


class _Procedural:
    """The procedural pipeline and the base of the other four: its rule is
    the LLM pipelines' fallback, and its hooks do nothing."""

    as_models = ()

    def __init__(self, config: RunConfig, year0: RiverYear):
        self.config = config

    def rule(self, h: YearRecord) -> Decision:
        cfg = self.config
        return procedural_decide(
            h, cfg.ecology, cfg.subsistence, cfg.max_fields,
            default_fish_target(h.household, cfg.n_households, cfg.fish_target_base))

    def decide(self, state: WorldState):
        """(one Decision per household, "fallback" and "clamp" events)."""
        return [self.rule(h) for h in state.households], ()

    def end_year(self, river: RiverYear, year_records: list):
        pass

    def close(self):
        pass


class _Centralized(_Procedural):
    """The national authority allocates fields from its inflow history and
    budget; fish targets follow the procedural rule."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        self.authority = AuthorityState(config.authority_budget, [year0.annual_total],
                                        config.authority_window)

    def decide(self, state: WorldState):
        cfg = self.config
        allocation = centralized_allocate(
            self.authority, cfg.ecology, cfg.n_households, cfg.max_fields)
        return [Decision(a, default_fish_target(h.household, cfg.n_households,
                                                cfg.fish_target_base))
                for a, h in zip(allocation, state.households)], ()

    def end_year(self, river: RiverYear, year_records: list):
        cfg = self.config
        self.authority.inflow_history.append(river.annual_total)
        crop = sum(r.crop_income for r in year_records)
        irr_cost = cfg.ecology.c * sum(r.irrigated for r in year_records)
        consumption = cfg.ecology.kappa * cfg.n_households
        self.authority.budget += crop - irr_cost - consumption


class _ExpertEgta(_Procedural):
    """The expert pipeline; its own generator draws each middle household's
    choice between its two pair strategies."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        self.rng = np.random.default_rng(config.seed)

    def decide(self, state: WorldState):
        cfg = self.config
        return expert_egta_decide(
            state, cfg.tau, cfg.ecology, cfg.pair_stress_threshold,
            cfg.max_fields, cfg.e_max, cfg.effort_cost, self.rng), ()


class _Generative(_Procedural):
    """The generative pipeline and the base of the naive one: the gateway,
    prompts and profile of the LLM pipelines, asked once per household."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        self.prompts = load_prompts(config.prompts_dir)
        self.profile = BehaviourProfile(self.prompts[config.behaviour])
        self.gateway = Gateway(config.gateway)

    def decide(self, state: WorldState):
        decisions, events = [], []
        for h in state.households:
            tags = {"year": state.year + 1, "household": h.household,
                    "pipeline": self.config.pipeline}
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
    def decide(self, state: WorldState):
        if not self.as_models:
            # Step 1 of the naive pipeline: one extraction question at run start.
            self.as_models = self.gateway.ask((("user", self.prompts["as_extraction"]),),
                                              parse_llm_game, {"stage": "as_extraction"})
        return super().decide(state)

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
    year0 = inflow.year(0)
    state = _initial_state(config, year0)
    pipeline = PIPELINE_TYPES[config.pipeline](config, year0)
    records, fallbacks, clamps = [], 0, 0
    try:
        for year in range(1, config.horizon + 1):
            river = inflow.year(year)
            decisions, events = pipeline.decide(state)
            state, year_records = advance_year(state, river, decisions, config.ecology)
            pipeline.end_year(river, year_records)
            records.extend(year_records)
            fallbacks += events.count("fallback")
            clamps += events.count("clamp")
    finally:
        pipeline.close()
    return RunArtifacts(config=config, records=records, fallback_events=fallbacks,
                        clamp_events=clamps, as_models=list(pipeline.as_models))


def sweep(base: RunConfig, pipelines=None, taus=None, behaviours=None, seeds=None):
    """One summary row per grid cell; an axis that is None or empty takes the
    base config's value. A cell that fails with a package error (a
    RiverCommonsError) is recorded in its row's `error` column and the rest
    still run; any other exception propagates."""
    axes = [list(values if values is not None else ()) or [getattr(base, name)]
            for name, values in zip(GRID_FIELDS, (pipelines, taus, behaviours, seeds))]
    rows = []
    for values in itertools.product(*axes):
        cell = dict(zip(GRID_FIELDS, values))
        try:
            artifacts = run_simulation(replace(base, **cell))
        except RiverCommonsError as err:
            rows.append(summary_row(cell, error=f"{type(err).__name__}: {err}"))
        else:
            rows.append(summary_row(cell, artifacts))
    return rows


CALIBRATE_MIN_HORIZON = 30
CALIBRATE_TAUS = (0.0, 0.25, 1.0)


def calibrate_check(config: RunConfig, taus=CALIBRATE_TAUS) -> dict:
    """Run the expert pipeline over the tax grid and check the qualitative
    outcome pattern: tragedy without the tax, full sustainability with it.

    Failed checks are report content; an empty tax grid is a ConfigurationError.
    """
    taus = tuple(taus)
    if not taus:
        raise ConfigurationError("calibrate_check needs at least one tax level")
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
