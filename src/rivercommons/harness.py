"""The run loop: the inflow series, the pipeline types, `run_simulation` (each
year: inflow, `pipeline.decide`, `ecology.advance_year`, `pipeline.end_year`),
sweeps over a grid of runs and the calibration check."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .config import InflowConfig, RunConfig, load_prompts, read_inflow_csv
from .ecology import (Decision, FishPopulation, RiverYear, WorldState,
                      YearRecord, advance_year)
from .errors import ConfigurationError, RiverCommonsError, SimulationError
from .games import parse_llm_game
from .gateway import Gateway, bind_prompt
from .outputs import GRID_FIELDS, summarize, summary_row
from .policies import (action_situations, centralized_allocate, default_fish_target,
                       expert_egta_decide, generative_decide, naive_egta_decide,
                       procedural_decide, solve_fishing_game)


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
        # Python floats convert faster in RiverYear than numpy scalars, to the same values.
        return RiverYear(monthly.tolist())


# The river series of the last this many (inflow config, seed, horizon) keys are
# kept, so runs that repeat a recent key, such as one seed's sweep cells, share one.
SERIES_CACHE_SIZE = 16


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE)
def _synthetic_series(cfg: InflowConfig, cfg_repr: str, seed: int, horizon: int) -> tuple:
    # cfg_repr is part of the key because configs that compare equal can
    # still draw different bytes (mean_annual -0.0 and 0.0).
    inflow = SyntheticInflow(cfg, seed)
    return tuple(inflow.year(t) for t in range(horizon + 1))


def river_series(config: RunConfig) -> tuple[RiverYear, ...]:
    """The run's `RiverYear`s for years 0..horizon. A synthetic series is
    drawn once per (inflow config, seed, horizon) and shared, read-only, by
    every run that asks for it (the last SERIES_CACHE_SIZE are kept); the
    CSV that `csv_path` names is read again on every call, and its years
    cycle when the horizon outruns them."""
    cfg = config.inflow
    if cfg.csv_path:
        years = read_inflow_csv(cfg.csv_path)
        return tuple(years[t % len(years)] for t in range(config.horizon + 1))
    return _synthetic_series(cfg, repr(cfg), config.seed, config.horizon)


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


class _Procedural:
    """The procedural pipeline and the base of the other four: its rule is
    the LLM pipelines' fallback; its hooks do nothing, and it has no `events`.
    `fish_targets` holds each household's constant fish target for the run."""

    as_models = events = ()

    def __init__(self, config: RunConfig, year0: RiverYear):
        self.config = config
        self.fish_targets = [default_fish_target(household, config.n_households,
                                                 config.fish_target_base)
                             for household in range(1, config.n_households + 1)]

    def rule(self, h: YearRecord) -> Decision:
        cfg = self.config
        return procedural_decide(h, cfg.ecology, cfg.subsistence, cfg.max_fields,
                                 self.fish_targets[h.household - 1])

    def decide(self, state: WorldState):
        """One Decision per household."""
        return [self.rule(h) for h in state.households]

    def end_year(self, river: RiverYear, state: WorldState):
        pass

    def close(self):
        pass


class _Centralized(_Procedural):
    """The national authority allocates fields from its `budget` and its
    annual `inflows` so far; fish targets follow the procedural rule.
    `decisions` holds the run's one frozen Decision per (fields, fish target)."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        self.budget, self.inflows = config.authority_budget, [year0.annual_total]
        self.decisions = {}

    def decide(self, state: WorldState):
        allocation = centralized_allocate(self.budget, self.inflows, self.config)
        made = self.decisions
        decisions = []
        for key in zip(allocation, self.fish_targets):
            if key not in made:
                made[key] = Decision(*key)
            decisions.append(made[key])
        return decisions

    def end_year(self, river: RiverYear, state: WorldState):
        cfg = self.config
        self.inflows.append(river.annual_total)
        crop = sum(r.crop_income for r in state.households)
        irr_cost = cfg.ecology.c * sum(r.irrigated for r in state.households)
        consumption = cfg.ecology.kappa * cfg.n_households
        self.budget += crop - irr_cost - consumption


class _ExpertEgta(_Procedural):
    """The expert pipeline's run state: `roles`, each year's middle-household
    pair roles, drawn in one call from a generator seeded by the run's seed
    (row t for the decision made at year t); and one memo per game, each kept
    for the run: `fishing` for the CPR fishing game
    (`policies.solve_fishing_game`) and `solved` for the pair games
    (`policies.expert_egta_decide`)."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        n = config.n_households
        if n < 2:
            raise ConfigurationError("expert pipeline needs at least 2 households")
        # One call draws the same values in the same order, and leaves the
        # generator in the same state, as one n - 2 draw per year.
        self.roles = np.random.default_rng(config.seed).integers(
            2, size=(config.horizon, n - 2)).tolist()
        self.fishing, self.solved = {}, {}

    def decide(self, state: WorldState):
        cfg = self.config
        fishing = solve_fishing_game(state, cfg.ecology, cfg.e_max, cfg.effort_cost,
                                     self.fishing)
        return expert_egta_decide(state, cfg, fishing, self.roles[state.year], self.solved)


class _Generative(_Procedural):
    """The generative pipeline and the base of the naive one: the gateway,
    prompts and behaviour's `system` prompt of the LLM pipelines, asked once
    per household. At its first year it binds its `questions` once for all
    households to the run's fixed entries (`gateway.bind_prompt`); a year's
    view adds a household's own entries. Its events join the run's `events`."""

    def __init__(self, config: RunConfig, year0: RiverYear):
        super().__init__(config, year0)
        self.prompts = load_prompts(config.prompts_dir)
        self.system = self.prompts[config.behaviour]
        self.gateway = Gateway(config.gateway)
        self.events, self.questions = [], None

    def fixed_entries(self):
        """The prompt entries fixed for the run, the same for every household."""
        cfg = self.config
        return {"water_per_field": cfg.ecology.w, "irrigation_cost": cfg.ecology.c,
                "subsistence": cfg.subsistence, "max_fields": cfg.max_fields,
                "e_max": cfg.e_max}

    def bind_questions(self):
        """The role prompt, bound once to the run's fixed entries."""
        return bind_prompt(self.prompts["role"], self.fixed_entries())

    def decide(self, state: WorldState):
        if self.questions is None:
            self.questions = self.bind_questions()
        decisions = []
        for h in state.households:
            tags = {"year": state.year + 1, "household": h.household,
                    "pipeline": self.config.pipeline}
            view = {"predicted_water": round(h.node_inflow, 2),
                    "past_yield": round(h.crop_income, 2), "budget": round(h.budget, 2),
                    "default_fish_target": self.fish_targets[h.household - 1]}
            decision, events = self.decide_one(view, h, tags)
            decisions.append(decision)
            self.events.extend(events)
        return decisions

    def decide_one(self, view: dict, h: YearRecord, tags: dict):
        return generative_decide(view, self.system, self.gateway, self.questions,
                                 self.config.max_fields, self.config.e_max,
                                 view["default_fish_target"], lambda: self.rule(h), tags)

    def close(self):
        self.gateway.close()


class _NaiveEgta(_Generative):
    def bind_questions(self):
        """Step 1 of the naive pipeline: one extraction question at run
        start, the run's two action situations picked from its models, and
        the action prompt of each situation, bound once to the run's fixed
        entries and the situation's variables."""
        cfg = self.config
        self.as_models = self.gateway.ask((("user", self.prompts["as_extraction"]),),
                                          parse_llm_game, {"stage": "as_extraction"})
        situations = action_situations(self.as_models, cfg.max_fields, cfg.e_max)
        template, fixed = self.prompts["as_action"], self.fixed_entries()
        return tuple((None if values is None else bind_prompt(template, fixed | values), high)
                     for values, high in situations)

    def decide_one(self, view: dict, h: YearRecord, tags: dict):
        return naive_egta_decide(self.questions, view, self.system, self.gateway,
                                 self.config.low_action, lambda: self.rule(h), tags)


PIPELINE_TYPES = {"procedural": _Procedural, "generative": _Generative,
                  "naive-egta": _NaiveEgta, "expert-egta": _ExpertEgta,
                  "centralized": _Centralized}


def run_simulation(config: RunConfig) -> RunArtifacts:
    """Run one complete simulation; identical config + seed gives identical
    artifacts (and byte-identical CSV output) for every pipeline when the
    gateway uses the stub backend. The river comes from `river_series`, so
    runs that share the inflow config, seed and horizon share one synthetic
    draw. A ConfigurationError of the year step, such as an overflowing fish
    class, is raised as a SimulationError naming its year."""
    series = river_series(config)
    state = _initial_state(config, series[0])
    pipeline = PIPELINE_TYPES[config.pipeline](config, series[0])
    records = []
    try:
        for river in series[1:]:
            decisions = pipeline.decide(state)
            try:
                state = advance_year(state, river, decisions, config.ecology)
            except ConfigurationError as err:
                raise SimulationError(f"year step failed: {err}",
                                      year=state.year + 1) from err
            pipeline.end_year(river, state)
            records.extend(state.households)
    finally:
        pipeline.close()
    events = pipeline.events
    return RunArtifacts(config, records, events.count("fallback"), events.count("clamp"),
                        list(pipeline.as_models))


def sweep(base: RunConfig, pipelines=None, taus=None, behaviours=None, seeds=None):
    """One summary row per grid cell, in pipeline × tau × behaviour × seed
    order; an axis that is None or empty takes the base config's value. The
    cells run seed by seed, so the cells of one seed share a single river
    draw (see `river_series`) however many seeds there are. A cell that fails
    with a package error (a RiverCommonsError) is recorded in its row's
    `error` column and the rest still run; any other exception propagates."""
    axes = [list(values if values is not None else ()) or [getattr(base, name)]
            for name, values in zip(GRID_FIELDS, (pipelines, taus, behaviours, seeds))]
    cells = [dict(zip(GRID_FIELDS, values)) for values in itertools.product(*axes)]
    rows = [None] * len(cells)
    n_seeds = len(axes[-1])     # seed is the last, fastest-changing axis
    for i in sorted(range(len(cells)), key=lambda i: i % n_seeds):
        try:
            artifacts = run_simulation(replace(base, **cells[i]))
        except RiverCommonsError as err:
            rows[i] = summary_row(cells[i], error=f"{type(err).__name__}: {err}")
        else:
            rows[i] = summary_row(cells[i], artifacts)
    return rows


CALIBRATE_MIN_HORIZON = 30
CALIBRATE_TAUS = (0.0, 0.25, 1.0)


def calibrate_check(config: RunConfig, taus=CALIBRATE_TAUS) -> dict:
    """Run the expert pipeline over the tax grid and check the qualitative
    outcome pattern: tragedy without the tax, full sustainability with it.

    The untaxed checks apply iff tau is 0.0 or -0.0, since RunConfig rejects a
    negative or non-finite tau. Failed checks are report content; an empty
    tax grid is a ConfigurationError.
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
