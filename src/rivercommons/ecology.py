"""Ecological simulation: river routing down a chain of households, crop
yields with accumulating plant stress, an age-structured lake fishery, and
the annual budget update that ties them together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_fields

N_FISH_CLASSES = 13
LARVA = 0
ADULT = slice(5, 13)
IRRIGATION_MONTHS = frozenset({5, 6, 7, 8, 9})  # months (1 = January) with withdrawals
MIGRATION_MONTH = 5  # the month whose lake inflow can trigger the migration pulse


class ActivityClass(str, Enum):
    BOTH = "both"
    FARMING_ONLY = "farming_only"
    FISHING_ONLY = "fishing_only"
    NONE = "none"


@dataclass(frozen=True)
class FishPopulation:
    """13 age classes: 0 = larvae, 1-4 = juveniles, 5-12 = adults."""

    classes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.classes, dtype=float)
        if c.shape != (N_FISH_CLASSES,):
            raise ConfigurationError(f"expected {N_FISH_CLASSES} age classes, got {c.shape}")
        if (c < 0).any():
            raise ConfigurationError("fish abundances must be non-negative")
        object.__setattr__(self, "classes", c)

    @property
    def adult_total(self) -> float:
        return float(self.classes[ADULT].sum())


@dataclass(frozen=True)
class RiverYear:
    """Monthly inflow at the head of the river for one year (index 0 = January)."""

    monthly_inflow: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.monthly_inflow, dtype=float)
        if v.shape != (12,):
            raise ConfigurationError(f"monthly_inflow must have 12 entries, got {v.shape}")
        if not np.isfinite(v).all():
            raise ConfigurationError(f"inflows must be finite, got {v.tolist()}")
        if (v < 0).any():
            raise ConfigurationError("inflows must be non-negative")
        object.__setattr__(self, "monthly_inflow", v)

    @property
    def annual_total(self) -> float:
        return float(self.monthly_inflow.sum())


@dataclass(frozen=True)
class EcologyParams:
    """All exogenous ecological and economic coefficients.

    Defaults are the shipped configuration, calibrated so the qualitative
    tragedy-vs-taxed-sustainability pattern emerges (see harness
    calibrate_check); they are artifact defaults, not published estimates.
    """

    w: float = 10.0              # water per field per year
    c: float = 10.0              # irrigation cost per irrigated field
    y0: float = 50.0             # baseline yield income per field
    ys: float = 24.0             # stressed yield income per field
    S: float = 70.0              # reach-wide stress threshold (fields)
    kappa: float = 50.0          # fixed annual consumption cost
    fish_price: float = 5.0      # money per fish
    sigma_adult: float = 0.8     # adult annual survival
    sigma_larva: float = 0.9     # larva/juvenile base survival (density-dependent)
    K_juv: float = 10000.0       # juvenile density-dependence capacity
    fecundity: float = 1.0       # larvae per adult per year
    Q_min: float = 40.0          # minimum May lake inflow for the migration pulse
    M_mig: float = 5000.0        # migrant larvae added when triggered
    Q_ref: float = 800.0         # lake-inflow normalization for reproduction
    stress_recovery: float = 0.25  # per-year stress decay

    def __post_init__(self):
        check_fields(self)
        if self.w <= 0 or self.c <= 0 or self.y0 <= 0:
            raise ConfigurationError("w, c and y0 must be positive")
        if not 0 < self.ys < self.y0:
            raise ConfigurationError("ys must satisfy 0 < ys < y0")
        if self.S < 0:
            raise ConfigurationError("stress threshold S must be non-negative")
        for name in ("sigma_adult", "sigma_larva"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ConfigurationError(f"{name} must lie in (0, 1], got {v}")
        if self.K_juv <= 0 or self.fecundity < 0 or self.Q_ref <= 0:
            raise ConfigurationError("K_juv and Q_ref must be positive, fecundity >= 0")
        if self.Q_min < 0 or self.M_mig < 0 or not 0 <= self.stress_recovery <= 1:
            raise ConfigurationError("Q_min, M_mig must be >= 0 and stress_recovery in [0, 1]")


@dataclass(frozen=True)
class RoutedWater:
    delivered: tuple            # annual volume delivered per household
    lake_inflow_by_month: np.ndarray
    node_inflow: tuple          # annual volume arriving at each node (before own withdrawal)


class YearRecord(NamedTuple):
    """One household's outcome in one year: one row of records.csv.
    Household 1 is the most upstream. The fields after `household` default
    to a year in which nothing happened (0, 0.0 and ActivityClass.NONE)."""

    year: int
    household: int
    planted: int = 0
    irrigated: int = 0
    delivered: float = 0.0
    node_inflow: float = 0.0
    stress: float = 0.0
    crop_income: float = 0.0
    catch: float = 0.0
    fish_income: float = 0.0
    budget: float = 0.0
    activity: ActivityClass = ActivityClass.NONE


@dataclass(frozen=True)
class Decision:
    """One household's annual choice."""

    fields_planted: int
    fish_target: int

    def __post_init__(self):
        if self.fields_planted < 0 or self.fish_target < 0:
            raise ConfigurationError("decision components must be non-negative")


@dataclass(frozen=True)
class WorldState:
    """What the ecology carries from one year to the next: each household's
    YearRecord of the year just ended, and the fish. In year 0 the records
    hold the initial conditions."""

    households: tuple
    fish: FishPopulation
    year: int = 0

    def __post_init__(self):
        for h in self.households:
            if h.household < 1:
                raise ConfigurationError(f"household must be >= 1, got {h.household}")
            if not 0.0 <= h.stress <= 1.0:
                raise ConfigurationError(f"stress must lie in [0, 1], got {h.stress}")
            if h.planted < 0:
                raise ConfigurationError(f"planted must be non-negative, got {h.planted}")

    @property
    def n_households(self) -> int:
        return len(self.households)


def route_river(river: RiverYear, planted_fields, params: EcologyParams) -> RoutedWater:
    """Sequential upstream-first withdrawal, month by month.

    Annual demand w * planted is spread equally over IRRIGATION_MONTHS;
    whatever is left after the last household reaches the lake.
    """
    if any(f < 0 for f in planted_fields):
        raise ConfigurationError("planted field counts must be non-negative")
    n = len(planted_fields)
    n_irr = len(IRRIGATION_MONTHS)
    monthly_demand = [params.w * f / n_irr for f in planted_fields]
    delivered = [0.0] * n
    node_inflow = [0.0] * n
    lake = []
    for month, flow in enumerate(river.monthly_inflow.tolist(), start=1):
        irrigating = month in IRRIGATION_MONTHS
        for i in range(n):
            node_inflow[i] += flow
            if irrigating and monthly_demand[i] > 0:
                take = min(monthly_demand[i], flow)
                delivered[i] += take
                flow -= take
        lake.append(flow)
    return RoutedWater(tuple(delivered), np.array(lake), tuple(node_inflow))


def _irrigated_count(planted: int, delivered: float, w: float) -> int:
    if planted <= 0:
        return 0
    # Small epsilon absorbs float dust from the monthly demand split.
    return min(planted, int(math.floor(delivered / w + 1e-9)))


def crop_outcome(planted: int, delivered: float, irrigated: int, stress_in: float,
                 total_irrigated_in_reach: int, params: EcologyParams):
    """Annual crop income and stress update for one household that could
    irrigate `irrigated` of its `planted` fields.

    Returns (income, stress_out). Stress accumulates with the water deficit
    and decays by `stress_recovery` per year.
    """
    if planted < 0 or delivered < 0:
        raise ConfigurationError("planted and delivered must be non-negative")
    per_field = params.y0 if total_irrigated_in_reach <= params.S else params.ys
    deficit = 0.0 if planted == 0 else max(0.0, 1.0 - delivered / (params.w * planted))
    stress_out = min(1.0, max(0.0, stress_in + deficit - params.stress_recovery))
    income = irrigated * per_field * (1.0 - stress_out)
    return income, stress_out


def step_fish(pop: FishPopulation, lake_inflow_by_month, harvest_targets,
              household_order, params: EcologyParams):
    """One year of the lake fishery: harvest, aging, recruitment.

    Households harvest in `household_order` (downstream first), each clipping
    its target to the remaining adult stock, removed proportionally across
    adult classes. Larva and juvenile transitions use Beverton-Holt
    density-dependent survival sigma * A / (1 + A / K_juv); adults survive at
    sigma_adult and the oldest class exits. Lake inflow of at least Q_min in
    MIGRATION_MONTH adds M_mig migrant larvae.
    """
    if any(t < 0 for t in harvest_targets):
        raise ConfigurationError("harvest targets must be non-negative")
    lake = np.asarray(lake_inflow_by_month, dtype=float)
    classes = pop.classes.copy()
    catches = [0.0] * len(harvest_targets)
    # The adult stock, summed in numpy (its pairwise sum fixes the rounding)
    # and summed again only after a harvest has changed the classes. After
    # the loop it is the post-harvest stock that spawns the larvae.
    remaining = float(classes[ADULT].sum())
    for i in household_order:
        take = min(float(harvest_targets[i]), remaining)
        catches[i] = take
        if take > 0:
            classes[ADULT] *= 1.0 - take / remaining
            remaining = float(classes[ADULT].sum())

    old = classes.tolist()
    new = [0.0] * N_FISH_CLASSES
    for k in range(0, 5):  # larvae and juveniles: density-dependent
        a = old[k]
        new[k + 1] = params.sigma_larva * a / (1.0 + a / params.K_juv)
    for k in range(5, 12):  # adults: constant survival, class 12 exits
        new[k + 1] = params.sigma_adult * old[k]

    annual_lake = float(lake.sum())
    scale = min(1.0, annual_lake / params.Q_ref)
    new[LARVA] = params.fecundity * remaining * scale
    if lake[MIGRATION_MONTH - 1] >= params.Q_min:
        new[LARVA] += params.M_mig
    return FishPopulation(np.maximum(new, 0.0)), tuple(catches)


def classify_activity(irrigated: int, catch: float) -> ActivityClass:
    if irrigated > 0 and catch > 0:
        return ActivityClass.BOTH
    if irrigated > 0:
        return ActivityClass.FARMING_ONLY
    if catch > 0:
        return ActivityClass.FISHING_ONLY
    return ActivityClass.NONE


def advance_year(state: WorldState, river: RiverYear, decisions, params: EcologyParams):
    """Run one simulation year on `river`: routing, crops, fishery, budget update.

    Returns the successor WorldState and one YearRecord per household; the
    successor holds those same records. Budgets may go negative (debt).
    """
    n = state.n_households
    if len(decisions) != n:
        raise ConfigurationError(
            f"expected {n} decisions, got {len(decisions)}")
    planted = [d.fields_planted for d in decisions]
    routed = route_river(river, planted, params)
    irrigated = [_irrigated_count(p, d, params.w)
                 for p, d in zip(planted, routed.delivered)]
    total_irrigated = sum(irrigated)

    downstream_first = list(range(n - 1, -1, -1))
    fish2, catches = step_fish(
        state.fish, routed.lake_inflow_by_month,
        [d.fish_target for d in decisions], downstream_first, params)

    year = state.year + 1
    records = []
    for h, p, delivered, irr, node_inflow, catch in zip(
            state.households, planted, routed.delivered, irrigated, routed.node_inflow,
            catches):
        income, stress_out = crop_outcome(
            p, delivered, irr, h.stress, total_irrigated, params)
        fish_income = params.fish_price * catch
        budget = h.budget + income + fish_income - params.c * irr - params.kappa
        records.append(YearRecord(
            year=year, household=h.household, planted=p, irrigated=irr,
            delivered=delivered, node_inflow=node_inflow, stress=stress_out,
            crop_income=income, catch=catch, fish_income=fish_income, budget=budget,
            activity=classify_activity(irr, catch)))

    return WorldState(households=tuple(records), fish=fish2, year=year), records
