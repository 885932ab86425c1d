"""Ecological simulation: river routing down a chain of households, crop
yields with accumulating plant stress, an age-structured lake fishery, and
the annual budget update that ties them together.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


def _checked_floats(values, count: int, what: str, unit: str) -> tuple:
    """`values`, any sequence of `count` numbers (a numpy array too), as a
    tuple of Python floats. Anything else, text and unordered collections
    included, and a NaN, infinite or negative value, is a ConfigurationError
    naming `what`."""
    if isinstance(values, (str, bytes, bytearray, Set, Mapping)):
        raise ConfigurationError(f"{what} must be a sequence of numbers, "
                                 f"got a {type(values).__name__}")
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{what} must be a sequence of numbers: {err}") from err
    if len(floats) != count:
        raise ConfigurationError(f"expected {count} {what}, got {len(floats)}")
    if not all(map(math.isfinite, floats)):
        raise ConfigurationError(f"{unit} must be finite, got {list(floats)}")
    if min(floats) < 0.0:
        raise ConfigurationError(f"{unit} must be non-negative")
    return floats


def _numpy_sum(values) -> float:
    """The sum of 8 to 15 floats as numpy's `sum` adds them: the first 8
    pairwise, then onto 0.0, then each further one in order. It equals
    `float(np.sum(values))` bit for bit, and that rounding fixes every
    golden digest."""
    a0, a1, a2, a3, a4, a5, a6, a7, *rest = values
    total = 0.0 + (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)))
    for v in rest:
        total += v
    return total


@dataclass(frozen=True)
class FishPopulation:
    """13 age classes: 0 = larvae, 1-4 = juveniles, 5-12 = adults."""

    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", _checked_floats(
            self.classes, N_FISH_CLASSES, "age classes", "fish abundances"))

    @property
    def adult_total(self) -> float:
        return _numpy_sum(self.classes[ADULT])


@dataclass(frozen=True)
class RiverYear:
    """Monthly inflow at the head of the river for one year (index 0 = January)."""

    monthly_inflow: tuple

    def __post_init__(self):
        object.__setattr__(self, "monthly_inflow", _checked_floats(
            self.monthly_inflow, 12, "monthly inflows", "inflows"))

    @property
    def annual_total(self) -> float:
        return _numpy_sum(self.monthly_inflow)


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
    lake_inflow_by_month: tuple  # what reaches the lake in each month
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
        # Written so that a NaN component fails it too.
        if not (self.fields_planted >= 0 and self.fish_target >= 0):
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
    whatever is left after the last household reaches the lake. Households
    are walked outermost, each over the month flows that the ones above it
    left: the float operations of a month-by-month walk, in its order.
    """
    if any(f < 0 for f in planted_fields):
        raise ConfigurationError("planted field counts must be non-negative")
    months = river.monthly_inflow
    # IRRIGATION_MONTHS is one run of months, May to September. Before it
    # every node sees the whole flow, so one sum, added in month order from
    # 0.0, is each node's inflow so far; after it each node adds October,
    # November and December in that order.
    start, stop = min(IRRIGATION_MONTHS) - 1, max(IRRIGATION_MONTHS)
    head = 0.0
    for flow in months[:start]:
        head += flow
    flows = months[start:stop]
    october, november, december = tail = months[stop:]
    delivered, node_inflow = [], []
    for f in planted_fields:
        demand = params.w * f / len(IRRIGATION_MONTHS)
        inflow, got, left = head, 0.0, []
        for flow in flows:
            inflow += flow
            if demand > 0:
                take = flow if flow < demand else demand  # min(demand, flow)
                got += take
                flow -= take
            left.append(flow)
        flows = left
        delivered.append(got)
        node_inflow.append(inflow + october + november + december)
    return RoutedWater(tuple(delivered), (*months[:start], *flows, *tail), tuple(node_inflow))


def _irrigated_count(planted: int, delivered: float, w: float) -> int:
    if planted <= 0:
        return 0
    # Small epsilon absorbs float dust from the monthly demand split.
    fields = math.floor(delivered / w + 1e-9)
    return fields if fields < planted else planted  # min(planted, fields)


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
    # The clamps pick what max(0.0, x) and min(1.0, x) pick, -0.0 and NaN included.
    deficit = 0.0 if planted == 0 else 1.0 - delivered / (params.w * planted)
    stress = stress_in + (deficit if deficit > 0.0 else 0.0) - params.stress_recovery
    stress_out = stress if 0.0 < stress < 1.0 else (1.0 if stress >= 1.0 else 0.0)
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
    MIGRATION_MONTH adds M_mig migrant larvae. Each class is clipped at 0 as
    `np.maximum(x, 0.0)` clips it (-0.0 too); a NaN or infinite class, which
    only an overflowing step makes, fails the FishPopulation check.
    """
    if any(t < 0 for t in harvest_targets):
        raise ConfigurationError("harvest targets must be non-negative")
    lake = lake_inflow_by_month
    if len(lake) != 12:
        raise ConfigurationError(f"lake inflow must have 12 months, got {len(lake)}")
    c0, c1, c2, c3, c4, a0, a1, a2, a3, a4, a5, a6, a7 = pop.classes
    catches = [0.0] * len(harvest_targets)
    # The adult stock, summed in `_numpy_sum`'s order and summed again only
    # after a harvest has rescaled the adults. After the loop it is the
    # post-harvest stock that spawns the larvae.
    remaining = 0.0 + (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)))
    for i in household_order:
        target = float(harvest_targets[i])
        take = remaining if remaining < target else target  # min(target, remaining)
        catches[i] = take
        if take > 0:
            f = 1.0 - take / remaining
            a0 *= f
            a1 *= f
            a2 *= f
            a3 *= f
            a4 *= f
            a5 *= f
            a6 *= f
            a7 *= f
            remaining = 0.0 + (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)))

    # Each class ages into the next; a7, the oldest, exits.
    sigma, K, adult = params.sigma_larva, params.K_juv, params.sigma_adult
    new = [0.0, sigma * c0 / (1.0 + c0 / K), sigma * c1 / (1.0 + c1 / K),
           sigma * c2 / (1.0 + c2 / K), sigma * c3 / (1.0 + c3 / K),
           sigma * c4 / (1.0 + c4 / K), adult * a0, adult * a1, adult * a2, adult * a3,
           adult * a4, adult * a5, adult * a6]

    scale = min(1.0, _numpy_sum(lake) / params.Q_ref)
    new[LARVA] = params.fecundity * remaining * scale
    if lake[MIGRATION_MONTH - 1] >= params.Q_min:
        new[LARVA] += params.M_mig
    return FishPopulation([v if v > 0.0 or v != v else 0.0 for v in new]), tuple(catches)


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

    Returns the successor WorldState, whose households are the year's
    YearRecords, one per household, each built directly as the tuple of its
    fields; `crop_outcome` and `classify_activity` are the crop and activity
    rules. Budgets may go negative (debt).
    """
    n = state.n_households
    if len(decisions) != n:
        raise ConfigurationError(f"expected {n} decisions, got {len(decisions)}")
    planted = [d.fields_planted for d in decisions]
    routed = route_river(river, planted, params)
    irrigated = [_irrigated_count(p, d, params.w)
                 for p, d in zip(planted, routed.delivered)]
    total_irrigated = sum(irrigated)

    downstream_first = range(n - 1, -1, -1)
    fish2, catches = step_fish(
        state.fish, routed.lake_inflow_by_month,
        [d.fish_target for d in decisions], downstream_first, params)

    year = state.year + 1
    price, c, kappa = params.fish_price, params.c, params.kappa
    records = []
    for h, p, delivered, irr, node_inflow, catch in zip(
            state.households, planted, routed.delivered, irrigated, routed.node_inflow,
            catches):
        income, stress_out = crop_outcome(
            p, delivered, irr, h.stress, total_irrigated, params)
        fish_income = price * catch
        records.append(tuple.__new__(YearRecord, (
            year, h.household, p, irr, delivered, node_inflow, stress_out, income, catch,
            fish_income, h.budget + income + fish_income - c * irr - kappa,
            classify_activity(irr, catch))))

    return WorldState(households=tuple(records), fish=fish2, year=year)
