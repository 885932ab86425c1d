"""Empirical game construction for the two action situations: the pairwise
irrigation game between consecutive farmers and the N-player common pool
resource fishing game, plus parsing of LLM-proposed game models.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# select_equilibrium is not called here; it stays in this namespace because
# perfbench/tracing.py wraps it at this name.
from .equilibrium import (BimatrixGame, enumerate_pure_ne, lemke_howson,  # noqa: F401
                          select_cell, select_equilibrium)
from .errors import ConfigurationError, SchemaError, check_fields
from .gateway import extract_structured


@dataclass(frozen=True)
class IrrigationGameSpec:
    """Parameters of the upstream/downstream irrigation game for one pair."""

    B_u: float                 # upstream budget
    B_d: float                 # downstream budget
    c: float                   # cost per irrigated field
    T: float                   # total water available to the pair
    w: float                   # water per field
    y0: float                  # baseline per-field yield
    ys: float                  # stressed per-field yield
    S: float                   # stress threshold in fields
    kappa: float               # consumption cost
    tau: float = 0.0           # tax coefficient
    F_u: float = 0.0           # upstream fishing income
    F_d: float = 0.0           # downstream fishing income
    max_fields: int = 10

    def __post_init__(self):
        check_fields(self)
        if self.c <= 0 or self.w <= 0:
            raise ConfigurationError("c and w must be positive")
        if self.ys >= self.y0:
            raise ConfigurationError("stressed yield must be below baseline yield")
        if self.max_fields < 0 or self.tau < 0:
            raise ConfigurationError("max_fields and tau must be non-negative")


def _payoff_rule(s_u, s_d, spec: IrrigationGameSpec):
    """The irrigation payoff rule, elementwise over numpy-broadcast strategy
    arrays (or scalars): (f_u, f_d, pi_u, pi_d).

    Fields actually irrigated: upstream has water priority; both are limited
    by budget affordability and floored to integers. Payoffs are yield plus
    fishing income, minus irrigation and consumption costs and the
    extraction tax.
    """
    f_u = np.maximum(0.0, np.floor(
        np.minimum(np.minimum(s_u, spec.B_u / spec.c), spec.T / spec.w) + 1e-9))
    f_d = np.maximum(0.0, np.floor(
        np.minimum(np.minimum(s_d, spec.B_d / spec.c),
                   np.maximum(spec.T / spec.w - f_u, 0.0)) + 1e-9))
    y = np.where(f_u + f_d <= spec.S, spec.y0, spec.ys)
    total = s_u + s_d
    pi_u = f_u * y + spec.F_u - (f_u * spec.c + spec.kappa) - spec.tau * total * s_u
    pi_d = f_d * y + spec.F_d - (f_d * spec.c + spec.kappa) - spec.tau * total * s_d
    return f_u, f_d, pi_u, pi_d


def irrigated_fields(s_u: int, s_d: int, spec: IrrigationGameSpec):
    """Fields actually irrigated for one strategy pair, as ints."""
    f_u, f_d, _, _ = _payoff_rule(s_u, s_d, spec)
    return int(f_u), int(f_d)


def pair_payoffs(s_u: int, s_d: int, spec: IrrigationGameSpec):
    """Annual payoffs (pi_u, pi_d) for one strategy pair, as floats."""
    _, _, pi_u, pi_d = _payoff_rule(s_u, s_d, spec)
    return float(pi_u), float(pi_d)


def build_irrigation_game(spec: IrrigationGameSpec) -> BimatrixGame:
    """Normal form over field choices 0..max_fields for both players."""
    k = spec.max_fields + 1
    s = np.arange(k, dtype=float)
    _, _, row, col = _payoff_rule(s[:, None], s[None, :], spec)
    actions = tuple(range(k))
    return BimatrixGame(row, col, actions, actions)


def solve_irrigation_game(spec: IrrigationGameSpec):
    """Selected equilibrium strategies (s_u, s_d) for one pair.

    Pure equilibria are enumerated and the min-total rule picks one cell; the
    Lemke-Howson profile is the fallback when no pure equilibrium exists, in
    which case the most probable action on each side is taken.
    """
    game = build_irrigation_game(spec)
    pure = enumerate_pure_ne(game)
    if pure:
        return select_cell(pure, game.row_actions, game.col_actions)
    profile = lemke_howson(game)
    return int(np.argmax(profile.row_dist)), int(np.argmax(profile.col_dist))


def fishing_income(e, others, stock: float, price: float) -> float:
    """price * e * min(1, stock / (e + others)): the stock is shared in
    proportion to effort once total demand exceeds it."""
    total = e + others
    share = min(1.0, stock / total) if total > 0 else min(1.0, stock)
    return price * e * share


def build_cpr_fishing_game(adult_stock_estimate: float, params, effort_cost: float = 1.0):
    """The symmetric fishing game's payoff callable
    u(e, O) = fishing_income(e, O, stock, price) - effort cost * e.
    """
    if adult_stock_estimate < 0:
        raise ConfigurationError("stock estimate must be non-negative")
    price = params.fish_price
    stock = adult_stock_estimate

    def payoff(e, others):
        return fishing_income(e, others, stock, price) - effort_cost * e

    return payoff


class ASKind(str, Enum):
    PAIRWISE_COOPERATION = "pairwise_cooperation"
    COMMON_POOL_RESOURCE = "common_pool_resource"
    OTHER = "other"


@dataclass(frozen=True)
class ActionSituationModel:
    """A structured game model proposed for one action situation."""

    name: str
    kind: ASKind
    participants: int
    actions: tuple

    def __post_init__(self):
        if self.participants < 2:
            raise SchemaError(f"action situation '{self.name}' needs >= 2 participants")
        if len(self.actions) < 1:
            raise SchemaError(f"action situation '{self.name}' needs >= 1 action")


_KIND_KEYWORDS = (
    (ASKind.PAIRWISE_COOPERATION, ("pairwise", "cooperation", "coordination", "neighbour", "neighbor")),
    (ASKind.COMMON_POOL_RESOURCE, ("common pool", "common-pool", "cpr", "extraction", "fishing")),
)


def _classify_kind(text: str) -> ASKind:
    lowered = text.lower()
    for kind, keywords in _KIND_KEYWORDS:
        if any(k in lowered for k in keywords):
            return kind
    return ASKind.OTHER


def _coerce_participants(value):
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return len(value)
    raise SchemaError(f"cannot interpret participants: {value!r}")


def _parse_one(item) -> ActionSituationModel:
    if not isinstance(item, dict):
        raise SchemaError(f"action situation entry must be an object, got {type(item).__name__}")
    name = str(item.get("name", "unnamed"))
    kind = _classify_kind(str(item.get("kind", "")) + " " + name)
    participants = _coerce_participants(item.get("participants", 0))
    actions = item.get("actions", [])
    if isinstance(actions, dict):  # per-participant action lists; take the first
        actions = next(iter(actions.values()), [])
    if not isinstance(actions, list):
        raise SchemaError(f"actions of '{name}' must be a list, got {actions!r}")
    return ActionSituationModel(name=name, kind=kind, participants=participants,
                                actions=tuple(str(a) for a in actions))


def parse_llm_game(text: str):
    """Parse the gateway reply describing action situations.

    Returns a list of ActionSituationModel. Abstract action labels such as
    "high"/"low" are preserved verbatim; keys other than name, kind,
    participants and actions are ignored. Raises SchemaError when the reply
    has no usable structure.
    """
    if text is None or not text.strip():
        raise SchemaError("empty gateway reply")
    try:
        value = extract_structured(text)
    except SchemaError as err:
        raise SchemaError("no structured game description found") from err
    if isinstance(value, dict):
        items = value.get("action_situations") or value.get("games") or [value]
    else:
        items = value
    if not isinstance(items, list):
        raise SchemaError("reply carries no list of action situations")
    models = [_parse_one(item) for item in items]
    if not models:
        raise SchemaError("reply describes no action situations")
    return models
