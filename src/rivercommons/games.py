"""Empirical game construction for the two action situations: the pairwise
irrigation game between consecutive farmers and the N-player common pool
resource fishing game, plus parsing of LLM-proposed game models.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .equilibrium import (BimatrixGame, enumerate_pure_ne, lemke_howson,
                          select_equilibrium)
from .errors import ConfigurationError, SchemaError, check_fields, finite_real
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


def field_cap(fields: float, max_fields: int) -> float:
    """floor(fields + 1e-9) clipped to 0..max_fields, as a float: the fields a
    quotient of budget or water allows in a pair game. Floor commutes with a
    clip to whole bounds, so ±inf (a quotient over a tiny c or w) gives a
    bound where math.floor would raise."""
    fields += 1e-9
    if 0.0 <= fields < max_fields:
        return float(math.floor(fields))
    return 0.0 if fields < 0.0 else float(max_fields)


def pair_caps(B_u, B_d, T, c, w, max_fields: int) -> tuple:
    """(lim_u, lim_d, water): the `field_cap`s of min(B_u / c, T / w) and of
    B_d / c, and the water T / w clipped at 2 * max_fields + 1. `_payoff_rule`
    reads the budgets and water only through these, so specs with equal caps
    and other fields build bit-identical games. The clip changes no cell:
    above it, downstream's water bound exceeds max_fields whatever f_u is."""
    water, b_u, top = T / w, B_u / c, float(2 * max_fields + 1)
    return (field_cap(b_u if b_u < water else water, max_fields),
            field_cap(B_d / c, max_fields), water if water < top else top)


def _payoff_rule(s_u, s_d, spec: IrrigationGameSpec):
    """The irrigation payoff rule, elementwise over numpy-broadcast strategy
    arrays (or scalars) in 0..max_fields: (f_u, f_d, pi_u, pi_d).

    Fields actually irrigated: each strategy capped by its `pair_caps`
    bound, and downstream's also by the water upstream leaves. Payoffs are
    yield plus fishing income, minus irrigation and consumption costs and
    the extraction tax.
    """
    lim_u, lim_d, water = pair_caps(spec.B_u, spec.B_d, spec.T, spec.c, spec.w,
                                    spec.max_fields)
    f_u = np.maximum(0.0, np.minimum(s_u, lim_u))
    f_d = np.maximum(0.0, np.minimum(np.minimum(s_d, lim_d),
                                     np.floor(np.maximum(water - f_u, 0.0) + 1e-9)))
    y = np.where(f_u + f_d <= spec.S, spec.y0, spec.ys)
    total = s_u + s_d
    pi_u = f_u * y + spec.F_u - (f_u * spec.c + spec.kappa) - spec.tau * total * s_u
    pi_d = f_d * y + spec.F_d - (f_d * spec.c + spec.kappa) - spec.tau * total * s_d
    return f_u, f_d, pi_u, pi_d


def build_irrigation_game(spec: IrrigationGameSpec) -> BimatrixGame:
    """Normal form over field choices 0..max_fields for both players."""
    k = spec.max_fields + 1
    s = np.arange(k, dtype=float)
    _, _, row, col = _payoff_rule(s[:, None], s[None, :], spec)
    return BimatrixGame(row, col)


def solve_irrigation_game(spec: IrrigationGameSpec):
    """Selected equilibrium strategies (s_u, s_d) for one pair.

    Pure equilibria are enumerated and the min-total rule picks one cell; the
    Lemke-Howson profile is the fallback when no pure equilibrium exists, in
    which case the most probable action on each side is taken.
    """
    game = build_irrigation_game(spec)
    pure = enumerate_pure_ne(game)
    if pure:
        return select_equilibrium(pure, game.row_actions, game.col_actions)
    profile = lemke_howson(game)
    return int(np.argmax(profile.row_dist)), int(np.argmax(profile.col_dist))


def fishing_income(e, others, stock: float, price: float) -> float:
    """price * e * min(1, stock / (e + others)): the stock is shared in
    proportion to effort once total demand exceeds it. The share is exactly
    1.0 whenever stock >= total, which the run's fishing-game memo in
    `policies.solve_fishing_game` relies on."""
    total = e + others
    share = min(1.0, stock / total) if total > 0 else min(1.0, stock)
    return price * e * share


def build_cpr_fishing_game(adult_stock_estimate: float, params, effort_cost: float = 1.0):
    """The symmetric fishing game's payoff callable
    u(e, O) = fishing_income(e, O, stock, price) - effort cost * e.
    """
    if not finite_real(adult_stock_estimate) or adult_stock_estimate < 0:
        raise ConfigurationError("stock estimate must be finite and non-negative, "
                                 f"got {adult_stock_estimate!r}")
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
