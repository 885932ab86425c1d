"""Decision pipelines: procedural rules, centralized allocation, the
expert-guided empirical-game pipeline, and the two LLM-backed pipelines
(generative and naive empirical-game). All produce per-household Decisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ecology import Decision, EcologyParams, WorldState, YearRecord
from .equilibrium import solve_symmetric_cpr
from .errors import (ConfigurationError, RiverCommonsError, SchemaError,
                     SimulationError, TransportError)
from .games import (ASKind, IrrigationGameSpec, build_cpr_fishing_game,
                    fishing_income, solve_irrigation_game)
from .gateway import Gateway, extract_structured, render_prompt


@dataclass
class AuthorityState:
    """The national authority used in the centralized regime."""

    budget: float
    inflow_history: list = field(default_factory=list)
    window: int = 20

    def __post_init__(self):
        if self.window < 1:
            raise ConfigurationError("moving-average window must be >= 1")


@dataclass(frozen=True)
class BehaviourProfile:
    system_prompt: str

    def __post_init__(self):
        if not self.system_prompt.strip():
            raise ConfigurationError("behaviour profile prompt must be non-empty")


def moving_average_predict(history, window: int) -> float:
    """Mean of the last min(window, len) annual inflows."""
    if not history:
        raise ConfigurationError("inflow history is empty; cannot predict")
    tail = history[-window:]
    return sum(tail) / len(tail)


def default_fish_target(index: int, n_households: int, base: int) -> int:
    """Constant fishing target scaled by proximity to the lake (downstream
    households rank higher). Used by the procedural and centralized modes."""
    return max(0, int(math.floor(base * index / n_households + 0.5)))


def procedural_decide(household: YearRecord, params: EcologyParams, subsistence: float,
                      max_fields: int, fish_target: int = 0) -> Decision:
    """Rule-based annual choice from the household's record of last year.

    Negative budget: plant nothing. Crop income below subsistence: plant one
    field more than last year if affordable, otherwise what the budget
    allows. Otherwise plant what the water that reached this node supports.
    """
    if household.budget < 0:
        fields = 0
    elif household.crop_income < subsistence:
        if household.budget >= (household.planted + 1) * params.c:
            fields = household.planted + 1
        else:
            fields = int(math.floor(household.budget / params.c))
    else:
        fields = int(math.floor(household.node_inflow / params.w))
    fields = max(0, min(fields, max_fields))
    return Decision(fields, max(0, fish_target))


def centralized_allocate(authority: AuthorityState, params: EcologyParams,
                         n_households: int, max_fields: int):
    """Equal per-household field allocation under prediction and budget caps.

    Total supportable fields = min(predicted water / w, budget / c); each
    household receives the floor of an equal share, at most max_fields; the
    remainder stays unallocated.
    """
    predicted = moving_average_predict(authority.inflow_history, authority.window)
    by_water = int(math.floor(predicted / params.w))
    by_budget = int(math.floor(max(authority.budget, 0.0) / params.c))
    total = max(0, min(by_water, by_budget))
    return [min(total // n_households, max_fields)] * n_households


def solve_fishing_game(state: WorldState, params: EcologyParams,
                       e_max: int, effort_cost: float):
    """Solve the symmetric CPR fishing game on the current adult stock.

    Returns (extraction level, per-household expected fishing income).
    """
    n = state.n_households
    stock = state.fish.adult_total
    payoff = build_cpr_fishing_game(stock, params, effort_cost)
    e_star = solve_symmetric_cpr(payoff, n, e_max).extraction
    return e_star, fishing_income(e_star, (n - 1) * e_star, stock, params.fish_price)


def expert_egta_decide(state: WorldState, tau: float, params: EcologyParams,
                       pair_stress_threshold: float, max_fields: int,
                       e_max: int, effort_cost: float, rng) -> list:
    """Expert-guided pipeline: fishing game first, then one irrigation game
    per consecutive pair; middle households pick one of their two equilibrium
    strategies uniformly at random from the seeded run RNG."""
    n = state.n_households
    if n < 2:
        raise ConfigurationError("expert pipeline needs at least 2 households")
    e_star, fish_income = solve_fishing_game(state, params, e_max, effort_cost)

    pair_strategies = []
    for i in range(n - 1):
        up = state.households[i]
        down = state.households[i + 1]
        spec = IrrigationGameSpec(
            B_u=up.budget, B_d=down.budget, c=params.c,
            T=up.node_inflow, w=params.w, y0=params.y0, ys=params.ys,
            S=pair_stress_threshold, kappa=params.kappa, tau=tau,
            F_u=fish_income, F_d=fish_income, max_fields=max_fields)
        try:
            pair_strategies.append(solve_irrigation_game(spec))
        except RiverCommonsError as err:
            raise SimulationError(f"irrigation game solve failed: {err}",
                                  year=state.year + 1, pair=i + 1) from err

    decisions = []
    for i in range(n):
        options = []
        if i > 0:
            options.append(pair_strategies[i - 1][1])   # downstream role
        if i < n - 1:
            options.append(pair_strategies[i][0])       # upstream role
        if len(options) == 1:
            fields = options[0]
        else:
            fields = options[int(rng.integers(2))]
        decisions.append(Decision(fields, e_star))
    return decisions


def _clamp(value: int, high: int):
    clamped = max(0, min(int(value), high))
    return clamped, clamped != int(value)


def _reply_to_fields_and_fish(value):
    """Interpret a structured gateway reply as (fields, fish_target)."""
    if isinstance(value, bool):
        raise SchemaError(f"cannot interpret reply value {value!r}")
    if isinstance(value, int):
        return value, None
    if isinstance(value, dict):
        fields = value.get("fields", value.get("fields_planted"))
        fish = value.get("fish", value.get("fish_target", value.get("catch")))
        if fields is None:
            raise SchemaError(f"reply object lacks a field count: {value!r}")
        try:
            return int(fields), None if fish is None else int(fish)
        except (TypeError, ValueError, OverflowError) as err:
            raise SchemaError(f"reply object holds a non-integer count: {value!r}") from err
    raise SchemaError(f"cannot interpret reply value {value!r}")


def _ask(gateway: Gateway, profile: BehaviourProfile, prompt: str, parse, tags):
    """`gateway.ask` of the profile's system prompt plus `prompt`; None once
    its sends run out, so the caller falls back."""
    try:
        return gateway.ask((("system", profile.system_prompt), ("user", prompt)),
                           parse, tags)
    except (SchemaError, TransportError):
        return None


def generative_decide(view: dict, profile: BehaviourProfile, gateway: Gateway,
                      role_template: str, max_fields: int, e_max: int,
                      fallback, tags: dict = None):
    """LLM role-play pipeline for one household.

    Renders the role prompt with the household's view of the world, parses an
    integer field count (and optional fish target) from the reply, clamps
    out-of-range values, and falls back to `fallback()` when the gateway's
    sends run out without a usable reply.

    Returns (Decision, events) where events is a list of strings among
    {"clamp", "fallback"}.
    """
    default_fish = int(view.get("default_fish_target", 0))
    reply = _ask(gateway, profile, render_prompt(role_template, view),
                 lambda text: _reply_to_fields_and_fish(extract_structured(text)),
                 tags)
    if reply is None:
        return fallback(), ["fallback"]
    fields, fish = reply
    fields, clamped_f = _clamp(fields, max_fields)
    fish, clamped_t = _clamp(default_fish if fish is None else fish, e_max)
    return Decision(fields, fish), ["clamp"] if clamped_f or clamped_t else []


def map_abstract_action(value, max_fields: int, low_action: int) -> int:
    """Map an abstract strategy label to the integer action grid.

    "high" maps to the maximum, "low" to the configured low action (nonzero
    by default); integer labels pass through and are clamped by the caller.
    """
    if isinstance(value, dict):
        value = value.get("action", value.get("choice", value.get("fields")))
    if isinstance(value, bool) or value is None:
        raise SchemaError(f"cannot interpret action {value!r}")
    if isinstance(value, (int, float)):
        try:
            return int(value)
        except (ValueError, OverflowError) as err:  # NaN or infinity
            raise SchemaError(f"cannot interpret action {value!r}") from err
    text = str(value).strip().lower()
    if "high" in text:
        return max_fields
    if "low" in text:
        return low_action
    try:
        return int(text)
    except ValueError as err:
        raise SchemaError(f"cannot interpret action {value!r}") from err


def _reply_to_action(text: str, high: int, low_action: int) -> int:
    try:
        value = extract_structured(text)
    except SchemaError:
        value = text  # bare labels like "low" are still mappable
    return map_abstract_action(value, high, low_action)


def naive_egta_decide(as_models, view: dict, profile: BehaviourProfile,
                      gateway: Gateway, action_template: str, max_fields: int,
                      e_max: int, low_action: int, fallback, tags: dict = None):
    """Naive pipeline: query one action per extracted action situation.

    The first pairwise-cooperation model drives the field choice and the
    first common-pool-resource model the fish target; failing that, models
    are used in order. A component without a usable reply comes from
    `fallback()`. Returns (Decision, events) like generative_decide.
    """
    irrigation_as = next((m for m in as_models
                          if m.kind is ASKind.PAIRWISE_COOPERATION), None)
    fishing_as = next((m for m in as_models
                       if m.kind is ASKind.COMMON_POOL_RESOURCE), None)
    if irrigation_as is None and as_models:
        irrigation_as = as_models[0]
    if fishing_as is None and len(as_models) > 1:
        fishing_as = as_models[1]

    events = []
    chosen = []
    for as_model, high in ((irrigation_as, max_fields), (fishing_as, e_max)):
        action = None
        if as_model is not None:
            variables = dict(view, as_name=as_model.name,
                             as_actions=", ".join(as_model.actions),
                             as_participants=as_model.participants)
            action = _ask(gateway, profile, render_prompt(action_template, variables),
                          lambda text: _reply_to_action(text, high, low_action), tags)
        if action is not None:
            action, clamped = _clamp(action, high)
            if clamped:
                events.append("clamp")
        chosen.append(action)

    fields, fish = chosen
    if fields is None or fish is None:
        events.append("fallback")
        fb = fallback()
        fields = fb.fields_planted if fields is None else fields
        fish = fb.fish_target if fish is None else fish
    return Decision(fields, fish), events
