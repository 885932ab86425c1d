"""Decision pipelines: procedural rules, centralized allocation, the
expert-guided empirical-game pipeline, and the two LLM-backed pipelines
(generative and naive empirical-game). All produce per-household Decisions.
"""
from __future__ import annotations

import math

from .config import RunConfig
from .ecology import Decision, EcologyParams, WorldState, YearRecord
from .equilibrium import solve_symmetric_cpr
from .errors import (ConfigurationError, RiverCommonsError, SchemaError,
                     SimulationError, TransportError, finite_real)
from .games import (ASKind, IrrigationGameSpec, build_cpr_fishing_game, fishing_income,
                    pair_caps, solve_irrigation_game)
from .gateway import Gateway, extract_structured, render_prompt


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
    A quotient is clipped at max_fields before its floor, so inf plants max_fields.
    """
    if household.budget < 0:
        fields = 0
    elif household.crop_income < subsistence:
        if household.budget >= (household.planted + 1) * params.c:
            fields = household.planted + 1
        else:
            fields = math.floor(min(household.budget / params.c, max_fields))
    else:
        fields = math.floor(min(household.node_inflow / params.w, max_fields))
    fields = max(0, min(fields, max_fields))
    return Decision(fields, max(0, fish_target))


def centralized_allocate(budget: float, inflows, config: RunConfig):
    """Equal per-household field allocation by the national authority from
    its budget and annual inflow history, with the run config's
    `authority_window`, `ecology`, `n_households` and `max_fields`.

    Total supportable fields = min(moving-average water / w, budget / c);
    each household receives the floor of an equal share, at most max_fields;
    the remainder stays unallocated. Both quotients are clipped at n *
    max_fields before their floor, so inf (a tiny c or w) gives max_fields each.
    """
    params, n = config.ecology, config.n_households
    predicted = moving_average_predict(inflows, config.authority_window)
    most = n * config.max_fields
    by_water = math.floor(min(predicted / params.w, most))
    by_budget = math.floor(min(max(budget, 0.0) / params.c, most))
    total = max(0, min(by_water, by_budget))
    return [min(total // n, config.max_fields)] * n


def solve_fishing_game(state: WorldState, params: EcologyParams, e_max: int,
                       effort_cost: float, solved: dict):
    """The symmetric CPR fishing game on the current adult stock, solved once
    per run for each key: (extraction level, per-household expected fishing
    income).

    `solved` maps `cap if stock >= cap else stock`, with cap = n * e_max, to
    the solution, so pass the same dict every year of one run and a fresh one
    to each run. The cap is exact: every total effort `solve_symmetric_cpr`
    tries is at most n * e_max, so at any stock of at least the cap every
    share min(1, stock / total) in `games.fishing_income` is exactly 1.0, and
    a total of 0 pays 0; the game does not depend on the stock there. Below
    the cap the stock itself is the key, and a NaN stock is never capped."""
    n = state.n_households
    stock = state.fish.adult_total
    cap = n * e_max
    key = cap if stock >= cap else stock
    if key not in solved:
        payoff = build_cpr_fishing_game(stock, params, effort_cost)
        e_star = solve_symmetric_cpr(payoff, n, e_max).extraction
        solved[key] = e_star, fishing_income(e_star, (n - 1) * e_star, stock,
                                             params.fish_price)
    return solved[key]


def expert_egta_decide(state: WorldState, config: RunConfig, fishing: tuple, roles,
                       solved: dict) -> list:
    """Expert-guided pipeline: one irrigation game per consecutive pair, set
    by the run config's `tau`, `ecology`, `pair_stress_threshold` and
    `max_fields` and by the year's fishing game `fishing` = (e_star,
    fish_income) from `solve_fishing_game`. `roles` holds each middle
    household's pair role for the year, in household order, as the run's
    seeded generator drew it: 1 plays upstream in its own pair, 0 downstream
    in the pair above. Household 1 is always upstream and the last always
    downstream. The budgets, then the inflows, are checked as float fields
    (`finite_real`); each pair's game is keyed by its `games.pair_caps` and
    the year's fishing income; every other spec field is fixed for the run,
    so equal keys build equal games. So `solved`, which maps keys to selected
    cells, belongs to one run: pass the same dict every year of that run (and
    a fresh one to each run), and a spec is built and solved once per key
    that some household plays in the run. A failing solve is not stored.
    Households planting alike share one frozen Decision (fish target e_star)."""
    params, max_fields = config.ecology, config.max_fields
    n, hs = state.n_households, state.households
    if n < 2:
        raise ConfigurationError("expert pipeline needs at least 2 households")
    if len(roles) != n - 2:
        raise ConfigurationError(f"expected {n - 2} middle-household roles, got {len(roles)}")
    e_star, fish_income = fishing
    upstream = [1, *roles, 0]
    for h in hs:
        if not finite_real(h.budget):
            raise ConfigurationError(f"household {h.household} budget must be a finite "
                                     f"number, got {h.budget!r}")
    for h in hs[:-1]:
        if not finite_real(h.node_inflow):
            raise ConfigurationError(f"household {h.household} node_inflow must be a "
                                     f"finite number, got {h.node_inflow!r}")
    keys = [(*pair_caps(up.budget, down.budget, up.node_inflow, params.c, params.w,
                        max_fields), fish_income) for up, down in zip(hs, hs[1:])]
    decisions, made = [], {}  # made: one Decision per field count played this year
    for i, role in enumerate(upstream):
        pair = i if role else i - 1
        key = keys[pair]
        if key not in solved:
            spec = IrrigationGameSpec(
                B_u=hs[pair].budget, B_d=hs[pair + 1].budget, c=params.c, w=params.w,
                T=hs[pair].node_inflow, y0=params.y0, ys=params.ys,
                S=config.pair_stress_threshold, kappa=params.kappa, tau=config.tau,
                F_u=fish_income, F_d=fish_income, max_fields=max_fields)
            try:
                solved[key] = solve_irrigation_game(spec)
            except RiverCommonsError as err:
                raise SimulationError(f"irrigation game solve failed: {err}",
                                      year=state.year + 1, pair=pair + 1) from err
        fields = solved[key][1 - role]  # cells are (s_u, s_d)
        if fields not in made:
            made[fields] = Decision(fields, e_star)
        decisions.append(made[fields])
    return decisions


def _clamp(value: int, high: int):
    clamped = max(0, min(int(value), high))
    return clamped, clamped != int(value)


def _reply_to_fields_and_fish(value):
    """Interpret a structured gateway reply as (fields, fish_target); a
    boolean is never a count."""
    if isinstance(value, bool):
        raise SchemaError(f"cannot interpret reply value {value!r}")
    if isinstance(value, int):
        return value, None
    if isinstance(value, dict):
        fields = value.get("fields", value.get("fields_planted"))
        fish = value.get("fish", value.get("fish_target", value.get("catch")))
        if fields is None:
            raise SchemaError(f"reply object lacks a field count: {value!r}")
        if isinstance(fields, bool) or isinstance(fish, bool):
            raise SchemaError(f"reply object holds a boolean count: {value!r}")
        try:
            return int(fields), None if fish is None else int(fish)
        except (TypeError, ValueError, OverflowError) as err:
            raise SchemaError(f"reply object holds a non-integer count: {value!r}") from err
    raise SchemaError(f"cannot interpret reply value {value!r}")


def _ask(gateway: Gateway, system: str, prompt: str, parse, tags):
    """`gateway.ask` of the system prompt plus `prompt`; None once its sends
    run out, so the caller falls back."""
    try:
        return gateway.ask((("system", system), ("user", prompt)), parse, tags)
    except (SchemaError, TransportError):
        return None


def generative_decide(view: dict, system: str, gateway: Gateway, role,
                      max_fields: int, e_max: int, default_fish: int,
                      fallback, tags: dict = None):
    """LLM role-play pipeline for one household.

    Renders the role prompt `role` (a template, or the run's prompt bound
    once by `gateway.bind_prompt`) with the household's `view` of the year,
    asks it after the system prompt `system`, parses an integer field count
    (and optional fish target, else `default_fish`) from the reply, clamps
    out-of-range values, and falls back to `fallback()` when the gateway's
    sends run out without a usable reply.

    Returns (Decision, events) where events is a list of strings among
    {"clamp", "fallback"}.
    """
    reply = _ask(gateway, system, render_prompt(role, view),
                 lambda text: _reply_to_fields_and_fish(extract_structured(text)), tags)
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


def action_situations(as_models, max_fields: int, e_max: int) -> tuple:
    """The naive pipeline's two action situations, each (prompt variables or
    None, high action): the field choice, asked of the first
    pairwise-cooperation model, else the first model, up to `max_fields`;
    then the fish target, asked of the first common-pool-resource model, else
    the second model, up to `e_max`. A situation without a model is None.
    The models are fixed for a run, so pick them once per run."""
    irrigation_as = next((m for m in as_models
                          if m.kind is ASKind.PAIRWISE_COOPERATION), None)
    fishing_as = next((m for m in as_models
                       if m.kind is ASKind.COMMON_POOL_RESOURCE), None)
    if irrigation_as is None and as_models:
        irrigation_as = as_models[0]
    if fishing_as is None and len(as_models) > 1:
        fishing_as = as_models[1]
    return tuple((None if m is None else {"as_name": m.name,
                                          "as_actions": ", ".join(m.actions),
                                          "as_participants": m.participants}, high)
                 for m, high in ((irrigation_as, max_fields), (fishing_as, e_max)))


def naive_egta_decide(questions, view: dict, system: str, gateway: Gateway,
                      low_action: int, fallback, tags: dict = None):
    """Naive pipeline: query one action per action situation. `questions`
    holds, for each of `action_situations`' two situations, the action prompt
    (a template, or one bound once per run by `gateway.bind_prompt` to the
    run's fixed entries and the situation's variables), or None without a
    situation, and the situation's high action. Each prompt is rendered with
    the household's `view` of the year; the first answer drives the field
    choice, the second the fish target. A component without a usable reply,
    or without a situation, comes from `fallback()`. Returns (Decision,
    events) like generative_decide.
    """
    events = []
    chosen = []
    for prompt, high in questions:
        action = None
        if prompt is not None:
            action = _ask(gateway, system, render_prompt(prompt, view),
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
