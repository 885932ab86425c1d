"""Each vectorized, tabulated or integer solver path, the year-step kernels
and the output writers pinned to a slow reference.

The references are the original per-cell and per-step loops, the original
Fraction-arithmetic Lemke-Howson, the expert year that solves every pair game
before it draws the roles, the numpy pass that keyed its pair games, the
numpy-scalar river routing and fishery step, the min/max crop-stress clamps,
the per-cell records.csv, summary.csv and chart writers, and the regex prompt
renderer on a household view built whole each year, kept here so that any
change to the fast paths must reproduce them exactly. The LLM runs' outputs
are pinned as digests taken before the runs bound their prompts once per
run.
"""
import csv
import hashlib
import io
import itertools
import json
import math
import re
import shutil
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rivercommons import (ActivityClass, advance_year, ASKind, BimatrixGame, ConfigurationError,
                          CprSolution, crop_outcome, Decision, EcologyParams, FishPopulation,
                          GatewayConfig, InvalidGameError,
                          IrrigationGameSpec, MixedProfile, RiverYear,
                          TemplateError, YearRecord, build_cpr_fishing_game,
                          build_irrigation_game, emit_outputs,
                          enumerate_pure_ne, expert_egta_decide, is_epsilon_ne,
                          bind_prompt, lemke_howson, render_prompt,
                          route_river, RunConfig, run_simulation,
                          select_equilibrium, solve_irrigation_game,
                          solve_symmetric_cpr, step_fish, WorldState)
from rivercommons.config import BEHAVIOURS, load_prompts
from rivercommons.ecology import (ADULT, IRRIGATION_MONTHS, LARVA, MIGRATION_MONTH,
                                  N_FISH_CLASSES)
from rivercommons.games import _payoff_rule, pair_caps
from rivercommons import harness
from rivercommons.harness import RunArtifacts, _ExpertEgta, _initial_state, river_series
from rivercommons.outputs import _SVG_H, _SVG_PAD, _SVG_W, _svg_header
from rivercommons.policies import default_fish_target, solve_fishing_game
from conftest import expert_config, pure_profile, short_config, year_roles


# -- irrigation payoff table ---------------------------------------------------

def reference_irrigated_fields(s_u, s_d, spec):
    f_u = max(0, int(math.floor(min(s_u, spec.B_u / spec.c, spec.T / spec.w) + 1e-9)))
    f_d = max(0, int(math.floor(
        min(s_d, spec.B_d / spec.c, max(spec.T / spec.w - f_u, 0.0)) + 1e-9)))
    return f_u, f_d


def reference_pair_payoffs(s_u, s_d, spec):
    f_u, f_d = reference_irrigated_fields(s_u, s_d, spec)
    y = spec.y0 if f_u + f_d <= spec.S else spec.ys
    total = s_u + s_d
    pi_u = f_u * y + spec.F_u - (f_u * spec.c + spec.kappa) - spec.tau * total * s_u
    pi_d = f_d * y + spec.F_d - (f_d * spec.c + spec.kappa) - spec.tau * total * s_d
    return pi_u, pi_d


def reference_matrices(spec):
    k = spec.max_fields + 1
    row = np.empty((k, k))
    col = np.empty((k, k))
    for s_u in range(k):
        for s_d in range(k):
            row[s_u, s_d], col[s_u, s_d] = reference_pair_payoffs(s_u, s_d, spec)
    return row, col


def _floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


# Whole numbers and tenths put the floor(... + 1e-9) boundaries on or one
# rounding error below a field (0.3 / 0.1 == 2.9999999999999996).
def _amount(low, high):
    return st.one_of(_floats(low, high), st.integers(int(low), int(high)).map(float),
                     st.integers(int(low) * 10, int(high) * 10).map(lambda k: k / 10))


@st.composite
def irrigation_specs(draw):
    ys = draw(_amount(-50.0, 100.0))
    return IrrigationGameSpec(
        B_u=draw(_amount(-500.0, 2000.0)), B_d=draw(_amount(-500.0, 2000.0)),
        c=draw(st.one_of(_floats(0.01, 50.0), st.sampled_from([1.0, 10.0, 0.3, 0.1]))),
        T=draw(st.one_of(st.just(0.0), _amount(0.0, 300.0))),
        w=draw(st.one_of(_floats(0.01, 50.0), st.sampled_from([1.0, 10.0, 0.7, 0.1]))),
        y0=ys + draw(st.one_of(_floats(1e-6, 100.0), st.just(1.0))), ys=ys,
        S=draw(_amount(0.0, 30.0)), kappa=draw(_amount(0.0, 100.0)),
        tau=draw(st.one_of(st.just(0.0), _floats(0.0, 3.0))),
        F_u=draw(_amount(-100.0, 500.0)), F_d=draw(_amount(-100.0, 500.0)),
        max_fields=draw(st.integers(0, 12)))


class TestIrrigationTable:
    @settings(max_examples=300, deadline=None)
    @given(irrigation_specs())
    @example(IrrigationGameSpec(B_u=-5.0, B_d=-1.0, c=10.0, T=0.0, w=10.0, y0=50.0,
                                ys=25.0, S=6.0, kappa=50.0, max_fields=0))
    @example(IrrigationGameSpec(B_u=60.0, B_d=30.0, c=3.0, T=60.0, w=7.5, y0=50.0,
                                ys=24.0, S=6.0, kappa=50.0, tau=0.25, F_u=12.5,
                                F_d=12.5))
    @example(IrrigationGameSpec(B_u=0.3, B_d=0.7, c=0.1, T=1.1, w=0.1, y0=50.0,
                                ys=25.0, S=6.0, kappa=50.0))
    def test_matrices_equal_scalar_loop_bit_for_bit(self, spec):
        game = build_irrigation_game(spec)
        row, col = reference_matrices(spec)
        assert game.row_payoffs.tobytes() == row.tobytes()
        assert game.col_payoffs.tobytes() == col.tobytes()
        assert pair_caps(spec.B_u, spec.B_d, spec.T, spec.c, spec.w, spec.max_fields) \
            == reference_pair_key(spec)

    @settings(max_examples=150, deadline=None)
    @given(irrigation_specs(), st.data())
    def test_scalar_views_equal_reference(self, spec, data):
        s_u = data.draw(st.integers(0, spec.max_fields))
        s_d = data.draw(st.integers(0, spec.max_fields))
        f_u, f_d, pi_u, pi_d = _payoff_rule(s_u, s_d, spec)
        assert (f_u, f_d) == reference_irrigated_fields(s_u, s_d, spec)
        assert (pi_u, pi_d) == reference_pair_payoffs(s_u, s_d, spec)


# -- pure-equilibrium enumeration and selection ----------------------------------

def reference_enumerate_pure_ne(game):
    a = game.row_payoffs
    b = game.col_payoffs
    row_best = a >= a.max(axis=0, keepdims=True)
    col_best = b >= b.max(axis=1, keepdims=True)
    cells = np.argwhere(row_best & col_best)
    return frozenset((int(i), int(j)) for i, j in cells)


def _reference_action_value(actions, index):
    label = actions[index]
    return label if isinstance(label, (int, float)) and not isinstance(label, bool) else index


def reference_select_equilibrium(candidates, row_actions, col_actions):
    def key(cell):
        i, j = cell
        ru = _reference_action_value(row_actions, i)
        cu = _reference_action_value(col_actions, j)
        return (ru + cu, ru)

    return min(sorted(candidates), key=key)


# A small pool, so labels repeat within one game.
LABELS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.25, 2.0, 0.1, 0.2]),
                   st.sampled_from(["H", "L", "x", True, None]))


# A taxed pair game without a pure equilibrium: solve_irrigation_game falls back
# to the Lemke-Howson equilibrium.
NO_PURE_NE_SPEC = IrrigationGameSpec(B_u=2.0, B_d=1.0, c=1.0, T=6.0, w=3.0, y0=9.0, ys=6.0,
                                     S=1.0, kappa=0.0, tau=1.0, max_fields=2)


class TestPureEquilibria:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([5, 2, 1]))
    @example(seed=0, m=1, n=1, levels=5)
    @example(seed=0, m=11, n=11, levels=1)
    @example(seed=3, m=11, n=11, levels=2)
    def test_enumeration_equals_reference(self, seed, m, n, levels):
        """Integer payoffs from `levels` values: 2 ties heavily, and 1 gives
        constant matrices, where every cell is an equilibrium."""
        rng = np.random.default_rng(seed)
        game = BimatrixGame(rng.integers(-2, levels - 2, size=(m, n)).astype(float),
                            rng.integers(-2, levels - 2, size=(m, n)).astype(float))
        pure = enumerate_pure_ne(game)
        assert pure == reference_enumerate_pure_ne(game)
        assert all(type(i) is int and type(j) is int for i, j in pure)
        if levels == 1:
            assert len(pure) == m * n

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.booleans())
    def test_selection_equals_sorted_reference(self, data, m, n, labelled):
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        candidates = data.draw(st.one_of(st.frozensets(cells), st.lists(cells)))
        row_actions, col_actions = tuple(range(m)), tuple(range(n))
        if labelled:
            row_actions = tuple(data.draw(st.lists(LABELS, min_size=m, max_size=m)))
            col_actions = tuple(data.draw(st.lists(LABELS, min_size=n, max_size=n)))
        if not candidates:
            with pytest.raises(InvalidGameError):
                select_equilibrium(candidates, row_actions, col_actions)
        else:
            assert select_equilibrium(candidates, row_actions, col_actions) == \
                reference_select_equilibrium(candidates, row_actions, col_actions)

    @settings(max_examples=200, deadline=None)
    @given(irrigation_specs())
    @example(NO_PURE_NE_SPEC)
    def test_selected_irrigation_cell_is_pure_equilibrium(self, spec):
        """The selected cell is a pure equilibrium whenever the game has one.
        The tax term can leave none (the example); then each side of the cell
        is a most probable action of the Lemke-Howson equilibrium, so it lies
        in the equilibrium's support and is a best response to the other
        side's mix."""
        game = build_irrigation_game(spec)
        i, j = solve_irrigation_game(spec)
        if enumerate_pure_ne(game):
            assert is_epsilon_ne(game, pure_profile(i, j, *game.shape), 1e-9)
        else:
            profile = lemke_howson(game)
            x, y = profile.row_dist, profile.col_dist
            assert x[i] == x.max() > 0 and y[j] == y.max() > 0
            assert game.row_payoffs[i] @ y >= (game.row_payoffs @ y).max() - 1e-9
            assert x @ game.col_payoffs[:, j] >= (x @ game.col_payoffs).max() - 1e-9

    def test_cell_of_a_game_without_pure_equilibrium(self):
        """NO_PURE_NE_SPEC's game has no pure equilibrium; its Lemke-Howson
        equilibrium mixes rows 1 and 2 and columns 0 and 1 evenly, and the
        first most probable action of each side is the cell."""
        assert not enumerate_pure_ne(build_irrigation_game(NO_PURE_NE_SPEC))
        assert solve_irrigation_game(NO_PURE_NE_SPEC) == (1, 0)


# -- the expert year: the solve-all reference and the pair-game key ---------------

def reference_expert_egta_decide(state, tau, params, pair_stress_threshold, max_fields,
                                 e_max, effort_cost, rng):
    """Solve every pair game, then draw each middle household's role."""
    n = state.n_households
    e_star, fish_income = solve_fishing_game(state, params, e_max, effort_cost, {})
    strategies = [solve_irrigation_game(spec) for spec in reference_pair_specs(
        state, tau, params, pair_stress_threshold, max_fields, fish_income)]
    decisions = []
    for i in range(n):
        options = []
        if i > 0:
            options.append(strategies[i - 1][1])
        if i < n - 1:
            options.append(strategies[i][0])
        fields = options[0] if len(options) == 1 else options[int(rng.integers(2))]
        decisions.append(Decision(fields, e_star))
    return decisions


def reference_pair_specs(state, tau, params, pair_stress_threshold, max_fields, fish_income):
    """The spec of every consecutive pair of a year, upstream first."""
    return [IrrigationGameSpec(
        B_u=up.budget, B_d=down.budget, c=params.c, T=up.node_inflow, w=params.w,
        y0=params.y0, ys=params.ys, S=pair_stress_threshold, kappa=params.kappa, tau=tau,
        F_u=fish_income, F_d=fish_income, max_fields=max_fields)
        for up, down in zip(state.households, state.households[1:])]


def _field_limits(B_u, B_d, T, c, w):
    """Floored field caps min(B_u/c, T/w) and B_d/c, and the water T/w, on
    scalars or numpy arrays: the numpy rule that `games.field_cap` clips."""
    water = T / w
    return np.floor(np.minimum(B_u / c, water) + 1e-9), np.floor(B_d / c + 1e-9), water


def reference_pair_key(spec):
    """The caps that fix a pair game within one expert year, from the scalar
    `_field_limits` of its own spec: both field caps clipped to 0..max_fields
    and the water clipped to 2 * max_fields + 1."""
    lim_u, lim_d, water = _field_limits(spec.B_u, spec.B_d, spec.T, spec.c, spec.w)
    k = spec.max_fields
    return min(max(lim_u, 0.0), k), min(max(lim_d, 0.0), k), min(water, 2 * k + 1)


def reference_numpy_year_keys(world, params, max_fields, fish_income):
    """Every pair's key from one numpy pass over the year: `_field_limits` on
    arrays, then np.clip and np.minimum."""
    hs = world.households
    budgets = np.array([h.budget for h in hs], dtype=float)
    with np.errstate(over="ignore"):
        lim_u, lim_d, water = _field_limits(budgets[:-1], budgets[1:], np.array(
            [h.node_inflow for h in hs[:-1]], dtype=float), params.c, params.w)
    return list(zip(np.clip(lim_u, 0, max_fields).tolist(),
                    np.clip(lim_d, 0, max_fields).tolist(),
                    np.minimum(water, 2 * max_fields + 1).tolist(),
                    [fish_income] * (len(hs) - 1)))


def scalar_roles(n, rng):
    """A year's middle-household roles as n - 2 scalar draws from `rng`: the
    reference for one row of an expert run's role table."""
    return [int(rng.integers(2)) for _ in range(n - 2)]


def played_pairs(roles):
    """The pair each household plays, given the middle households' `roles`."""
    upstream = [1, *roles, 0]
    return [i if role else i - 1 for i, role in enumerate(upstream)]


def _world(households, adults=0.0):
    """A year-0 world of (budget, node inflow) households and an adult stock."""
    classes = np.zeros(N_FISH_CLASSES)
    classes[ADULT] = adults / classes[ADULT].size
    return WorldState(households=tuple(
        YearRecord(year=0, household=i + 1, budget=b, node_inflow=t)
        for i, (b, t) in enumerate(households)), fish=FishPopulation(classes))


def _one_ulp_around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _key_boundaries(k, c, w):
    """Budgets on, and one ulp around, a multiple of c (some negative), and
    inflows that put T / w on, and one ulp around, 2 * k + 1 and other whole
    field counts. A small pool makes equal keys common."""
    counts = st.sampled_from(sorted({-3, -1, 0, 1, k // 2, k - 1, k, k + 1, k + 4}))
    budget = counts.flatmap(lambda n: st.sampled_from(_one_ulp_around(n * c)))
    water = st.sampled_from(sorted({0, 1, k, 2 * k, 2 * k + 1, 2 * k + 2, 3 * k + 5}))
    inflow = water.flatmap(lambda n: st.sampled_from(_one_ulp_around(n * w)))
    return budget, inflow


_KEY_COSTS = st.sampled_from([10.0, 1.0, 0.3, 0.1, 2.5])
_KEY_WATER = st.sampled_from([10.0, 1.0, 0.7, 0.5])


@st.composite
def key_boundary_years(draw, run=None):
    """(world, params, max_fields): an expert year of 2 to 9 households whose
    budgets and pair inflows sit on the key's boundaries. A `run`, the
    (world, params, max_fields) of an earlier year, fixes the params,
    max_fields and household count."""
    if run is None:
        k, c, w = draw(st.integers(0, 12)), draw(_KEY_COSTS), draw(_KEY_WATER)
    else:
        k, c, w = run[2], run[1].c, run[1].w
    budget, inflow = _key_boundaries(k, c, w)
    n = draw(st.integers(2, 9)) if run is None else run[0].n_households
    households = [(draw(budget), draw(inflow)) for _ in range(n)]
    return _world(households, draw(st.sampled_from([0.0, 1000.0]))), EcologyParams(c=c, w=w), k


@st.composite
def extreme_key_years(draw):
    """(world, params, max_fields): an expert year whose budgets are negative,
    zero, ordinary or so large that budget / c overflows to ±inf at a c of
    1e-300, and whose inflows are zero, ordinary or overflow T / w."""
    k = draw(st.integers(0, 12))
    c = draw(st.sampled_from([10.0, 0.3, 1e-300]))
    w = draw(st.sampled_from([10.0, 0.7, 1e-300]))
    budget = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                                        1.7976931348623157e308]),
                       _floats(-1e6, 1e6), st.integers(-3, k + 3).map(lambda n: n * c))
    inflow = st.one_of(st.sampled_from([0.0, 1e300, 1.7976931348623157e308]),
                       _floats(0.0, 1e6), st.integers(0, 3 * k + 5).map(lambda n: n * w))
    n = draw(st.integers(2, 9))
    households = [(draw(budget), draw(inflow)) for _ in range(n)]
    return _world(households, draw(st.sampled_from([0.0, 1000.0]))), EcologyParams(c=c, w=w), k


@st.composite
def same_year_spec_pairs(draw):
    """Two specs that share every field but B_u, B_d and T, as two pairs of one
    expert year do, with budgets and T on the key's boundaries."""
    k, c, w = draw(st.integers(0, 12)), draw(_KEY_COSTS), draw(_KEY_WATER)
    budget, inflow = _key_boundaries(k, c, w)
    ys = draw(_amount(-50.0, 100.0))
    shared = dict(c=c, w=w, y0=ys + draw(st.one_of(_floats(1e-6, 100.0), st.just(1.0))),
                  ys=ys, S=draw(_amount(0.0, 30.0)), kappa=draw(_amount(0.0, 100.0)),
                  tau=draw(st.sampled_from([0.0, 0.25, 1.0])),
                  F_u=draw(_amount(0.0, 500.0)), F_d=draw(_amount(0.0, 500.0)),
                  max_fields=k)
    return tuple(IrrigationGameSpec(B_u=draw(budget), B_d=draw(budget), T=draw(inflow),
                                    **shared) for _ in range(2))


def decide_counting_solves(world, tau, params, max_fields, seed):
    """The specs `expert_egta_decide` solves, in order, on a fresh generator."""
    solved = []

    def counting(spec):
        solved.append(spec)
        return solve_irrigation_game(spec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rivercommons.policies.solve_irrigation_game", counting)
        expert_egta_decide(world, expert_config(tau, params, max_fields),
                           solve_fishing_game(world, params, 5, 1.0, {}),
                           year_roles(world.n_households, np.random.default_rng(seed)), {})
    return solved


class TestPairGameKey:
    @settings(max_examples=300, deadline=None)
    @given(key_boundary_years(), st.sampled_from([0.0, 0.25, 1.0]), st.integers(0, 2 ** 32 - 1))
    @example((_world([(100.0, 210.0), (109.99, 1e4), (100.0, 210.0)]), EcologyParams(), 10),
             0.25, 0)
    @example((_world([(-5.0, 60.0), (9.99, 60.0), (0.0, 60.0), (-500.0, 0.0)]),
              EcologyParams(), 10), 0.0, 5)
    def test_year_keys_equal_clipped_field_limits(self, year, tau, seed):
        """The year pass keys each pair as `reference_pair_key` keys its spec:
        one spec is solved per distinct key played, the first played pair's
        own, in the order households play them."""
        world, params, k = year
        fish_income = solve_fishing_game(world, params, 5, 1.0, {})[1]
        specs = reference_pair_specs(world, tau, params, 6.0, k, fish_income)
        first_of_key = {}
        for pair in played_pairs(scalar_roles(world.n_households,
                                              np.random.default_rng(seed))):
            first_of_key.setdefault(reference_pair_key(specs[pair]), specs[pair])
        solved = decide_counting_solves(world, tau, params, k, seed)
        assert solved == list(first_of_key.values())

    @settings(max_examples=400, deadline=None)
    @given(same_year_spec_pairs())
    @example((IrrigationGameSpec(B_u=100.0, B_d=100.0, c=10.0, T=210.0, w=10.0, y0=50.0,
                                 ys=24.0, S=6.0, kappa=50.0, tau=0.25),
              IrrigationGameSpec(B_u=109.99, B_d=5000.0, c=10.0, T=1e4, w=10.0, y0=50.0,
                                 ys=24.0, S=6.0, kappa=50.0, tau=0.25)))
    @example((IrrigationGameSpec(B_u=-5.0, B_d=9.99, c=10.0, T=60.0, w=10.0, y0=50.0,
                                 ys=24.0, S=6.0, kappa=50.0),
              IrrigationGameSpec(B_u=0.0, B_d=-500.0, c=10.0, T=60.0, w=10.0, y0=50.0,
                                 ys=24.0, S=6.0, kappa=50.0)))
    def test_equal_keys_build_the_same_game(self, specs):
        first, second = specs
        if reference_pair_key(first) != reference_pair_key(second):
            return
        a, b = build_irrigation_game(first), build_irrigation_game(second)
        assert a.row_payoffs.tobytes() == b.row_payoffs.tobytes()
        assert a.col_payoffs.tobytes() == b.col_payoffs.tobytes()
        assert solve_irrigation_game(first) == solve_irrigation_game(second)

    def test_key_splits_games_that_differ(self):
        """Three households play both pairs, which share one game and one
        solve; an upstream or downstream budget a cent short of max_fields
        fields, or an inflow a cent short of 2 * max_fields + 1, splits them."""
        shared = [(100.0, 210.0)] * 3
        splits = [[(99.99, 210.0)] + shared[1:], shared[:2] + [(99.99, 210.0)],
                  [shared[0], (100.0, 209.99), shared[2]]]
        for households, solves in [(shared, 1)] + [(split, 2) for split in splits]:
            solved = decide_counting_solves(_world(households), 0.25, EcologyParams(), 10, 0)
            assert len(solved) == solves, households

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(extreme_key_years(), key_boundary_years()), st.integers(0, 2 ** 32 - 1))
    @example((_world([(1e300, 1e300), (-1e300, 0.0), (0.0, 0.0)]),
              EcologyParams(c=1e-300, w=1e-300), 10), 0)
    @example((_world([(-5.0, 0.0), (0.0, 0.0), (1e300, 60.0)]), EcologyParams(c=1e-300), 0), 3)
    def test_year_keys_equal_numpy_key_pass(self, year, seed):
        """The plain-float key pass gives each played pair the float key the
        numpy pass over the year gives it, bit for bit; overflowing budgets
        and inflows give the clipped bounds."""
        world, params, k = year
        fish_income = solve_fishing_game(world, params, 5, 1.0, {})[1]
        keys = reference_numpy_year_keys(world, params, k, fish_income)
        played = played_pairs(scalar_roles(world.n_households, np.random.default_rng(seed)))
        solved = {}
        expert_egta_decide(world, expert_config(0.25, params, k), (0, fish_income),
                           year_roles(world.n_households, np.random.default_rng(seed)), solved)
        expected = list(dict.fromkeys(keys[pair] for pair in played))
        assert [_bits(key) for key in solved] == [_bits(key) for key in expected]
        assert {type(v) for key in solved for v in key[:3]} == {float}


class TestPairGameKeyFloatFacts:
    """Two games that a pair key of the whole water and no fishing income
    would build or solve differently."""

    def test_downstream_water_bound_differs_from_whole_water_bound(self):
        """At T / w = 1.999999999, one upstream field leaves downstream none:
        floor(max(water - f_u, 0) + 1e-9) is 0, while the whole-water bound
        max(floor(water + 1e-9) - f_u, 0) is 1."""
        spec = IrrigationGameSpec(B_u=100, B_d=100, c=1, T=1.999999999, w=1, y0=11, ys=9,
                                  S=6, kappa=0, tau=0, max_fields=4)
        water = pair_caps(spec.B_u, spec.B_d, spec.T, spec.c, spec.w, spec.max_fields)[2]
        f_u, f_d, _, _ = _payoff_rule(1.0, 4.0, spec)
        assert (f_u, f_d) == (1.0, 0.0)
        assert max(math.floor(water + 1e-9) - f_u, 0) == 1

    def test_fishing_income_moves_the_selected_cell(self):
        """Fishing income adds one constant to each player's matrix, but the
        sums round: at 0.3, upstream's payoffs 2.3 and 2.3000000000000007
        against s_d = 2 no longer tie, so (1, 2) stops being an equilibrium
        and the selected cell moves to (2, 2)."""
        def spec(fish_income):
            return IrrigationGameSpec(B_u=2, B_d=2, c=1, T=5, w=1, y0=20, ys=6, S=1,
                                      kappa=0, tau=1, max_fields=2, F_u=fish_income,
                                      F_d=fish_income)

        assert enumerate_pure_ne(build_irrigation_game(spec(0.0))) == {(1, 2), (2, 1),
                                                                       (2, 2)}
        assert solve_irrigation_game(spec(0.0)) == (1, 2)
        assert enumerate_pure_ne(build_irrigation_game(spec(0.3))) == {(2, 2)}
        assert solve_irrigation_game(spec(0.3)) == (2, 2)


# -- the expert year's pair solves -----------------------------------------------

@st.composite
def expert_worlds(draw, n=None):
    """A world of 2 to 9 households (or `n`) whose budgets are negative, below
    the cost of one field, or large, with random node inflows and adult stock."""
    n = draw(st.integers(2, 9)) if n is None else n
    # The sampled budgets and inflows give pairs whose games are equal though
    # their floats differ (c = w = 10), so pairs share a solve.
    budget = st.one_of(_floats(-500.0, -0.01), _floats(0.0, 9.99), _floats(10.0, 5000.0),
                       st.sampled_from([-1.0, 5.0, 30.0, 39.99, 100.0, 109.99, 2500.0]))
    inflow = st.one_of(_amount(0.0, 300.0), st.sampled_from([45.0, 49.99, 210.0, 250.0]))
    households = [(draw(budget), draw(inflow)) for _ in range(n)]
    return _world(households, draw(_floats(0.0, 1e5)))


class TestExpertYear:
    @settings(max_examples=150, deadline=None)
    @given(expert_worlds(), st.sampled_from([0.0, 0.25, 1.0]), st.integers(0, 2 ** 32 - 1))
    @example(_world([(100.0, 210.0), (109.99, 250.0), (100.0, 300.0), (2500.0, 210.0),
                     (109.99, 250.0), (100.0, 49.99), (109.99, 45.0)], 1000.0), 0.25, 3)
    @example(_world([(30.0, 45.0), (39.99, 49.99), (30.0, 45.0), (39.99, 250.0), (5.0, 45.0),
                     (-1.0, 49.99), (9.99, 210.0), (0.0, 250.0), (30.0, 45.0)]), 0.0, 11)
    def test_lazy_decide_equals_solve_all_reference(self, world, tau, seed):
        params = EcologyParams()
        rng = np.random.default_rng(seed)
        expected_rng = np.random.default_rng(seed)
        got = expert_egta_decide(world, expert_config(tau, params),
                                 solve_fishing_game(world, params, 5, 1.0, {}),
                                 year_roles(world.n_households, rng), {})
        expected = reference_expert_egta_decide(world, tau, params, 6.0, 10, 5, 1.0,
                                                expected_rng)
        assert got == expected
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
    def test_each_played_pair_is_solved_once(self, n, seed):
        """Household i can afford i fields, which marks pair i, whose upstream
        it is, and gives every pair its own game."""
        c = EcologyParams().c
        world = _world([(c * i, 1000.0) for i in range(n)])
        solved = []

        def counting(spec):
            solved.append(int(spec.B_u / c))
            return solve_irrigation_game(spec)

        played = set(played_pairs(scalar_roles(n, np.random.default_rng(seed))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("rivercommons.policies.solve_irrigation_game", counting)
            expert_egta_decide(world, expert_config(0.25),
                               solve_fishing_game(world, EcologyParams(), 5, 1.0, {}),
                               year_roles(n, np.random.default_rng(seed)), {})
        assert sorted(solved) == sorted(set(solved)) == sorted(played)
        assert {0, n - 2} <= set(solved)

    def test_identical_games_solved_once_per_run(self):
        """Every budget affords more than max_fields, so all eight pairs play
        one game, and the first call builds one spec, not eight. With the same
        dict, a call on another fish stock solves again, and a third on the
        first world solves nothing; a fresh dict solves again."""
        world = _world([(100.0 + i, 60.0) for i in range(9)])
        fished = replace(world, fish=_world([], 1000.0).fish)
        fishing, more_fishing = (solve_fishing_game(w, EcologyParams(), 5, 1.0, {})
                                 for w in (world, fished))
        config, solved, built, run = expert_config(0.25), [], [], {}

        def roles():
            return year_roles(9, np.random.default_rng(0))

        def counting(spec):
            solved.append(spec)
            return solve_irrigation_game(spec)

        def building(**fields):
            built.append(fields["B_u"])
            return IrrigationGameSpec(**fields)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("rivercommons.policies.solve_irrigation_game", counting)
            patch.setattr("rivercommons.policies.IrrigationGameSpec", building)
            first = expert_egta_decide(world, config, fishing, roles(), run)
            assert [spec.B_u for spec in solved] == [100.0]
            expert_egta_decide(fished, config, more_fishing, roles(), run)
            assert len(solved) == 2 and solved[1].F_u > solved[0].F_u == 0.0
            again = expert_egta_decide(world, config, fishing, roles(), run)
            assert len(solved) == 2 and again == first
            fresh = expert_egta_decide(world, config, fishing, roles(), {})
        assert len(solved) == 3 and solved[2].F_u == 0.0
        assert built == [100.0] * 3
        assert fresh == first


@st.composite
def expert_runs(draw):
    """(worlds, params, max_fields): 2 to 6 years of one run, all drawn by
    `key_boundary_years` for one params and max_fields, or all by
    `expert_worlds` at the default params and 10 fields. Each year's adult
    stock comes from a pool of three, 0.0 among them, so fishing incomes
    repeat across years."""
    n_years = draw(st.integers(2, 6))
    if draw(st.booleans()):
        first = draw(key_boundary_years())
        worlds = [first[0]] + [draw(key_boundary_years(first))[0]
                               for _ in range(n_years - 1)]
        params, k = first[1:]
    else:
        n = draw(st.integers(2, 9))
        worlds = [draw(expert_worlds(n)) for _ in range(n_years)]
        params, k = EcologyParams(), 10
    stock = st.sampled_from([0.0, 1000.0, draw(_floats(0.0, 1e5))])
    return [replace(w, fish=_world([], draw(stock)).fish) for w in worlds], params, k


def played_pair_games(world, config, fishing, roles):
    """(reference_pair_key, fishing income) of each pair the households of
    one expert year play, given the year's middle-household `roles`."""
    fish_income = fishing[1]
    specs = reference_pair_specs(world, config.tau, config.ecology,
                                 config.pair_stress_threshold, config.max_fields, fish_income)
    return {(reference_pair_key(specs[pair]), fish_income)
            for pair in played_pairs(roles)}


def solved_games(specs):
    """(reference_pair_key, fishing income) of each solved spec."""
    return [(reference_pair_key(spec), spec.F_u) for spec in specs]


class TestExpertRun:
    @settings(max_examples=150, deadline=None)
    @given(expert_runs(), st.sampled_from([0.0, 0.25, 1.0]), st.integers(0, 2 ** 32 - 1))
    @example(([_world([(100.0, 210.0), (109.99, 250.0), (100.0, 300.0)], stock)
               for stock in (0.0, 1000.0, 0.0, 1000.0)], EcologyParams(), 10), 0.25, 3)
    def test_run_long_dict_equals_solve_all_reference(self, run, tau, seed):
        """One dict carried through every year of a run: each year's decisions
        and generator state equal the reference, which solves every pair game
        each year, and a game is solved only in the first year that plays it."""
        worlds, params, k = run
        config = expert_config(tau, params, k)
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        solved, games, solves = {}, set(), []

        def counting(spec):
            solves.append(spec)
            return solve_irrigation_game(spec)

        for world in worlds:
            fishing = solve_fishing_game(world, params, 5, 1.0, {})
            roles = year_roles(world.n_households, rng)
            games |= played_pair_games(world, config, fishing, roles)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("rivercommons.policies.solve_irrigation_game", counting)
                got = expert_egta_decide(world, config, fishing, roles, solved)
            expected = reference_expert_egta_decide(world, tau, params, 6.0, k, 5, 1.0,
                                                    expected_rng)
            assert got == expected
            assert rng.bit_generator.state == expected_rng.bit_generator.state
            assert sorted(solved_games(solves)) == sorted(games)
            assert len(solved) == len(games)

    @pytest.mark.parametrize("tau", [0.0, 0.25])
    def test_run_solves_each_played_game_once(self, tau):
        """A 100-year expert run solves as many pair games as distinct
        (pair key, fishing income) pairs its households play."""
        games, solves = set(), []

        def recording(*args):
            games.update(played_pair_games(*args[:-1]))
            return expert_egta_decide(*args)

        def counting(spec):
            solves.append(spec)
            return solve_irrigation_game(spec)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("rivercommons.harness.expert_egta_decide", recording)
            patch.setattr("rivercommons.policies.solve_irrigation_game", counting)
            run_simulation(RunConfig(pipeline="expert-egta", tau=tau, seed=2))
        assert sorted(solved_games(solves)) == sorted(games) != []

    def test_households_that_choose_alike_share_one_decision(self):
        """In each year of a tau = 0.25 run, the decisions hold one object per
        distinct (fields_planted, fish_target), and some year's households
        share one."""
        years = []

        def recording(*args):
            years.append(expert_egta_decide(*args))
            return years[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("rivercommons.harness.expert_egta_decide", recording)
            run_simulation(RunConfig(pipeline="expert-egta", tau=0.25, seed=2, horizon=20))
        for decisions in years:
            assert (len({id(d) for d in decisions})
                    == len({(d.fields_planted, d.fish_target) for d in decisions}))
        assert any(len({id(d) for d in decisions}) < len(decisions) for decisions in years)


# -- the fishing game kept for the run ---------------------------------------------

def _unchecked_population(classes):
    """A FishPopulation of `classes` as given, past the constructor's checks:
    a non-finite class, which the constructor rejects."""
    pop = FishPopulation(np.zeros(N_FISH_CLASSES))
    object.__setattr__(pop, "classes", tuple(map(float, classes)))
    return pop


def _stock_world(n, stock):
    """A world of n households whose whole adult stock sits in one class, so
    that `adult_total` is `stock` exactly, a NaN stock included."""
    classes = np.zeros(N_FISH_CLASSES)
    classes[ADULT.start] = stock
    return replace(_world([(100.0, 60.0)] * n), fish=_unchecked_population(classes))


def decide_recording_fishing(pipeline, world):
    """(the fishing game `pipeline.decide(world)` passes on, CPR solves made)."""
    fishing, solves = [], []

    def recording(*args):
        fishing.append(args[2])
        return expert_egta_decide(*args)

    def counting(*args):
        solves.append(args)
        return solve_symmetric_cpr(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rivercommons.harness.expert_egta_decide", recording)
        patch.setattr("rivercommons.policies.solve_symmetric_cpr", counting)
        pipeline.decide(world)
    return fishing[0], len(solves)


class TestKeptFishingGame:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(2, 9), st.sampled_from([0.0, 1.0, 4.99, 5.0, 7.5]),
           st.data())
    def test_kept_solution_equals_fresh_solve_around_the_cap(self, e_max, n, cost, data):
        """Years at a stock of exactly n * e_max, one ulp either side (none
        below 0) and far above, in any order: each year's fishing game equals
        a fresh `solve_fishing_game`, and the run solves it once for all the
        stocks at or above the cap and once in each year below it."""
        cap = n * e_max
        stocks = [s for s in _one_ulp_around(float(cap)) if s >= 0.0] + [1e6]
        config = RunConfig(pipeline="expert-egta", n_households=n, e_max=e_max,
                           effort_cost=cost, horizon=1)
        pipeline = _ExpertEgta(config, river_series(config)[0])
        solves = 0
        for stock in data.draw(st.permutations(stocks)):
            world = _stock_world(n, stock)
            fishing, year_solves = decide_recording_fishing(pipeline, world)
            assert fishing == solve_fishing_game(world, config.ecology, e_max, cost, {})
            solves += year_solves
        assert solves == sum(stock < cap for stock in stocks) + 1
        assert pipeline.fishing[cap] == solve_fishing_game(
            _stock_world(n, float(cap)), config.ecology, e_max, cost, {})

    def test_nan_stock_is_not_served_the_capped_entry(self):
        """A NaN adult stock is not at least n * e_max, so a year at it is not
        served the capped entry that a year at an ample stock has filled: the
        fishing game rejects the stock, and the NaN key is never stored."""
        config = RunConfig(pipeline="expert-egta", horizon=1)
        pipeline = _ExpertEgta(config, river_series(config)[0])
        n = config.n_households
        assert decide_recording_fishing(pipeline, _stock_world(n, 1e6))[1] == 1
        with pytest.raises(ConfigurationError, match="stock estimate must be finite"):
            pipeline.decide(_stock_world(n, math.nan))
        assert list(pipeline.fishing) == [n * config.e_max]

    @pytest.mark.parametrize("seed", [2, 3])
    def test_run_equals_solving_every_year(self, seed):
        """A 100-year expert run at tau = 0, whose stock crosses n * e_max,
        records the same decisions and records as one that solves the
        fishing game every year, with one solve for all the years at or above
        the cap and one for each distinct stock below it."""
        config = RunConfig(pipeline="expert-egta", tau=0.0, seed=seed)
        cap = config.n_households * config.e_max

        def run(every_year):
            decisions, stocks, solves = [], [], []

            def recording(state, run_config, fishing, roles, solved):
                if every_year:
                    fishing = solve_fishing_game(state, config.ecology, config.e_max,
                                                 config.effort_cost, {})
                stocks.append(state.fish.adult_total)
                decisions.append(expert_egta_decide(state, run_config, fishing, roles, solved))
                return decisions[-1]

            def counting(*args):
                solves.append(args)
                return solve_symmetric_cpr(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("rivercommons.harness.expert_egta_decide", recording)
                patch.setattr("rivercommons.policies.solve_symmetric_cpr", counting)
                records = run_simulation(config).records
            return decisions, records, stocks, len(solves)

        decisions, records, stocks, solves = run(every_year=False)
        expected, expected_records, _, every_year_solves = run(every_year=True)
        ample = [stock >= cap for stock in stocks]
        assert decisions == expected and records == expected_records
        assert 0 < sum(ample) < len(ample) == 100
        assert solves == len({stock for stock in stocks if stock < cap}) + 1
        assert every_year_solves == solves + 100

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12))
    def test_one_call_role_draw_equals_scalar_draws(self, seed, size):
        one, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (one.integers(2, size=size).tolist()
                == [int(scalar.integers(2)) for _ in range(size)])
        assert one.bit_generator.state == scalar.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 150))
    def test_role_table_rows_equal_successive_draws(self, seed, n, horizon):
        """Row t of an expert run's role table is the (t + 1)-th draw of
        n - 2 roles from a generator seeded by the run's seed, as plain ints,
        and the one call leaves its generator in the state that the
        successive draws leave."""
        config = RunConfig(pipeline="expert-egta", n_households=n, horizon=horizon, seed=seed)
        default_rng, made = np.random.default_rng, []

        def recording(*args):
            made.append(default_rng(*args))
            return made[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", recording)
            pipeline = _ExpertEgta(config, RiverYear([100.0] * 12))
        successive = np.random.default_rng(seed)
        assert pipeline.roles == [successive.integers(2, size=n - 2).tolist()
                                  for _ in range(horizon)]
        assert {type(role) for row in pipeline.roles for role in row} <= {int}
        assert len(made) == 1
        assert made[0].bit_generator.state == successive.bit_generator.state


# -- Lemke-Howson ------------------------------------------------------------------

class _ReferenceTableau:
    """The original Lemke-Howson tableau, with exact Fraction entries."""

    def __init__(self, rows, basis):
        self.rows = rows
        self.basis = basis

    def pivot(self, entering):
        candidates = [i for i, r in enumerate(self.rows) if r[entering] > 0]
        if not candidates:
            raise InvalidGameError("unbounded pivot ray (non-positive column)")

        def ratio_key(i):
            r = self.rows[i]
            p = r[entering]
            return tuple(v / p for v in [r[-1]] + r[:-1])

        i = min(candidates, key=ratio_key)
        prow = self.rows[i]
        p = prow[entering]
        self.rows[i] = prow = [v / p for v in prow]
        for j, r in enumerate(self.rows):
            if j != i and r[entering] != 0:
                f = r[entering]
                self.rows[j] = [a - f * b for a, b in zip(r, prow)]
        leaving = self.basis[i]
        self.basis[i] = entering
        return leaving


def reference_lemke_howson(game, initial_label=0):
    a = game.row_payoffs
    b = game.col_payoffs
    m, n = a.shape
    if not 0 <= initial_label < m + n:
        raise InvalidGameError(f"initial label {initial_label} out of range for {m}x{n} game")

    low = min(a.min(), b.min())
    offset = Fraction(0)
    if low <= 0:
        offset = Fraction(1) - Fraction(low)
    af = [[Fraction(a[i, j]) + offset for j in range(n)] for i in range(m)]
    bf = [[Fraction(b[i, j]) + offset for j in range(n)] for i in range(m)]

    zero, one = Fraction(0), Fraction(1)
    tx = _ReferenceTableau(
        rows=[[bf[i][j] for i in range(m)]
              + [one if k == j else zero for k in range(n)] + [one]
              for j in range(n)],
        basis=[m + j for j in range(n)])
    ty = _ReferenceTableau(
        rows=[[one if k == i else zero for k in range(m)]
              + [af[i][j] for j in range(n)] + [one]
              for i in range(m)],
        basis=list(range(m)))

    entering = initial_label
    tab = tx if initial_label < m else ty
    while True:
        leaving = tab.pivot(entering)
        if leaving == initial_label:
            break
        entering = leaving
        tab = ty if tab is tx else tx

    x = [zero] * m
    y = [zero] * n
    for label, row in zip(tx.basis, tx.rows):
        if label < m:
            x[label] = row[-1]
    for label, row in zip(ty.basis, ty.rows):
        if label >= m:
            y[label - m] = row[-1]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise InvalidGameError("pivoting ended on an empty support")
    return MixedProfile(np.array([float(v / sx) for v in x]),
                        np.array([float(v / sy) for v in y]))


def _solve_outcome(solver, game, label):
    """The profile's bytes, or the InvalidGameError message."""
    try:
        profile = solver(game, label)
    except InvalidGameError as err:
        return str(err)
    return profile.row_dist.tobytes(), profile.col_dist.tobytes()


def assert_same_as_reference(game):
    """Every initial label, plus one out of range on each side."""
    for label in range(-1, sum(game.shape) + 1):
        assert (_solve_outcome(lemke_howson, game, label)
                == _solve_outcome(reference_lemke_howson, game, label)), label


# Entry kinds: integers; tenths, which are not dyadic; mixed magnitudes, where
# the common denominator is large; all-positive, where no offset is added;
# and few values, for degenerate games with ties.
PAYOFF_ENTRIES = [
    st.integers(-9, 9).map(float),
    st.integers(-50, 50).map(lambda k: k / 10),
    st.one_of(st.sampled_from([1e-7 + 3e5, 123.456, -0.1, 1e-7, 2.5e-9, -7e4]),
              _floats(-1e6, 1e6)),
    st.one_of(st.integers(1, 9).map(float), _floats(0.5, 100.0)),
    st.sampled_from([0.0, 1.0]),
]


@st.composite
def bimatrix_games(draw):
    shape = draw(st.one_of(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                           st.tuples(st.just(1), st.integers(1, 6)),
                           st.tuples(st.integers(1, 6), st.just(1))))
    entries = draw(st.sampled_from(PAYOFF_ENTRIES))
    if draw(st.booleans()) and draw(st.booleans()):   # constant games
        value = draw(entries)
        return BimatrixGame(np.full(shape, value), np.full(shape, draw(entries)))
    cells = st.lists(entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    return BimatrixGame(np.reshape(draw(cells), shape), np.reshape(draw(cells), shape))


@st.composite
def wide_degenerate_games(draw):
    """Square games of 6 to 9 actions with entries in {0, 1, 2}: ties in the
    ratio test reach the basic labels, whose columns the tableau keeps only
    implicitly."""
    k = draw(st.integers(6, 9))
    cells = st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=k * k, max_size=k * k)
    return BimatrixGame(np.reshape(draw(cells), (k, k)), np.reshape(draw(cells), (k, k)))


# Pair games with no pure equilibrium, each with a single mixed equilibrium,
# which Lemke-Howson reaches from every initial label.
NO_PURE_EQUILIBRIUM = [
    (IrrigationGameSpec(B_u=3.0, B_d=2.0, c=1.0, T=20.0, w=5.0, y0=11.0, ys=9.0, S=3.0,
                        kappa=0.0, tau=1.0, F_u=0.0, F_d=0.0, max_fields=3),
     [0.0, 0.0, 6 / 7, 1 / 7], [0.0, 1 / 3, 2 / 3, 0.0]),
    (IrrigationGameSpec(B_u=4.0, B_d=2.0, c=1.0, T=50.0, w=10.0, y0=14.0, ys=12.0, S=4.0,
                        kappa=0.0, tau=1.0, F_u=0.0, F_d=0.0, max_fields=4),
     [0.0, 0.0, 0.0, 7 / 10, 3 / 10], [0.0, 2 / 5, 3 / 5, 0.0, 0.0]),
]


class TestLemkeHowson:
    @settings(max_examples=400, deadline=None)
    @given(bimatrix_games())
    @example(BimatrixGame(np.array([[5e-324, 1e300], [1.0, -1e300]]),
                          np.array([[1e300, 5e-324], [-5e-324, 2.0]])))
    @example(BimatrixGame(np.array([[0.1, 0.3], [0.3, 0.1]]),
                          np.array([[0.3, 0.1], [0.1, 0.3]])))
    def test_integer_pivoting_equals_fraction_reference(self, game):
        assert_same_as_reference(game)

    @settings(max_examples=12, deadline=None)
    @given(irrigation_specs().map(lambda spec: replace(spec, max_fields=10)))
    @example(NO_PURE_EQUILIBRIUM[0][0])
    @example(NO_PURE_EQUILIBRIUM[1][0])
    def test_irrigation_games_equal_fraction_reference(self, spec):
        assert_same_as_reference(build_irrigation_game(spec))

    @settings(max_examples=40, deadline=None)
    @given(wide_degenerate_games())
    def test_wide_degenerate_games_equal_fraction_reference(self, game):
        assert_same_as_reference(game)

    @pytest.mark.parametrize("spec, row, col", NO_PURE_EQUILIBRIUM)
    def test_no_pure_equilibrium_games_reach_their_mixed_equilibrium(self, spec, row, col):
        game = build_irrigation_game(spec)
        assert enumerate_pure_ne(game) == frozenset()
        for label in range(sum(game.shape)):
            profile = lemke_howson(game, label)
            assert profile.row_dist.tolist() == row, label
            assert profile.col_dist.tolist() == col, label
            assert is_epsilon_ne(game, profile, 1e-9), label


# -- symmetric CPR solve -----------------------------------------------------------

def reference_solve_symmetric_cpr(payoff, n_players, e_max):
    levels = range(e_max + 1)
    tol = 1e-12
    for e_star in levels:
        others = (n_players - 1) * e_star
        u_star = payoff(e_star, others)
        if all(payoff(e, others) <= u_star + tol for e in levels):
            return CprSolution(e_star, True)

    walk, e = [], 0
    while e not in walk:
        walk.append(e)
        others = (n_players - 1) * e
        e = min(levels, key=lambda d: (-payoff(d, others), d))
    return CprSolution(min(walk[walk.index(e):]), False)


def tabular(values, n_players):
    """u(e, others) read from values[e][others // (n_players - 1)]."""
    return lambda e, others: values[e][others // (n_players - 1)]


# Few distinct values, so ties and sub-tolerance gaps (5e-13 < 1e-12) occur.
PAYOFF_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0 + 5e-13, 2.0])


def _cycle(successor):
    """A 2-player table whose unique best response to k is successor[k]."""
    size = len(successor)
    return [[1.0 if successor[k] == e else 0.0 for k in range(size)] for e in range(size)]


class TestSymmetricCpr:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(0, 6))
    def test_tabulated_solve_equals_per_step_reference(self, data, n_players, e_max):
        row = st.lists(PAYOFF_VALUES, min_size=e_max + 1, max_size=e_max + 1)
        values = data.draw(st.lists(row, min_size=e_max + 1, max_size=e_max + 1))
        payoff = tabular(values, n_players)
        assert (solve_symmetric_cpr(payoff, n_players, e_max)
                == reference_solve_symmetric_cpr(payoff, n_players, e_max))

    @pytest.mark.parametrize("successor", [[1, 0], [3, 3, 0, 0, 0, 0], [1, 2, 0],
                                           [2, 2, 3, 2]])
    def test_cycling_walks_equal_reference(self, successor):
        payoff = tabular(_cycle(successor), 2)
        e_max = len(successor) - 1
        sol = solve_symmetric_cpr(payoff, 2, e_max)
        assert not sol.is_equilibrium
        assert sol == reference_solve_symmetric_cpr(payoff, 2, e_max)

    @pytest.mark.parametrize("successor, least", [([1, 0], 0), ([3, 3, 0, 0, 0, 0], 0),
                                                   ([1, 2, 0], 0), ([2, 2, 3, 2], 2)])
    def test_cycle_returns_its_least_level(self, successor, least):
        # 0->1->2->0 and 0->2->3->2: an odd cycle and a cycle entered after a
        # step, where a fixed-length walk would stop elsewhere in the cycle.
        sol = solve_symmetric_cpr(tabular(_cycle(successor), 2), 2, len(successor) - 1)
        assert sol == CprSolution(least, False)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 5), st.integers(0, 6))
    def test_result_is_equilibrium_or_least_cycle_level(self, data, n_players, e_max):
        row = st.lists(PAYOFF_VALUES, min_size=e_max + 1, max_size=e_max + 1)
        values = data.draw(st.lists(row, min_size=e_max + 1, max_size=e_max + 1))
        payoff = tabular(values, n_players)
        levels = range(e_max + 1)

        def is_symmetric_equilibrium(e_star):
            others = (n_players - 1) * e_star
            return all(payoff(e, others) <= payoff(e_star, others) + 1e-12 for e in levels)

        sol = solve_symmetric_cpr(payoff, n_players, e_max)
        if sol.is_equilibrium:
            assert is_symmetric_equilibrium(sol.extraction)
            assert not any(map(is_symmetric_equilibrium, range(sol.extraction)))
            return
        assert not any(map(is_symmetric_equilibrium, levels))
        seen, e = [], 0
        while e not in seen:
            seen.append(e)
            others = (n_players - 1) * e
            e = max(levels, key=lambda d: (payoff(d, others), -d))
        assert sol.extraction == min(seen[seen.index(e):])

    @pytest.mark.parametrize("stock", [0.6, 3.0, 40.0, 500.0])
    def test_fishing_game_equals_reference(self, stock):
        # At stocks 0.6 and 3.0 the best response from 0 cycles 0<->1 and 0<->3.
        payoff = build_cpr_fishing_game(stock, EcologyParams())
        assert (solve_symmetric_cpr(payoff, 9, 5)
                == reference_solve_symmetric_cpr(payoff, 9, 5))


# -- river routing and the fishery step ------------------------------------------

def reference_route_river(river, planted_fields, params):
    n = len(planted_fields)
    n_irr = len(IRRIGATION_MONTHS)
    monthly_demand = [params.w * f / n_irr for f in planted_fields]
    delivered = [0.0] * n
    node_inflow = [0.0] * n
    lake = np.zeros(12)
    for month in range(1, 13):
        flow = float(river.monthly_inflow[month - 1])
        irrigating = month in IRRIGATION_MONTHS
        for i in range(n):
            node_inflow[i] += flow
            if irrigating and monthly_demand[i] > 0:
                take = min(monthly_demand[i], flow)
                delivered[i] += take
                flow -= take
        lake[month - 1] = flow
    return tuple(delivered), lake, tuple(node_inflow)


def reference_step_fish(pop, lake_inflow_by_month, harvest_targets, household_order,
                        params):
    lake = np.asarray(lake_inflow_by_month, dtype=float)
    classes = np.array(pop.classes)
    catches = [0.0] * len(harvest_targets)
    for i in household_order:
        remaining = classes[ADULT].sum()
        take = min(float(harvest_targets[i]), remaining)
        catches[i] = take
        if take > 0:
            classes[ADULT] *= 1.0 - take / remaining
    post_harvest_adults = classes[ADULT].sum()

    new = np.zeros(N_FISH_CLASSES)
    for k in range(0, 5):
        a = classes[k]
        new[k + 1] = params.sigma_larva * a / (1.0 + a / params.K_juv)
    for k in range(5, 12):
        new[k + 1] = params.sigma_adult * classes[k]

    annual_lake = float(lake.sum())
    scale = min(1.0, annual_lake / params.Q_ref)
    new[LARVA] = params.fecundity * post_harvest_adults * scale
    if lake[MIGRATION_MONTH - 1] >= params.Q_min:
        new[LARVA] += params.M_mig
    return np.maximum(new, 0.0), tuple(catches)


def reference_route_river_min(river, planted_fields, params):
    """Every node in every month in one loop, with min(demand, flow)."""
    n = len(planted_fields)
    n_irr = len(IRRIGATION_MONTHS)
    monthly_demand = [params.w * f / n_irr for f in planted_fields]
    delivered = [0.0] * n
    node_inflow = [0.0] * n
    lake = []
    for month, flow in enumerate(river.monthly_inflow, start=1):
        irrigating = month in IRRIGATION_MONTHS
        for i in range(n):
            node_inflow[i] += flow
            if irrigating and monthly_demand[i] > 0:
                take = min(monthly_demand[i], flow)
                delivered[i] += take
                flow -= take
        lake.append(flow)
    return tuple(delivered), np.array(lake), tuple(node_inflow)


def reference_step_fish_array_harvest(pop, lake_inflow_by_month, harvest_targets,
                                      household_order, params):
    """The harvest on the numpy adult slice, summed by numpy after each catch."""
    lake = np.asarray(lake_inflow_by_month, dtype=float)
    classes = np.array(pop.classes)
    catches = [0.0] * len(harvest_targets)
    remaining = float(classes[ADULT].sum())
    for i in household_order:
        take = min(float(harvest_targets[i]), remaining)
        catches[i] = take
        if take > 0:
            classes[ADULT] *= 1.0 - take / remaining
            remaining = float(classes[ADULT].sum())

    old = classes.tolist()
    new = [0.0] * N_FISH_CLASSES
    for k in range(0, 5):
        a = old[k]
        new[k + 1] = params.sigma_larva * a / (1.0 + a / params.K_juv)
    for k in range(5, 12):
        new[k + 1] = params.sigma_adult * old[k]

    annual_lake = float(lake.sum())
    scale = min(1.0, annual_lake / params.Q_ref)
    new[LARVA] = params.fecundity * remaining * scale
    if lake[MIGRATION_MONTH - 1] >= params.Q_min:
        new[LARVA] += params.M_mig
    return np.maximum(new, 0.0), tuple(catches)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def reference_crop_outcome(planted, delivered, irrigated, stress_in, total_irrigated_in_reach,
                           params):
    """The clamps as nested max and min calls."""
    per_field = params.y0 if total_irrigated_in_reach <= params.S else params.ys
    deficit = 0.0 if planted == 0 else max(0.0, 1.0 - delivered / (params.w * planted))
    stress_out = min(1.0, max(0.0, stress_in + deficit - params.stress_recovery))
    return irrigated * per_field * (1.0 - stress_out), stress_out


# Zeros, whole numbers and arbitrary floats, so empty months and exact
# withdrawals occur as well as rounding.
_volumes = st.one_of(st.just(0.0), st.integers(0, 400).map(float), _floats(0.0, 1e4))


@st.composite
def routing_cases(draw):
    monthly = draw(st.lists(_volumes, min_size=12, max_size=12))
    planted = draw(st.lists(st.integers(0, 15), min_size=1, max_size=12))
    w = draw(st.one_of(st.just(10.0), _floats(0.1, 50.0)))
    return RiverYear(np.array(monthly)), planted, EcologyParams(w=w)


@st.composite
def fishery_cases(draw):
    # Small stocks next to large targets make the adult stock cap the harvest.
    scale = draw(st.sampled_from([0.0, 1.0, 30.0, 1e4]))
    classes = draw(st.lists(st.one_of(st.just(0.0), _floats(0.0, 1.0).map(lambda v: v * scale)),
                            min_size=N_FISH_CLASSES, max_size=N_FISH_CLASSES))
    n = draw(st.integers(1, 9))
    targets = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    lake = draw(st.lists(_volumes, min_size=12, max_size=12))
    params = EcologyParams(K_juv=draw(st.one_of(st.just(10000.0), _floats(1.0, 1e5))),
                           Q_min=draw(st.one_of(st.just(40.0), _floats(0.0, 500.0))))
    return (FishPopulation(np.array(classes)), np.array(lake), targets,
            list(range(n - 1, -1, -1)), params)


@st.composite
def wide_fishery_cases(draw):
    """Classes that are 0 or anywhere from 1e-300 to 1e12, and targets up to
    1e13, so that harvests are capped by the stock and rescale tiny and huge
    classes alike."""
    classes = draw(st.lists(st.one_of(st.just(0.0), _floats(1e-300, 1e12)),
                            min_size=N_FISH_CLASSES, max_size=N_FISH_CLASSES))
    n = draw(st.integers(1, 9))
    targets = draw(st.lists(st.one_of(st.integers(0, 40), st.integers(0, 10 ** 13)),
                            min_size=n, max_size=n))
    lake = draw(st.lists(_volumes, min_size=12, max_size=12))
    params = EcologyParams(K_juv=draw(st.one_of(st.just(10000.0), _floats(1.0, 1e5))),
                           Q_min=draw(st.one_of(st.just(40.0), _floats(0.0, 500.0))))
    return (FishPopulation(np.array(classes)), np.array(lake), targets,
            list(range(n - 1, -1, -1)), params)


@st.composite
def wide_lake_fishery_cases(draw):
    """`fishery_cases` with lake months that are 0, anywhere from 1e-300 to
    1e12, or of one magnitude in that range, where the order of the adds
    sets the rounding, and a Q_ref of 1 to 8 times their numpy sum, so that
    the larvae carry the bits of the annual lake total."""
    pop, _, targets, order, params = draw(fishery_cases())
    band = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e12]))
    month = st.one_of(st.just(0.0), _floats(1e-300, 1e12),
                      _floats(0.0, 1.0).map(lambda v: v * band))
    lake = np.array(draw(st.lists(month, min_size=12, max_size=12)))
    q_ref = max(float(lake.sum()) * draw(st.one_of(st.just(1.0), _floats(1.0, 8.0))), 1e-300)
    return pop, lake, targets, order, replace(params, Q_ref=q_ref)


# Zero, negative zero, subnormal and ordinary abundances.
_edge_abundances = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.225e-308]),
                             _floats(0.0, 2.2e-308), _floats(0.0, 1e4))


@st.composite
def ordered_fishery_cases(draw):
    """Classes that are 0.0, -0.0, subnormal or ordinary; targets below, equal
    to, one ulp above or far above the adult stock; and the households
    harvesting in a `range`, a list or any permutation."""
    pop = FishPopulation(draw(st.lists(_edge_abundances, min_size=N_FISH_CLASSES,
                                       max_size=N_FISH_CLASSES)))
    stock = pop.adult_total
    n = draw(st.integers(1, 9))
    target = st.one_of(st.integers(0, 40), _floats(0.0, 2.0 * stock + 1.0),
                       st.sampled_from([stock, math.nextafter(stock, math.inf), 1e13]))
    targets = draw(st.lists(target, min_size=n, max_size=n))
    order = draw(st.sampled_from([range(n - 1, -1, -1), list(range(n - 1, -1, -1)),
                                  list(range(n))]) | st.permutations(range(n)))
    lake = draw(st.lists(_volumes, min_size=12, max_size=12))
    return pop, np.array(lake), targets, order, EcologyParams()


def summed_values(count):
    """`count` values that are 0.0, -0.0, anywhere from 1e-300 to 1e12, or
    of one magnitude in that range, where the order of the adds sets the
    rounding."""
    def values(band):
        value = st.one_of(st.sampled_from([0.0, -0.0]), _floats(1e-300, 1e12),
                          _floats(0.0, 1.0).map(lambda v: v * band))
        return st.lists(value, min_size=count, max_size=count)
    return st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e12]).flatmap(values)


_stresses = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.25, 0.75, 1.25, -0.5, math.nan,
                                       math.inf, -math.inf]), _floats(-2.0, 2.0))


def reference_advance_year(state, river, decisions, params):
    """One year from the reference route, fish step and crop rule, with each
    record built by keyword; returns the records and the fish classes."""
    n = state.n_households
    planted = [d.fields_planted for d in decisions]
    delivered, lake, node_inflow = reference_route_river(river, planted, params)
    irrigated = [min(p, math.floor(d / params.w + 1e-9)) if p > 0 else 0
                 for p, d in zip(planted, delivered)]
    classes, catches = reference_step_fish(state.fish, lake,
                                           [d.fish_target for d in decisions],
                                           range(n - 1, -1, -1), params)
    records = []
    for h, p, d, irr, inflow, catch in zip(state.households, planted, delivered, irrigated,
                                           node_inflow, map(float, catches)):
        income, stress = reference_crop_outcome(p, d, irr, h.stress, sum(irrigated), params)
        fish_income = params.fish_price * catch
        activity = (ActivityClass.BOTH if irr > 0 and catch > 0
                    else ActivityClass.FARMING_ONLY if irr > 0
                    else ActivityClass.FISHING_ONLY if catch > 0 else ActivityClass.NONE)
        records.append(YearRecord(
            year=state.year + 1, household=h.household, planted=p, irrigated=irr,
            delivered=d, node_inflow=inflow, stress=stress, crop_income=income, catch=catch,
            fish_income=fish_income,
            budget=h.budget + income + fish_income - params.c * irr - params.kappa,
            activity=activity))
    return records, classes


def _typed_bits(record):
    """Each field as (type, float bits), the activity as (type, value)."""
    return [(type(v), v if isinstance(v, ActivityClass) else _bits(v)) for v in record]


# Months that are zero, subnormal, whole or arbitrary.
_river_months = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.225e-308]), _volumes)


@st.composite
def whole_years(draw):
    """A world of 1 to 9 households with budgets of either sign, stresses in
    [0, 1] and planted counts, its decisions, a river with zero and
    subnormal months, and params whose w and S move the rounding and the
    stressed yield."""
    n, year = draw(st.integers(1, 9)), draw(st.integers(0, 99))
    households = tuple(
        YearRecord(year=year, household=i + 1, planted=draw(st.integers(0, 12)),
                   stress=draw(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]),
                                         _floats(0.0, 1.0))),
                   budget=draw(st.one_of(_floats(-1e4, 1e4), st.just(0.0))))
        for i in range(n))
    fish = FishPopulation(draw(st.lists(_edge_abundances, min_size=N_FISH_CLASSES,
                                        max_size=N_FISH_CLASSES)))
    state = WorldState(households, fish, year=year)
    decisions = [Decision(draw(st.integers(0, 15)), draw(st.integers(0, 40)))
                 for _ in range(n)]
    river = RiverYear(draw(st.lists(_river_months, min_size=12, max_size=12)))
    params = EcologyParams(w=draw(st.one_of(st.just(10.0), _floats(0.1, 50.0))),
                           S=draw(st.sampled_from([0.0, 5.0, 70.0])))
    return state, river, decisions, params


class TestYearStep:
    def test_irrigation_months_are_one_run(self):
        """`route_river` walks the irrigation months as one slice of the year."""
        first, last = min(IRRIGATION_MONTHS), max(IRRIGATION_MONTHS)
        assert 1 <= first and last <= 12
        assert IRRIGATION_MONTHS == frozenset(range(first, last + 1))

    @settings(max_examples=300, deadline=None)
    @given(whole_years())
    @example((WorldState((YearRecord(0, 1, stress=1.0), YearRecord(0, 2, planted=3)),
                         FishPopulation([0.0] * N_FISH_CLASSES)),
              RiverYear([0.0, 5e-324] * 6), [Decision(0, 0), Decision(4, 2)], EcologyParams()))
    def test_advance_year_equals_reference(self, case):
        """Every field of every record, with its type, and the fish classes
        equal the reference year bit for bit."""
        state, river, decisions, params = case
        got = advance_year(state, river, decisions, params)
        records, classes = reference_advance_year(state, river, decisions, params)
        assert [type(r) for r in got.households] == [YearRecord] * state.n_households
        assert [_typed_bits(r) for r in got.households] == [_typed_bits(r) for r in records]
        assert _bits(got.fish.classes) == classes.tobytes()
        assert got.year == state.year + 1

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 12), st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf]),
                                        _floats(0.0, 200.0)),
           st.integers(0, 12), _stresses, st.integers(0, 100),
           st.one_of(st.sampled_from([0.0, 0.25, 1.0]), _floats(0.0, 1.0)),
           st.sampled_from([10.0, 0.7]))
    @example(4, 40.0, 4, 1.0, 0, 0.0, 10.0)      # stress exactly 1.0
    @example(4, 40.0, 4, 0.25, 0, 0.25, 10.0)    # stress exactly 0.0
    @example(4, 20.0, 2, 0.5, 0, 0.0, 10.0)      # deficit 0.5 lifts stress to 1.0
    @example(0, 0.0, 0, -0.0, 0, 0.0, 10.0)
    @example(3, math.nan, 0, 0.5, 0, 0.25, 10.0)
    @example(3, 0.0, 0, math.nan, 0, 0.25, 10.0)
    def test_crop_outcome_equals_min_max_reference(self, planted, delivered, irrigated,
                                                   stress_in, total, recovery, w):
        params = EcologyParams(w=w, stress_recovery=recovery)
        got = crop_outcome(planted, delivered, irrigated, stress_in, total, params)
        expected = reference_crop_outcome(planted, delivered, irrigated, stress_in, total,
                                          params)
        assert _bits(got) == _bits(expected)
        assert {type(v) for v in got} == {float}

    @settings(max_examples=300, deadline=None)
    @given(wide_lake_fishery_cases())
    @example((FishPopulation(np.full(N_FISH_CLASSES, -0.0)), np.full(12, -0.0), [0, 3],
              [1, 0], EcologyParams()))
    def test_step_fish_wide_lake_equals_reference(self, case):
        pop, lake, targets, order, params = case
        fish, catches = step_fish(pop, lake, targets, order, params)
        classes, ref_catches = reference_step_fish(pop, lake, targets, order, params)
        assert _bits(fish.classes) == classes.tobytes()
        assert _bits(catches) == _bits(ref_catches)

    @settings(max_examples=300, deadline=None)
    @given(ordered_fishery_cases())
    @example((FishPopulation([0.0] * 5 + [-0.0, 5e-324, 0.0, 2.225e-308] + [-0.0] * 4),
              np.full(12, 50.0), [5e-324, 3, 2.225e-308 + 5e-324], range(2, -1, -1),
              EcologyParams()))
    @example((FishPopulation([1.0] * N_FISH_CLASSES), np.full(12, 50.0), [8.0, 8.0, 1.0],
              [0, 2, 1], EcologyParams()))
    @example((FishPopulation([-0.0] * N_FISH_CLASSES), np.full(12, 50.0), [2, 0.0, 5e-324],
              range(3), EcologyParams()))
    def test_step_fish_any_order_and_edge_classes_equal_reference(self, case):
        """Bit for bit the reference, whatever the household order, at targets
        that take the whole stock or more, and on zero, negative-zero and
        subnormal classes."""
        pop, lake, targets, order, params = case
        fish, catches = step_fish(pop, lake, targets, order, params)
        classes, ref_catches = reference_step_fish(pop, lake, targets, order, params)
        assert _bits(fish.classes) == classes.tobytes()
        assert _bits(catches) == _bits(ref_catches)
        assert {type(c) for c in catches} == {float}

    @settings(max_examples=200, deadline=None)
    @given(routing_cases())
    def test_route_river_equals_reference(self, case):
        river, planted, params = case
        routed = route_river(river, planted, params)
        delivered, lake, node_inflow = reference_route_river(river, planted, params)
        assert routed.delivered == delivered and routed.node_inflow == node_inflow
        assert _bits(routed.lake_inflow_by_month) == lake.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(fishery_cases())
    def test_step_fish_equals_reference(self, case):
        pop, lake, targets, order, params = case
        fish, catches = step_fish(pop, lake, targets, order, params)
        classes, ref_catches = reference_step_fish(pop, lake, targets, order, params)
        assert _bits(fish.classes) == classes.tobytes()
        assert catches == ref_catches
        assert {type(c) for c in catches} == {float}

    @settings(max_examples=300, deadline=None)
    @given(routing_cases())
    def test_route_river_equals_min_reference(self, case):
        river, planted, params = case
        routed = route_river(river, planted, params)
        delivered, lake, node_inflow = reference_route_river_min(river, planted, params)
        assert _bits(routed.delivered) == _bits(delivered)
        assert _bits(routed.node_inflow) == _bits(node_inflow)
        assert _bits(routed.lake_inflow_by_month) == lake.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(fishery_cases(), wide_fishery_cases()))
    def test_step_fish_equals_array_harvest_reference(self, case):
        pop, lake, targets, order, params = case
        fish, catches = step_fish(pop, lake, targets, order, params)
        classes, ref_catches = reference_step_fish_array_harvest(pop, lake, targets, order,
                                                                 params)
        assert _bits(fish.classes) == classes.tobytes()
        assert _bits(catches) == _bits(ref_catches)
        assert {type(c) for c in catches} == {float}

    @settings(max_examples=300, deadline=None)
    @given(summed_values(12), summed_values(N_FISH_CLASSES))
    @example([-0.0] * 12, [-0.0] * N_FISH_CLASSES)   # numpy's sum is 0.0
    def test_totals_equal_numpy_sum(self, monthly, classes):
        """`annual_total` and `adult_total` add as numpy's sum adds, signed
        zeros included."""
        total = RiverYear(monthly).annual_total
        adults = FishPopulation(classes).adult_total
        assert type(total) is float and type(adults) is float
        assert _bits(total) == _bits(np.sum(np.array(monthly)))
        assert _bits(adults) == _bits(np.sum(np.array(classes)[ADULT]))

    def test_step_fish_clips_edge_values_as_numpy_maximum(self):
        # -0.0 classes age into -0.0 and a negative lake makes negative
        # larvae: np.maximum turns both into 0.0.
        classes = [0.0, -0.0, 3.0, 5.0, 0.0, -0.0, 2.0] + [1.0] * 6
        pop, lake = FishPopulation(classes), np.full(12, -10.0)
        fish, _ = step_fish(pop, lake, [0.0], [0], EcologyParams())
        expected, _ = reference_step_fish(pop, lake, [0.0], [0], EcologyParams())
        assert _bits(fish.classes) == expected.tobytes()
        assert {type(v) for v in fish.classes} == {float}
        assert _bits([fish.classes[i] for i in (0, 2, 6)]) == _bits([0.0, 0.0, 0.0])

    def test_step_fish_rejects_a_non_finite_class_it_makes(self):
        # An infinite class makes a NaN juvenile, which np.maximum would keep;
        # the population it would make fails the FishPopulation check.
        classes = [math.inf, -0.0, 3.0, math.nan, 0.0, -0.0, 2.0] + [1.0] * 6
        pop, lake = _unchecked_population(classes), np.full(12, -10.0)
        with pytest.raises(ConfigurationError, match="fish abundances must be finite"):
            step_fish(pop, lake, [0.0], [0], EcologyParams())

    def test_capped_harvest_returns_python_floats(self):
        # The adult stock caps the second household's target.
        classes = np.zeros(N_FISH_CLASSES)
        classes[5:] = 1.25
        pop, lake = FishPopulation(classes), np.full(12, 50.0)
        fish, catches = step_fish(pop, lake, [7, 5], [1, 0], EcologyParams())
        ref_classes, ref_catches = reference_step_fish(pop, lake, [7, 5], [1, 0],
                                                       EcologyParams())
        assert catches == ref_catches == (5.0, 5.0)
        assert type(ref_catches[0]) is not float and type(catches[0]) is float
        assert _bits(fish.classes) == ref_classes.tobytes()


# -- records.csv and the budget chart ---------------------------------------------

def _reference_fmt(value):
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, ActivityClass):
        return value.value
    return str(value)


def reference_records_csv(records):
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(YearRecord._fields)
    for r in records:
        row = r._asdict()
        writer.writerow([_reference_fmt(row[col]) for col in YearRecord._fields])
    return fh.getvalue()


def reference_budgets_svg(records):
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
        pts = " ".join(f"{sx(y):.1f},{sy(b):.1f}" for y, b in sorted(points))
        parts.append(f'<polyline fill="none" stroke="hsl({hue},70%,45%)" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{x1 + 4}" y="{sy(sorted(points)[-1][1]):.1f}" '
                     f'font-size="9">{household}</text>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    parts.append(f'<text x="4" y="{y1}" font-size="10">budget</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_ACTIVITY_ORDER = (("both", "#7b4fb5"), ("farming_only", "#3b6fb5"),
                   ("fishing_only", "#c23b3b"), ("none", "#9a9a9a"))


def reference_activity_svg(records):
    years = sorted({r.year for r in records})
    x0, x1 = _SVG_PAD, _SVG_W - _SVG_PAD
    y0, y1 = _SVG_H - _SVG_PAD, _SVG_PAD
    bar_w = (x1 - x0) / len(years)
    parts = _svg_header("activity shares per year")
    for i, year in enumerate(years):
        in_year = [r for r in records if r.year == year]
        x, y = x0 + i * bar_w, y0
        for value, color in _ACTIVITY_ORDER:
            share = sum(1 for r in in_year if r.activity == value) / len(in_year)
            if share > 0:
                h = (y0 - y1) * share
                y -= h
                parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                             f'height="{h:.2f}" fill="{color}"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<text x="{x0}" y="{_SVG_H - 8}" font-size="10">year</text>')
    for k, (value, color) in enumerate(_ACTIVITY_ORDER):
        parts.append(f'<rect x="{x0 + 120 * k}" y="{y1 - 24}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x0 + 120 * k + 14}" y="{y1 - 15}" font-size="9">'
                     f'{value}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_summary_csv(config, records, fallback_events):
    """The summary row formatted cell by cell: a float as repr(float(v)),
    anything else as str(v)."""
    final_year = max(r.year for r in records)
    finals = [r.budget for r in records if r.year == final_year]

    def pct(value):
        return 100.0 * sum(1 for r in records if r.activity == value) / len(records)

    cells = [config.pipeline, config.tau, config.behaviour, config.seed, min(finals),
             max(finals), pct("both"), pct("farming_only"), pct("fishing_only"), pct("none"),
             fallback_events, ""]
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["pipeline", "tau", "behaviour", "seed", "min_budget_final",
                     "max_budget_final", "pct_both", "pct_irrig_only", "pct_fish_only",
                     "pct_none", "fallback_events", "error"])
    writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in cells])
    return fh.getvalue()


_amounts = st.one_of(st.just(0.0), st.just(-0.0), st.integers(-500, 500).map(float),
                     _floats(-1e6, 1e6), _floats(-1e-300, 1e-300))


_counts = st.integers(0, 12)
record_lists = st.lists(st.builds(
    YearRecord, st.integers(1, 6), st.integers(1, 5), _counts, _counts, _amounts, _amounts,
    _amounts, _amounts, _amounts, _amounts, _amounts, st.sampled_from(list(ActivityClass))),
    min_size=1, max_size=20)


class TestOutputWriters:
    @settings(max_examples=150, deadline=None)
    @given(record_lists)
    @example([YearRecord(1, 1, 3, 2, 0.1 + 0.2, 1e-310, -0.0, 1e22, 5e-324, 0.0,
                         -123.456, ActivityClass.BOTH)])
    @example([YearRecord(1, 2, 3, 2, np.float64(1.5), 0.25, np.float64(-0.0), 1e22, 0.0,
                         np.float64(0.1) + 0.2, np.float64(-123.456), ActivityClass.NONE)])
    # In each of these three one column is all of a type outside the exact
    # ones, so csv writes the table: it quotes the text, and writes the numpy
    # ints as 3 and the bools as True (int.__repr__ would write 1).
    @example([YearRecord(1, 1, 2, 1, 0.5, 1.0, budget=-1.5, activity='fish, "farm"'),
              YearRecord(1, 2, activity="none")])
    @example([YearRecord(1, 1, np.int64(3), np.int64(0), 0.5, activity=ActivityClass.BOTH),
              YearRecord(2, 1, np.int64(4), np.int64(1), budget=2.0)])
    @example([YearRecord(1, 1, True, 0, 0.5), YearRecord(1, 2, False, 0, 0.25)])
    def test_each_output_file_equals_reference(self, records):
        artifacts = RunArtifacts(config=short_config(), records=records, fallback_events=2)
        with tempfile.TemporaryDirectory() as out:
            paths = emit_outputs(artifacts, out)
            assert Path(paths["records"]).read_bytes() \
                == reference_records_csv(records).encode("utf-8")
            assert Path(paths["budgets"]).read_text(encoding="utf-8") \
                == reference_budgets_svg(records)
            assert Path(paths["activity"]).read_text(encoding="utf-8") \
                == reference_activity_svg(records)
            assert Path(paths["summary"]).read_bytes() \
                == reference_summary_csv(artifacts.config, records, 2).encode("utf-8")

    @pytest.mark.parametrize("last_planted", [7, True, np.int64(7)])
    def test_records_csv_over_several_chunks_equals_reference(self, last_planted):
        """600 records span three row chunks; a type in the last one that only
        csv writes exactly sends the whole table to csv."""
        records = [YearRecord(1 + i // 9, 1 + i % 9, i % 11, i % 3, i / 7, 0.1 * i, 0.0,
                              float(i), 1e-310 * i, -0.0, i / 3 - 50.0,
                              list(ActivityClass)[i % 4]) for i in range(599)]
        records.append(YearRecord(67, 1, last_planted))
        with tempfile.TemporaryDirectory() as out:
            paths = emit_outputs(RunArtifacts(config=short_config(), records=records), out)
            assert Path(paths["records"]).read_bytes() \
                == reference_records_csv(records).encode("utf-8")


# ---------------------------------------------------------------------------
# Prompt rendering: the regex renderer as the reference


_REFERENCE_PLACEHOLDER = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def reference_render_prompt(template, variables):
    names = set(_REFERENCE_PLACEHOLDER.findall(template))
    missing = names - set(variables)
    if missing:
        raise TemplateError(missing)
    return _REFERENCE_PLACEHOLDER.sub(lambda m: str(variables[m.group(1)]), template)


def _render_outcome(render, template, variables):
    try:
        return render(template, variables)
    except TemplateError as err:
        return TemplateError, err.missing


PACKAGED_PROMPTS = load_prompts()


def packaged_case(name):
    """A packaged prompt with every placeholder bound, to values of mixed
    types, one of which holds a placeholder of its own."""
    template = PACKAGED_PROMPTS[name]
    values = (0.1 + 0.2, 7, "{budget}", None, True)
    names = sorted(set(_REFERENCE_PLACEHOLDER.findall(template)))
    return template, {n: values[i % len(values)] for i, n in enumerate(names)}


def packaged_bound_case(name):
    """A packaged prompt, the entries the LLM pipelines bind to it for a run
    (one of them holding `{budget}`, a name each year fills) and a year's
    entries."""
    fixed = {"water_per_field": "{budget}", "irrigation_cost": 10.0, "subsistence": 50,
             "max_fields": 10, "e_max": 5, "default_fish_target": 2,
             "as_name": "lake {predicted_water}", "as_actions": "high, low",
             "as_participants": 2}
    year = {"predicted_water": 0.1 + 0.2, "past_yield": 60.0, "budget": -12.5}
    return PACKAGED_PROMPTS[name], fixed, year


class _StrDiffersFromFormat:
    def __str__(self):
        return "by str"

    def __format__(self, spec):
        return "by format"


_PROMPT_NAMES = ("a", "b", "w", "x", "_y1")
_template_pieces = st.one_of(
    st.sampled_from(('{"action": <x>}', "{{w}}", "{1}", "{}", "{", "}", "{{", "}}",
                     "{a b}", "{-x}", "{{{a}}}")),
    st.sampled_from(_PROMPT_NAMES).map(lambda n: "{" + n + "}"),
    st.text(alphabet='ab_1 {}":\n', max_size=6))
prompt_templates = st.lists(_template_pieces, max_size=10).map("".join)
_prompt_values = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.just(_StrDiffersFromFormat()),
    st.text(alphabet="abwx_1 {}", max_size=6),
    st.sampled_from(_PROMPT_NAMES).map(lambda n: "{" + n + "}"))
prompt_variables = st.dictionaries(st.sampled_from(_PROMPT_NAMES), _prompt_values,
                                   max_size=len(_PROMPT_NAMES))


class TestRenderPrompt:
    @settings(max_examples=400, deadline=None)
    @given(prompt_templates, prompt_variables)
    @example(*packaged_case("altruistic"))
    @example(*packaged_case("as_action"))
    @example(*packaged_case("as_extraction"))
    @example(*packaged_case("balanced"))
    @example(*packaged_case("rational"))
    @example(*packaged_case("role"))
    @example('{"action": {x}} {{w}} {1} {} {x}', {"x": "{w}", "w": 2})
    @example("{a} and {b} and {a}", {"a": 1})
    def test_equals_regex_renderer(self, template, variables):
        assert _render_outcome(render_prompt, template, variables) \
            == _render_outcome(reference_render_prompt, template, variables)

    @settings(max_examples=400, deadline=None)
    @given(prompt_templates, prompt_variables, prompt_variables)
    @example(*packaged_bound_case("role"))
    @example(*packaged_bound_case("as_action"))
    @example("{a} and {b} and {a}", {"a": "{b}"}, {"b": 1})
    def test_bound_equals_regex_renderer_on_merged_variables(self, template, fixed,
                                                             variables):
        """Rendering `bind_prompt(template, fixed)` with `variables` is the
        reference render with `fixed` over `variables`, the same text or the
        same missing names."""
        assert _render_outcome(lambda t, v: render_prompt(bind_prompt(t, fixed), v),
                               template, variables) \
            == _render_outcome(reference_render_prompt, template, {**variables, **fixed})


def reference_household_view(config, h):
    """The role prompt's variables for household record `h`, built whole for
    every household and year."""
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


def reference_situation_values(as_models):
    """The as_* variables of the naive pipeline's two situations: the first
    pairwise-cooperation model, then the first common-pool-resource model."""
    return [{"as_name": m.name, "as_actions": ", ".join(m.actions),
             "as_participants": m.participants}
            for m in (next(m for m in as_models if m.kind is kind)
                      for kind in (ASKind.PAIRWISE_COOPERATION, ASKind.COMMON_POOL_RESOURCE))]


# The first pool entry answers the extraction question; the rest are prose,
# out-of-range and unparseable replies that drive retries, clamps and fallbacks.
NOISY_REPLIES = [
    {"response": {"action_situations": [
        {"name": "neighbour irrigation", "kind": "pairwise cooperation",
         "participants": 2, "actions": ["high", "low"]},
        {"name": "lake fishing", "kind": "common pool resource",
         "participants": 9, "actions": ["0", "1", "2", "3", "4", "5"]}]}},
    {"response": "I would plant 3 fields and fish a little."},
    {"response": '{"fields": 14, "fish": 9, "action": 12}'},
    {"response": "Hard to say this year."},
    {"response": '```json\n{"fields": -2, "fish": 1, "action": "high"}\n```'},
    {"response": "low"},
]


def llm_stub_config(tmp_path, pipeline, noisy, log, **overrides):
    """A short LLM run on the shipped fixture, or on NOISY_REPLIES, that logs
    its requests to `tmp_path / log`."""
    gateway = GatewayConfig(log_path=str(tmp_path / log))
    if noisy:
        fixture = tmp_path / "noisy.json"
        fixture.write_text(json.dumps(NOISY_REPLIES), encoding="utf-8")
        gateway = replace(gateway, fixture_path=str(fixture))
    return short_config(pipeline=pipeline, gateway=gateway, **overrides)


class TestPromptBytes:
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("behaviour", BEHAVIOURS)
    @pytest.mark.parametrize("pipeline", ["generative", "naive-egta"])
    def test_logged_prompts_equal_reference_render(self, tmp_path, pipeline, behaviour,
                                                   noisy):
        """Every prompt a short LLM run logs is the regex renderer's output on
        the household's view of the year, merged for the naive pipeline with
        its situation's as_* values, in situation order."""
        config = llm_stub_config(tmp_path, pipeline, noisy, "requests.jsonl",
                                 behaviour=behaviour, horizon=3)
        artifacts = run_simulation(config)
        records = {(h.year, h.household): h for h in artifacts.records}
        records.update({(0, h.household): h for h in
                        _initial_state(config, river_series(config)[0]).households})
        prompts = load_prompts()
        sent = {}
        with open(tmp_path / "requests.jsonl", encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                if entry["tags"].get("stage") == "as_extraction":
                    assert entry["messages"] == [
                        {"role": "user", "content": prompts["as_extraction"]}]
                    continue
                system, user = entry["messages"]
                assert system == {"role": "system", "content": prompts[behaviour]}
                key = entry["tags"]["year"], entry["tags"]["household"]
                sent.setdefault(key, []).append(user["content"])
        assert len(sent) == config.horizon * config.n_households
        for (year, household), texts in sent.items():
            view = reference_household_view(config, records[year - 1, household])
            if pipeline == "generative":
                assert texts == [reference_render_prompt(prompts["role"], view)] * len(texts)
            else:
                assert [text for text, _ in itertools.groupby(texts)] == [
                    reference_render_prompt(prompts["as_action"], {**view, **values})
                    for values in reference_situation_values(artifacts.as_models)]


# sha256 of records.csv and requests.jsonl, and the fallback and clamp counts, of
# 20-year runs on the shipped fixture and on NOISY_REPLIES, as the LLM pipelines
# wrote them before they bound their prompts once per run.
LLM_RUN_DIGESTS = {
    ("generative", False): (
        "fa0a1d84bd6fb73590dcbfb20b8132da2188ef822f2f7d9ab9a9f5232893dc8d",
        "6d97d5851e6190cf500f97f6227adb4cd776ab520ff2101c15bdef1f110afb67", 0, 0),
    ("generative", True): (
        "d77fc720ef7b9b3292c71eb31a2a0724b2afd87a89b5d7129aee1701037d68d3",
        "9f23065988652d7a938b6880e40a15fde7eda1eed55a153a14152fda8f1c78c2", 0, 120),
    ("naive-egta", False): (
        "a6942e3570ffdcb03039b9797a498243f6796976a49051740be23a7abba3e936",
        "4a82e2b841330b124f7b7d38cf1343d9cb50fb70d55b370901a8f7635295002f", 0, 0),
    ("naive-egta", True): (
        "1cceb392607d5c777bc754c0272a5c321b74dbbb491731890b522ee76a19495d",
        "a0bade13415d6add42ce46b0b0adbad0f2fd4624a000ab8649f590673a5b9f23", 0, 90),
}


@pytest.mark.parametrize("pipeline,noisy", sorted(LLM_RUN_DIGESTS))
def test_llm_run_outputs_equal_pinned_digests(tmp_path, pipeline, noisy):
    artifacts = run_simulation(llm_stub_config(tmp_path, pipeline, noisy, "requests.jsonl",
                                               horizon=20))
    paths = emit_outputs(artifacts, str(tmp_path / "out"))
    digests = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest()
                    for path in (paths["records"], tmp_path / "requests.jsonl"))
    assert (*digests, artifacts.fallback_events, artifacts.clamp_events) \
        == LLM_RUN_DIGESTS[pipeline, noisy]


class TestPromptBinding:
    @pytest.mark.parametrize("n_households", [9, 4])
    @pytest.mark.parametrize("pipeline,binds", [("generative", 1), ("naive-egta", 2)])
    def test_one_bind_per_run_or_situation(self, monkeypatch, pipeline, binds, n_households):
        """An LLM run binds its role prompt once, or its action prompt once for
        each of the two situations the shipped fixture's extraction reply
        gives, whatever the number of households."""
        calls = []
        bind = harness.bind_prompt

        def counting(*args):
            calls.append(args)
            return bind(*args)

        monkeypatch.setattr(harness, "bind_prompt", counting)
        run_simulation(short_config(pipeline=pipeline, n_households=n_households, horizon=3))
        assert len(calls) == binds

    @pytest.mark.parametrize("pipeline", ["generative", "naive-egta"])
    def test_templates_naming_the_fish_target_render_each_households(self, tmp_path,
                                                                      pipeline):
        """Role and action templates that name `default_fish_target` render
        each household's own target in every prompt it is asked."""
        prompts = tmp_path / "prompts"
        shutil.copytree(Path(harness.__file__).parent / "prompts", prompts)
        for name in ("role", "as_action"):
            path = prompts / f"{name}.txt"
            path.write_text(path.read_text(encoding="utf-8")
                            + "\nYour usual catch is <{default_fish_target}> fish.\n",
                            encoding="utf-8")
        config = llm_stub_config(tmp_path, pipeline, False, "requests.jsonl", horizon=3,
                                 prompts_dir=str(prompts))
        run_simulation(config)
        targets = {}
        with open(tmp_path / "requests.jsonl", encoding="utf-8") as fh:
            for entry in map(json.loads, fh):
                if "household" in entry["tags"]:
                    text = entry["messages"][-1]["content"]
                    targets.setdefault(entry["tags"]["household"], set()).update(
                        re.findall(r"usual catch is <(\d+)>", text))
        assert config.n_households == 9 and config.fish_target_base == 5
        assert [targets[h] for h in range(1, 10)] == [{str(t)} for t in
                                                      [1, 1, 2, 2, 3, 3, 4, 4, 5]]
