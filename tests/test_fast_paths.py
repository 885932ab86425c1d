"""Each vectorized, tabulated or integer solver path pinned to a slow reference.

The references are the original per-cell and per-step loops and the original
Fraction-arithmetic Lemke-Howson, kept here so that any change to the fast
paths must reproduce them exactly.
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rivercommons import (BimatrixGame, CprSolution, EcologyParams,
                          InvalidGameError, IrrigationGameSpec, MixedProfile,
                          build_cpr_fishing_game, build_irrigation_game,
                          enumerate_pure_ne, irrigated_fields, is_epsilon_ne,
                          lemke_howson, pair_payoffs, select_equilibrium,
                          solve_irrigation_game, solve_symmetric_cpr)


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

    @settings(max_examples=150, deadline=None)
    @given(irrigation_specs(), st.data())
    def test_scalar_views_equal_reference(self, spec, data):
        s_u = data.draw(st.integers(0, spec.max_fields))
        s_d = data.draw(st.integers(0, spec.max_fields))
        fields = irrigated_fields(s_u, s_d, spec)
        payoffs = pair_payoffs(s_u, s_d, spec)
        assert fields == reference_irrigated_fields(s_u, s_d, spec)
        assert payoffs == reference_pair_payoffs(s_u, s_d, spec)
        assert [type(v) for v in fields + payoffs] == [int, int, float, float]


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


def reference_select_equilibrium(candidates, fallback, row_actions=None, col_actions=None):
    cells = sorted(candidates)
    if not cells:
        return fallback
    m = len(fallback.row_dist)
    n = len(fallback.col_dist)
    rows = row_actions if row_actions is not None else tuple(range(m))
    cols = col_actions if col_actions is not None else tuple(range(n))

    def key(cell):
        i, j = cell
        ru = _reference_action_value(rows, i)
        cu = _reference_action_value(cols, j)
        return (ru + cu, ru)

    i, j = min(cells, key=key)
    return MixedProfile.pure(i, j, m, n)


# A small pool, so labels repeat within one game.
LABELS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.25, 2.0, 0.1, 0.2]),
                   st.sampled_from(["H", "L", "x", True, None]))


class TestPureEquilibria:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_enumeration_equals_reference(self, seed, m, n):
        rng = np.random.default_rng(seed)
        game = BimatrixGame(rng.integers(-2, 3, size=(m, n)).astype(float),
                            rng.integers(-2, 3, size=(m, n)).astype(float))
        pure = enumerate_pure_ne(game)
        assert pure == reference_enumerate_pure_ne(game)
        assert all(type(i) is int and type(j) is int for i, j in pure)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.booleans())
    def test_selection_equals_sorted_reference(self, data, m, n, labelled):
        cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        candidates = data.draw(st.one_of(st.frozensets(cells), st.lists(cells)))
        row_actions = col_actions = None
        if labelled:
            row_actions = tuple(data.draw(st.lists(LABELS, min_size=m, max_size=m)))
            col_actions = tuple(data.draw(st.lists(LABELS, min_size=n, max_size=n)))
        fallback = MixedProfile(np.full(m, 1.0 / m), np.full(n, 1.0 / n))
        chosen = select_equilibrium(candidates, fallback, row_actions, col_actions)
        expected = reference_select_equilibrium(candidates, fallback, row_actions, col_actions)
        if not candidates:
            assert chosen is fallback and expected is fallback
        else:
            assert chosen.support() == expected.support()

    @settings(max_examples=200, deadline=None)
    @given(irrigation_specs())
    def test_selected_irrigation_cell_is_pure_equilibrium(self, spec):
        game = build_irrigation_game(spec)
        i, j = solve_irrigation_game(spec)
        assert is_epsilon_ne(game, MixedProfile.pure(i, j, *game.shape), 1e-9)


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
    def test_irrigation_games_equal_fraction_reference(self, spec):
        assert_same_as_reference(build_irrigation_game(spec))


# -- symmetric CPR solve -----------------------------------------------------------

def reference_solve_symmetric_cpr(payoff, n_players, e_max):
    levels = range(e_max + 1)
    tol = 1e-12
    for e_star in levels:
        others = (n_players - 1) * e_star
        u_star = payoff(e_star, others)
        if all(payoff(e, others) <= u_star + tol for e in levels):
            return CprSolution(e_star, True)

    e = 0
    for _ in range(1000):
        others = (n_players - 1) * e
        e = min(levels, key=lambda d: (-payoff(d, others), d))
    return CprSolution(e, False)


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

    @pytest.mark.parametrize("stock", [0.6, 3.0, 40.0, 500.0])
    def test_fishing_game_equals_reference(self, stock):
        # At stocks 0.6 and 3.0 the best response from 0 cycles 0<->1 and 0<->3.
        game = build_cpr_fishing_game(stock, EcologyParams(), 9, 5)
        assert (solve_symmetric_cpr(game.payoff, 9, 5)
                == reference_solve_symmetric_cpr(game.payoff, 9, 5))
