"""Finite-game solvers: Lemke-Howson, pure-equilibrium enumeration, and a
symmetric solver for the N-player common pool resource game.

The Lemke-Howson implementation pivots with exact arithmetic and a
lexicographic ratio test, so it terminates on degenerate inputs and the
returned profile is exact up to the final float conversion. The arithmetic is
integer pivoting (von Stengel, "Computing equilibria for two-person games",
Handbook of Game Theory vol. 3, 2002, section 2.6): the float payoffs are
scaled to integers once, and each pivot keeps the tableau in Python ints over
a common positive denominator, with no gcd per entry. The tableau is compact:
it stores only the nonbasic columns and the rhs, and a pivot exchanges the
entering column for the leaving label's (`_Tableau`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player normal-form game. Row and column matrices share a shape."""

    row_payoffs: np.ndarray
    col_payoffs: np.ndarray
    row_actions: tuple = ()
    col_actions: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.row_payoffs, dtype=float)
        b = np.asarray(self.col_payoffs, dtype=float)
        if a.ndim != 2 or a.shape != b.shape:
            raise InvalidGameError(
                f"payoff matrices must be 2-d and share a shape, "
                f"got {np.shape(self.row_payoffs)} and {np.shape(self.col_payoffs)}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidGameError("payoff matrices must be at least 1x1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidGameError("payoffs must be finite")
        object.__setattr__(self, "row_payoffs", a)
        object.__setattr__(self, "col_payoffs", b)
        object.__setattr__(self, "row_actions",
                           tuple(self.row_actions) or tuple(range(a.shape[0])))
        object.__setattr__(self, "col_actions",
                           tuple(self.col_actions) or tuple(range(a.shape[1])))
        if len(self.row_actions) != a.shape[0] or len(self.col_actions) != a.shape[1]:
            raise InvalidGameError("action labels do not match matrix shape")

    @property
    def shape(self):
        return self.row_payoffs.shape


@dataclass(frozen=True)
class MixedProfile:
    """A (possibly degenerate) mixed-strategy profile."""

    row_dist: np.ndarray
    col_dist: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.row_dist, dtype=float)
        c = np.asarray(self.col_dist, dtype=float)
        for v in (r, c):
            if v.ndim != 1 or (v < 0).any() or abs(v.sum() - 1.0) > 1e-12:
                raise InvalidGameError("distributions must be non-negative and sum to 1")
        object.__setattr__(self, "row_dist", r)
        object.__setattr__(self, "col_dist", c)


class _Tableau:
    """One of the two Lemke-Howson tableaux, compact and in exact integers.

    The rational tableau is `full / det`, where `det` is the previous pivot
    element (1 at the start) and always positive. Its basic columns are
    `det` in their own row and 0 elsewhere, so they are not stored: each row
    holds only the nonbasic columns and the rhs, as Python ints. `basis[i]` is
    the label basic in row i, and `column[label]` is the stored column of a
    nonbasic label, or -1 for a basic one.

    A pivot on entering column j, pivot row i and pivot element p keeps that
    form without fractions (von Stengel 2002, section 2.6):
    - every other row becomes `(a*p - f*b) // det` over the stored columns,
      where f is its entry in column j; the division is exact;
    - column j then holds the leaving label, which was basic in row i: `-f`
      in each other row and the old `det` in row i;
    - the new `det` is p.

    The ratio test compares the full rows (rhs first) lexicographically,
    which both breaks ties deterministically and guarantees termination on
    degenerate games. Since `det` is positive it compares the integer rows,
    by cross-multiplication, and walks the labels in order only on a tie. A
    basic label's entry is `det` in the row that holds it and 0 in the other,
    so that row loses the tie. The payoff columns are the player's payoffs
    scaled by one positive constant (`_integer_payoffs`). A positive column
    scaling multiplies each component of the ratio tuple by a positive factor
    that is the same for every candidate row, so the pivot sequence is the
    one the unscaled rational tableau takes.
    """

    def __init__(self, rows, basis, column):
        self.rows = rows
        self.basis = basis
        self.column = column
        self.det = 1

    def pivot(self, entering):
        rows = self.rows
        j = self.column[entering]
        i = best = p = None
        for k, r in enumerate(rows):
            q = r[j]
            if q > 0 and (best is None or self._lex_below(r, k, q, best, i, p)):
                i, best, p = k, r, q
        if best is None:
            raise InvalidGameError("unbounded pivot ray (non-positive column)")
        det = self.det
        for k, r in enumerate(rows):
            if k != i:
                f = r[j]
                r = [(a * p - f * b) // det for a, b in zip(r, best)]
                r[j] = -f
                rows[k] = r
        best[j] = det
        self.det = p
        leaving = self.basis[i]
        self.basis[i] = entering
        self.column[leaving] = j
        self.column[entering] = -1
        return leaving

    def _lex_below(self, r, k, p, s, h, q):
        """True iff row r (index k) over p precedes row s (index h) over q
        lexicographically, rhs first (p, q > 0)."""
        u, v = r[-1] * q, s[-1] * p
        if u != v:
            return u < v
        basis = self.basis
        for label, c in enumerate(self.column):
            if c >= 0:
                u, v = r[c] * q, s[c] * p
                if u != v:
                    return u < v
            elif basis[k] == label:
                return False
            elif basis[h] == label:
                return True
        return False


def _integer_payoffs(matrix, offset):
    """`matrix + offset` times one power of two, as nested lists of ints.
    `matrix` is nested lists of floats and `offset` an (n, d) ratio.

    Every finite float is n / 2**e, so the largest denominator among the
    entries and the offset is a common one, and it is the scale. Each matrix
    gets its own scale, a positive column scaling of its player's tableau:
    it leaves the pivot sequence unchanged and multiplies that player's
    unnormalised strategy by a constant, which the normalisation removes.
    """
    ratios = [[v.as_integer_ratio() for v in row] for row in matrix]
    on, od = offset
    scale = max([od] + [d for row in ratios for _, d in row])
    shift = on * (scale // od)
    return [[n * (scale // d) + shift for n, d in row] for row in ratios]


def lemke_howson(game: BimatrixGame, initial_label: int = 0) -> MixedProfile:
    """Compute one Nash equilibrium by complementary pivoting.

    Labels 0..m-1 are row strategies, m..m+n-1 column strategies. The walk
    starts by dropping `initial_label` from the artificial equilibrium.
    """
    m, n = game.shape
    if not 0 <= initial_label < m + n:
        raise InvalidGameError(f"initial label {initial_label} out of range for {m}x{n} game")
    a = game.row_payoffs.tolist()
    b = game.col_payoffs.tolist()

    # Positive payoffs keep both polytopes bounded.
    low = min(min(map(min, a)), min(map(min, b)))
    offset = (0, 1)
    if low <= 0:
        ln, ld = low.as_integer_ratio()
        offset = (ld - ln, ld)   # 1 - low
    ai = _integer_payoffs(a, offset)
    bi = _integer_payoffs(b, offset)

    # Row-player polytope: B^T x + s = 1 (n rows; slacks carry column labels,
    # the x columns 0..m-1 are stored).
    tx = _Tableau(
        rows=[[*column, 1] for column in zip(*bi)],
        basis=list(range(m, m + n)),
        column=list(range(m)) + [-1] * n)
    # Column-player polytope: A y + r = 1 (m rows; slacks carry row labels,
    # the y columns m..m+n-1 are stored).
    ty = _Tableau(
        rows=[[*row, 1] for row in ai],
        basis=list(range(m)),
        column=[-1] * m + list(range(n)))

    entering = initial_label
    tab = tx if initial_label < m else ty
    while True:
        leaving = tab.pivot(entering)
        if leaving == initial_label:
            break
        entering = leaving
        tab = ty if tab is tx else tx

    # Both sums share their tableau's det, so it cancels in the normalisation;
    # int / int true division is correctly rounded, like float(Fraction).
    x = [0] * m
    y = [0] * n
    for label, row in zip(tx.basis, tx.rows):
        if label < m:
            x[label] = row[-1]
    for label, row in zip(ty.basis, ty.rows):
        if label >= m:
            y[label - m] = row[-1]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise InvalidGameError("pivoting ended on an empty support")
    return MixedProfile(np.array([v / sx for v in x]),
                        np.array([v / sy for v in y]))


def enumerate_pure_ne(game: BimatrixGame) -> frozenset:
    """All pure-strategy equilibria as (row, col) index pairs; ties count."""
    a = game.row_payoffs
    b = game.col_payoffs
    rows, cols = ((a >= a.max(axis=0)) & (b >= b.max(axis=1)[:, None])).nonzero()
    return frozenset(zip(rows.tolist(), cols.tolist()))


def is_epsilon_ne(game: BimatrixGame, profile: MixedProfile, eps: float) -> bool:
    """True iff no unilateral pure deviation gains more than eps in expectation."""
    x = profile.row_dist
    y = profile.col_dist
    if x.shape[0] != game.shape[0] or y.shape[0] != game.shape[1]:
        raise InvalidGameError("profile dimensions do not match game")
    ay = game.row_payoffs @ y
    xb = x @ game.col_payoffs
    return bool(ay.max() - x @ ay <= eps and xb.max() - xb @ y <= eps)


def _action_values(actions):
    """Each action's value: its label when numeric, its index otherwise."""
    return [label if isinstance(label, (int, float)) and not isinstance(label, bool) else i
            for i, label in enumerate(actions)]


def select_equilibrium(candidates, row_actions, col_actions):
    """The (row, col) cell the selection rule picks among pure equilibria.

    Picks the candidate minimizing total action value, then the smaller row
    action value, then the smaller (row, col) index pair. Action labels are
    used as values when numeric, indices otherwise. Raises InvalidGameError
    when `candidates` is empty.
    """
    if not candidates:
        raise InvalidGameError("no pure equilibrium to select from")
    row_value = _action_values(row_actions)
    col_value = _action_values(col_actions)

    def key(cell):
        ru = row_value[cell[0]]
        return (ru + col_value[cell[1]], ru, cell)

    return min(candidates, key=key)


@dataclass(frozen=True)
class CprSolution:
    """Symmetric pure-strategy solution of the common pool resource game."""

    extraction: int
    is_equilibrium: bool


def solve_symmetric_cpr(payoff, n_players: int, e_max: int) -> CprSolution:
    """Smallest symmetric pure equilibrium of u(e_own, sum_others).

    Scans e* in 0..e_max for the smallest level no player wants to deviate
    from when everyone else plays it. If none exists, walks the symmetric
    best responses (ties to the smaller level) from 0 until a level repeats,
    and returns the least extraction level in the cycle it reached, flagged
    as no equilibrium.
    """
    if e_max < 0:
        raise InvalidGameError("e_max must be non-negative")
    levels = range(e_max + 1)
    # by_others[k][e] = payoff(e, (n_players - 1) * k): every value the scan
    # and the best-response walk below can ask for.
    by_others = [[payoff(e, (n_players - 1) * k) for e in levels] for k in levels]
    tol = 1e-12
    for e_star in levels:
        column = by_others[e_star]
        u_star = column[e_star]
        if all(u <= u_star + tol for u in column):
            return CprSolution(e_star, True)

    best = [min(levels, key=lambda d: (-column[d], d)) for column in by_others]
    walk, e = [], 0
    while e not in walk:
        walk.append(e)
        e = best[e]
    return CprSolution(min(walk[walk.index(e):]), False)
