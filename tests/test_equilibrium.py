import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercommons import (BimatrixGame, CprSolution, InvalidGameError,
                          MixedProfile, enumerate_pure_ne, is_epsilon_ne,
                          lemke_howson, select_equilibrium, solve_symmetric_cpr)
from conftest import pure_profile

PD_ROW = np.array([[3.0, 0.0], [5.0, 1.0]])
PD_COL = np.array([[3.0, 5.0], [0.0, 1.0]])
PENNIES_ROW = np.array([[1.0, -1.0], [-1.0, 1.0]])
PENNIES_COL = -PENNIES_ROW


class TestBimatrixGame:
    def test_default_action_labels(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        assert game.row_actions == (0, 1)
        assert game.col_actions == (0, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidGameError):
            BimatrixGame(PD_ROW, np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        bad = PD_ROW.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidGameError):
            BimatrixGame(bad, PD_COL)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(InvalidGameError):
            BimatrixGame(PD_ROW, PD_COL, row_actions=("a",))


class TestMixedProfile:
    def test_pure_constructor(self):
        p = pure_profile(1, 0, 2, 3)
        assert p.row_dist.tolist() == [0.0, 1.0]
        assert p.col_dist.tolist() == [1.0, 0.0, 0.0]

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidGameError):
            MixedProfile(np.array([0.5, 0.4]), np.array([1.0]))


class TestLemkeHowson:
    def test_prisoners_dilemma_defects(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        profile = lemke_howson(game)
        assert profile.row_dist.tolist() == [0.0, 1.0]
        assert profile.col_dist.tolist() == [0.0, 1.0]

    def test_matching_pennies_uniform(self):
        game = BimatrixGame(PENNIES_ROW, PENNIES_COL)
        profile = lemke_howson(game)
        np.testing.assert_allclose(profile.row_dist, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(profile.col_dist, [0.5, 0.5], atol=1e-12)

    def test_anticoordination_returns_pure_ne(self, anticoordination):
        row, col = anticoordination
        game = BimatrixGame(row, col, ("H", "L"), ("H", "L"))
        profile = lemke_howson(game)
        assert is_epsilon_ne(game, profile, 1e-9)
        cell = (int(np.argmax(profile.row_dist)), int(np.argmax(profile.col_dist)))
        assert cell in {(0, 1), (1, 0)}

    def test_degenerate_constant_game_terminates(self):
        game = BimatrixGame(np.zeros((3, 3)), np.zeros((3, 3)))
        profile = lemke_howson(game)
        assert is_epsilon_ne(game, profile, 1e-9)

    def test_all_initial_labels_sound(self):
        game = BimatrixGame(PENNIES_ROW, PENNIES_COL)
        for label in range(4):
            assert is_epsilon_ne(game, lemke_howson(game, label), 1e-9)

    def test_initial_label_out_of_range(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        with pytest.raises(InvalidGameError):
            lemke_howson(game, 4)

    def test_soundness_on_random_batch(self):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(200):
            a = rng.uniform(-10, 10, size=(4, 4))
            b = rng.uniform(-10, 10, size=(4, 4))
            game = BimatrixGame(a, b)
            assert is_epsilon_ne(game, lemke_howson(game), 1e-9)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3))
    def test_soundness_property(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(m, n)).astype(float)
        b = rng.integers(-5, 6, size=(m, n)).astype(float)
        game = BimatrixGame(a, b)
        assert is_epsilon_ne(game, lemke_howson(game), 1e-9)


class TestEnumeratePureNe:
    def test_anticoordination_with_tie(self, anticoordination):
        row, col = anticoordination
        game = BimatrixGame(row, col, ("H", "L"), ("H", "L"))
        assert enumerate_pure_ne(game) == {(0, 1), (1, 0)}

    def test_matching_pennies_empty(self):
        assert enumerate_pure_ne(BimatrixGame(PENNIES_ROW, PENNIES_COL)) == frozenset()

    def test_constant_game_all_cells(self):
        game = BimatrixGame(np.zeros((2, 3)), np.zeros((2, 3)))
        assert enumerate_pure_ne(game) == {(i, j) for i in range(2) for j in range(3)}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_label_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(3, 3)).astype(float)
        b = rng.integers(-5, 6, size=(3, 3)).astype(float)
        base = enumerate_pure_ne(BimatrixGame(a, b))
        pr = rng.permutation(3)
        pc = rng.permutation(3)
        permuted = enumerate_pure_ne(
            BimatrixGame(a[np.ix_(pr, pc)], b[np.ix_(pr, pc)]))
        unpermuted = {(int(pr[i]), int(pc[j])) for i, j in permuted}
        assert unpermuted == base

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_positive_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(3, 3)).astype(float)
        b = rng.integers(-5, 6, size=(3, 3)).astype(float)
        base = enumerate_pure_ne(BimatrixGame(a, b))
        assert enumerate_pure_ne(BimatrixGame(scale * a + shift, b)) == base
        assert enumerate_pure_ne(BimatrixGame(a, scale * b + shift)) == base


class TestIsEpsilonNe:
    def test_pd_defect_is_ne(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        assert is_epsilon_ne(game, pure_profile(1, 1, 2, 2), 1e-9)

    def test_pd_cooperate_is_not_ne(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        assert not is_epsilon_ne(game, pure_profile(0, 0, 2, 2), 1e-9)

    def test_pennies_uniform_is_ne(self):
        game = BimatrixGame(PENNIES_ROW, PENNIES_COL)
        uniform = MixedProfile(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert is_epsilon_ne(game, uniform, 1e-9)

    def test_dimension_mismatch(self):
        game = BimatrixGame(PD_ROW, PD_COL)
        with pytest.raises(InvalidGameError):
            is_epsilon_ne(game, pure_profile(0, 0, 3, 2), 1e-9)


class TestSelectEquilibrium:
    def test_min_sum_rule(self):
        assert select_equilibrium({(6, 0), (7, 0)}, range(8), range(8)) == (6, 0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(InvalidGameError):
            select_equilibrium(set(), range(2), range(2))

    def test_tie_broken_by_smaller_row(self):
        assert select_equilibrium({(3, 3), (4, 2), (5, 1)}, range(6), range(6)) == (3, 3)

    def test_numeric_labels_drive_value(self):
        # Index order differs from numeric label order.
        assert select_equilibrium({(0, 0), (1, 1)}, (9, 1), (9, 1)) == (1, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_choice_member_of_pure_set(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(4, 4)).astype(float)
        b = rng.integers(-5, 6, size=(4, 4)).astype(float)
        game = BimatrixGame(a, b)
        pure = enumerate_pure_ne(game)
        if not pure:
            return
        ri, ci = select_equilibrium(pure, game.row_actions, game.col_actions)
        assert (ri, ci) in pure
        assert is_epsilon_ne(game, pure_profile(ri, ci, 4, 4), 1e-9)


class TestSolveSymmetricCpr:
    def test_quadratic_cpr(self):
        sol = solve_symmetric_cpr(lambda e, o: e * (10 - (e + o)), 2, 10)
        assert sol == CprSolution(3, True)

    def test_pure_cost(self):
        assert solve_symmetric_cpr(lambda e, o: -e, 4, 8) == CprSolution(0, True)

    def test_constant_payoff(self):
        assert solve_symmetric_cpr(lambda e, o: 1.0, 4, 8) == CprSolution(0, True)

    def test_linear_gain_hits_cap(self):
        sol = solve_symmetric_cpr(lambda e, o: 2.0 * e, 3, 6)
        assert sol == CprSolution(6, True)

    def test_no_symmetric_equilibrium_flagged(self):
        # Anti-coordination in effort: match the others' total parity never
        # settles symmetrically.
        def payoff(e, others):
            return 1.0 if (e + others) % 2 == 1 else 0.0

        sol = solve_symmetric_cpr(payoff, 2, 1)
        assert not sol.is_equilibrium
        assert 0 <= sol.extraction <= 1

    def test_negative_e_max_rejected(self):
        with pytest.raises(InvalidGameError):
            solve_symmetric_cpr(lambda e, o: 0.0, 2, -1)
