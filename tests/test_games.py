import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercommons import (ASKind, ConfigurationError, EcologyParams,
                          SchemaError, build_cpr_fishing_game,
                          build_irrigation_game, enumerate_pure_ne,
                          irrigated_fields, pair_payoffs, parse_llm_game,
                          solve_irrigation_game, solve_symmetric_cpr)
from conftest import g1_spec


class TestIrrigatedFields:
    def test_upstream_priority_exhausts_water(self):
        spec = g1_spec()  # T/w = 6
        assert irrigated_fields(8, 5, spec) == (6, 0)

    def test_unconstrained(self):
        spec = g1_spec(T=200.0)
        assert irrigated_fields(4, 5, spec) == (4, 5)

    def test_budget_cap(self):
        spec = g1_spec(B_u=20.0, T=200.0)
        assert irrigated_fields(10, 0, spec) == (2, 0)

    def test_downstream_gets_residual(self):
        spec = g1_spec(T=80.0)
        assert irrigated_fields(3, 10, spec) == (3, 5)


class TestPairPayoffs:
    def test_reference_cell(self):
        assert pair_payoffs(6, 0, g1_spec()) == (190.0, -50.0)

    def test_dominated_planting(self):
        spec = g1_spec(y0=5.0, ys=2.0)
        assert pair_payoffs(0, 0, spec) == (-50.0, -50.0)
        # Planting strictly loses when yield is below cost.
        assert pair_payoffs(3, 0, spec)[0] < -50.0

    def test_tax_term(self):
        assert pair_payoffs(6, 0, g1_spec(tau=1.0))[0] == pytest.approx(154.0)

    def test_origin_pays_consumption_only(self):
        assert pair_payoffs(0, 0, g1_spec()) == (-50.0, -50.0)

    def test_fishing_income_added(self):
        spec = g1_spec(F_u=30.0, F_d=20.0)
        pu, pd = pair_payoffs(0, 0, spec)
        assert (pu, pd) == (-20.0, -30.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0))
    def test_payoff_non_increasing_in_tau(self, s_u, s_d, tau, dtau):
        if s_u + s_d == 0:
            return
        lo = pair_payoffs(s_u, s_d, g1_spec(tau=tau))
        hi = pair_payoffs(s_u, s_d, g1_spec(tau=tau + dtau))
        assert hi[0] <= lo[0] + 1e-9
        assert hi[1] <= lo[1] + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10),
           st.floats(min_value=10.0, max_value=200.0),
           st.floats(min_value=10.0, max_value=2000.0))
    def test_field_bounds(self, s_u, s_d, t, budget):
        spec = g1_spec(T=t, B_u=budget, B_d=budget)
        f_u, f_d = irrigated_fields(s_u, s_d, spec)
        assert f_u + f_d <= t / spec.w + 1
        assert f_u <= min(s_u, budget / spec.c)
        assert f_d <= min(s_d, budget / spec.c)


class TestBuildIrrigationGame:
    def test_matrix_shape_and_labels(self):
        game = build_irrigation_game(g1_spec())
        assert game.shape == (11, 11)
        assert game.row_actions == tuple(range(11))
        assert game.row_payoffs[6, 0] == 190.0
        assert game.col_payoffs[6, 0] == -50.0

    def test_selected_equilibrium_tau0(self):
        assert solve_irrigation_game(g1_spec()) == (6, 0)

    def test_selected_equilibrium_tau4(self):
        s_u, s_d = solve_irrigation_game(g1_spec(tau=4.0))
        assert (s_u, s_d) == (3, 3)
        assert s_u + s_d <= 6 and s_u < 6

    def test_total_extraction_non_increasing_in_tau(self):
        totals = [sum(solve_irrigation_game(g1_spec(tau=t)))
                  for t in (0.0, 1.0, 2.0, 4.0)]
        assert totals == sorted(totals, reverse=True)

    def test_max_fields_zero(self):
        game = build_irrigation_game(g1_spec(max_fields=0))
        assert game.shape == (1, 1)
        assert solve_irrigation_game(g1_spec(max_fields=0)) == (0, 0)

    def test_selected_cell_is_pure_ne(self):
        spec = g1_spec(tau=0.5)
        game = build_irrigation_game(spec)
        assert solve_irrigation_game(spec) in enumerate_pure_ne(game)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            g1_spec(ys=60.0)
        with pytest.raises(ConfigurationError):
            g1_spec(tau=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["B_u", "T", "F_u", "y0", "c", "tau"])
    def test_non_finite_spec_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            g1_spec(**{field: value})


class TestCprFishingGame:
    def test_abundant_stock_maxes_out(self, params):
        game = build_cpr_fishing_game(1e6, params, 9, 5, effort_cost=0.0)
        sol = solve_symmetric_cpr(game.payoff, game.n_players, game.e_max)
        assert sol.extraction == 5 and sol.is_equilibrium

    def test_empty_stock_zero_effort(self, params):
        game = build_cpr_fishing_game(0.0, params, 9, 5, effort_cost=1.0)
        sol = solve_symmetric_cpr(game.payoff, game.n_players, game.e_max)
        assert sol.extraction == 0 and sol.is_equilibrium

    def test_scarce_stock_interior(self):
        params = EcologyParams(fish_price=1.0)
        game = build_cpr_fishing_game(10.0, params, 2, 10, effort_cost=0.4)
        sol = solve_symmetric_cpr(game.payoff, game.n_players, game.e_max)
        # Oracle: exhaustive deviation check at the returned point.
        others = (game.n_players - 1) * sol.extraction
        best = max(game.payoff(e, others) for e in range(game.e_max + 1))
        assert game.payoff(sol.extraction, others) == pytest.approx(best)
        assert sol.is_equilibrium

    def test_share_never_exceeds_one(self, params):
        game = build_cpr_fishing_game(30.0, params, 3, 5)
        assert game.payoff(5, 0) <= params.fish_price * 5

    def test_negative_stock_rejected(self, params):
        with pytest.raises(ConfigurationError):
            build_cpr_fishing_game(-1.0, params, 2, 5)


EXTRACTION_REPLY = json.dumps({
    "action_situations": [
        {"name": "water withdrawal between neighbouring farmers",
         "kind": "2-player pairwise cooperation game",
         "participants": 2,
         "actions": ["high", "low"],
         "payoffs": [[[6, 6], [5, 7]], [[9, 3], [5, 2]]]},
        {"name": "lake fishing",
         "kind": "N-player common pool resource game",
         "participants": 9,
         "actions": ["0", "1", "2", "3", "4", "5"]},
    ]
})


class TestParseLlmGame:
    def test_canned_two_situations(self):
        models = parse_llm_game(EXTRACTION_REPLY)
        assert len(models) == 2
        first, second = models
        assert first.kind is ASKind.PAIRWISE_COOPERATION
        assert first.actions == ("high", "low")
        assert first.participants == 2
        assert second.kind is ASKind.COMMON_POOL_RESOURCE
        assert second.participants == 9

    def test_payoff_cells_row_major(self):
        models = parse_llm_game(EXTRACTION_REPLY)
        assert models[0].payoffs == ((6.0, 6.0), (5.0, 7.0),
                                     (9.0, 3.0), (5.0, 2.0))

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError):
            parse_llm_game("")
        with pytest.raises(SchemaError):
            parse_llm_game("   \n ")

    def test_prose_without_structure_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_llm_game("the farmers should cooperate, probably")
        assert err.value.text is not None

    def test_fenced_json_accepted(self):
        text = "Here is my analysis:\n```json\n" + EXTRACTION_REPLY + "\n```"
        assert len(parse_llm_game(text)) == 2

    def test_bare_list_accepted(self):
        text = json.dumps([{"name": "fishing cpr", "kind": "cpr",
                            "participants": 3, "actions": [0, 1]}])
        models = parse_llm_game(text)
        assert models[0].kind is ASKind.COMMON_POOL_RESOURCE
        assert models[0].actions == ("0", "1")

    def test_unknown_kind_classified_other(self):
        text = json.dumps([{"name": "tea ceremony", "kind": "ritual",
                            "participants": 4, "actions": ["pour"]}])
        assert parse_llm_game(text)[0].kind is ASKind.OTHER

    def test_too_few_participants_rejected(self):
        text = json.dumps([{"name": "solo", "kind": "cpr",
                            "participants": 1, "actions": ["x"]}])
        with pytest.raises(SchemaError):
            parse_llm_game(text)
