import json

import numpy as np
import pytest

from rivercommons import (AuthorityState, BehaviourProfile, ConfigurationError,
                          Decision, EcologyParams, FishPopulation, Gateway,
                          GatewayConfig, InvalidGameError, SimulationError,
                          WorldState, YearRecord,
                          build_irrigation_game, centralized_allocate,
                          enumerate_pure_ne, expert_egta_decide,
                          generative_decide, is_epsilon_ne,
                          moving_average_predict, naive_egta_decide,
                          parse_llm_game, procedural_decide, sweep)
from rivercommons.equilibrium import MixedProfile
from rivercommons.ecology import N_FISH_CLASSES
from rivercommons.policies import default_fish_target, map_abstract_action
from conftest import g1_spec, short_config


def household(index=1, budget=1000.0, crop_income=100.0, planted=0, node_inflow=0.0):
    return YearRecord(year=0, household=index, budget=budget, crop_income=crop_income,
                      planted=planted, node_inflow=node_inflow)


def make_world(n=2, budget=1000.0, adults=1000.0, node_inflow=10000.0):
    classes = np.zeros(N_FISH_CLASSES)
    classes[5:] = adults / 8.0
    households = tuple(
        household(index=i + 1, budget=budget, node_inflow=node_inflow)
        for i in range(n))
    return WorldState(households=households, fish=FishPopulation(classes))


class TestMovingAverage:
    def test_constant_series(self):
        assert moving_average_predict([100.0] * 25, 20) == 100.0

    def test_short_history(self):
        assert moving_average_predict([50.0, 70.0], 20) == 60.0

    def test_window_drops_old_entries(self):
        history = [10.0] * 20 + [30.0]
        assert moving_average_predict(history, 20) == pytest.approx(11.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average_predict([], 20)


class TestProceduralDecide:
    def test_inflow_rule_above_subsistence(self, params):
        h = household(crop_income=100.0, node_inflow=45.0)
        d = procedural_decide(h, params, 50.0, 10)
        assert d.fields_planted == 4

    def test_expand_by_one_when_affordable(self, params):
        h = household(budget=200.0, crop_income=10.0, planted=3, node_inflow=45.0)
        d = procedural_decide(h, params, 50.0, 10)
        assert d.fields_planted == 4

    def test_budget_floor_when_expansion_unaffordable(self, params):
        h = household(budget=25.0, crop_income=10.0, planted=9, node_inflow=45.0)
        d = procedural_decide(h, params, 50.0, 10)
        assert d.fields_planted == 2

    def test_negative_budget_plants_nothing(self, params):
        h = YearRecord(year=0, household=1, budget=-5.0, crop_income=100.0,
                       node_inflow=500.0)
        d = procedural_decide(h, params, 50.0, 10)
        assert d.fields_planted == 0

    def test_clamped_to_max_fields(self, params):
        h = household(crop_income=100.0, node_inflow=5000.0)
        d = procedural_decide(h, params, 50.0, 10)
        assert d.fields_planted == 10

    def test_fish_target_passthrough(self, params):
        d = procedural_decide(household(node_inflow=45.0), params, 50.0, 10,
                              fish_target=3)
        assert d.fish_target == 3

    def test_deterministic(self, params):
        h = household(budget=123.0, crop_income=10.0, planted=2, node_inflow=77.0)
        a = procedural_decide(h, params, 50.0, 10, 2)
        b = procedural_decide(h, params, 50.0, 10, 2)
        assert a == b


class TestDefaultFishTarget:
    def test_downstream_ranks_higher(self):
        targets = [default_fish_target(i, 9, 5) for i in range(1, 10)]
        assert targets == sorted(targets)
        assert targets[-1] == 5

    def test_zero_base(self):
        assert default_fish_target(5, 9, 0) == 0


class TestCentralizedAllocate:
    def test_equal_shares_with_remainder(self, params):
        authority = AuthorityState(400.0, [540.0], 20)
        allocation = centralized_allocate(authority, params, 9, 10)
        assert allocation == [4] * 9  # 40 supportable, 4 unallocated

    def test_zero_budget(self, params):
        authority = AuthorityState(0.0, [540.0], 20)
        assert centralized_allocate(authority, params, 9, 10) == [0] * 9

    def test_zero_prediction(self, params):
        authority = AuthorityState(1000.0, [0.0], 20)
        assert centralized_allocate(authority, params, 9, 10) == [0] * 9

    def test_max_fields_cap(self, params):
        authority = AuthorityState(1e9, [1e6], 20)
        assert centralized_allocate(authority, params, 2, max_fields=10) == [10, 10]


class TestExpertEgtaDecide:
    def test_two_households_reference_game(self, params):
        # No fish, G1-like water and budgets: the pair plays (6, 0).
        world = make_world(n=2, adults=0.0, node_inflow=60.0)
        spec = EcologyParams(ys=25.0)
        decisions = expert_egta_decide(world, 0.0, spec, 6.0, 10, 5, 1.0,
                                       np.random.default_rng(0))
        assert [d.fields_planted for d in decisions] == [6, 0]
        assert all(d.fish_target == 0 for d in decisions)

    def test_fishing_game_solved_first(self, params):
        world = make_world(n=2, adults=1e6)
        decisions = expert_egta_decide(world, 0.0, params, 6.0, 10, 5, 1.0,
                                       np.random.default_rng(0))
        assert all(d.fish_target == 5 for d in decisions)

    def test_middle_household_coin_flip_reproducible(self, params):
        results = []
        for _ in range(2):
            world = make_world(n=5)
            decisions = expert_egta_decide(world, 0.25, params, 6.0, 10, 5,
                                           1.0, np.random.default_rng(99))
            results.append([d.fields_planted for d in decisions])
        assert results[0] == results[1]

    def test_middle_options_come_from_adjacent_games(self, params):
        world = make_world(n=3, node_inflow=10000.0)
        decisions = expert_egta_decide(world, 1.0, params, 6.0, 10, 5, 1.0,
                                       np.random.default_rng(0))
        # tau=1 pair equilibrium is (1, 5): ends fixed, middle picks either.
        assert decisions[0].fields_planted == 1
        assert decisions[2].fields_planted == 5
        assert decisions[1].fields_planted in (1, 5)

    def test_selected_profiles_are_epsilon_ne(self):
        spec = g1_spec()
        game = build_irrigation_game(spec)
        pure = enumerate_pure_ne(game)
        world = make_world(n=2, adults=0.0, node_inflow=60.0)
        decisions = expert_egta_decide(world, 0.0, EcologyParams(ys=25.0),
                                       6.0, 10, 5, 1.0, np.random.default_rng(0))
        cell = (decisions[0].fields_planted, decisions[1].fields_planted)
        assert cell in pure
        profile = MixedProfile.pure(cell[0], cell[1], 11, 11)
        assert is_epsilon_ne(game, profile, 1e-9)

    def test_single_household_rejected(self, params):
        world = make_world(n=1)
        with pytest.raises(ConfigurationError):
            expert_egta_decide(world, 0.0, params, 6.0, 10, 5, 1.0, np.random.default_rng(0))

    def test_game_error_becomes_simulation_error(self, monkeypatch, params):
        def invalid(spec):
            raise InvalidGameError("payoffs must be finite")

        monkeypatch.setattr("rivercommons.policies.solve_irrigation_game", invalid)
        world = make_world(n=3)
        with pytest.raises(SimulationError) as err:
            expert_egta_decide(world, 0.0, params, 6.0, 10, 5, 1.0, np.random.default_rng(0))
        assert (err.value.year, err.value.pair) == (1, 1)
        assert isinstance(err.value.__cause__, InvalidGameError)
        rows = sweep(short_config(pipeline="expert-egta", horizon=2))
        assert rows[0]["error"].startswith(
            "SimulationError: irrigation game solve failed: payoffs must be finite")

    def test_programming_error_propagates_out_of_sweep(self, monkeypatch):
        def broken(spec):
            raise TypeError("ordinary bug")

        monkeypatch.setattr("rivercommons.policies.solve_irrigation_game", broken)
        with pytest.raises(TypeError, match="ordinary bug"):
            sweep(short_config(pipeline="expert-egta", horizon=2))


def stub_gateway(tmp_path, responses, max_retries=2):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps([{"response": r} for r in responses]))
    return Gateway(GatewayConfig(backend="stub", fixture_path=str(path),
                                 max_retries=max_retries))


def unmatched_gateway(tmp_path):
    """A stub whose only entry is fingerprinted for no real prompt, so every
    request fails with TransportError."""
    path = tmp_path / "fingerprinted.json"
    path.write_text(json.dumps([{"fingerprint": "0" * 16, "response": "7"}]))
    return Gateway(GatewayConfig(backend="stub", fixture_path=str(path)))


PROFILE = BehaviourProfile("You are a farmer.")
ROLE_TEMPLATE = ("Water {predicted_water}, budget {budget}. "
                 "Reply with a field count.")


def view(**overrides):
    base = {"predicted_water": 100.0, "water_per_field": 10.0,
            "irrigation_cost": 10.0, "past_yield": 60.0, "subsistence": 50.0,
            "budget": 300.0, "max_fields": 10, "e_max": 5,
            "default_fish_target": 2}
    base.update(overrides)
    return base


def fallback_decision():
    return Decision(1, 1)


class TestGenerativeDecide:
    def test_integer_reply(self, tmp_path):
        gw = stub_gateway(tmp_path, ["7"])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision == Decision(7, 2)
        assert events == []

    def test_out_of_range_clamped(self, tmp_path):
        gw = stub_gateway(tmp_path, ["12"])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision.fields_planted == 10
        assert events == ["clamp"]

    def test_json_reply_with_fish(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"fields": 4, "fish": 3}'])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision == Decision(4, 3)

    def test_prose_falls_back_after_retries(self, tmp_path):
        gw = stub_gateway(tmp_path, ["no numbers here, sorry"])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert events == ["fallback"]
        assert gw.call_count == 3  # initial call + max_retries

    def test_recovers_on_second_attempt(self, tmp_path):
        gw = stub_gateway(tmp_path, ["nothing usable", "5"])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision.fields_planted == 5
        assert events == []

    def test_non_integer_field_count_retried(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"fields": "many"}', "4"])
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision == Decision(4, 2)
        assert events == []
        assert gw.call_count == 2

    def test_transport_error_falls_back(self, tmp_path):
        gw = unmatched_gateway(tmp_path)
        decision, events = generative_decide(view(), PROFILE, gw,
                                             ROLE_TEMPLATE, 10, 5,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert events == ["fallback"]


class TestMapAbstractAction:
    @pytest.mark.parametrize("reply,expected", [
        ("high", 10), ("LOW", 2), ("I go low this year", 2), ("3", 3),
        (4, 4), ({"action": "high"}, 10), ({"choice": 1}, 1),
    ])
    def test_cases(self, reply, expected):
        assert map_abstract_action(reply, 10, 2) == expected

    def test_unmappable_rejected(self):
        from rivercommons import SchemaError
        with pytest.raises(SchemaError):
            map_abstract_action("dunno", 10, 2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        from rivercommons import SchemaError
        with pytest.raises(SchemaError):
            map_abstract_action({"action": value}, 10, 2)


AS_MODELS = parse_llm_game(json.dumps([
    {"name": "neighbour irrigation", "kind": "pairwise cooperation",
     "participants": 2, "actions": ["high", "low"]},
    {"name": "lake fishing", "kind": "common pool resource",
     "participants": 9, "actions": ["0", "1", "2", "3", "4", "5"]},
]))

AS_TEMPLATE = "Situation {as_name} with {as_participants} players: {as_actions}."


class TestNaiveEgtaDecide:
    def test_low_maps_to_low_action(self, tmp_path):
        gw = stub_gateway(tmp_path, ["low", "3"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(2, 3)
        assert events == []

    def test_high_maps_to_max(self, tmp_path):
        gw = stub_gateway(tmp_path, ["high", "2"])
        decision, _ = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                        AS_TEMPLATE, 10, 5, 2,
                                        fallback_decision)
        assert decision.fields_planted == 10

    def test_integer_reply_clamped(self, tmp_path):
        gw = stub_gateway(tmp_path, ["7", "9"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(7, 5)
        assert events == ["clamp"]

    def test_unusable_replies_fall_back(self, tmp_path):
        gw = stub_gateway(tmp_path, ["shrug"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert "fallback" in events

    def test_unusable_irrigation_reply_falls_back_for_fields_only(self, tmp_path):
        # Three unusable irrigation replies exhaust the retries; the fishing
        # situation then gets "3".
        gw = stub_gateway(tmp_path, ["shrug", "shrug", "shrug", "3"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(fallback_decision().fields_planted, 3)
        assert events == ["fallback"]

    def test_unusable_fishing_reply_falls_back_for_fish_only(self, tmp_path):
        gw = stub_gateway(tmp_path, ["high", "shrug", "shrug", "shrug"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(10, fallback_decision().fish_target)
        assert events == ["fallback"]

    def test_non_finite_action_retried(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"action": NaN}', "3"])
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(3, 3)
        assert events == []
        assert gw.call_count == 4

    def test_transport_error_falls_back(self, tmp_path):
        gw = unmatched_gateway(tmp_path)
        decision, events = naive_egta_decide(AS_MODELS, view(), PROFILE, gw,
                                             AS_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert events == ["fallback"]
