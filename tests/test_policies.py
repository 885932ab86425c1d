import json

import numpy as np
import pytest

from rivercommons import (ActionSituationModel, ASKind, ConfigurationError, Decision,
                          EcologyParams, FishPopulation, Gateway, GatewayConfig,
                          InvalidGameError, RunConfig, SchemaError, SimulationError,
                          WorldState, YearRecord, action_situations, bind_prompt,
                          build_irrigation_game, centralized_allocate,
                          enumerate_pure_ne, expert_egta_decide,
                          generative_decide, is_epsilon_ne,
                          moving_average_predict, naive_egta_decide,
                          parse_llm_game, procedural_decide, run_simulation, sweep)
from rivercommons.ecology import N_FISH_CLASSES
from rivercommons.harness import _ExpertEgta, river_series
from rivercommons.policies import (_reply_to_fields_and_fish,
                                   default_fish_target, map_abstract_action,
                                   solve_fishing_game)
from conftest import (count_replies, expert_config, g1_spec, pure_profile,
                      short_config, year_roles)


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


def authority_config(params, n_households=9, max_fields=10):
    return RunConfig(pipeline="centralized", ecology=params, n_households=n_households,
                     max_fields=max_fields, authority_window=20)


class TestCentralizedAllocate:
    def test_equal_shares_with_remainder(self, params):
        allocation = centralized_allocate(400.0, [540.0], authority_config(params))
        assert allocation == [4] * 9  # 40 supportable, 4 unallocated

    def test_zero_budget(self, params):
        assert centralized_allocate(0.0, [540.0], authority_config(params)) == [0] * 9

    def test_zero_prediction(self, params):
        assert centralized_allocate(1000.0, [0.0], authority_config(params)) == [0] * 9

    def test_max_fields_cap(self, params):
        config = authority_config(params, n_households=2, max_fields=10)
        assert centralized_allocate(1e9, [1e6], config) == [10, 10]


class TestExpertEgtaDecide:
    def test_two_households_reference_game(self, params):
        # No fish, G1-like water and budgets: the pair plays (6, 0).
        world = make_world(n=2, adults=0.0, node_inflow=60.0)
        spec = EcologyParams(ys=25.0)
        decisions = expert_egta_decide(world, expert_config(0.0, spec),
                                       solve_fishing_game(world, spec, 5, 1.0, {}),
                                       year_roles(2, np.random.default_rng(0)), {})
        assert [d.fields_planted for d in decisions] == [6, 0]
        assert all(d.fish_target == 0 for d in decisions)

    def test_fishing_game_solved_first(self, params):
        world = make_world(n=2, adults=1e6)
        config = short_config(pipeline="expert-egta", n_households=2, e_max=5,
                              effort_cost=1.0, ecology=params)
        pipeline = _ExpertEgta(config, river_series(config)[0])
        decisions = pipeline.decide(world)
        assert all(d.fish_target == 5 for d in decisions)
        assert pipeline.fishing[10] == (5, 25.0)

    def test_middle_household_coin_flip_reproducible(self, params):
        results = []
        for _ in range(2):
            world = make_world(n=5)
            decisions = expert_egta_decide(world, expert_config(0.25, params),
                                           solve_fishing_game(world, params, 5, 1.0, {}),
                                           year_roles(5, np.random.default_rng(99)), {})
            results.append([d.fields_planted for d in decisions])
        assert results[0] == results[1]

    def test_middle_options_come_from_adjacent_games(self, params):
        world = make_world(n=3, node_inflow=10000.0)
        decisions = expert_egta_decide(world, expert_config(1.0, params),
                                       solve_fishing_game(world, params, 5, 1.0, {}),
                                       year_roles(3, np.random.default_rng(0)), {})
        # tau=1 pair equilibrium is (1, 5): ends fixed, middle picks either.
        assert decisions[0].fields_planted == 1
        assert decisions[2].fields_planted == 5
        assert decisions[1].fields_planted in (1, 5)

    def test_selected_profiles_are_epsilon_ne(self):
        spec = g1_spec()
        game = build_irrigation_game(spec)
        pure = enumerate_pure_ne(game)
        world = make_world(n=2, adults=0.0, node_inflow=60.0)
        params = EcologyParams(ys=25.0)
        decisions = expert_egta_decide(world, expert_config(0.0, params),
                                       solve_fishing_game(world, params, 5, 1.0, {}),
                                       year_roles(2, np.random.default_rng(0)), {})
        cell = (decisions[0].fields_planted, decisions[1].fields_planted)
        assert cell in pure
        assert is_epsilon_ne(game, pure_profile(*cell, 11, 11), 1e-9)

    def test_single_household_rejected(self, params):
        world = make_world(n=1)
        with pytest.raises(ConfigurationError):
            expert_egta_decide(world, expert_config(0.0, params),
                               solve_fishing_game(world, params, 5, 1.0, {}), [], {})

    def test_single_household_run_rejected_before_the_role_draw(self):
        """A one-household expert run has no role table to draw (its size
        would be negative): the run raises the typed error, and a sweep
        records it as the cell's error."""
        config = short_config(pipeline="expert-egta", n_households=1, horizon=3)
        with pytest.raises(ConfigurationError,
                           match="^expert pipeline needs at least 2 households$"):
            run_simulation(config)
        rows = sweep(config, seeds=[0, 1])
        assert [row["error"] for row in rows] == [
            "ConfigurationError: expert pipeline needs at least 2 households"] * 2

    @pytest.mark.parametrize("n, roles", [(2, [1]), (3, []), (4, [0]), (4, [0, 1, 1])])
    def test_roles_of_another_household_count_rejected(self, params, n, roles):
        world = make_world(n=n)
        with pytest.raises(ConfigurationError,
                           match=f"^expected {n - 2} middle-household roles, got {len(roles)}$"):
            expert_egta_decide(world, expert_config(0.0, params),
                               solve_fishing_game(world, params, 5, 1.0, {}), roles, {})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "5"])
    @pytest.mark.parametrize("index, name", [(1, "budget"), (2, "budget"), (1, "node_inflow")])
    def test_bad_input_of_an_unplayed_pair_rejected_before_any_solve(
            self, monkeypatch, params, index, name, value):
        """At seed 6 household 2 plays downstream and household 3 upstream,
        so nobody plays pair 2 (households 2 and 3, on household 2's
        inflow). Its budgets and inflow are still checked as float fields,
        all before the first pair solve, and "5" is not read as 5.0."""
        roles = np.random.default_rng(6)
        assert [int(roles.integers(2)) for _ in range(2)] == [0, 1]
        solved = []
        monkeypatch.setattr("rivercommons.policies.solve_irrigation_game", solved.append)
        world = make_world(n=4)
        households = list(world.households)
        households[index] = households[index]._replace(**{name: value})
        with pytest.raises(ConfigurationError,
                           match=f"^household {index + 1} {name} must be a finite number"):
            expert_egta_decide(WorldState(tuple(households), world.fish),
                               expert_config(0.0, params),
                               solve_fishing_game(world, params, 5, 1.0, {}),
                               year_roles(4, np.random.default_rng(6)), {})
        assert solved == []

    def test_last_household_inflow_is_not_read(self, params):
        """No pair takes its water from the last household's node."""
        world = make_world(n=3)
        last = world.households[-1]._replace(node_inflow=float("nan"))
        nan_world = WorldState(world.households[:-1] + (last,), world.fish)
        assert (expert_egta_decide(nan_world, expert_config(0.25, params),
                                   solve_fishing_game(nan_world, params, 5, 1.0, {}),
                                   year_roles(3, np.random.default_rng(0)), {})
                == expert_egta_decide(world, expert_config(0.25, params),
                                      solve_fishing_game(world, params, 5, 1.0, {}),
                                      year_roles(3, np.random.default_rng(0)), {}))

    def test_game_error_becomes_simulation_error(self, monkeypatch, params):
        def invalid(spec):
            raise InvalidGameError("payoffs must be finite")

        monkeypatch.setattr("rivercommons.policies.solve_irrigation_game", invalid)
        world = make_world(n=3)
        with pytest.raises(SimulationError) as err:
            expert_egta_decide(world, expert_config(0.0, params),
                               solve_fishing_game(world, params, 5, 1.0, {}),
                               year_roles(3, np.random.default_rng(0)), {})
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


SYSTEM = "You are a farmer."
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
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(7, 2)
        assert events == []

    def test_out_of_range_clamped(self, tmp_path):
        gw = stub_gateway(tmp_path, ["12"])
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision.fields_planted == 10
        assert events == ["clamp"]

    def test_json_reply_with_fish(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"fields": 4, "fish": 3}'])
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(4, 3)

    def test_prose_falls_back_after_retries(self, tmp_path):
        gw = stub_gateway(tmp_path, ["no numbers here, sorry"])
        replies = count_replies(gw)
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert events == ["fallback"]
        assert len(replies) == 3  # initial call + max_retries

    def test_recovers_on_second_attempt(self, tmp_path):
        gw = stub_gateway(tmp_path, ["nothing usable", "5"])
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision.fields_planted == 5
        assert events == []

    def test_non_integer_field_count_retried(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"fields": "many"}', "4"])
        replies = count_replies(gw)
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert decision == Decision(4, 2)
        assert events == []
        assert len(replies) == 2

    @pytest.mark.parametrize("reply", [
        '{"fields": true, "fish": 1}', '{"fields_planted": false}',
        '{"fields": 2, "fish": false}', '{"fields": 2, "fish_target": true}',
        '{"fields": 2, "catch": true}'])
    def test_boolean_count_in_reply_object_falls_back(self, tmp_path, reply):
        gw = stub_gateway(tmp_path, [reply])
        replies = count_replies(gw)
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
                                             fallback_decision)
        assert (decision, events) == (fallback_decision(), ["fallback"])
        assert len(replies) == 3
        with pytest.raises(SchemaError, match="boolean count"):
            _reply_to_fields_and_fish(json.loads(reply))

    def test_transport_error_falls_back(self, tmp_path):
        gw = unmatched_gateway(tmp_path)
        decision, events = generative_decide(view(), SYSTEM, gw,
                                             ROLE_TEMPLATE, 10, 5, 2,
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
# AS_TEMPLATE bound to each of AS_MODELS' two situations, as the naive
# pipeline binds its action prompt once per run.
SITUATION_PROMPTS = tuple((bind_prompt(AS_TEMPLATE, values), high)
                          for values, high in action_situations(AS_MODELS, 10, 5))


def other_model(name, participants=3):
    return ActionSituationModel(name=name, kind=ASKind.OTHER, participants=participants,
                                actions=("a", "b"))


class TestActionSituations:
    def test_kinds_pick_the_situations(self):
        assert action_situations(AS_MODELS, 10, 5) == (
            ({"as_name": "neighbour irrigation", "as_actions": "high, low",
              "as_participants": 2}, 10),
            ({"as_name": "lake fishing", "as_actions": "0, 1, 2, 3, 4, 5",
              "as_participants": 9}, 5))

    def test_other_kinds_are_used_in_order(self):
        models = [other_model("first"), other_model("second", 4), other_model("third")]
        assert action_situations(models, 10, 5) == (
            ({"as_name": "first", "as_actions": "a, b", "as_participants": 3}, 10),
            ({"as_name": "second", "as_actions": "a, b", "as_participants": 4}, 5))

    def test_single_model_leaves_the_fish_target_without_a_situation(self):
        assert action_situations([other_model("only")], 10, 5) == (
            ({"as_name": "only", "as_actions": "a, b", "as_participants": 3}, 10),
            (None, 5))


class TestNaiveEgtaDecide:
    def test_low_maps_to_low_action(self, tmp_path):
        gw = stub_gateway(tmp_path, ["low", "3"])
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == Decision(2, 3)
        assert events == []

    def test_high_maps_to_max(self, tmp_path):
        gw = stub_gateway(tmp_path, ["high", "2"])
        decision, _ = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                        fallback_decision)
        assert decision.fields_planted == 10

    def test_integer_reply_clamped(self, tmp_path):
        gw = stub_gateway(tmp_path, ["7", "9"])
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == Decision(7, 5)
        assert events == ["clamp"]

    def test_unusable_replies_fall_back(self, tmp_path):
        gw = stub_gateway(tmp_path, ["shrug"])
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert "fallback" in events

    def test_unusable_irrigation_reply_falls_back_for_fields_only(self, tmp_path):
        # Three unusable irrigation replies exhaust the retries; the fishing
        # situation then gets "3".
        gw = stub_gateway(tmp_path, ["shrug", "shrug", "shrug", "3"])
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == Decision(fallback_decision().fields_planted, 3)
        assert events == ["fallback"]

    def test_unusable_fishing_reply_falls_back_for_fish_only(self, tmp_path):
        gw = stub_gateway(tmp_path, ["high", "shrug", "shrug", "shrug"])
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == Decision(10, fallback_decision().fish_target)
        assert events == ["fallback"]

    def test_non_finite_action_retried(self, tmp_path):
        gw = stub_gateway(tmp_path, ['{"action": NaN}', "3"])
        replies = count_replies(gw)
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == Decision(3, 3)
        assert events == []
        assert len(replies) == 4

    def test_transport_error_falls_back(self, tmp_path):
        gw = unmatched_gateway(tmp_path)
        decision, events = naive_egta_decide(SITUATION_PROMPTS, view(), SYSTEM, gw, 2,
                                             fallback_decision)
        assert decision == fallback_decision()
        assert events == ["fallback"]
