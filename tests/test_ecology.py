import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercommons import (ActivityClass, ConfigurationError, Decision,
                          EcologyParams, FishPopulation, RiverYear,
                          WorldState, YearRecord, advance_year,
                          classify_activity, crop_outcome, route_river,
                          step_fish)
from rivercommons.ecology import (ADULT, IRRIGATION_MONTHS, N_FISH_CLASSES,
                                  _irrigated_count)


def one_month_river(volume, month=6):
    monthly = np.zeros(12)
    monthly[month - 1] = volume
    return RiverYear(monthly)


def even_river(inflow=1000.0):
    return RiverYear(np.full(12, inflow / 12.0))


def make_state(n=2, budget=100.0, fish=None):
    households = tuple(YearRecord(year=0, household=i + 1, budget=budget)
                       for i in range(n))
    classes = np.zeros(N_FISH_CLASSES) if fish is None else np.asarray(fish, float)
    return WorldState(households=households, fish=FishPopulation(classes))


class TestTypes:
    def test_household_validation(self):
        fish = FishPopulation(np.zeros(N_FISH_CLASSES))
        with pytest.raises(ConfigurationError):
            WorldState(households=(YearRecord(year=0, household=0),), fish=fish)
        with pytest.raises(ConfigurationError):
            WorldState(households=(YearRecord(year=0, household=1, stress=1.5),), fish=fish)
        with pytest.raises(ConfigurationError, match="planted"):
            WorldState(households=(YearRecord(year=0, household=1, planted=-1),), fish=fish)

    def test_fish_population_shape(self):
        with pytest.raises(ConfigurationError):
            FishPopulation(np.zeros(5))
        with pytest.raises(ConfigurationError):
            FishPopulation(np.full(N_FISH_CLASSES, -1.0))

    def test_river_year_validation(self):
        with pytest.raises(ConfigurationError):
            RiverYear(np.zeros(11))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_river_year_rejects_non_finite_inflow(self, bad):
        monthly = np.full(12, 50.0)
        monthly[6] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            RiverYear(monthly)

    def test_ecology_params_validation(self):
        with pytest.raises(ConfigurationError):
            EcologyParams(ys=60.0)   # stressed yield above baseline
        with pytest.raises(ConfigurationError):
            EcologyParams(sigma_adult=0.0)


class TestRouteRiver:
    def test_sequential_min(self, params):
        river = one_month_river(100.0)
        # Annual demands 30/30/60 concentrated into the single wet month.
        routed = route_river(river, [3, 3, 6], replace(params, w=10.0))
        # Demand is split over 5 irrigation months, only one carries water.
        assert routed.delivered == (6.0, 6.0, 12.0)
        assert routed.lake_inflow_by_month.sum() == pytest.approx(76.0)

    def test_zero_demand_identity(self, params):
        river = RiverYear(np.linspace(1, 12, 12))
        routed = route_river(river, [0, 0], params)
        assert routed.delivered == (0.0, 0.0)
        np.testing.assert_allclose(routed.lake_inflow_by_month,
                                   river.monthly_inflow)

    def test_capacity_clip(self, params):
        river = one_month_river(20.0)
        routed = route_river(river, [15], params)
        # Only the wet month's share of the demand can be withdrawn.
        assert routed.delivered[0] == pytest.approx(20.0)
        assert routed.lake_inflow_by_month.sum() == pytest.approx(0.0)

    def test_node_inflow_decreases_downstream(self, params):
        river = RiverYear(np.full(12, 50.0))
        routed = route_river(river, [5, 5, 5], params)
        assert routed.node_inflow[0] >= routed.node_inflow[1] >= routed.node_inflow[2]

    def test_negative_demand_rejected(self, params):
        with pytest.raises(ConfigurationError):
            route_river(one_month_river(10.0), [-1], params)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=6))
    def test_water_conservation(self, seed, n):
        rng = np.random.default_rng(seed)
        params = EcologyParams()
        river = RiverYear(rng.uniform(0, 200, size=12))
        planted = rng.integers(0, 11, size=n).tolist()
        routed = route_river(river, planted, params)
        n_irr = len(IRRIGATION_MONTHS)
        for month in range(1, 13):
            inflow = river.monthly_inflow[month - 1]
            if month in IRRIGATION_MONTHS:
                withdrawn = sum(
                    min(params.w * p / n_irr, 1e18) for p in planted)
            # Conservation holds regardless: total delivered + lake = inflow.
            lake = routed.lake_inflow_by_month[month - 1]
            assert lake >= -1e-12
        total_delivered = sum(routed.delivered)
        assert abs(river.annual_total
                   - total_delivered - routed.lake_inflow_by_month.sum()) <= 1e-9
        for p, d in zip(planted, routed.delivered):
            assert d <= params.w * p + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=0, max_value=10))
    def test_upstream_demand_never_helps_downstream(self, seed, bump):
        rng = np.random.default_rng(seed)
        params = EcologyParams()
        river = RiverYear(rng.uniform(0, 100, size=12))
        planted = rng.integers(0, 11, size=4).tolist()
        base = route_river(river, planted, params)
        bumped = list(planted)
        bumped[0] += bump
        after = route_river(river, bumped, params)
        for i in range(1, 4):
            assert after.delivered[i] <= base.delivered[i] + 1e-9


class TestIrrigatedCount:
    @pytest.mark.parametrize("planted,supplied_fields,expected", [
        (5, 5.0, 5), (5, 0.0, 0), (0, 0.0, 0), (2, 2.0, 2),
        (5, 3.5, 3), (3, 3.0 - 1e-13, 3)])
    def test_cases(self, params, planted, supplied_fields, expected):
        assert _irrigated_count(planted, supplied_fields * params.w, params.w) == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.floats(min_value=0.0, max_value=200.0))
    def test_bounded_by_planted(self, planted, delivered):
        assert 0 <= _irrigated_count(planted, delivered, EcologyParams().w) <= planted


class TestCropOutcome:
    def test_fully_supplied(self, params):
        income, stress = crop_outcome(5, 5 * params.w, 5, 0.0, 5, params)
        assert stress == 0.0
        assert income == pytest.approx(5 * params.y0)

    def test_no_water(self, params):
        income, stress = crop_outcome(5, 0.0, 0, 0.0, 0, params)
        assert income == 0.0
        assert stress == pytest.approx(min(1.0, 1.0 - params.stress_recovery))

    def test_idle_recovery(self, params):
        income, stress = crop_outcome(0, 0.0, 0, 0.6, 0, params)
        assert income == 0.0
        assert stress == pytest.approx(max(0.0, 0.6 - params.stress_recovery))

    def test_stressed_reach_uses_low_yield(self, params):
        over_threshold = int(params.S) + 1
        income, _ = crop_outcome(2, 2 * params.w, 2, 0.0, over_threshold, params)
        assert income == pytest.approx(2 * params.ys)

    def test_stress_returns_to_zero_under_full_supply(self, params):
        stress = 1.0
        years = math.ceil(1.0 / params.stress_recovery)
        for _ in range(years):
            _, stress = crop_outcome(3, 3 * params.w, 3, stress, 0, params)
        assert stress == 0.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.floats(min_value=0.0, max_value=200.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_stress_stays_in_unit_interval(self, planted, delivered, stress_in):
        params = EcologyParams()
        irrigated = _irrigated_count(planted, delivered, params.w)
        _, stress_out = crop_outcome(planted, delivered, irrigated, stress_in, 0, params)
        assert 0.0 <= stress_out <= 1.0


class TestStepFish:
    def test_pure_aging_shift(self):
        params = EcologyParams(sigma_adult=1.0, sigma_larva=1.0, K_juv=1e15,
                               fecundity=0.0, M_mig=0.0)
        classes = np.arange(1.0, 14.0)
        pop, catches = step_fish(FishPopulation(classes), np.zeros(12),
                                 [0.0], [0], params)
        assert catches == (0.0,)
        np.testing.assert_allclose(pop.classes[1:], classes[:-1])
        assert pop.classes[0] == 0.0  # no recruitment

    def test_harvest_clipped_to_stock(self, params):
        classes = np.zeros(N_FISH_CLASSES)
        classes[ADULT] = 10.0 / 8.0
        pop, catches = step_fish(FishPopulation(classes), np.zeros(12),
                                 [25.0], [0], params)
        assert catches == (10.0,)
        assert pop.classes[ADULT].sum() == pytest.approx(0.0, abs=1e-12)

    def test_beverton_holt_half_capacity(self):
        params = EcologyParams(fecundity=0.0, M_mig=0.0)
        classes = np.zeros(N_FISH_CLASSES)
        classes[2] = params.K_juv
        pop, _ = step_fish(FishPopulation(classes), np.zeros(12), [0.0], [0],
                           params)
        assert pop.classes[3] == pytest.approx(params.sigma_larva * params.K_juv / 2)

    def test_migration_pulse_threshold(self, params):
        lake = np.zeros(12)
        lake[4] = params.Q_min  # May at exactly the threshold
        pop, _ = step_fish(FishPopulation(np.zeros(N_FISH_CLASSES)), lake,
                           [0.0], [0], params)
        assert pop.classes[0] == pytest.approx(params.M_mig)
        below = lake.copy()
        below[4] = params.Q_min - 1e-6
        pop2, _ = step_fish(FishPopulation(np.zeros(N_FISH_CLASSES)), below,
                            [0.0], [0], params)
        assert pop2.classes[0] == 0.0

    def test_recruitment_scales_with_lake_inflow(self, params):
        classes = np.zeros(N_FISH_CLASSES)
        classes[ADULT] = 100.0 / 8.0
        lake = np.full(12, params.Q_ref / 24.0)  # half the reference inflow
        pop, _ = step_fish(FishPopulation(classes), lake, [0.0], [0],
                           replace(params, M_mig=0.0, Q_min=1e18))
        assert pop.classes[0] == pytest.approx(params.fecundity * 100.0 * 0.5)

    def test_downstream_first_priority(self, params):
        classes = np.zeros(N_FISH_CLASSES)
        classes[5] = 6.0
        pop, catches = step_fish(FishPopulation(classes), np.zeros(12),
                                 [5.0, 5.0], [1, 0], params)
        assert catches[1] == 5.0
        assert catches[0] == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_harvest_bound_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        params = EcologyParams()
        classes = rng.uniform(0, 500, size=N_FISH_CLASSES)
        targets = rng.uniform(0, 100, size=3).tolist()
        pre_adults = classes[ADULT].sum()
        pop, catches = step_fish(FishPopulation(classes.copy()),
                                 rng.uniform(0, 100, size=12), targets,
                                 [2, 1, 0], params)
        assert sum(catches) <= pre_adults + 1e-9
        assert (pop.classes >= 0).all()


class TestClassifyActivity:
    @pytest.mark.parametrize("irrigated,catch,expected", [
        (0, 0.0, ActivityClass.NONE),
        (3, 0.0, ActivityClass.FARMING_ONLY),
        (0, 4.0, ActivityClass.FISHING_ONLY),
        (2, 7.0, ActivityClass.BOTH),
    ])
    def test_cases(self, irrigated, catch, expected):
        assert classify_activity(irrigated, catch) is expected


class TestAdvanceYear:
    def test_consumption_only(self, params):
        state = make_state(n=3, budget=100.0)
        decisions = [Decision(0, 0)] * 3
        state2, records = advance_year(state, even_river(), decisions, params)
        for h, r in zip(state2.households, records):
            assert h.budget == pytest.approx(100.0 - params.kappa)
            assert r.activity is ActivityClass.NONE
        assert state2.year == 1

    def test_single_household_arithmetic(self, params):
        state = make_state(n=1, budget=1000.0)
        _, records = advance_year(state, even_river(10000.0), [Decision(5, 0)], params)
        r = records[0]
        assert r.irrigated == 5
        expected = 5 * params.y0 - 5 * params.c - params.kappa
        assert r.budget - 1000.0 == pytest.approx(expected)

    def test_symmetry(self, params):
        state = make_state(n=2, budget=500.0)
        _, records = advance_year(state, even_river(10000.0),
                                  [Decision(3, 0), Decision(3, 0)], params)
        a, b = records
        assert (a.planted, a.irrigated, a.crop_income, a.catch, a.budget) == \
               (b.planted, b.irrigated, b.crop_income, b.catch, b.budget)

    def test_next_state_holds_the_records(self, params):
        state = make_state(n=3, budget=200.0, fish=np.full(N_FISH_CLASSES, 50.0))
        decisions = [Decision(4, 2), Decision(6, 1), Decision(2, 3)]
        state2, records = advance_year(state, even_river(3000.0), decisions, params)
        assert state2.households == tuple(records)

    def test_decision_count_mismatch(self, params):
        with pytest.raises(ConfigurationError):
            advance_year(make_state(n=2), even_river(), [Decision(0, 0)], params)

    def test_budget_identity(self, params):
        fish = np.full(N_FISH_CLASSES, 50.0)
        state = make_state(n=3, budget=200.0, fish=fish)
        decisions = [Decision(4, 2), Decision(6, 1), Decision(2, 3)]
        state2, records = advance_year(state, even_river(3000.0), decisions, params)
        for before, r in zip(state.households, records):
            delta = r.crop_income + r.fish_income - params.c * r.irrigated \
                - params.kappa
            assert r.budget - before.budget == pytest.approx(delta, abs=1e-9)

    def test_records_capture_water_accounting(self, params):
        state = make_state(n=2)
        _, records = advance_year(state, even_river(500.0),
                                  [Decision(5, 0), Decision(5, 0)], params)
        for r in records:
            assert r.delivered <= params.w * r.planted + 1e-9
            assert r.node_inflow >= r.delivered - 1e-9
