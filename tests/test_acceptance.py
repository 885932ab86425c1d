"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them inline).
"""
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from rivercommons import (ASKind, BimatrixGame, RunConfig, calibrate_check,
                          emit_outputs, enumerate_pure_ne, is_epsilon_ne,
                          lemke_howson, run_simulation, solve_irrigation_game)
from rivercommons.config import PIPELINES
from rivercommons.ecology import ADULT
from conftest import g1_spec


def report(name, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    assert passed, name


class TestAcceptance:
    def test_1_solver_soundness_batch(self):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        sound = True
        for _ in range(200):
            a = rng.uniform(-10, 10, size=(4, 4))
            b = rng.uniform(-10, 10, size=(4, 4))
            game = BimatrixGame(a, b)
            sound = sound and is_epsilon_ne(game, lemke_howson(game), 1e-9)
        elapsed = time.perf_counter() - start
        report(f"criterion 1: 200 random 4x4 games all eps-NE at 1e-9 "
               f"in {elapsed:.2f}s (< 1s)", sound and elapsed < 1.0)

    def test_2_anticoordination_matrix(self, anticoordination):
        row, col = anticoordination
        game = BimatrixGame(row, col, ("H", "L"), ("H", "L"))
        pure = enumerate_pure_ne(game)
        report("criterion 2: anti-coordination pure NE set is exactly "
               "{(H,L), (L,H)} including the row-payoff tie",
               pure == {(0, 1), (1, 0)})

    def test_3_reference_instance_equilibrium(self):
        from rivercommons import build_irrigation_game
        eq = solve_irrigation_game(g1_spec())
        game = build_irrigation_game(g1_spec())
        payoffs = (game.row_payoffs[6, 0], game.col_payoffs[6, 0])
        in_oracle = (6, 0) in enumerate_pure_ne(game)
        totals = [sum(solve_irrigation_game(g1_spec(tau=t)))
                  for t in (0.0, 1.0, 2.0, 4.0)]
        monotone = all(a >= b for a, b in zip(totals, totals[1:]))
        report("criterion 3: reference instance selects (6,0) with payoffs "
               "(190,-50); total extraction non-increasing over the tax grid",
               eq == (6, 0) and payoffs == (190.0, -50.0)
               and in_oracle and monotone)

    def test_4_conservation_every_month_of_a_run(self, monkeypatch):
        from rivercommons import ecology

        violations = []
        calls = {"route": 0, "step": 0}
        original_route = ecology.route_river
        original_step = ecology.step_fish

        def checked_route(river, planted, params):
            calls["route"] += 1
            routed = original_route(river, planted, params)
            n_irr = len(ecology.IRRIGATION_MONTHS)
            demands = [params.w * f / n_irr for f in planted]
            for month in range(1, 13):
                inflow = float(river.monthly_inflow[month - 1])
                withdrawn = 0.0
                if month in ecology.IRRIGATION_MONTHS:
                    flow = inflow
                    for d in demands:
                        take = min(d, flow)
                        withdrawn += take
                        flow -= take
                lake = routed.lake_inflow_by_month[month - 1]
                if abs(inflow - withdrawn - lake) > 1e-9:
                    violations.append(("water", month))
            return routed

        def checked_step(pop, lake, targets, order, params):
            calls["step"] += 1
            pre_adults = float(np.sum(pop.classes[ADULT]))
            pop2, catches = original_step(pop, lake, targets, order, params)
            if sum(catches) > pre_adults + 1e-9:
                violations.append(("harvest", sum(catches)))
            if (np.array(pop2.classes) < 0).any():
                violations.append(("negative", None))
            return pop2, catches

        monkeypatch.setattr(ecology, "route_river", checked_route)
        monkeypatch.setattr(ecology, "step_fish", checked_step)
        for tau in (0.0, 0.25):
            run_simulation(RunConfig(pipeline="expert-egta", tau=tau, seed=5))
        report("criterion 4: monthly water conservation within 1e-9, fish "
               "classes non-negative, catches bounded by adult stock, "
               "checked in each of the 200 years",
               violations == [] and calls == {"route": 200, "step": 200})

    def test_5_qualitative_pattern_on_shipped_defaults(self):
        report_dict = calibrate_check(RunConfig(pipeline="expert-egta",
                                                seed=42))
        detail = "; ".join(
            f"{c['name']}: {c['detail']}" for c in report_dict["checks"])
        report(f"criterion 5: calibrate_check pattern holds ({detail})",
               report_dict["passed"])

    def test_6_offline_pipeline_completeness(self, monkeypatch):
        import requests

        def no_network(*args, **kwargs):
            raise AssertionError("network call attempted during stub run")

        monkeypatch.setattr(requests, "post", no_network)
        monkeypatch.setattr(requests, "get", no_network)
        gen = run_simulation(RunConfig(pipeline="generative", seed=3))
        naive = run_simulation(RunConfig(pipeline="naive-egta", seed=3))
        kinds = sorted(m.kind for m in naive.as_models)
        shapes_ok = (
            len(naive.as_models) == 2
            and kinds == sorted([ASKind.COMMON_POOL_RESOURCE,
                                 ASKind.PAIRWISE_COOPERATION])
            and {m.participants for m in naive.as_models} == {2, 9})
        complete = (len(gen.records) == 100 * 9
                    and len(naive.records) == 100 * 9)
        report("criterion 6: generative and naive pipelines complete "
               "100-year stub-only runs; extraction yields exactly the "
               "2-player cooperation and N-player CPR models",
               complete and shapes_ok)

    def test_7_byte_identical_records_for_all_pipelines(self, tmp_path):
        identical = True
        for pipeline in PIPELINES:
            cfg = RunConfig(pipeline=pipeline, seed=9, tau=0.25)
            p1 = emit_outputs(run_simulation(cfg), str(tmp_path / pipeline / "a"))
            p2 = emit_outputs(run_simulation(cfg), str(tmp_path / pipeline / "b"))
            b1 = Path(p1["records"]).read_bytes()
            b2 = Path(p2["records"]).read_bytes()
            identical = identical and b1 == b2 and len(b1) > 0
        report("criterion 7: records.csv byte-identical across repeated "
               "runs for all five pipelines", identical)

    def test_8_performance(self):
        start = time.perf_counter()
        run_simulation(RunConfig(pipeline="expert-egta", seed=2, tau=0.25))
        single = time.perf_counter() - start
        start = time.perf_counter()
        calibrate_check(RunConfig(pipeline="expert-egta", seed=2))
        full = time.perf_counter() - start
        report(f"criterion 8: expert run {single:.2f}s (< 5s), "
               f"calibrate_check {full:.2f}s (< 20s)",
               single < 5.0 and full < 20.0)

    def test_9_procedural_rules_and_moving_average(self, params):
        from rivercommons import YearRecord, moving_average_predict, procedural_decide

        a = procedural_decide(
            YearRecord(year=0, household=1, budget=1000.0, crop_income=100.0,
                       node_inflow=45.0), params, 50.0, 10).fields_planted
        b = procedural_decide(
            YearRecord(year=0, household=1, budget=200.0, crop_income=10.0, planted=3,
                       node_inflow=45.0), params, 50.0, 10).fields_planted
        c = procedural_decide(
            YearRecord(year=0, household=1, budget=25.0, crop_income=10.0, planted=9,
                       node_inflow=45.0), params, 50.0, 10).fields_planted
        ma = moving_average_predict([100.0] * 25, 20)
        report(f"criterion 9: procedural examples give fields {a}/{b}/{c} "
               "(expect 4/4/2); constant-series moving average exact",
               (a, b, c) == (4, 4, 2) and ma == 100.0)
