import csv
import importlib
import json
import math
import os
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rivercommons import (ActivityClass, ConfigurationError, EcologyParams,
                          Gateway, GatewayConfig, RunConfig, SchemaError,
                          SimulationError, advance_year, calibrate_check,
                          config_from_dict, emit_outputs, load_config,
                          run_simulation, summarize, sweep)
from rivercommons.cli import main
from rivercommons.config import PIPELINES, InflowConfig, load_prompts
from rivercommons.harness import (PIPELINE_TYPES, CsvInflow, RunArtifacts,
                                  SyntheticInflow, make_inflow, seasonal_weights)
from rivercommons.ecology import YearRecord
from conftest import g1_spec, short_config


class TestConfig:
    def test_minimal_dict_applies_defaults(self):
        cfg = config_from_dict({"pipeline": "procedural"})
        assert cfg.horizon == 100
        assert cfg.n_households == 9
        assert cfg.max_fields == 10

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"pipeline": "procedural", "tau": -1})

    def test_unknown_pipeline_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as err:
            config_from_dict({"pipeline": "psychic"})
        assert "procedural" in str(err.value)

    def test_unknown_key_rejected(self):
        # "source" was an inflow key once; a config still holding it fails.
        for data, key in (({"horizont": 5}, "horizont"),
                          ({"inflow": {"source": "csv"}}, "source")):
            with pytest.raises(ConfigurationError) as err:
                config_from_dict(dict(data, pipeline="procedural"))
            assert key in str(err.value)

    def test_nested_sections(self):
        cfg = config_from_dict({
            "pipeline": "procedural",
            "ecology": {"y0": 60.0},
            "inflow": {"mean_annual": 500.0},
        })
        assert cfg.ecology.y0 == 60.0
        assert cfg.inflow.mean_annual == 500.0

    @pytest.mark.parametrize("data,key", [
        ({"horizon": "5"}, "horizon"),
        ({"horizon": 5.0}, "horizon"),
        ({"seed": True}, "seed"),
        ({"tau": False}, "tau"),
        ({"prompts_dir": 1}, "prompts_dir"),
        ({"ecology": 5}, "ecology"),
        ({"ecology": {"w": "10"}}, "w"),
        ({"gateway": {"max_retries": 1.5}}, "max_retries"),
        ({"inflow": {"csv_path": 7}}, "csv_path"),
        ({"initial_fish": 5}, "initial_fish"),
        ({"initial_fish": ["a"] * 13}, "initial_fish"),
    ])
    def test_wrongly_typed_value_rejected(self, data, key):
        with pytest.raises(ConfigurationError) as err:
            config_from_dict(dict(data, pipeline="procedural"))
        assert key in str(err.value)

    @pytest.mark.parametrize("data,key", [
        ({"tau": math.nan}, "tau"),
        ({"subsistence": math.inf}, "subsistence"),
        ({"authority_budget": -math.inf}, "authority_budget"),
        ({"effort_cost": 10 ** 400}, "effort_cost"),
        ({"ecology": {"w": math.nan}}, "w"),
        ({"ecology": {"Q_ref": math.inf}}, "Q_ref"),
        ({"inflow": {"mean_annual": math.nan}}, "mean_annual"),
        ({"inflow": {"peak_month": math.inf}}, "peak_month"),
        ({"gateway": {"timeout": math.nan}}, "timeout"),
        ({"initial_fish": [math.nan] * 13}, "initial_fish"),
        ({"initial_fish": [250.0] * 12 + [math.inf]}, "initial_fish"),
    ])
    def test_non_finite_value_rejected(self, data, key):
        with pytest.raises(ConfigurationError, match="finite") as err:
            config_from_dict(dict(data, pipeline="procedural"))
        assert key in str(err.value)

    @pytest.mark.parametrize("cls,kwargs", [
        (RunConfig, {"subsistence": math.nan}),
        (RunConfig, {"pipeline": "centralized", "authority_budget": math.nan}),
        (RunConfig, {"tau": math.inf}),
        (RunConfig, {"effort_cost": 10 ** 400}),
        (EcologyParams, {"kappa": math.nan}),
        (EcologyParams, {"fish_price": -math.inf}),
        (InflowConfig, {"noise_sigma": math.inf}),
        (InflowConfig, {"peak_month": math.nan}),
        (GatewayConfig, {"backoff_base": math.nan}),
    ])
    def test_python_built_non_finite_rejected(self, cls, kwargs):
        with pytest.raises(ConfigurationError, match="finite") as err:
            cls(**kwargs)
        assert list(kwargs)[-1] in str(err.value)

    @pytest.mark.parametrize("cls,kwargs", [
        (RunConfig, {"seed": "3"}),
        (RunConfig, {"n_households": True}),
        (RunConfig, {"horizon": 2.5}),
        (RunConfig, {"ecology": {}}),
        (RunConfig, {"prompts_dir": 1}),
        (GatewayConfig, {"max_retries": 1.5}),
        (GatewayConfig, {"timeout": "5"}),
        (InflowConfig, {"csv_path": 3}),
        (EcologyParams, {"w": None}),
        (g1_spec, {"max_fields": True}),
        (g1_spec, {"B_u": "1000"}),
    ])
    def test_python_built_wrongly_typed_rejected(self, cls, kwargs):
        field = list(kwargs)[-1]
        with pytest.raises(ConfigurationError, match=f"^{field} must be "):
            cls(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "250"])
    def test_python_built_initial_fish_entry_rejected(self, value):
        with pytest.raises(ConfigurationError, match="initial_fish"):
            RunConfig(initial_fish=(250.0,) * 12 + (value,))

    def test_initial_fish_stored_as_float_tuple(self):
        cfg = RunConfig(initial_fish=[250] * 13)
        assert cfg.initial_fish == (250.0,) * 13
        assert {type(v) for v in cfg.initial_fish} == {float}

    def test_value_types_accepted(self):
        cfg = config_from_dict({"pipeline": "procedural", "tau": 1, "horizon": 5,
                                "prompts_dir": None, "ecology": {"w": 12},
                                "gateway": {"model": None, "timeout": 5}})
        assert (cfg.tau, cfg.horizon, cfg.prompts_dir) == (1, 5, None)
        assert cfg.ecology.w == 12
        assert cfg.gateway.timeout == 5

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "nope.json"))

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_prompts_dir_missing_a_file_rejected(self, tmp_path):
        (tmp_path / "role.txt").write_text("Reply with a field count.")
        with pytest.raises(ConfigurationError):
            load_prompts(str(tmp_path))

    def test_shipped_default_config_loads(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(here, "configs", "default.json"))
        assert cfg.pipeline == "expert-egta"
        assert cfg.horizon == 100


class TestInflow:
    def test_seasonal_weights_normalized(self):
        w = seasonal_weights(7.0, 2.0)
        assert w.sum() == pytest.approx(1.0)
        assert int(np.argmax(w)) == 6  # July

    def test_synthetic_deterministic_per_seed_year(self):
        gen = SyntheticInflow(InflowConfig(), seed=3)
        gen2 = SyntheticInflow(InflowConfig(), seed=3)
        np.testing.assert_array_equal(gen.year(5).monthly_inflow,
                                      gen2.year(5).monthly_inflow)
        assert not np.array_equal(gen.year(5).monthly_inflow,
                                  gen.year(6).monthly_inflow)

    def test_csv_inflow_cycles(self, tmp_path):
        path = tmp_path / "inflow.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "month", "inflow"])
            for month in range(1, 13):
                writer.writerow([2001, month, 10.0 * month])
        inflow = CsvInflow(str(path))
        assert inflow.year(0).annual_total == pytest.approx(780.0)
        np.testing.assert_array_equal(inflow.year(7).monthly_inflow,
                                      inflow.year(0).monthly_inflow)

    def test_csv_missing_month_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "month", "inflow"])
            writer.writerow([2001, 1, 5.0])
        with pytest.raises(ConfigurationError):
            CsvInflow(str(path))

    @staticmethod
    def write_csv(path, header, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return str(path)

    @pytest.mark.parametrize("header,cell", [
        (["year", "month", "flow"], 5.0),            # no inflow column
        (["year", "month", "inflow"], "lots"),       # non-numeric cell
        (["year", "month", "inflow"], ""),           # empty cell
        (["year", "month", "inflow"], "nan"),
        (["year", "month", "inflow"], "inf"),
        (["year", "month", "inflow"], None),         # short row
        (["year", "month", "inflow"], -5.0),
    ])
    def test_csv_unusable_input_names_the_file(self, tmp_path, header, cell):
        rows = [[2001, month, 5.0] for month in range(1, 13)]
        rows[3] = [2001, 4] if cell is None else [2001, 4, cell]
        path = self.write_csv(tmp_path / "inflow.csv", header, rows)
        with pytest.raises(ConfigurationError) as err:
            CsvInflow(path)
        assert path in str(err.value)

    def test_seasonal_overflow_rejected_by_river_year(self):
        with np.errstate(over="ignore", invalid="ignore"):
            inflow = SyntheticInflow(InflowConfig(shape_power=1e6), seed=0)
        with pytest.raises(ConfigurationError, match="finite"):
            inflow.year(1)

    def test_missing_csv_falls_back_to_synthetic(self, tmp_path):
        cfg = short_config(inflow=InflowConfig(csv_path=str(tmp_path / "absent.csv")))
        assert isinstance(make_inflow(cfg), SyntheticInflow)


class TestRunSimulation:
    def test_pipeline_table_matches_config_names(self):
        assert tuple(PIPELINE_TYPES) == PIPELINES

    def test_record_count_identity(self):
        cfg = short_config(horizon=4, n_households=3)
        art = run_simulation(cfg)
        assert len(art.records) == 4 * 3

    def test_all_pipelines_complete_and_deterministic(self):
        for pipeline in ("procedural", "generative", "naive-egta",
                         "expert-egta", "centralized"):
            cfg = short_config(pipeline=pipeline, horizon=6, seed=11)
            s1 = summarize(run_simulation(cfg))
            s2 = summarize(run_simulation(cfg))
            assert s1 == s2, pipeline

    def test_activity_percentages_sum_to_100(self):
        s = summarize(run_simulation(short_config(horizon=8)))
        total = s["pct_both"] + s["pct_irrig_only"] + s["pct_fish_only"] \
            + s["pct_none"]
        assert total == pytest.approx(100.0, abs=0.01)

    def test_naive_pipeline_extracts_two_models(self):
        art = run_simulation(short_config(pipeline="naive-egta", horizon=2))
        assert len(art.as_models) == 2

    def test_centralized_allocation_matches_reference(self):
        """Recompute every year's allocation from the inflow series and the
        records: equal shares of min(moving-average water / w, authority
        budget / c), capped at max_fields, with the budget carried forward
        from crop income, irrigation cost and consumption."""
        cfg = short_config(pipeline="centralized", horizon=40, authority_budget=200.0,
                           authority_window=2, max_fields=7,
                           inflow=InflowConfig(mean_annual=700.0, noise_sigma=0.3))
        art = run_simulation(cfg)
        inflow, p, n = make_inflow(cfg), cfg.ecology, cfg.n_households
        history, budget, binding = [inflow.year(0).annual_total], cfg.authority_budget, set()
        for year in range(1, cfg.horizon + 1):
            rows = [r for r in art.records if r.year == year]
            tail = history[-cfg.authority_window:]
            caps = {"water": math.floor(sum(tail) / len(tail) / p.w) // n,
                    "budget": math.floor(max(budget, 0.0) / p.c) // n,
                    "max_fields": cfg.max_fields}
            share = min(caps.values())
            binding.update(k for k, v in caps.items() if v == share)
            assert [r.planted for r in rows] == [share] * n, year
            history.append(inflow.year(year).annual_total)
            budget += (sum(r.crop_income for r in rows)
                       - p.c * sum(r.irrigated for r in rows) - p.kappa * n)
        assert binding == {"water", "budget", "max_fields"}

    def test_naive_pipeline_extracts_once_first(self, tmp_path):
        log = tmp_path / "requests.jsonl"
        run_simulation(short_config(pipeline="naive-egta", horizon=3,
                                    gateway=GatewayConfig(log_path=str(log))))
        stages = [json.loads(line)["tags"].get("stage")
                  for line in log.read_text().splitlines()]
        assert len(stages) > 1
        assert stages[0] == "as_extraction"
        assert stages.count("as_extraction") == 1

    def test_unparseable_extraction_raises_with_gateway_closed(self, tmp_path, monkeypatch):
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps([{"response": "no structure here"}]))
        closed = []
        close = Gateway.close
        monkeypatch.setattr(Gateway, "close", lambda gw: closed.append(gw) or close(gw))
        cfg = short_config(pipeline="naive-egta", horizon=2, gateway=GatewayConfig(
            fixture_path=str(fixture), log_path=str(tmp_path / "requests.jsonl")))
        with pytest.raises(SchemaError):
            run_simulation(cfg)
        assert len(closed) == 1 and closed[0]._log_file is None

    @pytest.mark.parametrize("pipeline", ["procedural", "centralized"])
    def test_record_and_budget_floats_are_python_floats(self, monkeypatch, pipeline):
        # At seed 1 the adult stock caps a harvest in both pipelines, the case
        # where a catch used to come back as a numpy scalar.
        budgets, capped = [], []

        def recording_advance_year(state, river, decisions, params):
            state2, records = advance_year(state, river, decisions, params)
            budgets.extend(h.budget for h in state2.households)
            capped.append(sum(r.catch for r in records)
                          < sum(d.fish_target for d in decisions))
            return state2, records

        monkeypatch.setattr("rivercommons.harness.advance_year", recording_advance_year)
        art = run_simulation(RunConfig(pipeline=pipeline, seed=1))
        assert any(capped)
        float_fields = [name for name, kind in typing.get_type_hints(YearRecord).items()
                        if kind is float]
        assert len(float_fields) == 7
        assert {type(getattr(r, name)) for r in art.records for name in float_fields} \
            == {float}
        assert {type(b) for b in budgets} == {float}

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_first_decide_sees_year0_records(self, monkeypatch, pipeline):
        cfg = short_config(pipeline=pipeline, horizon=2)
        pipeline_type = PIPELINE_TYPES[pipeline]
        decide = pipeline_type.decide
        seen = []
        monkeypatch.setattr(pipeline_type, "decide",
                            lambda self, state: seen.append(state) or decide(self, state))
        run_simulation(cfg)
        first = seen[0]
        assert first.year == 0 and len(seen) == 2
        inflow0 = make_inflow(cfg).year(0).annual_total
        assert first.households == tuple(
            YearRecord(year=0, household=i + 1, node_inflow=inflow0,
                       crop_income=cfg.subsistence, budget=cfg.initial_budget)
            for i in range(cfg.n_households))

    def test_centralized_authority_budget_feeds_back(self):
        cfg = short_config(pipeline="centralized", horizon=3,
                           authority_budget=0.0)
        art = run_simulation(cfg)
        # With no budget the authority can never allocate fields.
        assert all(r.planted == 0 for r in art.records)


class TestSummarize:
    def make_artifacts(self, cells):
        records = []
        for (year, household, activity, budget) in cells:
            records.append(YearRecord(
                year=year, household=household, planted=0, irrigated=0,
                delivered=0.0, node_inflow=0.0, stress=0.0, crop_income=0.0,
                catch=0.0, fish_income=0.0, budget=budget, activity=activity))
        return RunArtifacts(config=short_config(), records=records)

    def test_all_both(self):
        art = self.make_artifacts([
            (y, h, ActivityClass.BOTH, 1.0) for y in (1, 2) for h in (1, 2)])
        assert summarize(art)["pct_both"] == 100.0

    def test_final_year_min_max(self):
        art = self.make_artifacts([
            (1, 1, ActivityClass.NONE, 99.0), (1, 2, ActivityClass.NONE, 99.0),
            (2, 1, ActivityClass.NONE, -5.0), (2, 2, ActivityClass.NONE, 10.0)])
        s = summarize(art)
        assert s["min_budget_final"] == -5.0
        assert s["max_budget_final"] == 10.0

    def test_single_farming_cell(self):
        art = self.make_artifacts([
            (1, 1, ActivityClass.FARMING_ONLY, 0.0),
            (1, 2, ActivityClass.NONE, 0.0),
            (2, 1, ActivityClass.NONE, 0.0),
            (2, 2, ActivityClass.NONE, 0.0)])
        assert summarize(art)["pct_irrig_only"] == 25.0


class TestSweep:
    def test_single_cell(self):
        rows = sweep(short_config(horizon=2))
        assert len(rows) == 1
        assert rows[0]["error"] == ""

    def test_grid_size(self):
        rows = sweep(short_config(horizon=2), taus=[0.0, 1.0], seeds=[0, 1])
        assert len(rows) == 4
        assert {(r["tau"], r["seed"]) for r in rows} == \
            {(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)}

    @pytest.mark.parametrize("axis,field", [("pipelines", "pipeline"), ("taus", "tau"),
                                            ("behaviours", "behaviour"), ("seeds", "seed")])
    @pytest.mark.parametrize("values", [None, []])
    def test_unset_axis_takes_base_value(self, axis, field, values):
        base = short_config(horizon=2, tau=0.25, behaviour="rational")
        (row,) = sweep(base, **{axis: values})
        assert row[field] == getattr(base, field)
        assert row["error"] == ""

    def test_wrongly_typed_cell_recorded_as_configuration_error(self):
        (row,) = sweep(short_config(pipeline="expert-egta", horizon=2), seeds=["3"])
        assert row["error"].startswith("ConfigurationError: seed")
        assert row["fallback_events"] == row["min_budget_final"] == ""

    def test_failing_cell_recorded_in_row(self, tmp_path):
        from rivercommons import GatewayConfig
        bad_fixture = tmp_path / "empty.json"
        bad_fixture.write_text("[]")
        base = short_config(
            horizon=2, gateway=GatewayConfig(backend="stub",
                                             fixture_path=str(bad_fixture)))
        rows = sweep(base, pipelines=["procedural", "generative"])
        by_pipeline = {r["pipeline"]: r for r in rows}
        assert by_pipeline["procedural"]["error"] == ""
        assert by_pipeline["generative"]["error"] != ""

    def test_missing_fixture_recorded_as_configuration_error(self, tmp_path):
        from rivercommons import GatewayConfig
        base = short_config(
            pipeline="generative", horizon=2,
            gateway=GatewayConfig(backend="stub",
                                  fixture_path=str(tmp_path / "absent.json")))
        (row,) = sweep(base)
        assert row["error"].startswith("ConfigurationError")

    def test_programming_error_propagates(self, monkeypatch):
        import rivercommons.harness as harness

        def broken(config):
            raise TypeError("a bug, not a failed cell")

        monkeypatch.setattr(harness, "run_simulation", broken)
        with pytest.raises(TypeError):
            sweep(short_config(horizon=2))


class TestEmitOutputs:
    def test_horizon_one_outputs(self, tmp_path):
        art = run_simulation(short_config(horizon=1, n_households=2))
        paths = emit_outputs(art, str(tmp_path / "out"))
        with open(paths["records"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2  # header + one year of two households
        assert rows[0][0] == "year"
        svg = Path(paths["budgets"]).read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_reemission_identical_bytes(self, tmp_path):
        art = run_simulation(short_config(horizon=3))
        p1 = emit_outputs(art, str(tmp_path / "a"))
        p2 = emit_outputs(art, str(tmp_path / "b"))
        for key in p1:
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()

    def test_unwritable_dir_raises_simulation_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        art = run_simulation(short_config(horizon=1))
        with pytest.raises(SimulationError):
            emit_outputs(art, str(blocker / "sub"))


class TestCalibrateCheck:
    def test_insufficient_horizon_flagged(self):
        report = calibrate_check(short_config(pipeline="expert-egta",
                                              horizon=1), taus=(0.0,))
        assert report["insufficient_horizon"]

    def test_tau_zero_only_runs_tragedy_checks(self):
        report = calibrate_check(RunConfig(pipeline="expert-egta", seed=42),
                                 taus=(0.0,))
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 2
        assert all("tau=0.0" in n for n in names)

    def test_empty_tax_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="tax level"):
            calibrate_check(short_config(pipeline="expert-egta"), taus=())

    def test_forces_expert_pipeline(self):
        report = calibrate_check(RunConfig(pipeline="procedural", seed=42),
                                 taus=(0.25,))
        assert report["passed"]


class TestCli:
    def write_config(self, tmp_path, **overrides):
        data = {"pipeline": "procedural", "horizon": 3, "seed": 1}
        data.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "records.csv"))
        assert "min_budget_final" in capsys.readouterr().out

    def test_run_writes_request_log_for_llm_pipeline(self, tmp_path):
        cfg = self.write_config(tmp_path, pipeline="generative")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        log = os.path.join(out, "requests.jsonl")
        assert os.path.exists(log)
        assert len(Path(log).read_text().splitlines()) > 0

    def test_run_leaves_no_request_log_for_rules_pipeline(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "requests.jsonl").write_text("stale\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "records.csv").exists()
        assert not (out / "requests.jsonl").exists()

    def test_project_script_entry_point_runs(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, _, name = scripts["rivercommons"].partition(":")
        with pytest.raises(SystemExit) as exc:
            getattr(importlib.import_module(module), name)(["--help"])
        assert exc.value.code == 0
        assert "calibrate-check" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--taus", "0", "0.5",
                     "--seeds", "0", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4

    def test_solve_game_subcommand(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({
            "row_payoffs": [[6, 5], [9, 5]],
            "col_payoffs": [[6, 7], [3, 2]],
            "row_actions": ["H", "L"], "col_actions": ["H", "L"]}))
        assert main(["solve-game", "--game", str(game)]) == 0
        out = capsys.readouterr().out
        assert "(H, L)" in out and "(L, H)" in out
        assert "selected: (H, L)" in out

    def test_solve_game_mismatched_shapes_exit_code(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"row_payoffs": [[1, 2], [3, 4]],
                                    "col_payoffs": [[1, 2, 3], [4, 5, 6]]}))
        assert main(["solve-game", "--game", str(game)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json",
                                         '{"row_payoffs": [[1]]}'])
    def test_solve_game_unusable_file_exit_code(self, tmp_path, capsys, content):
        game = tmp_path / "game.json"
        if content is not None:
            game.write_text(content)
        assert main(["solve-game", "--game", str(game)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [[["a"]], [[1, 2], [3]]])
    def test_solve_game_unusable_payoffs_exit_code(self, tmp_path, capsys, row):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"row_payoffs": row, "col_payoffs": [[1]]}))
        assert main(["solve-game", "--game", str(game)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_sweep_seed_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--seeds", "one"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("overrides,key", [({"horizon": "5"}, "horizon"),
                                               ({"ecology": 5}, "ecology")])
    def test_wrongly_typed_config_exit_code(self, tmp_path, capsys, overrides, key):
        cfg = self.write_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,key", [
        ({"ecology": {"w": math.nan}}, "w"),
        ({"inflow": {"mean_annual": math.nan}}, "mean_annual"),
        ({"tau": math.nan}, "tau"),
        ({"initial_fish": [math.inf] * 13}, "initial_fish"),
    ])
    def test_non_finite_config_exit_code(self, tmp_path, capsys, overrides, key):
        cfg = self.write_config(tmp_path, **overrides)
        text = Path(cfg).read_text()
        assert "NaN" in text or "Infinity" in text
        assert main(["run", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["year,month\n2001,1\n",
                                         "year,month,inflow\n2001,1,NaN\n",
                                         "year,month,inflow\n2001,1,x\n"])
    def test_unusable_inflow_csv_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "inflow.csv"
        path.write_text(content)
        cfg = self.write_config(tmp_path, inflow={"csv_path": str(path)})
        assert main(["run", "--config", cfg]) == 2
        assert str(path) in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline": "bogus"}))
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
