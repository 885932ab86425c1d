import csv
import importlib
import json
import math
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rivercommons.harness as harness
from rivercommons import (ActivityClass, ConfigurationError, EcologyParams,
                          Gateway, GatewayConfig, RunConfig, SchemaError,
                          SimulationError, advance_year, calibrate_check,
                          config_from_dict, emit_outputs, load_config,
                          run_simulation, summarize, sweep)
from rivercommons.cli import main
from rivercommons.config import PIPELINES, InflowConfig, load_json_object, load_prompts
from rivercommons.harness import (PIPELINE_TYPES, RunArtifacts, SyntheticInflow,
                                  read_inflow_csv, river_series, seasonal_weights)
from rivercommons.ecology import YearRecord
from rivercommons.outputs import summary_row, write_summary_csv
from conftest import g1_spec, short_config

# JSON nested far deeper than the decoder's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# A reply's nesting, just past that limit: `extract_structured` tries each
# opener in turn, and each too-deep try costs the limit's depth.
TOO_DEEP_REPLY = sys.getrecursionlimit() + 1


class TestConfig:
    def test_minimal_dict_applies_defaults(self):
        cfg = config_from_dict({"pipeline": "procedural"})
        assert cfg.horizon == 100
        assert cfg.n_households == 9
        assert cfg.max_fields == 10

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"pipeline": "procedural", "tau": -1})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1"):
            RunConfig(seed=-1)

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
        ({"initial_fish": [250.0] * 12}, "initial_fish"),
        ({"initial_fish": [-1.0] * 13}, "initial_fish"),
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "250", -1.0])
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

    @pytest.mark.parametrize("name,content,message", [
        ("role", b"Plant \xb1 fields.", "^cannot read prompt file "),  # Latin-1
        ("role", b"", " is blank$"),
        ("balanced", b" \n\t\n", " is blank$"),
    ])
    def test_unusable_prompt_file_rejected_naming_it(self, tmp_path, name, content, message):
        for other, text in load_prompts().items():
            (tmp_path / f"{other}.txt").write_text(text, encoding="utf-8")
        path = tmp_path / f"{name}.txt"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match=message) as err:
            load_prompts(str(tmp_path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["horizon", "n_households", "authority_window"])
    def test_count_below_one_rejected(self, key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({"pipeline": "procedural", key: 0})
        with pytest.raises(ConfigurationError, match=key):
            RunConfig(pipeline="centralized", **{key: 0})

    def test_shipped_default_config_loads(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(here, "configs", "default.json"))
        assert cfg.pipeline == "expert-egta"
        assert cfg.horizon == 100


def _stub_gateway(path):
    return Gateway(GatewayConfig(backend="stub", fixture_path=path))


class TestInputFiles:
    """One rule reads every input file (`errors.read_input`) and one parses
    every JSON file (`errors.read_json`); each error names the file."""

    # what -> (the file read, and a reader given the directory and that file)
    READERS = {
        "config file": ("config.json", lambda folder, path: load_config(path)),
        "game file": ("game.json", lambda folder, path: load_json_object(path, "game")),
        "stub fixture": ("fixture.json", lambda folder, path: _stub_gateway(path)),
        "prompt file": ("role.txt", lambda folder, path: load_prompts(folder)),
        "inflow CSV": ("inflow.csv", lambda folder, path: read_inflow_csv(path)),
    }
    CASES = ([(what, kind) for what in READERS
              for kind in ("missing", "directory", "not utf-8")]
             + [(what, kind) for what in ("config file", "game file", "stub fixture")
                for kind in ("invalid", "too deep")])

    @pytest.mark.parametrize("what,kind", CASES)
    def test_unusable_input_file_named(self, tmp_path, what, kind):
        name, read = self.READERS[what]
        path = tmp_path / name
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes({"not utf-8": b'{"role": "\xb1"}', "invalid": b"{not json",
                              "too deep": DEEP_JSON.encode()}[kind])
        message = (f"{what} {path} is not valid JSON: " if kind in ("invalid", "too deep")
                   else f"cannot read {what} {path}: ")
        with pytest.raises(ConfigurationError) as err:
            read(str(tmp_path), str(path))
        assert str(err.value).startswith(message)


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
            for year in (2002, 2001):       # rows need not come in year order
                for month in range(1, 13):
                    writer.writerow([year, month, 10.0 * month * (year - 2000)])
        years = read_inflow_csv(str(path))
        assert [y.annual_total for y in years] == pytest.approx([780.0, 1560.0])
        series = river_series(short_config(horizon=7, inflow=InflowConfig(csv_path=str(path))))
        np.testing.assert_array_equal(series[6].monthly_inflow, series[0].monthly_inflow)
        np.testing.assert_array_equal(series[7].monthly_inflow, years[1].monthly_inflow)

    def test_csv_missing_month_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "month", "inflow"])
            writer.writerow([2001, 1, 5.0])
        with pytest.raises(ConfigurationError):
            read_inflow_csv(str(path))

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
            read_inflow_csv(path)
        assert path in str(err.value)

    def test_csv_duplicate_month_rejected(self, tmp_path):
        rows = [[2000, month, 50.0] for month in range(1, 13)] + [[2000, 5, 999.0]]
        path = self.write_csv(tmp_path / "inflow.csv", ["year", "month", "inflow"], rows)
        with pytest.raises(ConfigurationError, match="line 14: repeats year 2000 month 5") as err:
            read_inflow_csv(path)
        assert path in str(err.value)

    @pytest.mark.parametrize("month", [0, 13])
    def test_csv_month_out_of_range_rejected_at_its_line(self, tmp_path, month):
        rows = [[2000, m, 5.0] for m in range(1, 12)] + [[2000, month, 5.0]]
        path = self.write_csv(tmp_path / "inflow.csv", ["year", "month", "inflow"], rows)
        with pytest.raises(ConfigurationError,
                           match=f"line 13: month must be 1 to 12, got {month}") as err:
            read_inflow_csv(path)
        assert path in str(err.value)

    def test_csv_missing_months_named(self, tmp_path):
        rows = [[2000, m, 5.0] for m in range(1, 13)]
        rows += [[2001, m, 5.0] for m in range(1, 13) if m not in (3, 11)]
        path = self.write_csv(tmp_path / "inflow.csv", ["year", "month", "inflow"], rows)
        with pytest.raises(ConfigurationError, match="year 2001 lacks months 3, 11") as err:
            read_inflow_csv(path)
        assert path in str(err.value)

    @staticmethod
    def unreadable_csv(tmp_path, kind):
        """A csv_path that cannot be read: one that names no file, a
        directory, or a file that is not UTF-8."""
        if kind == "missing":
            return str(tmp_path / "absent.csv")
        if kind == "directory":
            return str(tmp_path)
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"year,month,inflow\n2001,1,5.0 \xb1 0.5\n")
        return str(path)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_csv_rejected_naming_the_file(self, tmp_path, kind):
        path = self.unreadable_csv(tmp_path, kind)
        with pytest.raises(ConfigurationError, match="^cannot read inflow CSV ") as err:
            read_inflow_csv(path)
        assert path in str(err.value)
        with pytest.raises(ConfigurationError, match="^cannot read inflow CSV "):
            run_simulation(short_config(inflow=InflowConfig(csv_path=path)))

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_csv_gives_each_sweep_cell_an_error_row(self, tmp_path, kind):
        path = self.unreadable_csv(tmp_path, kind)
        rows = sweep(short_config(horizon=2, inflow=InflowConfig(csv_path=path)),
                     seeds=[0, 1])
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            assert row["error"].startswith(f"ConfigurationError: cannot read inflow CSV {path}")
            assert row["min_budget_final"] == ""

    def test_seasonal_overflow_rejected_by_river_year(self):
        with np.errstate(over="ignore", invalid="ignore"):
            inflow = SyntheticInflow(InflowConfig(shape_power=1e6), seed=0)
        with pytest.raises(ConfigurationError, match="finite"):
            inflow.year(1)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def fresh_bytes(cfg, seed, horizon):
    """Each year's monthly inflow bytes, drawn without the series cache."""
    inflow = SyntheticInflow(cfg, seed)
    return [_bits(inflow.year(t).monthly_inflow) for t in range(horizon + 1)]


class TestRiverSeries:
    """`river_series` shares one synthetic draw per (inflow config, seed,
    horizon); each shared series must equal a fresh draw."""

    @settings(max_examples=80, deadline=None)
    @given(cfg=st.builds(InflowConfig,
                         mean_annual=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e4),
                         noise_sigma=st.just(0.0) | st.floats(0.0, 2.0),
                         peak_month=st.floats(-12.0, 24.0),
                         shape_power=st.floats(0.0, 8.0)),
           seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 12))
    def test_cached_series_equals_fresh_draws(self, cfg, seed, horizon):
        config = short_config(seed=seed, horizon=horizon, inflow=cfg)
        series = river_series(config)
        assert [_bits(r.monthly_inflow) for r in series] == fresh_bytes(cfg, seed, horizon)
        assert river_series(config) is series
        for river in series:
            with pytest.raises(TypeError, match="does not support item assignment"):
                river.monthly_inflow[0] = 1.0

    def test_signed_zero_mean_keeps_its_own_bytes(self):
        # 0.0 == -0.0, yet the two draw different bytes; neither may be
        # served the other's series.
        for mean in (0.0, -0.0, 0.0):
            cfg = InflowConfig(mean_annual=mean)
            series = river_series(short_config(inflow=cfg))
            assert [_bits(r.monthly_inflow) for r in series] == fresh_bytes(cfg, 7, 5)

    def test_failing_config_raises_on_every_call(self):
        config = short_config(inflow=InflowConfig(shape_power=1e6))
        for _ in range(2):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ConfigurationError, match="finite"):
                river_series(config)

    def test_csv_rewritten_between_runs_is_read_again(self, tmp_path):
        path = tmp_path / "inflow.csv"
        config = short_config(horizon=2, inflow=InflowConfig(csv_path=str(path)))
        inflows = []
        for scale in (1.0, 2.0):
            TestInflow.write_csv(path, ["year", "month", "inflow"],
                                 [[2000, m, scale * 10.0 * m] for m in range(1, 13)])
            inflows.append(run_simulation(config).records[0].node_inflow)
        assert inflows[1] == 2.0 * inflows[0] > 0

    def test_sweep_over_taus_draws_each_year_once(self, monkeypatch):
        # Counted at the name the benchmark's tracer wraps.
        harness._synthetic_series.cache_clear()
        drawn = []
        year = SyntheticInflow.year
        monkeypatch.setattr(SyntheticInflow, "year",
                            lambda self, t: drawn.append(t) or year(self, t))
        rows = sweep(short_config(pipeline="expert-egta", horizon=4),
                     taus=[0.0, 0.25, 1.0])
        assert [row["error"] for row in rows] == ["", "", ""]
        assert drawn == list(range(5))

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_cold_and_warm_series_give_identical_records(self, tmp_path, pipeline):
        config = short_config(pipeline=pipeline, horizon=4)
        harness._synthetic_series.cache_clear()
        records = []
        for run in ("cold", "warm"):
            paths = emit_outputs(run_simulation(config), str(tmp_path / run))
            records.append(Path(paths["records"]).read_bytes())
        assert harness._synthetic_series.cache_info().hits == 1
        assert records[0] == records[1]


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
        series, p, n = river_series(cfg), cfg.ecology, cfg.n_households
        history, budget, binding = [series[0].annual_total], cfg.authority_budget, set()
        for year in range(1, cfg.horizon + 1):
            rows = [r for r in art.records if r.year == year]
            tail = history[-cfg.authority_window:]
            caps = {"water": math.floor(sum(tail) / len(tail) / p.w) // n,
                    "budget": math.floor(max(budget, 0.0) / p.c) // n,
                    "max_fields": cfg.max_fields}
            share = min(caps.values())
            binding.update(k for k, v in caps.items() if v == share)
            assert [r.planted for r in rows] == [share] * n, year
            history.append(series[year].annual_total)
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
            state2 = advance_year(state, river, decisions, params)
            budgets.extend(h.budget for h in state2.households)
            capped.append(sum(r.catch for r in state2.households)
                          < sum(d.fish_target for d in decisions))
            return state2

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
        inflow0 = river_series(cfg)[0].annual_total
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


    def test_overflowing_fish_step_raises_in_its_year(self):
        # Fecundity 1e308 spawns an infinite larva class in year 1, which
        # would carry on as NaN juveniles and a NaN adult stock. The run
        # names the year; a sweep row carries that name.
        cfg = RunConfig(pipeline="procedural", horizon=1,
                        ecology=EcologyParams(fecundity=1e308))
        with pytest.raises(SimulationError, match="fish abundances must be finite") as info:
            run_simulation(cfg)
        assert info.value.year == 1
        assert type(info.value.__cause__) is ConfigurationError
        row, = sweep(replace(cfg, horizon=6), seeds=[0])
        assert row["error"].startswith("SimulationError: ")
        assert row["error"].endswith("[year=1]")

    @pytest.mark.parametrize("pipeline", ["procedural", "centralized"])
    @pytest.mark.parametrize("coefficient", ["w", "c"])
    def test_tiny_coefficient_gives_clipped_field_counts(self, pipeline, coefficient):
        # An inflow or budget over 5e-324 is inf, which math.floor cannot
        # take; clipped first, it allows max_fields. Year 1 is planted from
        # the water (the year-0 crop income is the subsistence), so a tiny w
        # lets everyone plant max_fields.
        cfg = short_config(pipeline=pipeline, horizon=4,
                           ecology=EcologyParams(**{coefficient: 5e-324}))
        records = run_simulation(cfg).records
        assert all(0 <= r.planted <= cfg.max_fields for r in records)
        if coefficient == "w":
            assert {r.planted for r in records if r.year == 1} == {cfg.max_fields}


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

    def test_many_seeds_draw_each_river_once_in_grid_order(self):
        """Cells run seed by seed, so a sweep over more seeds than the series
        cache holds still draws each river once, and the rows keep the
        pipeline × tau × behaviour × seed order."""
        base = short_config(horizon=2)
        seeds = list(range(harness.SERIES_CACHE_SIZE + 1))
        pipelines = ["procedural", "centralized"]
        harness._synthetic_series.cache_clear()
        rows = sweep(base, pipelines=pipelines, seeds=seeds)
        info = harness._synthetic_series.cache_info()
        assert (info.misses, info.hits) == (len(seeds), len(seeds))
        cells = [dict(pipeline=p, tau=base.tau, behaviour=base.behaviour, seed=s)
                 for p in pipelines for s in seeds]
        assert rows == [summary_row(cell, run_simulation(replace(base, **cell)))
                        for cell in cells]

    def test_negative_seed_recorded_and_the_next_seed_runs(self):
        bad, good = sweep(short_config(pipeline="expert-egta", horizon=2), seeds=[-1, 3])
        assert bad["seed"] == -1 and bad["error"].startswith("ConfigurationError: seed")
        assert good["seed"] == 3 and good["error"] == "" and good["min_budget_final"] != ""

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

    @pytest.mark.parametrize("reply", [
        "I will plant " + "9" * 5000 + " fields",     # more digits than int() converts
        "[" * TOO_DEEP_REPLY + "]" * TOO_DEEP_REPLY,  # nested too deeply to decode
    ], ids=["overlong integer", "too deep"])
    def test_overlong_integer_and_too_deep_replies_fall_back(self, tmp_path, reply):
        fixture = tmp_path / "replies.json"
        fixture.write_text(json.dumps([{"response": reply}]))
        base = short_config(
            pipeline="generative", horizon=2,
            gateway=GatewayConfig(backend="stub", fixture_path=str(fixture)))
        every_decision = base.horizon * base.n_households
        assert run_simulation(base).fallback_events == every_decision
        (row,) = sweep(base)
        assert row["error"] == ""
        assert row["fallback_events"] == every_decision

    def test_request_log_in_missing_directory_gives_error_rows(self, tmp_path):
        log_path = str(tmp_path / "absent" / "requests.jsonl")
        base = short_config(pipeline="generative", horizon=2,
                            gateway=GatewayConfig(backend="stub", log_path=log_path))
        rows = sweep(base, seeds=[0, 1])
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            assert row["error"].startswith(
                f"ConfigurationError: cannot open request log {log_path}")

    def test_non_string_fingerprint_gives_error_rows(self, tmp_path):
        fixture = tmp_path / "listed.json"
        fixture.write_text(json.dumps([{"fingerprint": ["0" * 16], "response": "7"}]))
        base = short_config(pipeline="generative", horizon=2,
                            gateway=GatewayConfig(backend="stub", fixture_path=str(fixture)))
        rows = sweep(base, seeds=[0, 1])
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            assert row["error"].startswith(
                "ConfigurationError: fixture entry 0 has a fingerprint that is not a string")

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

    def test_shorter_run_over_longer_leaves_no_tail(self, tmp_path):
        emit_outputs(run_simulation(short_config(horizon=100)), str(tmp_path / "out"))
        short = run_simulation(short_config(horizon=1))
        again = emit_outputs(short, str(tmp_path / "out"))
        fresh = emit_outputs(short, str(tmp_path / "fresh"))
        assert again.keys() == fresh.keys()
        for key in fresh:
            assert Path(again[key]).read_bytes() == Path(fresh[key]).read_bytes()

    def test_reemission_writes_new_files_past_links(self, tmp_path):
        out = tmp_path / "out"
        paths = emit_outputs(run_simulation(short_config(horizon=3)), str(out))
        old = {key: Path(path).read_bytes() for key, path in paths.items()}
        os.link(paths["records"], tmp_path / "records-link.csv")
        target = tmp_path / "elsewhere.svg"
        target.write_text("kept")
        os.unlink(paths["budgets"])
        os.symlink(target, paths["budgets"])
        new = emit_outputs(run_simulation(short_config(horizon=1)), str(out))
        assert (tmp_path / "records-link.csv").read_bytes() == old["records"]
        assert Path(new["records"]).read_bytes() != old["records"]
        assert target.read_text() == "kept"
        assert not Path(new["budgets"]).is_symlink()
        assert Path(new["budgets"]).read_text().endswith("</svg>\n")

    def test_directory_at_records_path_raises_simulation_error(self, tmp_path):
        (tmp_path / "out" / "records.csv").mkdir(parents=True)
        with pytest.raises(SimulationError, match="cannot write outputs"):
            emit_outputs(run_simulation(short_config(horizon=1)), str(tmp_path / "out"))
        assert (tmp_path / "out" / "records.csv").is_dir()

    def test_summary_csv_over_longer_file_writes_exactly_the_rows(self, tmp_path):
        rows = sweep(short_config(horizon=2), taus=(0.0, 0.5))
        write_summary_csv(rows, tmp_path / "fresh.csv")
        path = tmp_path / "sweep.csv"
        path.write_text("x" * 100_000)
        write_summary_csv(rows, path)
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

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

    def test_only_a_zero_tau_runs_the_untaxed_checks(self):
        """-0.0 equals 0 and gets the untaxed checks; the smallest positive
        float gets the taxed ones."""
        report = calibrate_check(short_config(pipeline="expert-egta"), taus=(-0.0, 5e-324))
        assert [c["name"] for c in report["checks"]] == [
            "tau=-0.0: some household in debt", "tau=-0.0: mixed economy collapses",
            "tau=5e-324: all budgets non-negative", "tau=5e-324: full mixed economy"]

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

    @pytest.mark.parametrize("pipeline", ["procedural", "generative"])
    @pytest.mark.parametrize("blocked", ["log_is_a_directory", "out_is_a_file"])
    def test_unwritable_run_out_exit_code(self, tmp_path, capsys, pipeline, blocked):
        cfg = self.write_config(tmp_path, pipeline=pipeline)
        out = tmp_path / "out"
        if blocked == "log_is_a_directory":
            (out / "requests.jsonl").mkdir(parents=True)
        else:
            out.write_text("x")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "error: cannot write outputs under" in capsys.readouterr().err

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

    def test_sweep_out_makes_its_directory(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "new" / "out"
        assert main(["sweep", "--config", cfg, "--taus", "0", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows == capsys.readouterr().out.splitlines()[1:]

    def test_sweep_rows_with_int_and_numpy_taus_as_literal_text(self, tmp_path, capsys,
                                                                monkeypatch):
        """csv writes an int tau with str and a numpy float tau, like every
        float, with float.__repr__, in summary.csv, sweep.csv and on stdout."""
        records = [YearRecord(1, 1, budget=12.5, activity=ActivityClass.BOTH),
                   YearRecord(1, 2, budget=0.1 + 0.2)]
        artifacts = RunArtifacts(short_config(tau=1), records, fallback_events=3)
        cells = [{"pipeline": "procedural", "tau": 1, "behaviour": "balanced", "seed": 7},
                 {"pipeline": "centralized", "tau": np.float64(0.25), "behaviour": "rational",
                  "seed": 8}]
        rows = [summary_row(cells[0], artifacts), summary_row(cells[1], error="E: a, b")]
        monkeypatch.setattr("rivercommons.cli.sweep", lambda base, **grid: rows)
        out = tmp_path / "out"
        assert main(["sweep", "--config", self.write_config(tmp_path),
                     "--out", str(out)]) == 0
        summary = ("pipeline,tau,behaviour,seed,min_budget_final,max_budget_final,pct_both,"
                   "pct_irrig_only,pct_fish_only,pct_none,fallback_events,error\r\n"
                   "procedural,1,balanced,7,0.30000000000000004,12.5,50.0,0.0,0.0,50.0,3,\r\n")
        table = summary + 'centralized,0.25,rational,8,,,,,,,,"E: a, b"\r\n'
        assert (out / "sweep.csv").read_bytes() == table.encode("utf-8")
        assert capsys.readouterr().out == f"sweep: {out / 'sweep.csv'}\n" + table
        path = emit_outputs(artifacts, str(tmp_path / "run"))["summary"]
        assert Path(path).read_bytes() == summary.encode("utf-8")

    @pytest.mark.parametrize("blocked", ["csv_is_a_directory", "out_is_a_file"])
    def test_unwritable_sweep_out_exit_code(self, tmp_path, capsys, blocked):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        if blocked == "csv_is_a_directory":
            (out / "sweep.csv").mkdir(parents=True)
        else:
            out.write_text("x")
        assert main(["sweep", "--config", cfg, "--taus", "0", "--out", str(out)]) == 2
        assert "error: cannot write outputs under" in capsys.readouterr().err

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

    @pytest.mark.parametrize("content", [
        None, "{not json", pytest.param(DEEP_JSON, id="too deep"), '{"row_payoffs": [[1]]}',
        '{"row_payoffs": [[1]], "col_payoffs": [[1]], "row_actions": 5}',
        '{"row_payoffs": [[1, 2]], "col_payoffs": [[1, 2]], "col_actions": "HL"}'])
    def test_solve_game_unusable_file_exit_code(self, tmp_path, capsys, content):
        game = tmp_path / "game.json"
        if content is not None:
            game.write_text(content)
        assert main(["solve-game", "--game", str(game)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(game) in err

    @pytest.mark.parametrize("row", [[["a"]], [[1, 2], [3]]])
    def test_solve_game_unusable_payoffs_exit_code(self, tmp_path, capsys, row):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"row_payoffs": row, "col_payoffs": [[1]]}))
        assert main(["solve-game", "--game", str(game)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, seed=-1)
        assert main(["run", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

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

    def test_missing_inflow_csv_exit_code(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        cfg = self.write_config(tmp_path, inflow={"csv_path": str(path)})
        assert main(["run", "--config", cfg]) == 2
        assert f"error: cannot read inflow CSV {path}" in capsys.readouterr().err

    def test_too_deep_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(DEEP_JSON)
        assert main(["run", "--config", str(path)]) == 2
        assert f"error: config file {path} is not valid JSON" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pipeline": "bogus"}))
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
