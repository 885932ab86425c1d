"""Run configuration: the config types, and the config, prompt and inflow CSV files."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .ecology import N_FISH_CLASSES, EcologyParams, RiverYear, _checked_floats
from .errors import ConfigurationError, check_fields, read_input, read_json
from .gateway import GatewayConfig

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")
BEHAVIOURS = ("altruistic", "balanced", "rational")

DEFAULT_INITIAL_FISH = (3000.0, 1500.0, 1200.0, 1000.0, 800.0) + (250.0,) * 8


@dataclass(frozen=True)
class InflowConfig:
    """The river's inflow: the CSV series that `csv_path` names (see
    `read_inflow_csv`), else the synthetic seasonal generator (seeded
    sinusoid + lognormal noise) set by the remaining fields."""

    csv_path: str = None
    mean_annual: float = 800.0
    noise_sigma: float = 0.1
    peak_month: float = 7.0          # month of the seasonal flow peak
    shape_power: float = 2.0         # sharpness of the seasonal profile

    def __post_init__(self):
        check_fields(self)
        if self.mean_annual < 0 or self.noise_sigma < 0 or self.shape_power < 0:
            raise ConfigurationError("inflow parameters must be non-negative")


def read_inflow_csv(path: str) -> tuple[RiverYear, ...]:
    """The years of a year,month,inflow CSV, in year order. An unreadable file
    (`read_input`) or unusable cell is a ConfigurationError naming the file."""
    table = {}
    reader = csv.DictReader(io.StringIO(read_input(path, "inflow CSV")))
    missing = {"year", "month", "inflow"} - set(reader.fieldnames or ())
    if missing:
        raise ConfigurationError(
            f"inflow CSV {path} lacks columns {', '.join(sorted(missing))}")
    for row in reader:
        try:
            y, m, inflow = int(row["year"]), int(row["month"]), float(row["inflow"])
        except (TypeError, ValueError) as err:
            raise ConfigurationError(
                f"inflow CSV {path} line {reader.line_num}: {err}") from err
        if not 1 <= m <= 12:
            raise ConfigurationError(
                f"inflow CSV {path} line {reader.line_num}: month must be "
                f"1 to 12, got {m}")
        if not 0 <= inflow < math.inf:
            raise ConfigurationError(
                f"inflow CSV {path} line {reader.line_num}: inflow must be "
                f"finite and non-negative, got {inflow}")
        months = table.setdefault(y, {})
        if m in months:
            raise ConfigurationError(
                f"inflow CSV {path} line {reader.line_num}: repeats year {y} month {m}")
        months[m] = inflow
    if not table:
        raise ConfigurationError(f"inflow CSV {path} holds no rows")
    for y, months in table.items():
        lacking = [m for m in range(1, 13) if m not in months]
        if lacking:
            raise ConfigurationError(
                f"inflow CSV {path} year {y} lacks months {', '.join(map(str, lacking))}")
    return tuple(RiverYear([table[y][m] for m in range(1, 13)]) for y in sorted(table))


@dataclass(frozen=True)
class RunConfig:
    pipeline: str = "procedural"
    horizon: int = 100
    n_households: int = 9
    max_fields: int = 10
    tau: float = 0.0
    behaviour: str = "balanced"
    seed: int = 0
    subsistence: float = 50.0
    initial_budget: float = 100.0
    authority_budget: float = 1000.0
    authority_window: int = 20
    low_action: int = 2              # integer mapped to the abstract "low" label
    fish_target_base: int = 5
    e_max: int = 5
    effort_cost: float = 1.0
    pair_stress_threshold: float = 6.0
    ecology: EcologyParams = field(default_factory=EcologyParams)
    initial_fish: tuple[float, ...] = DEFAULT_INITIAL_FISH
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    inflow: InflowConfig = field(default_factory=InflowConfig)
    prompts_dir: str = None

    def __post_init__(self):
        check_fields(self)
        if self.pipeline not in PIPELINES:
            raise ConfigurationError(
                f"unknown pipeline {self.pipeline!r}; valid: {', '.join(PIPELINES)}")
        if self.behaviour not in BEHAVIOURS:
            raise ConfigurationError(
                f"unknown behaviour {self.behaviour!r}; valid: {', '.join(BEHAVIOURS)}")
        if self.horizon < 1 or self.n_households < 1 or self.authority_window < 1:
            raise ConfigurationError("horizon, n_households and authority_window must be >= 1")
        if self.tau < 0:
            raise ConfigurationError("tau must be >= 0")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.max_fields < 0 or self.e_max < 0 or self.low_action < 0:
            raise ConfigurationError("action bounds must be non-negative")
        # The fish rule: 13 finite, non-negative age classes.
        object.__setattr__(self, "initial_fish", _checked_floats(
            self.initial_fish, N_FISH_CLASSES, "initial_fish classes", "initial_fish"))


def _build_section(cls, data, name):
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {data!r}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {', '.join(sorted(unknown))}")
    return cls(**data)


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    for name, cls in (("ecology", EcologyParams), ("gateway", GatewayConfig),
                      ("inflow", InflowConfig)):
        if name in data:
            data[name] = _build_section(cls, data[name], name)
    return _build_section(RunConfig, data, "config")


def load_json_object(path: str, kind: str) -> dict:
    """The JSON object in a file (`read_json`); any failure is a
    ConfigurationError."""
    data = read_json(path, f"{kind} file")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{kind} file {path} must hold a JSON object")
    return data


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file, apply defaults, validate invariants."""
    return config_from_dict(load_json_object(path, "config"))


PROMPT_FILES = ("role", "as_action", "as_extraction") + BEHAVIOURS


def load_prompts(prompts_dir: str = None) -> dict:
    """Every prompt template, from `prompts_dir` or else the packaged copies.
    A file that `read_input` rejects, or that holds only whitespace, is a
    ConfigurationError naming it."""
    root = (resources.files("rivercommons") / "prompts" if prompts_dir is None
            else Path(prompts_dir))
    prompts = {}
    for name in PROMPT_FILES:
        path = root / (name + ".txt")
        prompts[name] = read_input(path, "prompt file")
        if not prompts[name].strip():
            raise ConfigurationError(f"prompt file {path} is blank")
    return prompts
