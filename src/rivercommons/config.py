"""Run configuration: the config types, JSON config files and prompt files."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .ecology import N_FISH_CLASSES, EcologyParams, _checked_floats
from .errors import ConfigurationError, check_fields
from .gateway import GatewayConfig

PIPELINES = ("procedural", "generative", "naive-egta", "expert-egta", "centralized")
BEHAVIOURS = ("altruistic", "balanced", "rational")

DEFAULT_INITIAL_FISH = (3000.0, 1500.0, 1200.0, 1000.0, 800.0) + (250.0,) * 8


@dataclass(frozen=True)
class InflowConfig:
    """The river's inflow: a CSV series with columns year, month, inflow when
    `csv_path` names an existing file, else the synthetic seasonal generator
    (seeded sinusoid + lognormal noise) set by the remaining fields."""

    csv_path: str = None
    mean_annual: float = 800.0
    noise_sigma: float = 0.1
    peak_month: float = 7.0          # month of the seasonal flow peak
    shape_power: float = 2.0         # sharpness of the seasonal profile

    def __post_init__(self):
        check_fields(self)
        if self.mean_annual < 0 or self.noise_sigma < 0 or self.shape_power < 0:
            raise ConfigurationError("inflow parameters must be non-negative")


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
    """The JSON object in a file; any failure is a ConfigurationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read {kind} file {path}: {err}") from err
    except ValueError as err:
        raise ConfigurationError(f"{kind} file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigurationError(f"{kind} file {path} must hold a JSON object")
    return data


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file, apply defaults, validate invariants."""
    return config_from_dict(load_json_object(path, "config"))


PROMPT_FILES = ("role", "as_action", "as_extraction",
                "altruistic", "balanced", "rational")


def load_prompts(prompts_dir: str = None) -> dict:
    """Every prompt template, from `prompts_dir` or else the packaged copies.
    A file that cannot be read or decoded as UTF-8, or holds only
    whitespace, is a ConfigurationError naming it."""
    root = (resources.files("rivercommons") / "prompts" if prompts_dir is None
            else Path(prompts_dir))
    prompts = {}
    for name in PROMPT_FILES:
        path = root / (name + ".txt")
        try:
            prompts[name] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigurationError(f"cannot read prompt file {path}: {err}") from err
        if not prompts[name].strip():
            raise ConfigurationError(f"prompt file {path} is blank")
    return prompts
