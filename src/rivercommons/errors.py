"""Exception hierarchy shared across the package, and its one rule each for the
field values of config sections and game specs (`check_fields`) and for
reading input files (`read_input`, `read_json`)."""

import functools
import json
import math
import numbers
import typing


class RiverCommonsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RiverCommonsError):
    """Invalid or inconsistent run configuration."""


class InvalidGameError(RiverCommonsError):
    """Malformed game (dimension mismatch, non-finite payoffs, bad label)."""


class SchemaError(RiverCommonsError):
    """Text that should carry structured content could not be parsed."""


class TemplateError(RiverCommonsError):
    """Prompt template rendered with missing variables."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__("unresolved placeholders: " + ", ".join(self.missing))


class TransportError(RiverCommonsError):
    """One chat-completion send failed (no stub reply, or a failed POST)."""


class SimulationError(RiverCommonsError):
    """Fatal error inside a simulation run, annotated with context."""

    def __init__(self, message, year=None, pair=None):
        self.year = year
        self.pair = pair
        ctx = [f"{k}={v}" for k, v in (("year", year), ("pair", pair)) if v is not None]
        super().__init__(message + (f" [{', '.join(ctx)}]" if ctx else ""))


def finite_real(value) -> bool:
    """The rule for a float field: real and finite, not a bool. False for NaN,
    ±inf and an integer too large for a float."""
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _real(value) -> bool:
    # bool is a number to Python but never a valid count or coefficient.
    return type(value) is float or isinstance(value, numbers.Real) and type(value) is not bool


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, annotation, default) for each field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((name, hints[name], f.default) for name, f in cls.__dataclass_fields__.items())


_LABELS = {int: "an integer", float: "a number", str: "a string",
           tuple[float, ...]: "a list of finite numbers"}


def check_fields(instance):
    """Raise ConfigurationError naming the first field of a dataclass instance
    whose value does not fit its annotation: an int is integral and a float real
    and finite, neither a bool; None fits only a field whose default is None."""
    for name, kind, default in _field_rules(type(instance)):
        value = getattr(instance, name)
        if kind is float:
            ok = type(value) is float or _real(value)
            if ok and not finite_real(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        elif kind is int:
            ok = type(value) is int or _real(value) and isinstance(value, numbers.Integral)
        elif kind == tuple[float, ...]:
            ok = isinstance(value, (list, tuple)) and all(map(finite_real, value))
        else:
            ok = isinstance(value, kind)
        if not ok and not (value is None and default is None):
            label = _LABELS.get(kind, kind.__name__)
            raise ConfigurationError(f"{name} must be {label}, got {value!r}")


def read_input(path, what: str) -> str:
    """The UTF-8 text of an input file. A file that cannot be read (missing,
    a directory) or decoded is a ConfigurationError naming `what` and `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read {what} {path}: {err}") from err


def read_json(path, what: str):
    """The JSON value of an input file, read by `read_input`. Invalid JSON,
    and JSON nested too deeply to decode, is a ConfigurationError."""
    text = read_input(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {err}") from err
