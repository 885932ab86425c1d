"""Exception hierarchy shared across the package, and the finiteness rule
every config section and game spec applies to its float fields."""

import math


class RiverCommonsError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RiverCommonsError):
    """Invalid or inconsistent run configuration."""


class InvalidGameError(RiverCommonsError):
    """Malformed game (dimension mismatch, non-finite payoffs, bad label)."""


class SchemaError(RiverCommonsError):
    """Text that should carry structured content could not be parsed.

    Carries the offending text so the caller can decide whether to retry.
    """

    def __init__(self, message, text=None):
        super().__init__(message)
        self.text = text


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


def _finite(value) -> bool:
    """False for NaN, ±inf and an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_finite(instance):
    """Raise ConfigurationError naming the first float field of a dataclass
    instance that holds NaN, ±inf or an integer too large for a float."""
    for f in instance.__dataclass_fields__.values():
        value = getattr(instance, f.name)
        if f.type in (float, "float") and not _finite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
