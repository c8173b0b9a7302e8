"""Exception types shared across the package, and the config type check."""


class MultifairError(Exception):
    """Base class for all package-specific errors."""


class DataError(MultifairError, ValueError):
    """A file or array violates the tabular data contract."""


class DegenerateAttributeError(MultifairError, ValueError):
    """An attribute cannot be split into two non-empty groups."""


class UnreachableCellError(MultifairError, ValueError):
    """A (group, label) cell has demanded weight mass but no samples to carry it."""


class MetricUndefinedError(MultifairError, ValueError):
    """A metric's denominator has no support (e.g. a group with no positives)."""


class ConfigError(MultifairError, ValueError):
    """An experiment or method configuration is inconsistent."""


class PipelineError(MultifairError, RuntimeError):
    """A pipeline stage failed; ``stage`` names where."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage, self.message = stage, message


def expect(value, key: str, kinds, noun: str):
    """``value``, if it is an instance of ``kinds``; otherwise a ConfigError
    naming the config key ``key`` and the ``noun`` it must be."""
    # bool is an int to Python but never a number in a config
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    return value
