"""Exception types shared across the package, and the config checks.

Every config dataclass's field types are checked from its annotations by
one rule set (:func:`check_fields` when it is built from Python,
:func:`_parse` when it is read from a JSON object), and every config
error, of type or of range, is a :class:`ConfigError`.
"""

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints


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


def check_unique(values, what: str) -> None:
    """A ConfigError listing the repeated items of ``values``, if any."""
    duplicates = sorted({value for value in values if values.count(value) > 1})
    if duplicates:
        raise ConfigError(f"duplicate {what}: {duplicates}")


_SCALARS = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


@cache
def _hints(cls) -> dict:
    return get_type_hints(cls)


def _instance(cls, value, key: str):
    return expect(value, key, cls, f"a {cls.__name__}")


def _typed(hint, value, key: str, section=_instance):
    """``value`` checked against the field type ``hint``: a config
    dataclass (``section(hint, value, key)`` makes or checks it),
    ``tuple[T, ...]`` (a list or tuple, stored as a tuple), ``dict[str, T]``,
    ``str``, ``int``, ``float`` (an int is kept as it is), or one of them
    ``| None``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        if value is None:
            return None
        (hint,) = set(args) - {NoneType}
        return _typed(hint, value, key, section)
    if is_dataclass(hint):
        return section(hint, value, key)
    if origin is tuple:
        items = expect(value, key, (list, tuple), "a list")
        return tuple(_typed(args[0], item, f"{key}[{i}]", section) for i, item in enumerate(items))
    if origin is dict:
        items = expect(value, key, dict, "an object")
        return {name: _typed(args[1], item, f"{key}.{name}", section) for name, item in items.items()}
    return expect(value, key, *_SCALARS[hint])


def check_fields(config) -> None:
    """Check each field of the frozen config dataclass ``config`` against
    its annotation, in place: a list becomes a tuple, a dict a copy, and a
    section field must already hold an instance of its section."""
    for name, hint in _hints(type(config)).items():
        object.__setattr__(config, name, _typed(hint, getattr(config, name), name))


def _parse(cls, payload, key: str = ""):
    """Build the config dataclass ``cls`` from the JSON object ``payload``
    (the section ``key``; empty at the top level).  Its fields are the
    allowed keys, those without a default are required, and each value must
    have its field's type; a section is parsed from its own object."""
    expect(payload, key or "config", dict, "an object")
    keys = f"keys in {key!r}" if key else "config keys"
    declared = fields(cls)
    unknown = set(payload) - {f.name for f in declared}
    if unknown:
        raise ConfigError(f"unknown {keys}: {sorted(unknown)}")
    required = {f.name for f in declared if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(payload)
    if missing:
        raise ConfigError(f"missing {keys}: {sorted(missing)}")
    hints = _hints(cls)
    return cls(**{
        name: _typed(hints[name], value, f"{key}.{name}" if key else name, _parse)
        for name, value in payload.items()
    })
