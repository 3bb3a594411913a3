"""Typed config sections: the dataclass field annotations are the schema.

A :class:`Config` subclass is a dataclass. Each field is checked and
normalized by its annotation when the object is built, whether from Python
or from JSON:

- ``bool`` must be a bool;
- ``int`` must be an integer that is not a bool, and is stored as ``int``;
- ``float`` must be a finite number that is not a bool, and is stored as
  ``float`` (so a JSON ``0`` is written back as ``0.0``);
- ``Optional[X]`` is null or X;
- ``tuple[X, ...]``, ``tuple[X, Y]`` and a positional config (such as
  ``BranchSpec``) are lists of the right length;
- any other nested config is a JSON object read by :meth:`Config.from_dict`.

Ranges and relations between fields stay in each class's ``validate()``,
which runs after the type checks. Every failure is a :class:`ConfigError`.
"""

from __future__ import annotations

import functools
import numbers
import sys
import typing
from dataclasses import fields

from .errors import ConfigError


class Config:
    """Base of the config dataclasses; see the module docstring for the type rules."""

    #: read from and written to JSON as a list of the field values in order
    positional: typing.ClassVar[bool] = False

    def __post_init__(self):
        for name, hint in _schema(type(self)):
            # object.__setattr__ also sets the fields of frozen subclasses
            object.__setattr__(self, name, _read(hint, getattr(self, name), name))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError when a value is out of range; the types already hold."""

    def to_dict(self) -> dict:
        """JSON-ready fields in declaration order; tuples become lists."""
        return {name: _plain(getattr(self, name)) for name, _ in _schema(type(self))}

    @classmethod
    def from_dict(cls, doc, section: str | None = None):
        """Read ``cls`` from a JSON object; keys it omits keep their defaults.

        ``section`` names the object in messages. Without it the object is
        the config root, whose keys are themselves sections.
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"config {section or 'root'} must be a JSON object")
        for key in sorted(doc.keys() - dict(_schema(cls)).keys()):  # report the first
            raise ConfigError(f"unknown config key {section}.{key}" if section
                              else f"unknown config section {key!r}")
        return cls(**doc)


@functools.cache
def _schema(cls) -> tuple[tuple[str, typing.Any], ...]:
    """(name, resolved annotation) of every field of ``cls``, resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _read(hint, value, where: str):
    """``value`` checked against ``hint`` and normalized; ``where`` names it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # Optional[X] or X | None
        return None if value is None else _read(args[0], value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        hints = args[:1] * len(value) if args[-1:] == (...,) else args
        if len(value) == len(hints):
            return tuple(_read(h, v, f"{where}[{i}]")
                         for i, (h, v) in enumerate(zip(hints, value)))
    if isinstance(hint, type) and issubclass(hint, Config):
        if isinstance(value, hint):
            return value
        if not hint.positional:
            return hint.from_dict(value, where)
        return hint(*_read(tuple[tuple(h for _, h in _schema(hint))], value, where))
    if hint is bool and isinstance(value, bool):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if hint is int and isinstance(value, numbers.Integral):
            return int(value)
        # compared, not converted: an integer past the float range stays exact here
        if hint is float and abs(value) <= sys.float_info.max:
            return float(value)
    kind = {bool: "true or false", int: "an integer", float: "a finite number"}.get(
        hint, "a list of the declared length")
    raise ConfigError(f"{where} must be {kind}, got {value!r}")


def _plain(value):
    """``value`` as JSON-ready Python: configs and tuples become dicts and lists."""
    if isinstance(value, Config):
        return list(value.to_dict().values()) if value.positional else value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value
