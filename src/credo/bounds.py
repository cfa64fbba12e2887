"""Bounds on settings, each stated once, as its field's type.

A number's bound is ``Annotated[int, Range(...)]`` (or ``float``), a word's
a ``Literal`` of its choices; a tuple's items may carry either. One
checker, ``fault``, serves two readers, so they say the same thing:
``Bounded``, the base of every config class, raises a DataError naming the
field (``seed: must be >= 0, got -1``), and ``config.read_value`` a
ConfigError naming its dotted path (``config.split.seed: must be >= 0, got
-1``). A bound across two fields, in a ``__post_init__``, names its field too.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from dataclasses import dataclass
from functools import cache
from typing import Annotated, Literal

from .errors import DataError


@dataclass(frozen=True)
class Range:
    """The finite numbers from `low` up to `high` (no top if None); an open
    end leaves out its own value."""

    low: float
    high: float | None = None
    open_low: bool = False
    open_high: bool = False

    def __str__(self) -> str:
        if self.high is None:
            return f"{'>' if self.open_low else '>='} {self.low}"
        return f"in {'(' if self.open_low else '['}{self.low}, {self.high}{')' if self.open_high else ']'}"

    def fault(self, v) -> str | None:
        """What `v` breaks of this range, or None."""
        if not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int past float range
            return "expected a finite number"
        below = v <= self.low if self.open_low else v < self.low
        above = self.high is not None and (v >= self.high if self.open_high else v > self.high)
        return f"must be {self}, got {v}" if below or above else None

    def check(self, name: str, v) -> None:
        if message := self.fault(v):
            raise DataError(f"{name}: {message}")


NonNegInt = Annotated[int, Range(0)]
PosInt = Annotated[int, Range(1)]
NonNegFloat = Annotated[float, Range(0)]


def fault(hint, v) -> str | None:
    """What `v` breaks of the bound that type `hint` declares, or None."""
    if typing.get_origin(hint) is Literal:
        choices = typing.get_args(hint)
        return None if v in choices else f"expected one of {', '.join(choices)}, got {v!r}"
    return hint.__metadata__[0].fault(v)


@cache
def field_types(cls) -> dict:
    """``cls``'s resolved field annotations, bounds kept, read once per class:
    resolving them costs about 20 times as much as building a small config."""
    return typing.get_type_hints(cls, include_extras=True)


@cache
def _field_bounds(cls) -> tuple:
    """(name, bound type, whether it bounds the items) per bounded field."""
    found = []
    for f in dataclasses.fields(cls):
        hint = field_types(cls)[f.name]
        if type(None) in typing.get_args(hint):  # an optional's None is in bounds
            (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
        items = typing.get_origin(hint) is tuple
        hint = typing.get_args(hint)[0] if items else hint
        if typing.get_origin(hint) in (Annotated, Literal):
            found.append((f.name, hint, items))
    return tuple(found)


class Bounded:
    """Base of a dataclass whose field types declare their bounds."""

    def __post_init__(self):
        for name, hint, items in _field_bounds(type(self)):
            value = getattr(self, name)
            for i, v in enumerate(value if items else [value]):
                if v is not None and (message := fault(hint, v)):
                    raise DataError(f"{name}[{i}]: {message}" if items else f"{name}: {message}")
