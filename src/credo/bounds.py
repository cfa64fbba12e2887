"""Bounds on settings and model arrays, each stated once, as its field's type.

A number's bound is ``Annotated[int, Range(...)]`` (or ``float``), a word's
a ``Literal`` of its choices; a tuple's items may carry either. An array's
is ``Annotated[np.ndarray, Shape(...)]``, its dims by name, and a ``Range``
beside the ``Shape`` bounds each of its values. One checker, ``fault``,
serves two readers, so they say the same thing: ``Bounded``, the base of
every config class and of every model class with arrays, raises a
DataError naming the field (``seed: must be >= 0, got -1``, ``bias: shape
(4,) must be (C,) = (3,)``), and ``config.read_value`` a ConfigError naming
its dotted path (``config.split.seed: must be >= 0, got -1``). A bound
across two fields, in a ``__post_init__``, names its field too.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from dataclasses import dataclass
from functools import cache, partial
from typing import Annotated, Literal

import numpy as np

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
        """What `v`, a number or the first value of an array out of range,
        breaks of this range, or None."""
        if isinstance(v, np.ndarray):
            inside = np.abs(v) <= sys.float_info.max
            inside &= v > self.low if self.open_low else v >= self.low
            if self.high is not None:
                inside &= v < self.high if self.open_high else v <= self.high
            return None if inside.all() else self.fault(v[~inside][0].item())
        if not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int past float range
            return "expected a finite number"
        below = v <= self.low if self.open_low else v < self.low
        above = self.high is not None and (v >= self.high if self.open_high else v > self.high)
        return f"must be {self}, got {v}" if below or above else None

    def check(self, name: str, v) -> None:
        if message := self.fault(v):
            raise DataError(f"{name}: {message}")


class Shape:
    """An array's dims, one per axis. Within one object, ``d`` is
    ``len(feature_names)`` and ``C`` the ``n_classes`` field, if it has
    them; any other name takes the size it first meets, in field order. An
    int is a fixed size."""

    def __init__(self, *dims: str | int):
        self.dims = dims

    def __str__(self) -> str:
        return str(self.dims).replace("'", "")  # (C,), (d, 2)

    def fault(self, a: np.ndarray, sizes: dict) -> str | None:
        """What array `a` breaks of this shape, or None; a name that `sizes`
        lacks takes its size from `a`."""
        fits = a.ndim == len(self.dims)
        for n, got in zip(self.dims, a.shape) if fits else ():
            fits &= (n if type(n) is int else sizes.setdefault(n, got)) == got
        if fits:
            return None
        want = tuple(sizes.get(n, n) for n in self.dims)
        return f"shape {a.shape} must be {self}" + ("" if str in map(type, want) else f" = {want}")


_GIVEN = {"d": ("feature_names", len), "C": ("n_classes", int)}  # dim: (the field that fixes it, its size)

NonNegInt = Annotated[int, Range(0)]
PosInt = Annotated[int, Range(1)]
NonNegFloat = Annotated[float, Range(0)]


def fault(hint, v) -> str | None:
    """What `v` breaks of the bound that type `hint` declares, or None."""
    if typing.get_origin(hint) is Literal:
        choices = typing.get_args(hint)
        return None if v in choices else f"expected one of {', '.join(choices)}, got {v!r}"
    return next(m for m in hint.__metadata__ if isinstance(m, Range)).fault(v)


@cache
def field_types(cls) -> dict:
    """``cls``'s resolved field annotations, bounds kept, read once per class:
    resolving them costs about 20 times as much as building a small config."""
    return typing.get_type_hints(cls, include_extras=True)


@cache
def _field_bounds(cls) -> tuple:
    """(name, Shape or None, value check or None, whether it checks the
    items) per bounded field."""
    found = []
    for f in dataclasses.fields(cls):
        hint = field_types(cls)[f.name]
        if type(None) in typing.get_args(hint):  # an optional's None is in bounds
            (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
        items = typing.get_origin(hint) is tuple
        hint = typing.get_args(hint)[0] if items else hint
        if typing.get_origin(hint) is Literal:
            found.append((f.name, None, partial(fault, hint), items))
        elif typing.get_origin(hint) is Annotated:
            shape = next((m for m in hint.__metadata__ if isinstance(m, Shape)), None)
            bound = next((m.fault for m in hint.__metadata__ if isinstance(m, Range)), None)
            found.append((f.name, shape, bound, items))
    return tuple(found)


class Bounded:
    """Base of a dataclass whose field types declare their bounds."""

    def __post_init__(self):
        fields = self.__dataclass_fields__
        sizes = {dim: size(getattr(self, f)) for dim, (f, size) in _GIVEN.items() if f in fields}
        for name, shape, check, items in _field_bounds(type(self)):
            value = getattr(self, name)
            if shape is not None and (message := shape.fault(value, sizes)):
                raise DataError(f"{name}: {message}")
            if check is None:
                continue
            for i, v in enumerate(value if items else [value]):
                if v is not None and (message := check(v)):
                    raise DataError(f"{name}[{i}]: {message}" if items else f"{name}: {message}")
