"""Small shared helpers used across the library."""

from __future__ import annotations

import functools
import math
import operator
import typing
from dataclasses import MISSING, field, fields, is_dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, ShapeError

#: Bytes per gibibyte; the paper reports weight footprints in GiB.
GIB = float(1 << 30)

#: Bytes per mebibyte.
MIB = float(1 << 20)


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def round_up(value: int, multiple: int) -> int:
    """Round ``value`` up to the nearest multiple of ``multiple``."""
    return ceil_div(value, multiple) * multiple


def human_bytes(n: float) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``'14.96 GiB'``."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    units = ["B", "KiB", "MiB", "GiB", "TiB"]
    value = float(n)
    for unit in units:
        if value < 1024.0 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def human_time(seconds: float) -> str:
    """Render a duration with an appropriate unit (ns/us/ms/s)."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def require_finite(**values: float | None) -> None:
    """Raise :class:`ConfigError` naming the first NaN or infinite value
    (``None`` passes: it means "not set")."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


#: ``bounded`` keyword -> (the comparison a value must pass, its symbol).
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
           "lt": (operator.lt, "<"), "le": (operator.le, "<=")}


def bounded(default=MISSING, *, inf_ok=False, choices=(), **bounds):
    """A config dataclass field with a declared range for
    :func:`check_fields`: any of ``gt``, ``ge``, ``lt`` and ``le``, or
    the ``choices`` a ``str`` field may take.  ``inf_ok`` lets ``inf``
    mean "no bound"."""
    return field(default=default, metadata={
        "bounds": [(*_BOUNDS[op], bound) for op, bound in bounds.items()],
        "inf_ok": inf_ok, "choices": choices,
    })


@functools.cache
def _contract(cls: type) -> tuple:
    """The checked fields of ``cls``, resolved once per class.  A field
    is checked when its annotation is ``int``, ``float``, ``bool``, a
    dataclass or a ``str`` with ``choices``, or one of these ``| None``;
    any other field is left to explicit lines in ``__post_init__``."""
    hints = typing.get_type_hints(cls)
    contract = []
    for f in fields(cls):
        kind = hints[f.name]
        args = typing.get_args(kind)
        optional = len(args) == 2 and type(None) in args
        if optional:
            kind = next(a for a in args if a is not type(None))
        meta = {"bounds": (), "inf_ok": False, "choices": (), **f.metadata}
        if meta["choices"] or kind in (int, float, bool) or is_dataclass(kind):
            accepted = (int, float) if kind is float else kind
            contract.append((f.name, kind.__name__, accepted, optional,
                             meta["bounds"], meta["inf_ok"], meta["choices"]))
    return tuple(contract)


def check_fields(config) -> None:
    """Raise :class:`ConfigError` naming the first field of the config
    dataclass ``config`` that breaks its declared contract.  An ``int``
    is a Python ``int``, never a ``bool`` or a float; a ``float`` is an
    ``int`` or a ``float`` but never a ``bool``; a ``bool`` or nested
    config field holds an instance of its type; only an ``X | None``
    field takes ``None``.  NaN always fails, ``inf`` unless declared
    ``inf_ok``; bounds and choices come from :func:`bounded`.  Values
    are checked, never converted."""
    for name, kind, accepted, optional, bounds, inf_ok, choices in (
        _contract(type(config))
    ):
        value = getattr(config, name)
        if value is None and optional:
            continue
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and kind != "bool"
        ):
            a = "an" if kind[0] in "aeiouAEIOU" else "a"
            raise ConfigError(f"{name} must be {a} {kind}, got {value!r}")
        if isinstance(value, float) and (
            math.isnan(value) or (math.isinf(value) and not inf_ok)
        ):
            raise ConfigError(f"{name} must be finite, got {value}")
        for op, symbol, bound in bounds:
            if not op(value, bound):
                raise ConfigError(
                    f"{name} must be {symbol} {bound}, got {value}"
                )
        if choices and value not in choices:
            raise ConfigError(
                f"{name} must be one of {choices}, got {value!r}"
            )


def require_2d(array: np.ndarray, name: str = "array") -> None:
    """Raise :class:`ShapeError` unless ``array`` is two-dimensional."""
    if array.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {array.shape}")


def require_dtype(array: np.ndarray, dtype: type, name: str = "array") -> None:
    """Raise :class:`ShapeError` unless ``array`` has the given dtype."""
    if array.dtype != np.dtype(dtype):
        raise ShapeError(
            f"{name} must have dtype {np.dtype(dtype)}, got {array.dtype}"
        )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; the paper averages speedups this way."""
    items = [float(v) for v in values]
    if not items:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def popcount64(values: np.ndarray) -> np.ndarray:
    """Vectorised population count for a uint64 array.

    numpy<2 lacks ``bit_count`` on arrays; this parallel-bit trick is portable
    and branch-free, mirroring the GPU ``__popc``/``POPC`` instruction used by
    the ZipGEMM decompressor.
    """
    v = np.asarray(values, dtype=np.uint64).copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    v -= (v >> np.uint64(1)) & m1
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return ((v * h) >> np.uint64(56)).astype(np.int64)
