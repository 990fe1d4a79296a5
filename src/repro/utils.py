"""Small shared helpers used across the library."""

from __future__ import annotations

import math
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
