"""Vector-TBE: the 1-D adaptation of TCA-TBE (§7, extension direction 1).

The paper's first future-work item is adapting TCA-TBE to lossless KV-cache
compression.  KV blocks are small (16 tokens x kv_dim) and stream-appended,
so the 64x64 BlockTile hierarchy does not apply; what carries over is the
core encoding — a 3-bit codeword per element stored as three 64-bit
bit-planes per 64-element group, one packed sign+mantissa byte per in-window
element, and full 16-bit fallbacks — which keeps decoding constant-time and
branch-free for the attention kernel.

This module implements that 1-D variant over arbitrary-length uint16
vectors.  It is shared by the KV-cache extension and the checkpoint
compressor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bf16 import assemble, exponent_field, pack_sign_mantissa, unpack_sign_mantissa
from ..errors import FormatError
from ..utils import ceil_div, popcount64
from .analysis import WINDOW_SIZE, WindowSelection, exponent_histogram, select_window
from .format import pack_bitplanes, unpack_bitplanes

#: Elements per bitmap group (three 64-bit planes cover 64 elements).
GROUP = 64


@dataclass
class VecTbe:
    """A losslessly compressed BF16 vector (1-D triple-bitmap encoding)."""

    length: int
    base_exp: int
    window_size: int
    bitmaps: np.ndarray  # (n_groups, 3) uint64
    high: np.ndarray     # packed sign+mantissa bytes
    low: np.ndarray      # fallback uint16 words
    high_starts: np.ndarray
    low_starts: np.ndarray

    def __post_init__(self) -> None:
        if self.bitmaps.dtype != np.uint64 or self.bitmaps.shape[1:] != (3,):
            raise FormatError("bitmaps must be an (n_groups, 3) uint64 array")
        if not 0 <= self.base_exp <= 255 - self.window_size:
            raise FormatError(f"base_exp {self.base_exp} out of range")

    @property
    def n_groups(self) -> int:
        """Number of 64-element groups (last one may be partial)."""
        return int(self.bitmaps.shape[0])

    @property
    def compressed_nbytes(self) -> int:
        """Footprint: bit-planes + value buffers + per-vector header."""
        return int(
            24 * self.n_groups + self.high.nbytes + self.low.nbytes + 16
        )

    @property
    def original_nbytes(self) -> int:
        """Uncompressed BF16 footprint."""
        return 2 * self.length

    @property
    def ratio(self) -> float:
        """Compression ratio."""
        return self.original_nbytes / max(self.compressed_nbytes, 1)

    @property
    def coverage(self) -> float:
        """Fraction of elements on the compressed (in-window) path."""
        if self.length == 0:
            return 0.0
        return int(self.high.size) / self.length

    def validate(self) -> None:
        """Check popcount/offset consistency (same invariants as 2-D)."""
        indicator = (
            self.bitmaps[:, 0] | self.bitmaps[:, 1] | self.bitmaps[:, 2]
        )
        counts = popcount64(indicator)
        if counts.sum() != self.high.size:
            raise FormatError("high buffer disagrees with bitmap popcounts")
        if not np.array_equal(np.diff(self.high_starts), counts):
            raise FormatError("high_starts disagree with bitmap popcounts")
        if self.high.size + self.low.size != self.length:
            raise FormatError("value buffers do not cover the vector")


def compress_vector(
    values: np.ndarray,
    window: WindowSelection | None = None,
    window_size: int = WINDOW_SIZE,
) -> VecTbe:
    """Compress a 1-D BF16 (uint16) vector; bit-exact round trip."""
    flat = np.asarray(values)
    if flat.dtype != np.uint16:
        raise FormatError("values must be BF16 bit patterns (uint16)")
    flat = np.ascontiguousarray(flat).ravel()
    n = int(flat.size)
    if window is None:
        window = select_window(exponent_histogram(flat), window_size)

    n_groups = ceil_div(max(n, 1), GROUP)
    padded = np.zeros(n_groups * GROUP, dtype=np.uint16)
    padded[:n] = flat
    groups = padded.reshape(n_groups, GROUP)

    exponents = exponent_field(groups).astype(np.int16)
    in_window = (exponents >= window.start) & (exponents < window.stop)
    # Padding tail: force fallback lane, then drop it from the buffers.
    tail = np.zeros_like(in_window)
    if n % GROUP:
        tail[-1, n % GROUP:] = True
    in_window &= ~tail

    codes = np.where(
        in_window, (exponents - window.base_exp).astype(np.uint8), 0
    ).astype(np.uint8)
    bitmaps = pack_bitplanes(codes)

    packed = pack_sign_mantissa(groups)
    high = np.ascontiguousarray(packed[in_window])
    low_mask = ~in_window & ~tail
    low = np.ascontiguousarray(groups[low_mask])

    counts = in_window.sum(axis=1, dtype=np.int64)
    high_starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    low_counts = low_mask.sum(axis=1, dtype=np.int64)
    low_starts = np.concatenate([[0], np.cumsum(low_counts)]).astype(np.int64)

    return VecTbe(
        length=n,
        base_exp=window.base_exp,
        window_size=window.size,
        bitmaps=bitmaps,
        high=high,
        low=low,
        high_starts=high_starts,
        low_starts=low_starts,
    )


def decompress_vector(blob: VecTbe) -> np.ndarray:
    """Recover the exact BF16 vector."""
    n_groups = blob.n_groups
    codes = unpack_bitplanes(blob.bitmaps)
    in_window = codes > 0

    out = np.zeros(n_groups * GROUP, dtype=np.uint16)
    flat_mask = in_window.reshape(-1)
    # Valid (non-padding) positions.
    valid = np.zeros(n_groups * GROUP, dtype=bool)
    valid[: blob.length] = True

    if flat_mask.sum() != blob.high.size:
        raise FormatError("bitmap indicator disagrees with high buffer")
    sign, mantissa = unpack_sign_mantissa(blob.high)
    exponent = blob.base_exp + codes.reshape(-1)[flat_mask].astype(np.uint16)
    out[flat_mask] = assemble(sign, exponent, mantissa)

    low_positions = valid & ~flat_mask
    if low_positions.sum() != blob.low.size:
        raise FormatError("fallback buffer size mismatch")
    out[low_positions] = blob.low
    return out[: blob.length].copy()
