"""TCA-TBE decompression (the vectorised analogue of Algorithm 2).

Algorithm 2 gives each warp lane the constant-time recipe for its two
elements: OR the three bit-planes into a spatial indicator, popcount a prefix
mask for dynamic addressing, reassemble the exponent as ``base + code``.
This module performs the same steps with numpy at two granularities:

* :func:`decode_tiles` decodes any subset of FragTiles in one vector pass —
  each position's buffer offset is its tile's ``high_starts``/``low_starts``
  entry plus the prefix popcount of the indicator below it, exactly the
  per-lane addressing of Algorithm 2.  The fused ZipGEMM decodes one split-K
  chunk per call through it, and :func:`decompress_tile` is its one-tile
  case;
* :func:`decompress` rebuilds the whole matrix, where the canonical buffer
  order lets a boolean scatter replace per-position addressing.

Both are exercised against the literal per-lane reference
(:mod:`repro.tcatbe.warp_ref`) in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..bf16 import assemble, unpack_sign_mantissa
from ..errors import FormatError
from .format import TcaTbeMatrix, unpack_bitplanes
from .layout import FRAG_ELEMS, from_tiles

_POSITIONS = np.arange(FRAG_ELEMS, dtype=np.int64)


def decompress(matrix: TcaTbeMatrix) -> np.ndarray:
    """Reconstruct the exact original BF16 (uint16) matrix."""
    codes = unpack_bitplanes(matrix.bitmaps)
    in_window = codes > 0

    expected_high = int(np.count_nonzero(in_window))
    if expected_high != matrix.n_high:
        raise FormatError(
            f"bitmap indicator says {expected_high} compressed elements,"
            f" buffer holds {matrix.n_high}"
        )
    if matrix.n_padded_elements - expected_high != matrix.n_low:
        raise FormatError("fallback buffer size disagrees with bitmaps")

    tiles = np.empty((matrix.n_tiles, FRAG_ELEMS), dtype=np.uint16)

    # Case A (high-frequency path): exponent = base_exp + code, sign/mantissa
    # from the packed byte.  Boolean C-order indexing matches the canonical
    # buffer order the compressor used.
    sign, mantissa = unpack_sign_mantissa(matrix.high)
    exponent = matrix.base_exp + codes[in_window].astype(np.uint16)
    tiles[in_window] = assemble(sign, exponent, mantissa)

    # Case B (fallback path): raw 16-bit words.
    tiles[~in_window] = matrix.low

    padded = from_tiles(tiles, matrix.padded_shape)
    rows, cols = matrix.shape
    return np.ascontiguousarray(padded[:rows, :cols])


def decode_tiles(matrix: TcaTbeMatrix, tile_ids) -> np.ndarray:
    """Decode the FragTiles ``tile_ids`` to ``(len(tile_ids), 64)`` BF16
    words (canonical in-tile order), in one vector pass of Algorithm 2.

    Only the requested tiles' bitmaps and buffer segments are read.  Their
    offsets are checked before any load — indicator popcount against the
    ``high_starts`` span, ``64 - popcount`` against the ``low_starts``
    span, both segments inside their buffers — and a corrupt container
    raises :class:`FormatError` naming the first bad tile.
    """
    ids = np.asarray(tile_ids, dtype=np.int64).reshape(-1)
    out_of_range = (ids < 0) | (ids >= matrix.n_tiles)
    if out_of_range.any():
        raise FormatError(
            f"tile index {ids[out_of_range][0]} out of range"
            f" [0, {matrix.n_tiles})"
        )

    # Spatial indicator and per-position prefix popcount (idx_H); the
    # fallback rank is idx_L = p - idx_H.
    codes = unpack_bitplanes(matrix.bitmaps[ids])
    indicator = codes > 0
    inclusive = np.cumsum(indicator, axis=1)
    count = inclusive[:, -1]
    rank_high = inclusive - indicator

    h0, h1 = matrix.high_starts[ids], matrix.high_starts[ids + 1]
    l0, l1 = matrix.low_starts[ids], matrix.low_starts[ids + 1]
    bad = (
        (h1 - h0 != count) | (l1 - l0 != FRAG_ELEMS - count)
        | (h0 < 0) | (h1 > matrix.n_high) | (l0 < 0) | (l1 > matrix.n_low)
    )
    if bad.any():
        i = np.flatnonzero(bad)[np.argmin(ids[bad])]
        raise FormatError(
            f"tile {ids[i]}: offsets disagree with its bitmaps or buffers"
            f" (popcount {count[i]}, high [{h0[i]}, {h1[i]}) of"
            f" {matrix.n_high}, low [{l0[i]}, {l1[i]}) of {matrix.n_low})"
        )

    out = np.empty(codes.shape, dtype=np.uint16)
    # Case A: MakeBF16(sign, base_exp + code, mantissa), the packed byte at
    # high[h0 + idx_H].
    high_idx = h0[:, None] + rank_high
    sign, mantissa = unpack_sign_mantissa(matrix.high[high_idx[indicator]])
    exponent = matrix.base_exp + codes[indicator].astype(np.uint16)
    out[indicator] = assemble(sign, exponent, mantissa)
    # Case B: the raw fallback word at low[l0 + idx_L].
    fallback = ~indicator
    low_idx = l0[:, None] + _POSITIONS - rank_high
    out[fallback] = matrix.low[low_idx[fallback]]
    return out


def decompress_tile(matrix: TcaTbeMatrix, tile_index: int) -> np.ndarray:
    """Decode a single FragTile to its 64 BF16 words (canonical order)."""
    return decode_tiles(matrix, [tile_index])[0]
