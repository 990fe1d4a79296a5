"""The offline TCA-TBE compressor (Algorithm 1), fully vectorised.

Phase I profiles the global exponent histogram and selects the max-coverage
window of 7 consecutive exponents; Phase II encodes every 8x8 tile into the
triple-bitmap + two-buffer representation.  The per-tile loop of Algorithm 1
is expressed here as whole-matrix numpy operations over the canonical
``(n_tiles, 64)`` tile view, which keeps multi-hundred-megabyte layers
tractable in Python.
"""

from __future__ import annotations

import numpy as np

from ..bf16 import exponent_field, pack_sign_mantissa
from ..errors import ShapeError
from ..utils import popcount64, require_2d
from .analysis import WINDOW_SIZE, WindowSelection, exponent_histogram, select_window
from .format import TcaTbeMatrix, pack_bitplanes
from .layout import FRAG_ELEMS, pad_matrix, to_tiles


def compress(
    weights: np.ndarray,
    window: WindowSelection | None = None,
    window_size: int = WINDOW_SIZE,
) -> TcaTbeMatrix:
    """Compress a BF16 (uint16) matrix into TCA-TBE.

    Parameters
    ----------
    weights:
        2-D uint16 array of BF16 bit patterns.
    window:
        Pre-selected exponent window; by default Phase I selects the
        max-coverage window from the matrix's own histogram.  Passing a
        window allows model-global (rather than per-matrix) bases.
    window_size:
        Number of in-window exponent classes; 7 matches the 3-bit codeword.

    Returns
    -------
    :class:`~repro.tcatbe.format.TcaTbeMatrix`
        The round-trip ``decompress(compress(w)) == w`` is bit-exact.
    """
    require_2d(weights, "weights")
    if weights.dtype != np.uint16:
        raise ShapeError("weights must be BF16 bit patterns (uint16)")
    if window is None:
        window = select_window(exponent_histogram(weights), window_size)
    if window.size != window_size:
        raise ShapeError(
            f"window size {window.size} != requested {window_size}"
        )

    # Pad with an in-window value (exponent = window.start, +0 mantissa) so
    # padding compresses instead of polluting the fallback buffer.
    pad_value = np.uint16(window.start << 7)
    padded = pad_matrix(weights, pad_value)
    tiles = to_tiles(padded)  # (n_tiles, 64), row-major positions

    # uint8 wrap-around: every exponent below the window compares large.
    exponents = exponent_field(tiles)
    in_window = (exponents - np.uint8(window.start)) < window.size
    codes = (exponents - np.uint8(window.base_exp)) * in_window
    bitmaps = pack_bitplanes(codes)

    packed = pack_sign_mantissa(tiles)
    high = packed[in_window]  # C-order flatten == canonical tile order
    low = tiles[~in_window]

    # Per-tile in-window counts are the popcounts of the spatial indicator.
    counts = popcount64(bitmaps[:, 0] | bitmaps[:, 1] | bitmaps[:, 2])
    high_starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    low_starts = np.concatenate(
        [[0], np.cumsum(FRAG_ELEMS - counts)]
    ).astype(np.int64)

    return TcaTbeMatrix(
        shape=tuple(weights.shape),
        base_exp=window.base_exp,
        window_size=window.size,
        bitmaps=bitmaps,
        high=np.ascontiguousarray(high),
        low=np.ascontiguousarray(low),
        high_starts=high_starts,
        low_starts=low_starts,
    )
