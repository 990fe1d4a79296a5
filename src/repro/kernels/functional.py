"""Bit-exact functional GEMM executors (correctness layer of ZipGEMM).

Performance is modelled analytically elsewhere; *values* are computed here.
Both executors run the exact same split-K chunk schedule and differ only in
where a chunk's weights come from:

* :func:`dense_gemm_tiled` slices them from the uncompressed weights
  (``to_tiles(pad_matrix(w))``);
* :func:`zipgemm_execute` decodes them from the TCA-TBE buffers immediately
  before use ("load-compressed, compute-decompressed", §4.3).

The schedule walks K in 64-wide chunks, one BlockTile column each.  Per
chunk, one :func:`~repro.tcatbe.decompressor.decode_tiles` call decodes
the chunk's FragTiles across all of M — every element addressed by its
tile's buffer starts plus the prefix popcount of the spatial indicator, as
each warp lane does in Algorithm 2.  The words are reshaped into
``(8 K-slices, M/8 row strips, 8, 8)`` fragments, and the 8 slice MMAs run
as batched ``(8,8) @ (8,N)`` matmuls accumulated in place.  At most one
``M x 64`` decoded chunk is live, the thread-block granularity of the
kernel's load-compressed, compute-decompressed loop.

Each row strip adds the same FragTile products in ascending K that a
per-tile loop over the canonical tile order adds (the tests pin this
against the warp-level reference decoder), and the two executors share the
schedule, so their outputs are bit-identical float32 arrays — the paper's
"bit-exact inference" property, asserted directly in the tests.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..bf16 import bf16_to_f32
from ..errors import ShapeError
from ..tcatbe.decompressor import decode_tiles
from ..tcatbe.format import TcaTbeMatrix
from ..tcatbe.layout import (
    BLOCK_TILE,
    FRAG_TILE,
    pad_matrix,
    padded_shape,
    tile_base_coords,
    to_tiles,
)
from ..utils import require_2d

#: Type of a chunk source: canonical tile ids -> ``(len(ids), 64)`` BF16
#: words, one row per FragTile.
ChunkProvider = Callable[[np.ndarray], np.ndarray]

#: FragTile-wide K slices per 64-wide chunk.
_SLICES = BLOCK_TILE // FRAG_TILE


def _pad_activations(x: np.ndarray, k_padded: int) -> np.ndarray:
    if x.dtype != np.float32:
        raise ShapeError("activations must be float32")
    require_2d(x, "activations")
    if x.shape[0] == k_padded:
        return x
    out = np.zeros((k_padded, x.shape[1]), dtype=np.float32)
    out[: x.shape[0]] = x
    return out


def _chunk_schedule(prows: int, pcols: int) -> np.ndarray:
    """Canonical tile ids per K chunk, shape ``(pcols / 64, prows / 8 * 8)``.

    Row ``c`` lists chunk ``c``'s FragTiles ordered by K slice, then by row
    strip, so a decoded chunk reshapes to ``(8, prows / 8, 8, 8)``
    fragments.
    """
    coords = tile_base_coords(prows, pcols)
    order = np.lexsort((coords[:, 0], coords[:, 1]))  # by column, then row
    return order.reshape(pcols // BLOCK_TILE, -1)


def _chunked_gemm(
    chunk_words: ChunkProvider,
    shape: tuple[int, int],
    shape_padded: tuple[int, int],
    x: np.ndarray,
) -> np.ndarray:
    """Shared split-K schedule: per chunk, 8 batched slice MMAs in ascending K.

    Both the dense reference and the fused path call this exact function,
    so their floating-point operation order is identical.
    """
    m, k = shape
    mp, kp = shape_padded
    if x.shape[0] != k:
        raise ShapeError(f"K mismatch: weights {m}x{k} vs activations {x.shape}")
    xp = _pad_activations(x, kp)
    strips = mp // FRAG_TILE
    out = np.zeros((strips, FRAG_TILE, x.shape[1]), dtype=np.float32)
    for chunk, ids in enumerate(_chunk_schedule(mp, kp)):
        # frags[s] is one contiguous (strips, 8, 8) block, so every strip's
        # product runs the same BLAS microkernel as a lone contiguous (8, 8)
        # fragment (a strided operand may get a differently-ordered one).
        frags = bf16_to_f32(chunk_words(ids)).reshape(
            _SLICES, strips, FRAG_TILE, FRAG_TILE
        )
        for s in range(_SLICES):
            col0 = chunk * BLOCK_TILE + s * FRAG_TILE
            out += frags[s] @ xp[col0:col0 + FRAG_TILE]
    return out.reshape(mp, -1)[:m]


def dense_gemm_tiled(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference BF16 GEMM over uncompressed weights (uint16 MxK)."""
    require_2d(weights, "weights")
    if weights.dtype != np.uint16:
        raise ShapeError("weights must be BF16 bit patterns (uint16)")
    padded = pad_matrix(weights, 0)
    tiles = to_tiles(padded)
    return _chunked_gemm(tiles.__getitem__, weights.shape, padded.shape, x)


def zipgemm_execute(matrix: TcaTbeMatrix, x: np.ndarray) -> np.ndarray:
    """Fused execution: decode each K chunk on the fly, then accumulate."""
    return _chunked_gemm(
        partial(decode_tiles, matrix), matrix.shape, matrix.padded_shape, x
    )


def dense_gemm_reference(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Plain ``W @ X`` in float32 (library order) for approximate checks."""
    require_2d(weights, "weights")
    if weights.dtype != np.uint16:
        raise ShapeError("weights must be BF16 bit patterns (uint16)")
    return bf16_to_f32(weights) @ x


def padded_shape_of(weights: np.ndarray) -> tuple[int, int]:
    """Convenience re-export for tests."""
    return padded_shape(*weights.shape)
