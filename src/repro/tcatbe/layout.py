"""Hierarchical tiling of TCA-TBE (§4.2, "Hierarchical Tiling Design").

Three granularities, matching GPU execution units:

* **FragTile** — 8x8, the smallest Tensor Core operand fragment.  Thread
  ``i`` of a warp owns the elements at row-major positions ``2i`` and
  ``2i + 1`` (one ``.bf16x2`` register).
* **TensorCoreTile** — 16x16, a 2x2 grid of FragTiles matching the
  ``mma.m16n8k16`` A-operand; FragTiles are stored *column-major* within it,
  mirroring operand registers Ra0..Ra3.
* **BlockTile** — 64x64, processed by one thread block; TensorCoreTiles are
  stored row-major within it, and BlockTiles row-major across the matrix.

This module defines the canonical linearisation used by the compressor,
decompressor and fused kernel: :func:`to_tiles` reorders a padded matrix into
a ``(n_tiles, 64)`` array whose rows follow exactly that hierarchy, and
:func:`from_tiles` inverts it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..utils import round_up, require_2d

#: FragTile edge (elements).
FRAG_TILE = 8
#: TensorCoreTile edge.
TC_TILE = 16
#: BlockTile edge.
BLOCK_TILE = 64
#: Elements per FragTile.
FRAG_ELEMS = FRAG_TILE * FRAG_TILE
#: FragTiles per BlockTile.
TILES_PER_BLOCK = (BLOCK_TILE // FRAG_TILE) ** 2

_TT_PER_BT = BLOCK_TILE // TC_TILE  # 4
_FT_PER_TT = TC_TILE // FRAG_TILE  # 2


def padded_shape(rows: int, cols: int) -> tuple[int, int]:
    """Round a matrix shape up to BlockTile multiples."""
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"matrix dims must be positive, got {rows}x{cols}")
    return round_up(rows, BLOCK_TILE), round_up(cols, BLOCK_TILE)


def pad_matrix(matrix: np.ndarray, pad_value: int) -> np.ndarray:
    """Pad a uint16 matrix to BlockTile multiples with ``pad_value``.

    The compressor pads with a value *inside* the exponent window so padding
    never bloats the fallback buffer; padded elements are sliced away on
    decompression.
    """
    require_2d(matrix, "matrix")
    rows, cols = matrix.shape
    prows, pcols = padded_shape(rows, cols)
    if (prows, pcols) == (rows, cols):
        return matrix
    out = np.full((prows, pcols), np.uint16(pad_value), dtype=np.uint16)
    out[:rows, :cols] = matrix
    return out


def to_tiles(padded: np.ndarray) -> np.ndarray:
    """Reorder a BlockTile-aligned matrix into ``(n_tiles, 64)`` rows.

    Row ``t`` of the result holds FragTile ``t`` of the canonical hierarchy,
    flattened in row-major (position ``p = 8*row + col``) order — the order in
    which warp lanes own elements (lane ``p // 2``, register half ``p % 2``).
    """
    require_2d(padded, "padded")
    prows, pcols = padded.shape
    if prows % BLOCK_TILE or pcols % BLOCK_TILE:
        raise ShapeError(
            f"matrix {prows}x{pcols} is not BlockTile ({BLOCK_TILE}) aligned"
        )
    mb, kb = prows // BLOCK_TILE, pcols // BLOCK_TILE
    # dims: bt_r, tt_r, ft_r, row, bt_c, tt_c, ft_c, col
    x = padded.reshape(mb, _TT_PER_BT, _FT_PER_TT, FRAG_TILE,
                       kb, _TT_PER_BT, _FT_PER_TT, FRAG_TILE)
    # order: BlockTiles row-major, TensorCoreTiles row-major, FragTiles
    # column-major (ft_c outer, ft_r inner = Ra0,Ra1,Ra2,Ra3), positions
    # row-major.
    x = x.transpose(0, 4, 1, 5, 6, 2, 3, 7)
    return np.ascontiguousarray(x.reshape(-1, FRAG_ELEMS))


def from_tiles(tiles: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`to_tiles` for a BlockTile-aligned target ``shape``."""
    prows, pcols = shape
    if prows % BLOCK_TILE or pcols % BLOCK_TILE:
        raise ShapeError(
            f"target shape {prows}x{pcols} is not BlockTile aligned"
        )
    mb, kb = prows // BLOCK_TILE, pcols // BLOCK_TILE
    expected = mb * kb * TILES_PER_BLOCK
    if tiles.shape != (expected, FRAG_ELEMS):
        raise ShapeError(
            f"tiles must have shape ({expected}, {FRAG_ELEMS}),"
            f" got {tiles.shape}"
        )
    # dims: bt_r, bt_c, tt_r, tt_c, ft_c, ft_r, row, col
    x = tiles.reshape(mb, kb, _TT_PER_BT, _TT_PER_BT,
                      _FT_PER_TT, _FT_PER_TT, FRAG_TILE, FRAG_TILE)
    x = x.transpose(0, 2, 5, 6, 1, 3, 4, 7)
    return np.ascontiguousarray(x.reshape(prows, pcols))


def tile_base_coords(prows: int, pcols: int) -> np.ndarray:
    """Top-left (row, col) of every FragTile in canonical tile order.

    Useful for tests and for the warp-level reference decoder, which works on
    one FragTile at a time.
    """
    if prows % BLOCK_TILE or pcols % BLOCK_TILE:
        raise ShapeError("shape must be BlockTile aligned")
    mb, kb = prows // BLOCK_TILE, pcols // BLOCK_TILE
    # Same nesting as to_tiles: bt_r, bt_c, tt_r, tt_c, ft_c, ft_r.
    bt_r, bt_c, tt_r, tt_c, ft_c, ft_r = np.indices(
        (mb, kb, _TT_PER_BT, _TT_PER_BT, _FT_PER_TT, _FT_PER_TT),
        dtype=np.int64,
    ).reshape(6, -1)
    return np.stack([
        bt_r * BLOCK_TILE + tt_r * TC_TILE + ft_r * FRAG_TILE,
        bt_c * BLOCK_TILE + tt_c * TC_TILE + ft_c * FRAG_TILE,
    ], axis=1)


def lane_positions(lane: int) -> tuple[int, int]:
    """In-tile positions (p0, p1) owned by warp lane ``lane`` (0..31)."""
    if not 0 <= lane < 32:
        raise ValueError(f"lane must be in [0, 32), got {lane}")
    return 2 * lane, 2 * lane + 1


def position_rc(position: int) -> tuple[int, int]:
    """Row/col of a row-major in-tile position (0..63)."""
    if not 0 <= position < FRAG_ELEMS:
        raise ValueError(f"position must be in [0, 64), got {position}")
    return position // FRAG_TILE, position % FRAG_TILE
