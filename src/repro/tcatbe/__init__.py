"""TCA-TBE: Tensor-Core-Aware Triple Bitmap Encoding (§4.2 of the paper).

The paper's core lossless format.  Every 8x8 FragTile of a BF16 weight matrix
is encoded as:

* three 64-bit **bitmaps** (one per bit-plane of a 3-bit codeword per
  element);
* a **PackedSignMantissa** buffer: one byte (sign + 7-bit mantissa) per
  element whose exponent lies in a globally selected window of 7 consecutive
  exponent values;
* a **FullValue** buffer: the raw 16-bit word for every other element.

Decoding is constant-time and branch-free: codeword ``c`` at position ``p``
reconstructs exponent ``base_exp + c`` (implicit lookup), and buffer offsets
come from population counts over the OR of the three bitmaps (dynamic
addressing).  See Algorithms 1 and 2 in the paper.
"""

from .analysis import (
    WindowSelection,
    average_bits,
    expected_bits_for_codeword,
    exponent_entropy,
    exponent_histogram,
    select_window,
    top_k_contiguous,
    window_coverage,
)
from .compressor import compress
from .decompressor import decode_tiles, decompress, decompress_tile
from .format import FORMAT_VERSION, SizeReport, TcaTbeMatrix
from .layout import (
    BLOCK_TILE,
    FRAG_ELEMS,
    FRAG_TILE,
    TC_TILE,
    TILES_PER_BLOCK,
    from_tiles,
    pad_matrix,
    padded_shape,
    tile_base_coords,
    to_tiles,
)
from .warp_ref import decode_tile_warp, WarpDecodeResult

__all__ = [
    "compress",
    "decompress",
    "decompress_tile",
    "decode_tiles",
    "TcaTbeMatrix",
    "SizeReport",
    "FORMAT_VERSION",
    "WindowSelection",
    "select_window",
    "window_coverage",
    "exponent_histogram",
    "exponent_entropy",
    "average_bits",
    "expected_bits_for_codeword",
    "top_k_contiguous",
    "FRAG_TILE",
    "TC_TILE",
    "BLOCK_TILE",
    "FRAG_ELEMS",
    "TILES_PER_BLOCK",
    "padded_shape",
    "pad_matrix",
    "to_tiles",
    "from_tiles",
    "tile_base_coords",
    "decode_tile_warp",
    "WarpDecodeResult",
]
