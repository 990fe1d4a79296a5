"""The TCA-TBE compressed-matrix container and its size accounting.

Per 8x8 FragTile the format stores five buffers (§4.2):

1–3. three 64-bit bitmaps (bit-planes of the 3-bit codewords)  — 24 B/tile;
4.   PackedSignMantissa: 1 B per in-window element;
5.   FullValue: 2 B per fallback element.

At matrix level the buffers are concatenated in canonical tile order.  The
PackedSignMantissa and FullValue segments of each 64x64 BlockTile are padded
to 128-bit (16 B) alignment so the kernel can use ``LDGSTS.128`` vectorised
copies, and an Offset array stores one (high, low) start pair per BlockTile.
All of that — padding included — is counted by :class:`SizeReport` so the
compression ratios we report are the ratios a real deployment would see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError
from ..utils import popcount64, round_up
from .layout import FRAG_ELEMS, TILES_PER_BLOCK, padded_shape

#: On-disk / in-memory format version for serialized matrices.
FORMAT_VERSION = 1

#: Fixed per-matrix header: shape, base exponent, window size, buffer sizes.
HEADER_NBYTES = 64

#: Alignment (bytes) of per-BlockTile value segments (128-bit LDGSTS).
SEGMENT_ALIGN = 16

#: Offset array entry per BlockTile: two uint32 starts (high, low).
OFFSET_ENTRY_NBYTES = 8

#: Bit-planes per 3-bit codeword (one 64-bit bitmap each).
N_PLANES = 3

#: Per-plane bit masks, shaped to broadcast to ``(N_PLANES, n, 64)``.
_PLANE_MASKS = (np.uint8(1) << np.arange(N_PLANES, dtype=np.uint8))[
    :, None, None
]


def pack_bitplanes(codes: np.ndarray) -> np.ndarray:
    """Pack ``(n, 64)`` 3-bit codewords into ``(n, 3)`` uint64 bit-planes.

    Bit ``p`` of plane ``j`` is bit ``j`` of the code at position ``p``:
    ``packbits(bitorder="little")`` puts position ``p`` at bit ``p % 8`` of
    byte ``p // 8``, and a little-endian uint64 view of those eight bytes
    puts it at bit ``p``.  This is the one definition of the plane layout;
    the matrix and vector encoders and every decoder go through it.  The
    planes are packed plane-major, one contiguous bit stream each.
    """
    planes = codes & _PLANE_MASKS  # nonzero packs as a 1 bit
    packed = np.packbits(planes, bitorder="little").view("<u8")
    return np.ascontiguousarray(packed.reshape(N_PLANES, -1).T, np.uint64)


def unpack_bitplanes(bitmaps: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bitplanes`: ``(n, 3)`` planes to ``(n, 64)``
    uint8 codewords."""
    raw = np.ascontiguousarray(bitmaps.T, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    bits = bits.reshape(N_PLANES, -1, FRAG_ELEMS)
    codes = bits[1] << 1
    codes |= bits[0]
    codes |= bits[2] << 2
    return codes


@dataclass(frozen=True)
class SizeReport:
    """Byte-level breakdown of a compressed matrix."""

    bitmaps_nbytes: int
    high_nbytes: int
    low_nbytes: int
    padding_nbytes: int
    offsets_nbytes: int
    header_nbytes: int

    @property
    def total_nbytes(self) -> int:
        """Total compressed footprint."""
        return (
            self.bitmaps_nbytes
            + self.high_nbytes
            + self.low_nbytes
            + self.padding_nbytes
            + self.offsets_nbytes
            + self.header_nbytes
        )


@dataclass
class TcaTbeMatrix:
    """A BF16 matrix compressed with TCA-TBE.

    Attributes
    ----------
    shape:
        Original (rows, cols) before BlockTile padding.
    base_exp:
        Global base exponent; in-window exponents decode as
        ``base_exp + codeword``.
    window_size:
        Number of in-window exponent classes (7 for 3-bit codewords).
    bitmaps:
        ``(n_tiles, 3)`` uint64; column ``j`` is bit-plane ``j`` of the
        codewords (bit ``p`` = bit ``j`` of the code at in-tile position
        ``p``).
    high:
        Concatenated PackedSignMantissa bytes, canonical tile order.
    low:
        Concatenated FullValue uint16 words, canonical tile order.
    high_starts / low_starts:
        ``(n_tiles + 1,)`` exclusive prefix offsets into ``high`` / ``low``.
        Derived data (a real container stores per-BlockTile offsets only and
        recovers per-tile starts from bitmap popcounts); kept here for O(1)
        tile access and *not* counted into the compressed size beyond the
        per-BlockTile Offset array.
    """

    shape: tuple[int, int]
    base_exp: int
    window_size: int
    bitmaps: np.ndarray
    high: np.ndarray
    low: np.ndarray
    high_starts: np.ndarray
    low_starts: np.ndarray

    def __post_init__(self) -> None:
        if self.bitmaps.dtype != np.uint64 or self.bitmaps.ndim != 2:
            raise FormatError("bitmaps must be a 2-D uint64 array")
        if self.bitmaps.shape[1] != 3:
            raise FormatError("bitmaps must have 3 bit-plane columns")
        if self.high.dtype != np.uint8:
            raise FormatError("high buffer must be uint8")
        if self.low.dtype != np.uint16:
            raise FormatError("low buffer must be uint16")
        if not 0 <= self.base_exp <= 255 - self.window_size:
            raise FormatError(f"base_exp {self.base_exp} out of range")

    # ------------------------------------------------------------------
    # Derived counts
    # ------------------------------------------------------------------
    @property
    def padded_shape(self) -> tuple[int, int]:
        """Shape after BlockTile padding."""
        return padded_shape(*self.shape)

    @property
    def n_tiles(self) -> int:
        """Number of 8x8 FragTiles."""
        return int(self.bitmaps.shape[0])

    @property
    def n_blocks(self) -> int:
        """Number of 64x64 BlockTiles."""
        return self.n_tiles // TILES_PER_BLOCK

    @property
    def n_elements(self) -> int:
        """Original element count (before padding)."""
        return self.shape[0] * self.shape[1]

    @property
    def n_padded_elements(self) -> int:
        """Element count including BlockTile padding."""
        return self.n_tiles * FRAG_ELEMS

    @property
    def n_high(self) -> int:
        """Number of in-window (compressed) elements."""
        return int(self.high.size)

    @property
    def n_low(self) -> int:
        """Number of fallback (full-precision) elements."""
        return int(self.low.size)

    @property
    def coverage(self) -> float:
        """Fraction of (padded) elements stored in compressed form."""
        return self.n_high / self.n_padded_elements

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_report(self) -> SizeReport:
        """Byte breakdown including per-BlockTile alignment padding."""
        block_high = self._per_block_counts(self.high_starts)
        block_low = self._per_block_counts(self.low_starts)
        high_raw = int(block_high.sum())
        low_raw = int(2 * block_low.sum())
        high_padded = int(
            sum(round_up(int(c), SEGMENT_ALIGN) for c in block_high)
        )
        low_padded = int(
            sum(round_up(int(2 * c), SEGMENT_ALIGN) for c in block_low)
        )
        return SizeReport(
            bitmaps_nbytes=self.n_tiles * 24,
            high_nbytes=high_raw,
            low_nbytes=low_raw,
            padding_nbytes=(high_padded - high_raw) + (low_padded - low_raw),
            offsets_nbytes=self.n_blocks * OFFSET_ENTRY_NBYTES,
            header_nbytes=HEADER_NBYTES,
        )

    @property
    def compressed_nbytes(self) -> int:
        """Total compressed footprint in bytes."""
        return self.size_report().total_nbytes

    @property
    def original_nbytes(self) -> int:
        """Uncompressed BF16 footprint of the original matrix."""
        return 2 * self.n_elements

    @property
    def ratio(self) -> float:
        """Compression ratio (original bytes / compressed bytes)."""
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bits_per_element(self) -> float:
        """Average storage cost per (padded) element in bits."""
        return 8.0 * self.compressed_nbytes / self.n_padded_elements

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raise :class:`FormatError` if broken.

        Verifies that bitmap popcounts agree with the prefix-offset arrays
        and that buffer sizes match — the invariants the GPU decompressor's
        dynamic addressing relies on.
        """
        indicator = (
            self.bitmaps[:, 0] | self.bitmaps[:, 1] | self.bitmaps[:, 2]
        )
        counts = popcount64(indicator)
        if not np.array_equal(np.diff(self.high_starts), counts):
            raise FormatError("high_starts disagree with bitmap popcounts")
        if not np.array_equal(
            np.diff(self.low_starts), FRAG_ELEMS - counts
        ):
            raise FormatError("low_starts disagree with bitmap popcounts")
        if self.high_starts[-1] != self.high.size:
            raise FormatError("high buffer size mismatch")
        if self.low_starts[-1] != self.low.size:
            raise FormatError("low buffer size mismatch")
        # Codeword planes may only be set where the indicator is set (codes
        # 1..7 imply at least one plane bit; fallback positions are all-zero).
        for plane in range(3):
            if (self.bitmaps[:, plane] & ~indicator).any():
                raise FormatError(f"bit-plane {plane} set outside indicator")

    def _per_block_counts(self, starts: np.ndarray) -> np.ndarray:
        if (self.n_tiles % TILES_PER_BLOCK) != 0:
            raise FormatError("tile count is not BlockTile aligned")
        # starts has n_tiles + 1 entries, so this slice includes the final
        # total and diff yields one count per BlockTile.
        boundaries = starts[:: TILES_PER_BLOCK]
        return np.diff(boundaries)
