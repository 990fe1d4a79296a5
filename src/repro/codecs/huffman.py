"""Canonical Huffman codec with a chunk-parallel container (DFloat11-style).

DFloat11 compresses the BF16 exponent plane with Huffman codes and decodes on
GPU by (1) partitioning the bitstream into chunks with recorded start offsets,
(2) extracting symbols through lookup tables, and (3) advancing a bit pointer
by the just-decoded symbol's length (§3.2 of the paper).  This module
implements exactly that container:

* canonical, length-limited Huffman codes (max 16 bits, matching a 16-bit
  peek LUT);
* chunked encoding with per-chunk bit offsets as side information;
* a chunk-parallel decoder that advances all chunks in lockstep — the Python
  analogue of one GPU thread per chunk, and the source of the divergence
  statistics used by the performance model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from .base import EncodedStream, as_u8, register_byte_codec
from .bitstream import BitReader, pack_bits

#: Default decode-table width; DFloat11 uses hierarchical LUTs, we use one
#: flat 2^16-entry table.
MAX_CODE_LEN = 16

#: Default number of symbols per independently-decodable chunk.
DEFAULT_CHUNK_SYMBOLS = 4096


def huffman_code_lengths(
    freqs: np.ndarray, max_len: int = MAX_CODE_LEN
) -> np.ndarray:
    """Compute length-limited Huffman code lengths for a 256-symbol alphabet.

    Standard two-queue/heap Huffman construction followed by a Kraft-sum
    repair pass that caps lengths at ``max_len`` (the approach used by
    practical coders such as zlib/zstd).

    Parameters
    ----------
    freqs:
        Symbol frequencies, shape ``(256,)``; zeros mean "symbol absent".
    max_len:
        Maximum permitted code length.

    Returns
    -------
    uint8 array of code lengths, 0 for absent symbols.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.shape != (256,):
        raise CodecError(f"freqs must have shape (256,), got {freqs.shape}")
    if (freqs < 0).any():
        raise CodecError("frequencies must be non-negative")

    present = np.flatnonzero(freqs > 0)
    lengths = np.zeros(256, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths

    # Heap of (weight, tiebreak, node); leaves are symbol ids, internal nodes
    # are lists of their leaf symbols so we can bump depths on merge.
    heap: list[tuple[int, int, list[int]]] = []
    counter = 0
    for sym in present:
        heap.append((int(freqs[sym]), counter, [int(sym)]))
        counter += 1
    heapq.heapify(heap)
    depth = np.zeros(256, dtype=np.int64)
    while len(heap) > 1:
        w1, _, leaves1 = heapq.heappop(heap)
        w2, _, leaves2 = heapq.heappop(heap)
        merged = leaves1 + leaves2
        depth[merged] += 1
        heapq.heappush(heap, (w1 + w2, counter, merged))
        counter += 1

    depth = np.minimum(depth, max_len)
    lengths[present] = depth[present].astype(np.uint8)

    # Kraft repair: clamping may overfill the code space.  Each increment of a
    # length ell < max_len frees 2^(max_len - ell - 1) units of 2^-max_len.
    unit = 1 << max_len
    kraft = int(np.sum(unit >> lengths[present].astype(np.int64)))
    while kraft > unit:
        candidates = lengths[present].astype(np.int64)
        candidates[candidates >= max_len] = -1  # not adjustable
        deepest = present[int(np.argmax(candidates))]
        if lengths[deepest] >= max_len:
            raise CodecError("cannot satisfy Kraft inequality")  # pragma: no cover
        kraft -= unit >> (int(lengths[deepest]) + 1)
        lengths[deepest] += 1
    return lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical (lexicographic-by-length) codes for given lengths."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    codes = np.zeros(256, dtype=np.uint32)
    order = sorted(np.flatnonzero(lengths > 0), key=lambda s: (lengths[s], s))
    code = 0
    prev_len = 0
    for sym in order:
        ell = int(lengths[sym])
        code <<= ell - prev_len
        codes[sym] = code
        code += 1
        prev_len = ell
    return codes


def build_decode_lut(
    lengths: np.ndarray, max_len: int = MAX_CODE_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """Build a flat peek-LUT: ``max_len`` peeked bits -> (symbol, length)."""
    codes = canonical_codes(lengths)
    lut_sym = np.zeros(1 << max_len, dtype=np.uint8)
    lut_len = np.zeros(1 << max_len, dtype=np.uint8)
    for sym in np.flatnonzero(lengths > 0):
        ell = int(lengths[sym])
        start = int(codes[sym]) << (max_len - ell)
        end = start + (1 << (max_len - ell))
        lut_sym[start:end] = sym
        lut_len[start:end] = ell
    return lut_sym, lut_len


@dataclass
class HuffmanCodec:
    """Chunked canonical-Huffman byte codec."""

    chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS
    max_len: int = MAX_CODE_LEN
    name: str = "huffman"

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array; see the module docstring for the container."""
        data = as_u8(data)
        n = data.size
        if n == 0:
            return EncodedStream(
                codec=self.name,
                payload=np.zeros(0, dtype=np.uint8),
                n_symbols=0,
                header_nbytes=0,
                meta={"lengths": np.zeros(256, dtype=np.uint8)},
            )
        freqs = np.bincount(data, minlength=256)
        lengths = huffman_code_lengths(freqs, self.max_len)
        codes = canonical_codes(lengths)

        sym_lengths = lengths[data].astype(np.int64)
        buffer, total_bits = pack_bits(codes[data], sym_lengths)

        ends = np.cumsum(sym_lengths)
        starts = ends - sym_lengths
        chunk_starts = starts[:: self.chunk_symbols].astype(np.int64)

        # Container side info: 256-byte length table + one 32-bit offset per
        # chunk + a small fixed header.
        header_nbytes = 256 + 4 * chunk_starts.size + 16
        return EncodedStream(
            codec=self.name,
            payload=buffer,
            n_symbols=n,
            header_nbytes=header_nbytes,
            meta={
                "lengths": lengths,
                "chunk_bit_offsets": chunk_starts,
                "total_bits": int(total_bits),
                "chunk_symbols": int(self.chunk_symbols),
            },
        )

    def encode_many(self, arrays) -> list[EncodedStream]:
        """Encode each uint8 array (chunks are independent per array)."""
        return [self.encode(data) for data in arrays]

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Chunk-parallel decode; bit-exact inverse of :meth:`encode`."""
        n = stream.n_symbols
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        lengths = stream.meta["lengths"]
        chunk_symbols = stream.meta["chunk_symbols"]
        offsets = stream.meta["chunk_bit_offsets"].astype(np.int64).copy()
        lut_sym, lut_len = build_decode_lut(lengths, self.max_len)
        reader = BitReader(stream.payload, stream.meta["total_bits"])

        n_chunks = offsets.size
        counts = np.full(n_chunks, chunk_symbols, dtype=np.int64)
        counts[-1] = n - chunk_symbols * (n_chunks - 1)
        base = np.arange(n_chunks, dtype=np.int64) * chunk_symbols

        out = np.empty(n, dtype=np.uint8)
        for step in range(int(counts.max())):
            active = counts > step
            peek = reader.peek_vector(offsets[active], self.max_len)
            syms = lut_sym[peek]
            lens = lut_len[peek]
            if (lens == 0).any():
                raise CodecError("corrupt Huffman stream: unknown code")
            out[base[active] + step] = syms
            offsets[active] += lens
        return out

    def symbol_lengths(self, data: np.ndarray) -> np.ndarray:
        """Per-symbol code lengths for ``data`` (feeds the divergence model)."""
        data = as_u8(data)
        if data.size == 0:
            return np.zeros(0, dtype=np.uint8)
        freqs = np.bincount(data, minlength=256)
        return huffman_code_lengths(freqs, self.max_len)[data]


register_byte_codec(HuffmanCodec())
