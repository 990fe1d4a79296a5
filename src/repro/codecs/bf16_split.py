"""Lossless BF16 tensor codecs built from byte codecs (the baselines).

All three baseline systems exploit the same redundancy the paper identifies
(§3.1): the 8-bit exponent plane of BF16 weights is low-entropy while sign and
mantissa are incompressible.  Each baseline therefore:

1. splits every BF16 word into its exponent byte and a packed sign+mantissa
   byte;
2. entropy-codes the exponent plane (Huffman for DFloat11, rANS for DietGPU
   and nvCOMP);
3. stores the sign+mantissa plane raw.

nvCOMP lacks native BF16 support, so — as in the paper's methodology — its
pipeline needs an extra reassembly pass that recombines the decoded exponent
plane with the raw plane (``reassembly_passes = 1``); this costs memory
traffic in the performance model, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bf16 import exponent_field, pack_sign_mantissa
from ..errors import CodecError, UnknownSpecError
from .base import EncodedStream, get_byte_codec


@dataclass
class CompressedBF16:
    """A losslessly compressed BF16 tensor (baseline format)."""

    codec: str
    shape: tuple[int, ...]
    exponent_stream: EncodedStream
    sign_mantissa: np.ndarray
    header_nbytes: int = 32

    @property
    def n_elements(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n

    @property
    def original_nbytes(self) -> int:
        """Size of the uncompressed BF16 tensor."""
        return 2 * self.n_elements

    @property
    def compressed_nbytes(self) -> int:
        """Total compressed footprint including container metadata."""
        return (
            self.exponent_stream.compressed_nbytes
            + int(self.sign_mantissa.nbytes)
            + self.header_nbytes
        )

    @property
    def ratio(self) -> float:
        """Compression ratio = original bytes / compressed bytes."""
        return self.original_nbytes / self.compressed_nbytes

    @property
    def bits_per_element(self) -> float:
        """Average storage cost per BF16 element in bits."""
        return 8.0 * self.compressed_nbytes / self.n_elements


@dataclass
class BF16LosslessCodec:
    """Split-plane BF16 codec parameterised by the exponent byte codec.

    Attributes
    ----------
    name:
        Baseline system name (``dfloat11`` / ``dietgpu`` / ``nvcomp``).
    byte_codec:
        Registered byte codec used on the exponent plane.
    reassembly_passes:
        Extra full-tensor passes the decompression pipeline performs after
        entropy decode (nvCOMP's BF16 reconstruction kernel).
    """

    name: str
    byte_codec: str
    reassembly_passes: int = 0
    extra: dict = field(default_factory=dict)

    def compress(self, weights: np.ndarray) -> CompressedBF16:
        """Compress a BF16 (uint16) tensor losslessly."""
        return self.compress_many([weights])[0]

    def compress_many(self, tensors) -> list[CompressedBF16]:
        """Compress BF16 (uint16) tensors losslessly; their exponent planes
        go through the byte codec's ``encode_many`` as one batch."""
        tensors = [np.asarray(weights) for weights in tensors]
        if any(weights.dtype != np.uint16 for weights in tensors):
            raise CodecError("weights must be BF16 bit patterns (uint16)")
        flats = [np.ascontiguousarray(weights).ravel() for weights in tensors]
        streams = get_byte_codec(self.byte_codec).encode_many(
            [exponent_field(flat) for flat in flats]
        )
        return [
            CompressedBF16(
                codec=self.name,
                shape=tuple(weights.shape),
                exponent_stream=stream,
                sign_mantissa=pack_sign_mantissa(flat),
            )
            for weights, flat, stream in zip(tensors, flats, streams)
        ]

    def decompress(self, blob: CompressedBF16) -> np.ndarray:
        """Recover the exact BF16 tensor."""
        if blob.codec != self.name:
            raise CodecError(
                f"blob was produced by {blob.codec!r}, not {self.name!r}"
            )
        exponents = get_byte_codec(self.byte_codec).decode(blob.exponent_stream)
        sm = blob.sign_mantissa
        if exponents.size != sm.size:
            raise CodecError("plane size mismatch in compressed blob")
        word = (
            ((sm.astype(np.uint16) & np.uint16(0x80)) << np.uint16(8))
            | (exponents.astype(np.uint16) << np.uint16(7))
            | (sm.astype(np.uint16) & np.uint16(0x7F))
        )
        return word.reshape(blob.shape)


#: The baseline systems benchmarked by the paper (§6).
BF16_CODECS: dict[str, BF16LosslessCodec] = {
    "dfloat11": BF16LosslessCodec(name="dfloat11", byte_codec="huffman"),
    "dietgpu": BF16LosslessCodec(name="dietgpu", byte_codec="rans"),
    "nvcomp": BF16LosslessCodec(
        name="nvcomp", byte_codec="rans", reassembly_passes=1
    ),
}


def get_bf16_codec(name: str) -> BF16LosslessCodec:
    """Look up a baseline BF16 codec by system name."""
    try:
        return BF16_CODECS[name]
    except KeyError:
        raise UnknownSpecError("bf16 codec", name, list(BF16_CODECS)) from None
