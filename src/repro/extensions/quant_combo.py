"""Lossless compression atop lossy quantisation (§7).

"ZipServ is orthogonal to lossy methods and can be applied atop quantized
weights to exploit residual redundancy."  INT8 weights of a Gaussian layer
are not quite uniform — row-wise absmax quantisation leaves ~7.2-7.7 bits
of entropy — so an entropy coder shaves a further ~5-10% off the already-
quantised model, and a fused dequant+decode GEMM keeps the bandwidth win.

* functional: row-wise absmax INT8 quantisation, rANS compression of the
  quantised plane, exact round-trip *at the INT8 level* (the quantisation
  itself is lossy by definition; the compression adds zero further error);
* performance: :func:`zipquant_gemm`, a Marlin-with-compressed-weights
  kernel model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.calibration import SATURATION_CTAS_FRAC_FUSED, TC_EFFICIENCY, decode_cycles_per_element
from ..bf16 import bf16_to_f32, f32_to_bf16
from ..codecs.base import EncodedStream
from ..codecs.rans import RansCodec
from ..errors import ConfigError, FormatError
from ..gpu.memory import TrafficRecord
from ..gpu.specs import GpuSpec
from ..kernels.base import KernelProfile, saturation_fraction
from ..utils import ceil_div

_RANS = RansCodec()


@dataclass
class QuantizedLayer:
    """Row-wise absmax INT8 quantisation of a BF16 weight matrix."""

    q: np.ndarray       # int8 (m, k)
    scales: np.ndarray  # float32 (m,)

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.q.shape)

    @property
    def nbytes(self) -> int:
        """INT8 plane + scales."""
        return int(self.q.nbytes + self.scales.nbytes)


def quantize_int8(weights: np.ndarray) -> QuantizedLayer:
    """Row-wise absmax INT8 quantisation of BF16 (uint16) weights."""
    weights = np.asarray(weights)
    if weights.dtype != np.uint16 or weights.ndim != 2:
        raise FormatError("weights must be a 2-D BF16 (uint16) matrix")
    values = bf16_to_f32(weights)
    absmax = np.abs(values).max(axis=1)
    scales = np.where(absmax > 0, absmax / 127.0, 1.0).astype(np.float32)
    q = np.clip(
        np.rint(values / scales[:, None]), -127, 127
    ).astype(np.int8)
    return QuantizedLayer(q=q, scales=scales)


def dequantize_int8(layer: QuantizedLayer) -> np.ndarray:
    """INT8 -> BF16 dequantisation (the lossy inverse)."""
    values = layer.q.astype(np.float32) * layer.scales[:, None]
    return f32_to_bf16(values)


@dataclass
class CompressedQuantizedLayer:
    """Entropy-compressed INT8 layer (lossless w.r.t. the INT8 plane)."""

    shape: tuple[int, int]
    stream: EncodedStream
    scales: np.ndarray

    @property
    def compressed_nbytes(self) -> int:
        """Entropy-coded plane + scales."""
        return self.stream.compressed_nbytes + int(self.scales.nbytes)

    @property
    def int8_nbytes(self) -> int:
        """Uncompressed INT8 footprint."""
        return self.shape[0] * self.shape[1] + int(self.scales.nbytes)

    @property
    def ratio_vs_int8(self) -> float:
        """Residual-redundancy gain on top of quantisation."""
        return self.int8_nbytes / max(self.compressed_nbytes, 1)

    @property
    def bits_per_weight(self) -> float:
        """Effective storage per weight after both stages."""
        return 8.0 * self.compressed_nbytes / (self.shape[0] * self.shape[1])


def compress_quantized(layer: QuantizedLayer) -> CompressedQuantizedLayer:
    """rANS-compress the INT8 plane (bias to unsigned bytes first)."""
    return compress_quantized_many([layer])[0]


def compress_quantized_many(layers) -> list[CompressedQuantizedLayer]:
    """:func:`compress_quantized` over several layers, whose INT8 planes
    go through one batched rANS encode."""
    streams = _RANS.encode_many([
        (layer.q.astype(np.int16) + 128).astype(np.uint8).ravel()
        for layer in layers
    ])
    return [
        CompressedQuantizedLayer(
            shape=layer.shape, stream=stream, scales=layer.scales
        )
        for layer, stream in zip(layers, streams)
    ]


def decompress_quantized(blob: CompressedQuantizedLayer) -> QuantizedLayer:
    """Exact inverse of :func:`compress_quantized`."""
    as_bytes = _RANS.decode(blob.stream)
    q = (as_bytes.astype(np.int16) - 128).astype(np.int8).reshape(blob.shape)
    return QuantizedLayer(q=q, scales=blob.scales)


def zipquant_gemm(
    spec: GpuSpec,
    m: int,
    k: int,
    n: int,
    bits_per_weight: float = 7.4,
) -> KernelProfile:
    """Fused decode + dequant + GEMM over compressed INT8 weights.

    Marlin-style mixed-precision kernel whose weight stream carries
    ``bits_per_weight`` (entropy-coded INT8, ~7.4 bits measured on Gaussian
    layers) instead of 8.
    """
    if min(m, k, n) <= 0:
        raise ConfigError("GEMM dims must be positive")
    if not 1.0 <= bits_per_weight <= 8.0:
        raise ConfigError("bits_per_weight must be in [1, 8]")
    ctas = ceil_div(m, 64) * ceil_div(n, 128)
    sat = saturation_fraction(spec, ctas, SATURATION_CTAS_FRAC_FUSED)
    w_bytes = m * k * bits_per_weight / 8.0
    x_bytes = 2.0 * k * n
    y_bytes = 2.0 * m * n
    mem_time = (w_bytes + x_bytes + y_bytes) / (
        spec.dram_bytes_per_s * spec.fused_bw_frac * sat
    )
    # Decode (entropy + dequant) costs slightly more ALU than TCA-TBE.
    alu_time = (
        float(m) * k * 1.2 * decode_cycles_per_element()
        / spec.sm_cycles_per_s
    )
    flops = 2.0 * m * n * k
    tc_time = flops / (spec.tc_flops * TC_EFFICIENCY)
    time_s = max(mem_time, alu_time, tc_time) + spec.launch_overhead_us * 1e-6
    return KernelProfile(
        kernel="zipquant_gemm",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=w_bytes + x_bytes,
                              dram_write=y_bytes),
        flops=flops,
        details={
            "mem_time_s": mem_time,
            "alu_time_s": alu_time,
            "tc_time_s": tc_time,
            "bits_per_weight": bits_per_weight,
        },
    )
