"""Attention kernel cost models for the serving engine.

Two families:

* **vLLM-style**: PagedAttention for decode (KV-cache streaming bound) and
  FlashAttention for prefill (compute bound, no score materialisation);
* **HF-Transformers-style eager**: materialises the full score matrix in
  global memory, adding passes and launches — the main reason the
  Transformers baseline trails vLLM in Figure 16.
"""

from __future__ import annotations

from ..analysis.calibration import decode_cycles_per_element
from ..errors import ConfigError
from ..gpu.memory import TrafficRecord
from ..gpu.specs import GpuSpec
from .base import KernelProfile

#: Streaming efficiency of the paged-KV gather (block tables cost a bit).
#: Public: also the base fraction codec hooks derate for compressed
#: streaming (see ``paged_attention_decode_compressed`` and the cost layer).
PAGED_BW_FRAC = 0.80

#: Tensor-core efficiency of FlashAttention-style prefill kernels.
_FLASH_TC_FRAC = 0.60

#: Eager attention: softmax/matmul passes run at this streaming efficiency.
_EAGER_BW_FRAC = 0.70


def _check(batch: int, ctx: int, heads: int, kv_heads: int, head_dim: int):
    if min(batch, ctx, heads, kv_heads, head_dim) <= 0:
        raise ConfigError("attention dims must be positive")
    if heads % kv_heads:
        raise ConfigError(
            f"query heads {heads} not divisible by kv heads {kv_heads}"
        )


def paged_attention_decode(
    spec: GpuSpec,
    batch: int,
    ctx: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
) -> KernelProfile:
    """One decode-step attention over a paged KV cache (per layer).

    Dominated by streaming K and V for every sequence in the batch:
    ``2 (K and V) * ctx * kv_heads * head_dim * 2 B`` per sequence.
    """
    _check(batch, ctx, heads, kv_heads, head_dim)
    kv_bytes = 2.0 * batch * ctx * kv_heads * head_dim * 2.0
    io_bytes = 2.0 * batch * heads * head_dim * 2.0  # q in, out
    flops = 2.0 * 2.0 * batch * heads * ctx * head_dim  # qk + av
    mem_time = (kv_bytes + io_bytes) / (
        spec.dram_bytes_per_s * PAGED_BW_FRAC
    )
    compute_time = flops / (spec.tc_flops * _FLASH_TC_FRAC)
    time_s = max(mem_time, compute_time) + spec.launch_overhead_us * 1e-6
    return KernelProfile(
        kernel="paged_attention",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=kv_bytes + io_bytes / 2,
                              dram_write=io_bytes / 2),
        flops=flops,
        details={"mem_time_s": mem_time, "compute_time_s": compute_time},
    )


def paged_attention_decode_compressed(
    spec: GpuSpec,
    batch: int,
    ctx: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
    ratio: float,
    cycles_per_element: float | None = None,
    bw_frac: float = PAGED_BW_FRAC,
) -> KernelProfile:
    """Fused decode attention over a compressed KV cache (per layer).

    Streams ``2 * ctx * kv_dim / ratio`` bytes per sequence and pays a
    per-element decode ALU cost — the attention-side analogue of
    ZipGEMM's load-compressed / compute-decompressed trade.  The codec
    plugs in through two registry hooks: ``cycles_per_element`` (the
    in-kernel decode cost; defaults to the calibrated TBE figure) and
    ``bw_frac`` (streaming efficiency of the compressed gather; entropy
    codecs derate it below the plain paged fraction).
    """
    _check(batch, ctx, heads, kv_heads, head_dim)
    if ratio < 1.0:
        raise ConfigError(f"compression ratio must be >= 1, got {ratio}")
    if cycles_per_element is None:
        cycles_per_element = decode_cycles_per_element()

    elements = 2.0 * batch * ctx * kv_heads * head_dim
    kv_bytes = elements * 2.0 / ratio
    io_bytes = 2.0 * batch * heads * head_dim * 2.0
    flops = 2.0 * 2.0 * batch * heads * ctx * head_dim

    mem_time = (kv_bytes + io_bytes) / (spec.dram_bytes_per_s * bw_frac)
    alu_time = elements * cycles_per_element / spec.sm_cycles_per_s
    compute_time = flops / (spec.tc_flops * _FLASH_TC_FRAC)
    time_s = (
        max(mem_time, alu_time, compute_time)
        + spec.launch_overhead_us * 1e-6
    )
    return KernelProfile(
        kernel="paged_attention_compressed",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=kv_bytes + io_bytes / 2,
                              dram_write=io_bytes / 2),
        flops=flops,
        details={
            "mem_time_s": mem_time,
            "alu_time_s": alu_time,
            "compute_time_s": compute_time,
            "kv_ratio": ratio,
        },
    )


def flash_attention_prefill(
    spec: GpuSpec,
    batch: int,
    seq_len: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
) -> KernelProfile:
    """Causal FlashAttention over a prompt (per layer)."""
    _check(batch, seq_len, heads, kv_heads, head_dim)
    # Causal masking halves the score work.
    flops = 2.0 * 2.0 * batch * heads * seq_len * seq_len * head_dim * 0.5
    qkv_bytes = 3.0 * batch * seq_len * heads * head_dim * 2.0
    out_bytes = batch * seq_len * heads * head_dim * 2.0
    mem_time = (qkv_bytes + out_bytes) / (
        spec.dram_bytes_per_s * PAGED_BW_FRAC
    )
    compute_time = flops / (spec.tc_flops * _FLASH_TC_FRAC)
    time_s = max(mem_time, compute_time) + spec.launch_overhead_us * 1e-6
    return KernelProfile(
        kernel="flash_attention",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=qkv_bytes, dram_write=out_bytes),
        flops=flops,
        details={"mem_time_s": mem_time, "compute_time_s": compute_time},
    )


def eager_attention_decode(
    spec: GpuSpec,
    batch: int,
    ctx: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
) -> KernelProfile:
    """HF-eager decode attention: bmm + softmax + bmm with materialised
    scores (three launches, extra score traffic)."""
    _check(batch, ctx, heads, kv_heads, head_dim)
    kv_bytes = 2.0 * batch * ctx * kv_heads * head_dim * 2.0
    # FP32 score row per head: written by QK^T, read+written by softmax,
    # read by the AV matmul.
    score_bytes = 4.0 * batch * heads * ctx * 4.0
    flops = 2.0 * 2.0 * batch * heads * ctx * head_dim
    mem_time = (kv_bytes + score_bytes) / (
        spec.dram_bytes_per_s * _EAGER_BW_FRAC
    )
    compute_time = flops / (spec.tc_flops * _FLASH_TC_FRAC)
    time_s = max(mem_time, compute_time) + 3 * spec.launch_overhead_us * 1e-6
    return KernelProfile(
        kernel="eager_attention",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=kv_bytes + score_bytes * 0.6,
                              dram_write=score_bytes * 0.4),
        flops=flops,
        details={"mem_time_s": mem_time, "compute_time_s": compute_time},
    )


def eager_attention_prefill(
    spec: GpuSpec,
    batch: int,
    seq_len: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
) -> KernelProfile:
    """HF-eager prefill: materialises the full S x S score matrix."""
    _check(batch, seq_len, heads, kv_heads, head_dim)
    flops = 2.0 * 2.0 * batch * heads * seq_len * seq_len * head_dim * 0.5
    qkv_bytes = 4.0 * batch * seq_len * heads * head_dim * 2.0
    score_bytes = 4.0 * batch * heads * seq_len * seq_len * 4.0
    mem_time = (qkv_bytes + score_bytes) / (
        spec.dram_bytes_per_s * _EAGER_BW_FRAC
    )
    compute_time = flops / (spec.tc_flops * _FLASH_TC_FRAC)
    time_s = max(mem_time, compute_time) + 3 * spec.launch_overhead_us * 1e-6
    return KernelProfile(
        kernel="eager_attention_prefill",
        time_s=time_s,
        traffic=TrafficRecord(dram_read=qkv_bytes + score_bytes * 0.6,
                              dram_write=score_bytes * 0.4),
        flops=flops,
        details={"mem_time_s": mem_time, "compute_time_s": compute_time},
    )
