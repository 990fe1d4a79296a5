"""Step cost models: the time side of the serving simulator.

This is the **cost layer** of the three-layer serving architecture
(costs -> scheduling -> serving core).  A :class:`StepCostModel` answers one
question — "how long does this engine step take?" — and nothing else: it
owns the linear/attention/elementwise/dispatch accounting that used to live
inside ``InferenceEngine``, so schedulers and serving loops can be written
against a narrow protocol and tested with toy models.

Three implementations:

* :class:`EngineCostModel` — the real thing: per-backend linear execution
  (cuBLAS / stage-aware TCA-TBE / decompress-per-use), paged or eager
  attention with optional Vector-TBE KV compression, ring all-reduces under
  tensor parallelism, and per-kernel dispatch gaps;
* :class:`MemoizedStepCostModel` — a caching wrapper that buckets decode
  context lengths and batched token counts so long traces stop recomputing
  near-identical steps (the ``benchmarks/bench_serving.py`` speedup);
* anything test code supplies that satisfies :class:`StepCostModel`.

Invariants this layer guarantees (tested in ``tests/test_costs.py`` and
``benchmarks/bench_serving.py``):

* **purity** — a cost model never mutates scheduler or request state;
  the same (batch, context, chunk) query always prices identically, which
  is what makes memoization and the core's fast-forward legal at all.
* **bounded memoization drift** — :class:`MemoizedStepCostModel` rounds
  contexts and token counts *up* to the bucket edge, never down: a
  bucketed step is never cheaper than the exact step, and never more than
  one ``ctx_bucket`` of context / one ``token_bucket`` of tokens more
  expensive.  The drift is therefore one-sided and bounded per step
  (makespans inflate by a few percent at ``ctx_bucket=64``, see the
  benchmark's 1.03x ceiling), but it *is* config-dependent — keep buckets
  small relative to typical contexts.
* **cache isolation** — returned :class:`StepBreakdown` objects are
  copies; callers accumulating into them cannot poison the cache.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from ..analysis.calibration import decode_cycles_per_element
from ..compression import CompressionSpec, get_codec, resolve_spec
from ..errors import ConfigError
from ..gpu.specs import GpuSpec
from ..kernels.attention import (
    PAGED_BW_FRAC,
    eager_attention_decode,
    eager_attention_prefill,
    flash_attention_prefill,
    paged_attention_decode,
    paged_attention_decode_compressed,
)
from ..kernels.pipeline import linear_profile
from ..utils import ceil_div
from .backends import BackendConfig
from .models import ModelSpec
from .parallel import allreduce_time, shard_layer
from .weights import estimate_layer_compression, layer_sigma

#: Backend linear modes map onto these registry codecs when no explicit
#: ``weight_codec`` is configured (the pre-registry behaviour).
_BACKEND_WEIGHT_CODECS = {
    "cublas": "none",
    "stage_aware": "tcatbe",
    "decoupled_per_use": "dfloat11",
}


@dataclass
class StepBreakdown:
    """Time composition of one engine step (seconds)."""

    linear_s: float = 0.0
    attention_s: float = 0.0
    comm_s: float = 0.0
    other_s: float = 0.0
    dispatch_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Wall time of the step."""
        return (
            self.linear_s + self.attention_s + self.comm_s
            + self.other_s + self.dispatch_s
        )

    def scaled(self, factor: float) -> "StepBreakdown":
        """Component-wise scaling (used for averaging)."""
        return StepBreakdown(
            linear_s=self.linear_s * factor,
            attention_s=self.attention_s * factor,
            comm_s=self.comm_s * factor,
            other_s=self.other_s * factor,
            dispatch_s=self.dispatch_s * factor,
        )

    def add(self, other: "StepBreakdown") -> None:
        """Accumulate another breakdown."""
        self.linear_s += other.linear_s
        self.attention_s += other.attention_s
        self.comm_s += other.comm_s
        self.other_s += other.other_s
        self.dispatch_s += other.dispatch_s


@runtime_checkable
class StepCostModel(Protocol):
    """What the scheduling and serving layers need from a cost model."""

    def linear_time(self, n_tokens: int) -> tuple[float, int, float]:
        """(kernel seconds, op count, all-reduce seconds) for one pass."""
        ...

    def attention_time(self, batch: int, ctx: int, phase: str) -> float:
        """Per-step attention across all layers (one TP shard)."""
        ...

    def elementwise_time(self, n_tokens: int) -> float:
        """Norms, RoPE, activation and residual traffic per pass."""
        ...

    def decode_step(self, batch: int, ctx: int) -> StepBreakdown:
        """One decode iteration at context length ``ctx``."""
        ...

    def prefill_step(self, batch: int, prompt_len: int) -> StepBreakdown:
        """One whole-prompt prefill pass."""
        ...

    def mixed_step(
        self,
        decode_batch: int,
        decode_ctx: int,
        prefill_seqs: int,
        prefill_tokens: int,
    ) -> StepBreakdown:
        """One chunked-prefill iteration co-scheduling both token kinds."""
        ...


class EngineCostModel:
    """Analytic step costs for one (model, gpu, backend) triple.

    This is the component math formerly embedded in ``InferenceEngine``:
    linear layers per backend execution mode, attention with the KV context,
    elementwise traffic, pipeline hops, collectives and dispatch overhead.
    """

    def __init__(
        self,
        model: ModelSpec,
        gpu: GpuSpec,
        backend: BackendConfig,
        tensor_parallel: int = 1,
        pipeline_parallel: int = 1,
        kv_compression_ratio: float | None = None,
        weight_codec: str | CompressionSpec | Mapping | None = None,
        kv_codec: str | CompressionSpec | None = None,
        calibration=None,
    ):
        """``weight_codec`` / ``kv_codec`` are registry names (or resolved
        :class:`~repro.compression.CompressionSpec` objects); ``None``
        keeps the backend's historical mapping (linear mode -> weight
        codec, ``kv_compression_ratio`` -> Vector-TBE KV streaming).  An
        explicit ``kv_compression_ratio`` overrides the codec's analytic
        estimate.

        ``weight_codec`` may also be a **mapping from layer kind**
        (``qkv_proj`` / ``o_proj`` / ``gateup_proj`` / ``down_proj`` /
        ``lm_head``, with an optional ``"default"`` fallback) to a codec
        name or resolved spec — per-tensor-class codec selection, the
        form the ``"auto"`` serving slots produce.  ``calibration`` is a
        measured :class:`~repro.compression.MeasuredRatioProfile`; with
        one supplied, per-layer weight pricing and the KV spec use
        measured ratios (measured wins over analytic, explicit ratios
        still win over both)."""
        if kv_compression_ratio is not None and not (
            math.isfinite(kv_compression_ratio) and kv_compression_ratio >= 1.0
        ):
            raise ConfigError(
                "kv_compression_ratio must be finite and >= 1, got"
                f" {kv_compression_ratio}"
            )
        self.model = model
        self.gpu = gpu
        self.backend = backend
        self.tp = tensor_parallel
        self.pp = pipeline_parallel
        self.calibration = calibration
        self.kv_heads = max(1, model.n_kv_heads // tensor_parallel)
        self._linear_cache: dict[tuple, tuple[float, int, float]] = {}

        # Registry resolution happens once, here — consumers of this model
        # never look codecs up again (and never import extensions lazily
        # inside a step; that used to live in ``attention_time``).
        if weight_codec is None:
            weight_codec = _BACKEND_WEIGHT_CODECS[backend.linear_mode]
        #: Per-layer-kind resolved weight specs; ``None`` keeps the
        #: scalar analytic path bit-exactly.  Built for an explicit
        #: mapping, or for a scalar codec when a calibration profile
        #: should re-price each layer class with measured ratios.
        self.layer_specs: dict[str, CompressionSpec] | None = None
        if isinstance(weight_codec, Mapping):
            self.layer_specs = self._resolve_layer_specs(weight_codec)
        elif calibration is not None:
            scalar = resolve_spec(
                weight_codec, "weight", profile=calibration
            )
            if not scalar.resolve().identity:
                self.layer_specs = self._resolve_layer_specs(
                    {"default": weight_codec}
                )
        if self.layer_specs is not None:
            self.weight_spec = self._dominant_layer_spec()
        else:
            self.weight_spec = resolve_spec(weight_codec, "weight")
        self._weight_codec = self.weight_spec.resolve()
        if kv_codec is None:
            ratio = float(kv_compression_ratio or 1.0)
            kv_codec = "vector_tbe" if ratio > 1.0 else "none"
            self.kv_spec_c = resolve_spec(kv_codec, "kv", ratio=ratio)
        else:
            self.kv_spec_c = resolve_spec(
                kv_codec, "kv", ratio=kv_compression_ratio,
                profile=calibration,
            )
        self.kv_ratio = self.kv_spec_c.ratio
        self._kv_attention_args: tuple[float, float, float] | None = None
        if self.kv_ratio > 1.0 and backend.attention == "paged":
            codec = self.kv_spec_c.resolve()
            self._kv_attention_args = (
                self.kv_ratio,
                decode_cycles_per_element() * codec.decode_cycles_factor,
                PAGED_BW_FRAC * codec.stream_bw_frac,
            )

    # ------------------------------------------------------------------
    # Per-layer weight-spec resolution (the "auto" / calibrated path)
    # ------------------------------------------------------------------
    def _resolve_layer_specs(
        self, mapping: Mapping
    ) -> dict[str, CompressionSpec]:
        """Resolve one weight spec per layer kind at its sharded sigma.

        Values may be codec names or already-resolved specs; measured
        ratios come from ``self.calibration`` keyed by the layer's
        tensor class (``"weight:<kind>"``), with the profile's weight
        aggregate, then the analytic estimator, as fallbacks.
        """
        specs: dict[str, CompressionSpec] = {}
        for layer in self.model.linear_layers():
            value = mapping.get(layer.kind, mapping.get("default"))
            if value is None:
                raise ConfigError(
                    f"weight codec mapping misses layer kind"
                    f" {layer.kind!r} (add it or a 'default' entry);"
                    f" got {sorted(mapping)}"
                )
            layout = shard_layer(layer, self.tp)
            specs[layer.kind] = resolve_spec(
                value, "weight",
                sigma=layer_sigma(layer.kind, layout.m, layout.k),
                cls=f"weight:{layer.kind}",
                profile=self.calibration,
            )
        return specs

    def _dominant_layer_spec(self) -> CompressionSpec:
        """The spec covering the most parameters (introspection and the
        memory planner's scheme label; pricing stays per-layer)."""
        weight = {
            layer.kind: layer.params for layer in self.model.linear_layers()
        }
        kind = max(
            self.layer_specs, key=lambda k: (weight.get(k, 0), k)
        )
        return self.layer_specs[kind]

    def layer_ratios(self) -> dict[str, float] | None:
        """Per-layer-kind weight compression ratios (None on the scalar
        path) — what the memory planner turns into KV capacity."""
        if self.layer_specs is None:
            return None
        return {
            kind: spec.ratio for kind, spec in self.layer_specs.items()
        }

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def linear_time(self, n_tokens: int) -> tuple[float, int, float]:
        """(kernel seconds, op count, all-reduce seconds) for one pass."""
        key = (n_tokens,)
        if key in self._linear_cache:
            return self._linear_cache[key]
        total = 0.0
        comm = 0.0
        ops = 0
        for layer in self.model.linear_layers():
            layout = shard_layer(layer, self.tp)
            sigma = layer_sigma(layer.kind, layout.m, layout.k)
            if self.layer_specs is not None:
                spec = self.layer_specs[layer.kind]
                codec = get_codec(spec.codec)
                # The registry's own coverage math at this layer's
                # sigma, with the spec's (possibly measured) ratio
                # swapped in over the analytic one.
                comp = (
                    None if codec.identity
                    else replace(
                        codec.weight_compression(sigma), ratio=spec.ratio
                    )
                )
            else:
                codec = self._weight_codec
                comp = (
                    None if codec.identity
                    else estimate_layer_compression(
                        layout.m, layout.k, sigma, codec.name
                    )
                )
            profile = linear_profile(
                self.gpu, layout.m, layout.k, n_tokens, codec, comp
            )
            layer_time = profile.time_s + self.backend.per_layer_sync_s
            total += layer_time * layer.count
            ops += layer.count
            if layout.needs_allreduce:
                nbytes = 2.0 * n_tokens * self.model.hidden
                comm += allreduce_time(self.gpu, nbytes, self.tp) * layer.count
        result = (total / self.backend.e2e_bw_derate, ops, comm)
        self._linear_cache[key] = result
        return result

    def attention_time(self, batch: int, ctx: int, phase: str) -> float:
        """Per-step attention across all layers (one TP shard)."""
        heads = max(1, self.model.n_heads // self.tp)
        kv_heads = self.kv_heads
        if phase == "decode":
            if self._kv_attention_args is not None:
                ratio, cycles, bw_frac = self._kv_attention_args
                profile = paged_attention_decode_compressed(
                    self.gpu, batch, ctx, heads, kv_heads,
                    self.model.head_dim, ratio=ratio,
                    cycles_per_element=cycles, bw_frac=bw_frac,
                )
                return profile.time_s * self.model.n_layers
            fn = (
                paged_attention_decode
                if self.backend.attention == "paged"
                else eager_attention_decode
            )
            profile = fn(self.gpu, batch, ctx, heads, kv_heads,
                         self.model.head_dim)
        else:
            fn = (
                flash_attention_prefill
                if self.backend.attention == "paged"
                else eager_attention_prefill
            )
            profile = fn(self.gpu, batch, ctx, heads, kv_heads,
                         self.model.head_dim)
        return profile.time_s * self.model.n_layers

    def elementwise_time(self, n_tokens: int) -> float:
        """Norms, RoPE, activation and residual traffic per pass."""
        h = self.model.hidden
        inter = self.model.intermediate
        per_layer = (
            2 * (4.0 * n_tokens * h)          # two RMSNorms (read+write)
            + 2.0 * n_tokens * (self.model.q_dim + self.model.kv_dim) * 2
            + 6.0 * n_tokens * inter           # SiLU-mul over gate/up
            + 2 * (6.0 * n_tokens * h)         # two residual adds
        )
        total_bytes = per_layer * self.model.n_layers / self.tp
        total_bytes += 4.0 * n_tokens * h      # embedding + final norm
        total_bytes *= self.backend.elementwise_pass_factor
        bw = self.gpu.dram_bytes_per_s * 0.8
        return total_bytes / bw

    def pipeline_hop_time(self, n_tokens: int) -> float:
        """Point-to-point activation transfers between pipeline stages."""
        if self.pp <= 1:
            return 0.0
        nbytes = 2.0 * n_tokens * self.model.hidden
        per_hop = nbytes / (self.gpu.interconnect_gbps * 1e9) + 20e-6
        return (self.pp - 1) * per_hop

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _step(
        self, n_tokens: int, attention_s: float
    ) -> StepBreakdown:
        linear_s, ops, comm_s = self.linear_time(n_tokens)
        comm_s += self.pipeline_hop_time(n_tokens)
        n_other = self.backend.other_ops_per_layer * self.model.n_layers
        dispatch = (ops + n_other) * self.backend.dispatch_overhead_s
        return StepBreakdown(
            linear_s=linear_s,
            attention_s=attention_s,
            comm_s=comm_s,
            other_s=(
                self.elementwise_time(n_tokens)
                + self.backend.fixed_step_overhead_s
            ),
            dispatch_s=dispatch,
        )

    def decode_step(self, batch: int, ctx: int) -> StepBreakdown:
        """Breakdown of one decode step at context length ``ctx``."""
        return self._step(batch, self.attention_time(batch, ctx, "decode"))

    def prefill_step(self, batch: int, prompt_len: int) -> StepBreakdown:
        """Breakdown of the whole-prompt prefill pass."""
        return self._step(
            batch * prompt_len,
            self.attention_time(batch, prompt_len, "prefill"),
        )

    def mixed_step(
        self,
        decode_batch: int,
        decode_ctx: int,
        prefill_seqs: int,
        prefill_tokens: int,
    ) -> StepBreakdown:
        """One chunked-prefill iteration (vLLM-style co-scheduling).

        Linear, elementwise and dispatch costs are charged over the combined
        token count (that is the whole point of chunking: prefill tokens
        ride the decode batch's GEMMs); attention splits into a decode part
        at the running context and a prefill part over the chunk.  The
        prefill chunk's attention is charged at the mean per-sequence chunk
        length — first-order, like the rest of the simulator.
        """
        if decode_batch <= 0 and prefill_tokens <= 0:
            raise ConfigError("mixed step needs decode or prefill work")
        attention_s = 0.0
        if decode_batch > 0:
            attention_s += self.attention_time(
                decode_batch, max(decode_ctx, 1), "decode"
            )
        if prefill_tokens > 0:
            seqs = max(prefill_seqs, 1)
            chunk = max(ceil_div(prefill_tokens, seqs), 1)
            attention_s += self.attention_time(seqs, chunk, "prefill")
        return self._step(decode_batch + prefill_tokens, attention_s)


def _bucket(value: int, size: int) -> int:
    """Round ``value`` up to the next multiple of ``size`` (min ``size``)."""
    return max(ceil_div(value, size), 1) * size


class MemoizedStepCostModel:
    """Bucketing cache around any :class:`StepCostModel`.

    Long traces evaluate the step model at thousands of near-identical
    (batch, context, chunk) points; this wrapper rounds decode contexts up
    to ``ctx_bucket`` and batched token counts up to ``token_bucket`` before
    delegating, so the expensive per-layer walk runs once per bucket.  The
    rounding biases step times slightly *up* (never faster than exact), by
    at most one bucket of tokens/context — keep buckets small relative to
    typical contexts.  ``hits``/``misses`` expose cache effectiveness.
    """

    def __init__(
        self,
        inner: StepCostModel,
        ctx_bucket: int = 64,
        token_bucket: int = 16,
    ):
        if ctx_bucket <= 0 or token_bucket <= 0:
            raise ConfigError("memoization buckets must be positive")
        self.inner = inner
        self.ctx_bucket = ctx_bucket
        self.token_bucket = token_bucket
        self.hits = 0
        self.misses = 0
        self._cache: dict[tuple, StepBreakdown] = {}
        #: Mixed-step keys' ``total_s``, filled by :meth:`mixed_step_s`
        #: on its first read of a key: the float table the serving
        #: loops price through.
        self._totals: dict[tuple, float] = {}
        # Per-step-kind [hits, misses]; kinds are the cache-key tags
        # ("d" decode, "p" prefill, "m" mixed).  Global hits/misses stay
        # as the sum for backwards compatibility.
        self._kind_stats: dict[str, list[int]] = {
            "d": [0, 0], "p": [0, 0], "m": [0, 0],
        }
        self._mixed_stats = self._kind_stats["m"]

    # Raw component queries pass straight through (exact).
    def linear_time(self, n_tokens: int) -> tuple[float, int, float]:
        """Delegate (exact)."""
        return self.inner.linear_time(n_tokens)

    def attention_time(self, batch: int, ctx: int, phase: str) -> float:
        """Delegate (exact)."""
        return self.inner.attention_time(batch, ctx, phase)

    def elementwise_time(self, n_tokens: int) -> float:
        """Delegate (exact)."""
        return self.inner.elementwise_time(n_tokens)

    def _lookup(self, key: tuple, compute) -> StepBreakdown:
        stats = self._kind_stats[key[0]]
        found = self._cache.get(key)
        if found is not None:
            self.hits += 1
            stats[0] += 1
        else:
            self.misses += 1
            stats[1] += 1
            found = compute()
            self._cache[key] = found
        # Copy on return: StepBreakdown.add() mutates in place, and a
        # caller accumulating into a returned breakdown must not poison
        # the cache.
        return found.scaled(1.0)

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Cache effectiveness per step kind.

        Returns ``{"decode"|"prefill"|"mixed": {"hits", "misses",
        "size"}}`` where ``size`` is the number of live cache entries of
        that kind.  ``hits``/``misses`` count every pricing query,
        :meth:`mixed_step_s` reads included.
        """
        names = {"d": "decode", "p": "prefill", "m": "mixed"}
        sizes = {kind: 0 for kind in names}
        for key in self._cache:
            sizes[key[0]] += 1
        return {
            names[kind]: {"hits": h, "misses": m, "size": sizes[kind]}
            for kind, (h, m) in self._kind_stats.items()
        }

    def decode_step(self, batch: int, ctx: int) -> StepBreakdown:
        """Decode step at the bucketed context."""
        b_ctx = _bucket(ctx, self.ctx_bucket)
        return self._lookup(
            ("d", batch, b_ctx),
            lambda: self.inner.decode_step(batch, b_ctx),
        )

    def prefill_step(self, batch: int, prompt_len: int) -> StepBreakdown:
        """Prefill pass at the bucketed prompt length."""
        b_len = _bucket(prompt_len, self.token_bucket)
        return self._lookup(
            ("p", batch, b_len),
            lambda: self.inner.prefill_step(batch, b_len),
        )

    def _mixed_key(
        self, decode_batch: int, decode_ctx: int, prefill_seqs: int,
        prefill_tokens: int,
    ) -> tuple:
        """A mixed step's cache key; its tail is the inner model's query."""
        b_ctx = _bucket(decode_ctx, self.ctx_bucket) if decode_batch else 0
        b_tok = (
            _bucket(prefill_tokens, self.token_bucket)
            if prefill_tokens else 0
        )
        return ("m", decode_batch, b_ctx, prefill_seqs, b_tok)

    def mixed_step(
        self,
        decode_batch: int,
        decode_ctx: int,
        prefill_seqs: int,
        prefill_tokens: int,
    ) -> StepBreakdown:
        """Mixed step with bucketed context and chunk size."""
        key = self._mixed_key(
            decode_batch, decode_ctx, prefill_seqs, prefill_tokens
        )
        return self._lookup(key, lambda: self.inner.mixed_step(*key[1:]))

    def mixed_step_s(
        self,
        decode_batch: int,
        decode_ctx: int,
        prefill_seqs: int,
        prefill_tokens: int,
    ) -> float:
        """``mixed_step(...).total_s`` read from the float table.

        The serving loops' per-step price, and the bucket-edge prices of
        their fast-forward windows: same key and hit/miss accounting as
        :meth:`mixed_step`, without the breakdown copy and the component
        sum.  A key's first read goes through :meth:`mixed_step` and
        keeps its total.
        """
        key = self._mixed_key(
            decode_batch, decode_ctx, prefill_seqs, prefill_tokens
        )
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = self.mixed_step(
                decode_batch, decode_ctx, prefill_seqs, prefill_tokens
            ).total_s
        else:
            self.hits += 1
            self._mixed_stats[0] += 1
        return total


def maybe_memoize(costs: StepCostModel, cost_bucket: int) -> StepCostModel:
    """Wrap ``costs`` in the standard memoization buckets, if enabled.

    The single source of the bucket recipe (``token_bucket`` is a quarter
    of the context bucket) shared by every serving core, so colocated and
    disaggregated runs always price steps identically for the same
    ``cost_bucket`` setting.  ``cost_bucket <= 0`` returns ``costs``
    unchanged (exact pricing).
    """
    if cost_bucket <= 0:
        return costs
    return MemoizedStepCostModel(
        costs,
        ctx_bucket=cost_bucket,
        token_bucket=max(1, cost_bucket // 4),
    )
