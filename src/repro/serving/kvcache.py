"""Paged KV-cache manager (PagedAttention-style block allocator).

§6.5 of the paper: the memory freed by weight compression is "automatically
repurposed by the memory manager to expand the KV cache capacity", growing
batch sizes and context lengths.  This module is that memory manager: fixed
-size token blocks and exact capacity accounting, kept as an integer ledger
(per-sequence token counts plus one used-block counter) since a sequence of
``n`` tokens always holds ``ceil(n / block_size)`` blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compression import resolve_spec
from ..errors import CapacityError, ConfigError, SchedulingError
from ..utils import ceil_div
from .models import ModelSpec

#: vLLM's default tokens-per-block.
DEFAULT_BLOCK_SIZE = 16


@dataclass(frozen=True)
class KVCacheSpec:
    """Geometry of the KV cache for one model shard."""

    n_layers: int
    kv_heads: int
    head_dim: int
    block_size: int = DEFAULT_BLOCK_SIZE
    dtype_bytes: int = 2

    @classmethod
    def for_model(
        cls, model: ModelSpec, tensor_parallel: int = 1,
        pipeline_parallel: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "KVCacheSpec":
        """KV geometry of one shard.

        Tensor parallelism splits KV heads; pipeline parallelism splits
        layers (each stage caches only its own layers).
        """
        kv_heads = max(1, model.n_kv_heads // tensor_parallel)
        n_layers = ceil_div(model.n_layers, pipeline_parallel)
        return cls(
            n_layers=n_layers,
            kv_heads=kv_heads,
            head_dim=model.head_dim,
            block_size=block_size,
        )

    @property
    def bytes_per_token(self) -> int:
        """K and V bytes for one token across all layers of this shard."""
        return (
            2 * self.n_layers * self.kv_heads * self.head_dim
            * self.dtype_bytes
        )

    @property
    def bytes_per_block(self) -> int:
        """Bytes of one block (``block_size`` tokens)."""
        return self.bytes_per_token * self.block_size

    @property
    def raw_bytes_per_token(self) -> int:
        """Uncompressed K+V bytes per token (identical here; the
        compressed spec reports its inner geometry)."""
        return self.bytes_per_token


@dataclass(frozen=True)
class CompressedKVCacheSpec:
    """KV geometry with losslessly compressed blocks.

    Wraps a :class:`KVCacheSpec`; bytes per token shrink by ``ratio``,
    which the block allocator and memory planner then turn into
    proportionally more token capacity.  Any registered codec can back
    it — build one with :meth:`from_codec` and the registry resolves
    the analytic KV ratio (``extensions.kvcomp`` keeps its historical
    Vector-TBE constructor on top of this class).
    """

    inner: KVCacheSpec
    ratio: float
    codec: str = "vector_tbe"

    def __post_init__(self) -> None:
        if self.ratio < 1.0:
            raise ConfigError("KV compression ratio must be >= 1")

    @classmethod
    def from_codec(
        cls,
        inner: KVCacheSpec,
        codec: str,
        ratio: float | None = None,
        profile=None,
    ) -> "CompressedKVCacheSpec":
        """Compressed geometry for any registered codec.

        ``ratio=None`` resolves the codec's activation ratio through the
        compression registry — **measured** when a calibration
        ``profile`` (:class:`~repro.compression.MeasuredRatioProfile`)
        is given or installed process-wide, analytic otherwise; an
        explicit ratio overrides both.
        """
        spec = resolve_spec(codec, "kv", ratio=ratio, profile=profile)
        return cls(inner=inner, ratio=spec.ratio, codec=spec.codec)

    @property
    def bytes_per_token(self) -> int:
        """Compressed K+V bytes per token (ceil, per-block container)."""
        return max(1, math.ceil(self.inner.bytes_per_token / self.ratio))

    @property
    def bytes_per_block(self) -> int:
        """Compressed bytes of one block."""
        return self.bytes_per_token * self.inner.block_size

    @property
    def raw_bytes_per_token(self) -> int:
        """Uncompressed K+V bytes per token (what goes on a raw wire)."""
        return self.inner.bytes_per_token

    @property
    def capacity_gain(self) -> float:
        """Token-capacity multiplier at equal memory."""
        return self.inner.bytes_per_token / self.bytes_per_token

    # Geometry passthrough: the block allocator and serving cores read
    # these off whichever spec flavour they were handed.
    @property
    def block_size(self) -> int:
        return self.inner.block_size

    @property
    def n_layers(self) -> int:
        return self.inner.n_layers

    @property
    def kv_heads(self) -> int:
        return self.inner.kv_heads

    @property
    def head_dim(self) -> int:
        return self.inner.head_dim

    @property
    def dtype_bytes(self) -> int:
        return self.inner.dtype_bytes


class PagedKVCache:
    """Integer block ledger over fixed-size token blocks.

    A sequence of ``n`` tokens always holds ``ceil(n / block_size)``
    blocks, and which physical block holds which tokens never changes a
    simulated number, so the ledger keeps only each sequence's token
    count plus one used-block counter.  Every operation checks capacity
    before it changes anything: a failed call leaves the ledger as it
    was (the batched :meth:`append_decode` keeps the growth of the
    sequences before the one that did not fit, like the sequential
    equivalent).
    """

    def __init__(self, spec: KVCacheSpec, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise CapacityError(
                f"KV cache capacity must be positive, got {capacity_bytes}"
            )
        self.spec = spec
        self.n_blocks = int(capacity_bytes // spec.bytes_per_block)
        if self.n_blocks == 0:
            raise CapacityError(
                "KV capacity smaller than a single block:"
                f" {capacity_bytes} < {spec.bytes_per_block}"
            )
        #: Blocks currently held by sequences.
        self.used_blocks = 0
        self._lengths: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Blocks currently unallocated."""
        return self.n_blocks - self.used_blocks

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use."""
        return self.used_blocks / self.n_blocks

    def sequence_length(self, seq_id: int) -> int:
        """Tokens currently cached for ``seq_id``."""
        if seq_id not in self._lengths:
            raise SchedulingError(f"unknown sequence {seq_id}")
        return self._lengths[seq_id]

    # ------------------------------------------------------------------
    def blocks_needed(self, seq_id: int | None, n_tokens: int) -> int:
        """Blocks that must be newly allocated to grow by ``n_tokens``."""
        current = self._lengths.get(seq_id, 0) if seq_id is not None else 0
        block = self.spec.block_size
        return ceil_div(current + n_tokens, block) - ceil_div(current, block)

    def can_allocate(self, seq_id: int | None, n_tokens: int) -> bool:
        """Whether growing by ``n_tokens`` fits without eviction."""
        return self.blocks_needed(seq_id, n_tokens) <= self.free_blocks

    def can_append(self, seq_ids: list[int], n_tokens: int) -> bool:
        """Whether every sequence in ``seq_ids`` can grow by ``n_tokens``.

        Growing by ``n`` tokens never takes more than
        ``n // block_size + 1`` new blocks per sequence, so when the free
        blocks cover that bound the per-sequence walk is skipped (the
        common case on large traces).
        """
        free = self.n_blocks - self.used_blocks
        if len(seq_ids) * (n_tokens // self.spec.block_size + 1) <= free:
            return True
        return sum(self.blocks_needed(s, n_tokens) for s in seq_ids) <= free

    def allocate(self, seq_id: int, n_tokens: int) -> None:
        """Create a sequence and reserve blocks for its first tokens."""
        if seq_id in self._lengths:
            raise SchedulingError(f"sequence {seq_id} already allocated")
        if n_tokens <= 0:
            raise SchedulingError("initial allocation must be > 0 tokens")
        blocks = ceil_div(n_tokens, self.spec.block_size)
        if blocks > self.free_blocks:
            raise CapacityError(
                f"KV cache exhausted: need {blocks} blocks,"
                f" {self.free_blocks} free"
            )
        self.used_blocks += blocks
        self._lengths[seq_id] = n_tokens

    def append_token(self, seq_id: int, n_tokens: int = 1) -> None:
        """Extend an existing sequence by ``n_tokens`` (decode steps)."""
        self.append_decode((seq_id,), n_tokens)

    def append_decode(self, seq_ids, n_tokens: int = 1) -> None:
        """Grow every sequence in ``seq_ids`` by ``n_tokens``.

        The batched form of :meth:`append_token` — one call per decode
        step, or per fast-forwarded segment of ``n_tokens`` steps,
        instead of one per sequence: the serving loop's hottest
        allocator path.  Raises partway on exhaustion like the
        sequential equivalent; callers that preempt first never hit that.
        """
        lengths = self._lengths
        block = self.spec.block_size
        used, cap = self.used_blocks, self.n_blocks
        try:
            for seq_id in seq_ids:
                current = lengths.get(seq_id)
                if current is None:
                    raise SchedulingError(f"unknown sequence {seq_id}")
                if n_tokens == 1 and current % block:
                    # A token that fits in the sequence's last block
                    # needs no new block (every decode step but one in
                    # ``block_size``).
                    lengths[seq_id] = current + 1
                    continue
                # ceil((current + n) / block) - ceil(current / block)
                new = (
                    (current + n_tokens - 1) // block - (current - 1) // block
                )
                if used + new > cap:
                    raise CapacityError(
                        f"KV cache exhausted: need {new} blocks,"
                        f" {cap - used} free"
                    )
                used += new
                lengths[seq_id] = current + n_tokens
        finally:
            self.used_blocks = used

    def free(self, seq_id: int) -> int:
        """Release a sequence; returns the number of blocks freed."""
        current = self._lengths.pop(seq_id, None)
        if current is None:
            raise SchedulingError(f"unknown sequence {seq_id}")
        blocks = ceil_div(current, self.spec.block_size)
        self.used_blocks -= blocks
        return blocks
