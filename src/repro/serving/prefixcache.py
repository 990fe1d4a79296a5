"""Prefix cache: block-granular prefix reuse with a compressed cold tier.

Multi-turn sessions re-prefill the same tokens every turn — the shared
system prompt plus the whole conversation so far.  A prefix cache keeps
those KV blocks resident between turns so the scheduler can skip the
cached portion of a prompt and start chunked prefill at the first
uncached token.

This module is the cache itself; the integration points live elsewhere:

* capacity is **carved out of the KV memory plan** — the serving cores
  build the block allocator over ``kv_bytes * (1 - capacity_frac)`` and
  hand the carved bytes here, so cache capacity is real memory taken
  from the batch, not free headroom;
* :class:`~repro.serving.scheduler.ContinuousBatchScheduler` consults
  the cache at admission (``lookup``) and repopulates it when a request
  finishes or is released (``store``);
* the **cold tier** holds blocks under a registry codec
  (:mod:`repro.compression`): at equal memory it caches ``ratio``×
  more tokens, and a cold hit pays a decompress charge priced with the
  same kernel-cost hooks the rest of the stack uses
  (:func:`cold_hit_seconds_per_token`) — ZipServ's thesis applied to
  the cache tier, where compression ratio converts directly into
  hit-rate.

Two tiers, LRU between them: entries are stored **hot** (raw bytes),
demoted hot→cold when the hot tier overflows (bytes shrink by exactly
the codec ratio — the conservation invariant of
``tests/test_prefixcache.py``), and evicted cold→gone when the cold
tier overflows.  A hit promotes the entry back to hot.

Sizing is block-granular throughout: an entry of ``n`` tokens charges
``ceil(n / block_size)`` blocks against its tier, and ``lookup`` floors
the hit to a block multiple — partial blocks are never reusable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..analysis.calibration import decode_cycles_per_element
from ..compression import get_codec
from ..errors import ConfigError
from ..utils import bounded, ceil_div, check_fields

__all__ = [
    "PrefixCacheConfig",
    "PrefixCacheStats",
    "PrefixCache",
    "cold_hit_seconds_per_token",
]

#: Fallback hardware rates for decompress pricing when no
#: :class:`~repro.gpu.specs.GpuSpec` is discoverable from the cost
#: model (A100-class HBM and SM clocks; only the *ratio* of charges
#: matters to scheduling decisions, not their absolute scale).
_DEFAULT_DRAM_BYTES_PER_S = 1.5e12
_DEFAULT_SM_CYCLES_PER_S = 1.5e11


def cold_hit_seconds_per_token(
    spec, codec, ratio: float, gpu=None
) -> float:
    """Decompress charge of one cold-tier token on a cache hit.

    Priced like every other compressed stream in the stack, through the
    codec's kernel-cost hooks: the compressed bytes stream out of HBM at
    the codec's bandwidth fraction, the decode ALU pays
    ``decode_cycles_factor`` scaled cycles per element, and the raw
    bytes are written back so the batch reads them at full speed.  The
    identity codec (a raw cold tier) costs nothing — its blocks are
    already in serving form.

    ``spec`` is the KV geometry (:class:`~repro.serving.kvcache
    .KVCacheSpec`); ``gpu`` a :class:`~repro.gpu.specs.GpuSpec`, or
    ``None`` to price at default A100-class rates.
    """
    codec = get_codec(codec)
    if codec.identity:
        return 0.0
    raw = float(spec.raw_bytes_per_token)
    n_elements = raw / spec.dtype_bytes
    dram = (
        gpu.dram_bytes_per_s if gpu is not None
        else _DEFAULT_DRAM_BYTES_PER_S
    )
    sm = (
        gpu.sm_cycles_per_s if gpu is not None
        else _DEFAULT_SM_CYCLES_PER_S
    )
    stream_s = (raw / max(ratio, 1.0)) / (dram * codec.stream_bw_frac)
    decode_s = (
        n_elements * codec.decode_cycles_factor
        * decode_cycles_per_element() / sm
    )
    writeback_s = raw / dram
    return stream_s + decode_s + writeback_s


@dataclass(frozen=True)
class PrefixCacheConfig:
    """How a serving topology provisions its prefix cache.

    ``capacity_frac`` of the engine's KV byte budget is carved off for
    the cache (the block allocator shrinks by the same amount — cache
    memory is never free); ``hot_frac`` of the carve holds raw blocks,
    the rest holds the compressed cold tier.  ``codec`` names the cold
    tier's registry codec: ``"auto"`` resolves through the engine's
    codec policy against the new ``prefix`` placement class (measured
    when a calibration profile is set), ``None`` keeps the cold tier
    raw — the equal-memory baseline the compressed tier is gated
    against.
    """

    capacity_frac: float = bounded(0.2, gt=0.0, lt=1.0)
    hot_frac: float = bounded(0.5, ge=0.0, le=1.0)
    #: A codec registry name, looked up in ``__post_init__``.
    codec: str | None = "auto"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.codec is not None and self.codec != "auto":
            get_codec(self.codec)  # raises UnknownSpecError if absent


@dataclass(frozen=True)
class PrefixCacheStats:
    """Counters of one prefix cache over one run.

    ``hit_tokens <= offered_prefix_tokens`` always (a hit never exceeds
    the prefix the request offered), and
    ``n_hits + n_misses == n_lookups`` — the counter invariants of
    ``tests/test_prefixcache.py``.
    """

    n_lookups: int = 0
    n_hits: int = 0
    n_misses: int = 0
    #: Prompt tokens skipped via cache hits (block-floored).
    hit_tokens: int = 0
    #: Prefix tokens requests offered to the cache (hit or not).
    offered_prefix_tokens: int = 0
    n_demotions: int = 0
    n_evictions: int = 0
    #: Resident bytes per tier at the end of the run.
    bytes_hot: float = 0.0
    bytes_cold: float = 0.0
    n_entries_hot: int = 0
    n_entries_cold: int = 0
    #: Total decompress delay charged for cold hits.
    cold_delay_s: float = 0.0

    @property
    def token_hit_rate(self) -> float:
        """Fraction of offered prefix tokens served from cache."""
        if not self.offered_prefix_tokens:
            return 0.0
        return self.hit_tokens / self.offered_prefix_tokens

    @property
    def request_hit_rate(self) -> float:
        """Fraction of lookups that hit at all."""
        return self.n_hits / self.n_lookups if self.n_lookups else 0.0

    @classmethod
    def merge(cls, stats) -> "PrefixCacheStats":
        """Sum counters across replicas (fleet aggregation).

        Byte/entry gauges sum too — they then read as fleet-wide
        residency, which is what capacity accounting wants.
        """
        rows = [s for s in stats if s is not None]
        if not rows:
            return cls()
        return cls(
            n_lookups=sum(s.n_lookups for s in rows),
            n_hits=sum(s.n_hits for s in rows),
            n_misses=sum(s.n_misses for s in rows),
            hit_tokens=sum(s.hit_tokens for s in rows),
            offered_prefix_tokens=sum(
                s.offered_prefix_tokens for s in rows
            ),
            n_demotions=sum(s.n_demotions for s in rows),
            n_evictions=sum(s.n_evictions for s in rows),
            bytes_hot=sum(s.bytes_hot for s in rows),
            bytes_cold=sum(s.bytes_cold for s in rows),
            n_entries_hot=sum(s.n_entries_hot for s in rows),
            n_entries_cold=sum(s.n_entries_cold for s in rows),
            cold_delay_s=sum(s.cold_delay_s for s in rows),
        )


class PrefixCache:
    """Two-tier LRU prefix cache over block-granular KV bytes.

    Keyed by an opaque prefix id (the serving stack uses
    ``Request.session_id``).  All byte accounting is deterministic
    integer/float arithmetic off the KV geometry — no wall clock, no
    randomness — so runs are reproducible.

    ``_hot`` and ``_cold`` map prefix id → cached tokens, least recently
    used first.  A hit or store moves its entry to the end of ``_hot``;
    a demotion appends hot's first entry to ``_cold``, which therefore
    stays in last-touch order too (every entry demoted later was
    touched later).
    """

    def __init__(
        self,
        spec,
        capacity_bytes: float,
        hot_frac: float = 0.5,
        cold_ratio: float = 1.0,
        cold_hit_s_per_token: float = 0.0,
    ):
        if capacity_bytes <= 0:
            raise ConfigError(
                "prefix cache capacity must be positive, got"
                f" {capacity_bytes}"
            )
        if not 0.0 <= hot_frac <= 1.0:
            raise ConfigError(f"hot_frac must be in [0, 1]: {hot_frac}")
        if cold_ratio < 1.0:
            raise ConfigError(
                f"cold tier ratio must be >= 1, got {cold_ratio}"
            )
        if cold_hit_s_per_token < 0.0:
            raise ConfigError("cold_hit_s_per_token must be >= 0")
        self.spec = spec
        self.capacity_bytes = float(capacity_bytes)
        self.hot_capacity_bytes = float(capacity_bytes) * hot_frac
        self.cold_capacity_bytes = (
            self.capacity_bytes - self.hot_capacity_bytes
        )
        self.cold_ratio = float(cold_ratio)
        self.cold_hit_s_per_token = float(cold_hit_s_per_token)
        self._hot: OrderedDict[object, int] = OrderedDict()
        self._cold: OrderedDict[object, int] = OrderedDict()
        self.bytes_hot = 0.0
        self.bytes_cold = 0.0
        self.n_lookups = 0
        self.n_hits = 0
        self.n_misses = 0
        self.hit_tokens = 0
        self.offered_prefix_tokens = 0
        self.n_demotions = 0
        self.n_evictions = 0
        self.cold_delay_s = 0.0
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder`.
        #: The scheduler that owns this cache attaches it and refreshes
        #: ``now`` (sim time) before calling in; guarded by ``is None``
        #: everywhere, so the default is free.
        self.telemetry = None
        self.now = 0.0
        self.track = "cache"

    # ------------------------------------------------------------------
    def _raw_bytes(self, n_tokens: int) -> float:
        """Block-granular raw bytes of an ``n_tokens`` prefix."""
        blocks = ceil_div(n_tokens, self.spec.block_size)
        return float(blocks * self.spec.bytes_per_block)

    # ------------------------------------------------------------------
    def lookup(self, prefix_id, prefix_tokens: int) -> tuple[int, float]:
        """Resolve a prefix: ``(cached tokens, decompress delay)``.

        The hit is ``min(cached, offered)`` floored to a block multiple
        — never more than the request actually shares, never a partial
        block.  A cold hit accrues the per-token decompress charge and
        the entry is promoted hot (which may demote colder neighbours).
        """
        self.n_lookups += 1
        self.offered_prefix_tokens += max(int(prefix_tokens), 0)
        tier = "hot"
        n_tokens = self._hot.get(prefix_id)
        if n_tokens is None:
            tier = "cold"
            n_tokens = self._cold.get(prefix_id)
        if n_tokens is None or prefix_tokens <= 0:
            self.n_misses += 1
            return 0, 0.0
        block = self.spec.block_size
        hit = min(n_tokens, int(prefix_tokens))
        hit = (hit // block) * block
        if hit <= 0:
            self.n_misses += 1
            return 0, 0.0
        self.n_hits += 1
        self.hit_tokens += hit
        delay_s = 0.0
        if tier == "cold":
            delay_s = hit * self.cold_hit_s_per_token
            self.cold_delay_s += delay_s
            # Promote: the whole entry moves back to serving form.
            raw = self._raw_bytes(self._cold.pop(prefix_id))
            self.bytes_cold -= raw / self.cold_ratio
            self.bytes_hot += raw
            self._hot[prefix_id] = n_tokens
        else:
            self._hot.move_to_end(prefix_id)
        self._rebalance()
        if self.telemetry is not None:
            self.telemetry.on_cache(
                "cache_hit", self.now, self.track,
                ("tokens", hit, "tier", tier, "delay_s", delay_s),
            )
        return hit, delay_s

    def store(self, prefix_id, n_tokens: int) -> None:
        """Insert or extend a prefix (always lands hot, then rebalances).

        A shorter ``n_tokens`` than already cached never truncates —
        the longer prefix strictly subsumes it.
        """
        if n_tokens <= 0:
            return
        n_tokens = int(n_tokens)
        if prefix_id in self._hot:
            cached = self._hot.pop(prefix_id)
            self.bytes_hot -= self._raw_bytes(cached)
            n_tokens = max(cached, n_tokens)
        elif prefix_id in self._cold:
            cached = self._cold.pop(prefix_id)
            self.bytes_cold -= self._raw_bytes(cached) / self.cold_ratio
            n_tokens = max(cached, n_tokens)
        self._hot[prefix_id] = n_tokens
        self.bytes_hot += self._raw_bytes(n_tokens)
        self._rebalance()

    # ------------------------------------------------------------------
    def _rebalance(self) -> None:
        """LRU-demote hot→cold, then LRU-evict cold→gone, to capacity."""
        hot, cold, tel = self._hot, self._cold, self.telemetry
        while self.bytes_hot > self.hot_capacity_bytes and hot:
            key, n_tokens = hot.popitem(last=False)
            # Demotion conserves content: the same tokens, raw bytes
            # shrunk by exactly the cold ratio.
            raw = self._raw_bytes(n_tokens)
            self.bytes_hot -= raw
            cold[key] = n_tokens
            self.bytes_cold += raw / self.cold_ratio
            self.n_demotions += 1
            if tel is not None:
                tel.on_cache("cache_demote", self.now, self.track,
                             ("tokens", n_tokens))
        while self.bytes_cold > self.cold_capacity_bytes and cold:
            _, n_tokens = cold.popitem(last=False)
            self.bytes_cold -= self._raw_bytes(n_tokens) / self.cold_ratio
            self.n_evictions += 1
            if tel is not None:
                tel.on_cache("cache_evict", self.now, self.track,
                             ("tokens", n_tokens))

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._hot) + len(self._cold)

    def stats(self) -> PrefixCacheStats:
        """Snapshot the counters as an immutable stats row."""
        return PrefixCacheStats(
            n_lookups=self.n_lookups,
            n_hits=self.n_hits,
            n_misses=self.n_misses,
            hit_tokens=self.hit_tokens,
            offered_prefix_tokens=self.offered_prefix_tokens,
            n_demotions=self.n_demotions,
            n_evictions=self.n_evictions,
            bytes_hot=self.bytes_hot,
            bytes_cold=self.bytes_cold,
            n_entries_hot=len(self._hot),
            n_entries_cold=len(self._cold),
            cold_delay_s=self.cold_delay_s,
        )
