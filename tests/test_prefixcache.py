"""Tests for the two-tier prefix cache (`repro.serving.prefixcache`).

The counter invariants pinned here are the ones the serving-level
session tests build on: hits never exceed what was offered, every
lookup is a hit or a miss, and bytes are conserved across hot→cold
demotion by exactly the cold codec ratio.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, UnknownSpecError
from repro.serving.kvcache import KVCacheSpec
from repro.serving.prefixcache import (
    PrefixCache,
    PrefixCacheConfig,
    PrefixCacheStats,
    cold_hit_seconds_per_token,
)
from repro.serving.telemetry import TraceRecorder

#: Tiny geometry: 64 B/token, 1024 B/block (block_size 16).
SPEC = KVCacheSpec(n_layers=2, kv_heads=2, head_dim=4, block_size=16)
BLOCK = SPEC.block_size
BPB = SPEC.bytes_per_block


def make_cache(blocks_hot=4, blocks_cold=4, cold_ratio=1.0, cold_s=0.0):
    total = (blocks_hot + blocks_cold) * BPB
    return PrefixCache(
        SPEC, total,
        hot_frac=blocks_hot / (blocks_hot + blocks_cold),
        cold_ratio=cold_ratio,
        cold_hit_s_per_token=cold_s,
    )


# ----------------------------------------------------------------------
# Differential oracle: the tick-scan cache the LRU-ordered tiers replaced
# ----------------------------------------------------------------------
class _Entry:
    """One cached prefix: its token count, tier and LRU stamp."""

    __slots__ = ("n_tokens", "tier", "tick")

    def __init__(self, n_tokens: int, tier: str, tick: int):
        self.n_tokens = n_tokens
        self.tier = tier
        self.tick = tick


class _ReferenceCache(PrefixCache):
    """The prefix cache before its tiers held LRU order by position,
    kept verbatim: one entry table stamped from a global tick, and a
    linear scan of it for each demotion's or eviction's least recently
    used entry.  Only the constructor's two lines that set up the table
    are new; everything else it inherits is the unchanged sizing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._entries: dict[object, _Entry] = {}
        self._tick = 0

    def _tier_bytes(self, entry: _Entry) -> float:
        raw = self._raw_bytes(entry.n_tokens)
        return raw if entry.tier == "hot" else raw / self.cold_ratio

    def _touch(self, entry: _Entry) -> None:
        self._tick += 1
        entry.tick = self._tick

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
        entry = self._entries.get(prefix_id)
        if entry is None or prefix_tokens <= 0:
            self.n_misses += 1
            return 0, 0.0
        block = self.spec.block_size
        hit = min(entry.n_tokens, int(prefix_tokens))
        hit = (hit // block) * block
        if hit <= 0:
            self.n_misses += 1
            return 0, 0.0
        self.n_hits += 1
        self.hit_tokens += hit
        delay_s = 0.0
        tier = entry.tier
        if entry.tier == "cold":
            delay_s = hit * self.cold_hit_s_per_token
            self.cold_delay_s += delay_s
            # Promote: the whole entry moves back to serving form.
            self.bytes_cold -= self._tier_bytes(entry)
            entry.tier = "hot"
            self.bytes_hot += self._tier_bytes(entry)
        self._touch(entry)
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
        entry = self._entries.get(prefix_id)
        if entry is None:
            entry = _Entry(int(n_tokens), "hot", 0)
            self._entries[prefix_id] = entry
            self.bytes_hot += self._tier_bytes(entry)
        else:
            self.bytes_hot -= (
                self._tier_bytes(entry) if entry.tier == "hot" else 0.0
            )
            self.bytes_cold -= (
                self._tier_bytes(entry) if entry.tier == "cold" else 0.0
            )
            entry.n_tokens = max(entry.n_tokens, int(n_tokens))
            entry.tier = "hot"
            self.bytes_hot += self._tier_bytes(entry)
        self._touch(entry)
        self._rebalance()

    # ------------------------------------------------------------------
    def _lru(self, tier: str) -> object | None:
        """The least-recently-used key of one tier (None if empty)."""
        best_key, best_tick = None, None
        for key, entry in self._entries.items():
            if entry.tier != tier:
                continue
            if best_tick is None or entry.tick < best_tick:
                best_key, best_tick = key, entry.tick
        return best_key

    def _rebalance(self) -> None:
        """LRU-demote hot→cold, then LRU-evict cold→gone, to capacity."""
        while self.bytes_hot > self.hot_capacity_bytes:
            key = self._lru("hot")
            if key is None:
                break
            entry = self._entries[key]
            # Demotion conserves content: the same tokens, raw bytes
            # shrunk by exactly the cold ratio.
            self.bytes_hot -= self._tier_bytes(entry)
            entry.tier = "cold"
            self.bytes_cold += self._tier_bytes(entry)
            self.n_demotions += 1
            if self.telemetry is not None:
                self.telemetry.on_cache(
                    "cache_demote", self.now, self.track,
                    ("tokens", entry.n_tokens),
                )
        while self.bytes_cold > self.cold_capacity_bytes:
            key = self._lru("cold")
            if key is None:
                break
            entry = self._entries.pop(key)
            self.bytes_cold -= self._tier_bytes(entry)
            self.n_evictions += 1
            if self.telemetry is not None:
                self.telemetry.on_cache(
                    "cache_evict", self.now, self.track,
                    ("tokens", entry.n_tokens),
                )

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._entries)

    def stats(self) -> PrefixCacheStats:
        """Snapshot the counters as an immutable stats row."""
        n_hot = sum(
            1 for e in self._entries.values() if e.tier == "hot"
        )
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
            n_entries_hot=n_hot,
            n_entries_cold=len(self._entries) - n_hot,
            cold_delay_s=self.cold_delay_s,
        )


class TestConfig:
    def test_defaults_valid(self):
        cfg = PrefixCacheConfig()
        assert 0.0 < cfg.capacity_frac < 1.0
        assert cfg.codec == "auto"

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 1.5])
    def test_capacity_frac_bounds(self, frac):
        with pytest.raises(ConfigError):
            PrefixCacheConfig(capacity_frac=frac)

    @pytest.mark.parametrize("frac", [-0.01, 1.01])
    def test_hot_frac_bounds(self, frac):
        with pytest.raises(ConfigError):
            PrefixCacheConfig(hot_frac=frac)

    def test_unknown_codec_rejected(self):
        with pytest.raises(UnknownSpecError):
            PrefixCacheConfig(codec="no_such_codec")

    def test_none_codec_means_raw_cold_tier(self):
        assert PrefixCacheConfig(codec=None).codec is None

    def test_cache_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            PrefixCache(SPEC, 0.0)

    def test_cache_rejects_sub_unit_cold_ratio(self):
        with pytest.raises(ConfigError):
            PrefixCache(SPEC, BPB, cold_ratio=0.5)


class TestLookupStore:
    def test_empty_cache_misses(self):
        cache = make_cache()
        hit, delay = cache.lookup(0, 100)
        assert (hit, delay) == (0, 0.0)
        assert cache.n_misses == 1 and cache.n_hits == 0

    def test_hit_is_block_floored_min_of_cached_and_offered(self):
        cache = make_cache(blocks_hot=64, blocks_cold=64)
        cache.store(7, 3 * BLOCK + 5)
        hit, _ = cache.lookup(7, 10 * BLOCK)
        assert hit == 3 * BLOCK  # cached side floors
        hit, _ = cache.lookup(7, BLOCK + 3)
        assert hit == BLOCK  # offered side floors

    def test_zero_prefix_offer_is_a_miss(self):
        cache = make_cache()
        cache.store(1, 2 * BLOCK)
        hit, _ = cache.lookup(1, 0)
        assert hit == 0
        assert cache.n_misses == 1

    def test_store_never_truncates(self):
        cache = make_cache(blocks_hot=64, blocks_cold=64)
        cache.store(1, 4 * BLOCK)
        cache.store(1, 2 * BLOCK)
        hit, _ = cache.lookup(1, 8 * BLOCK)
        assert hit == 4 * BLOCK

    def test_hot_hit_has_no_delay(self):
        cache = make_cache(cold_s=1.0)
        cache.store(1, BLOCK)
        hit, delay = cache.lookup(1, BLOCK)
        assert hit == BLOCK and delay == 0.0


class TestTiers:
    def test_demotion_conserves_bytes_by_exact_ratio(self):
        ratio = 2.5
        cache = make_cache(blocks_hot=2, blocks_cold=8, cold_ratio=ratio)
        cache.store(1, 2 * BLOCK)  # fills the hot tier exactly
        assert cache.bytes_hot == 2 * BPB and cache.bytes_cold == 0.0
        cache.store(2, 2 * BLOCK)  # overflows: entry 1 demotes
        assert cache.n_demotions == 1
        assert cache.bytes_hot == 2 * BPB
        assert cache.bytes_cold == pytest.approx(2 * BPB / ratio)

    def test_lru_demotes_the_oldest(self):
        cache = make_cache(blocks_hot=2, blocks_cold=8)
        cache.store(1, 2 * BLOCK)
        cache.store(2, 2 * BLOCK)  # demotes 1 (older)
        stats = cache.stats()
        assert stats.n_demotions == 1
        # 2 still hits hot (no delay even with a cold charge set).
        cache.cold_hit_s_per_token = 1.0
        _, delay = cache.lookup(2, 2 * BLOCK)
        assert delay == 0.0

    def test_cold_hit_pays_delay_and_promotes(self):
        cache = make_cache(blocks_hot=2, blocks_cold=8, cold_s=0.25)
        cache.store(1, 2 * BLOCK)
        cache.store(2, 2 * BLOCK)  # 1 now cold
        hit, delay = cache.lookup(1, 2 * BLOCK)
        assert hit == 2 * BLOCK
        assert delay == pytest.approx(hit * 0.25)
        # Promotion put 1 back hot, demoting 2.
        assert cache.stats().n_demotions == 2
        _, delay2 = cache.lookup(1, 2 * BLOCK)
        assert delay2 == 0.0

    def test_eviction_when_cold_overflows(self):
        cache = make_cache(blocks_hot=2, blocks_cold=2)
        for key in range(4):
            cache.store(key, 2 * BLOCK)
        # hot holds one 2-block entry, cold one; two were evicted.
        stats = cache.stats()
        assert stats.n_evictions == 2
        assert stats.n_entries_hot + stats.n_entries_cold == 2
        assert cache.bytes_hot <= cache.hot_capacity_bytes
        assert cache.bytes_cold <= cache.cold_capacity_bytes

    def test_compressed_cold_tier_holds_more_entries(self):
        raw = make_cache(blocks_hot=2, blocks_cold=4, cold_ratio=1.0)
        comp = make_cache(blocks_hot=2, blocks_cold=4, cold_ratio=2.0)
        for key in range(6):
            raw.store(key, 2 * BLOCK)
            comp.store(key, 2 * BLOCK)
        assert comp.n_entries > raw.n_entries
        assert comp.n_evictions < raw.n_evictions


class TestCounterInvariants:
    def test_randomised_counter_invariants(self):
        rng = np.random.default_rng(11)
        cache = make_cache(blocks_hot=3, blocks_cold=3, cold_ratio=1.7,
                           cold_s=0.01)
        for _ in range(500):
            key = int(rng.integers(0, 12))
            tokens = int(rng.integers(1, 6)) * BLOCK
            if rng.random() < 0.5:
                cache.lookup(key, tokens)
            else:
                cache.store(key, tokens)
            assert cache.n_hits + cache.n_misses == cache.n_lookups
            assert cache.hit_tokens <= cache.offered_prefix_tokens
            assert cache.bytes_hot <= cache.hot_capacity_bytes + 1e-9
            assert cache.bytes_cold <= cache.cold_capacity_bytes + 1e-9
            # Gauges always reconcile against the two tiers.
            stats = cache.stats()
            hot = sum(cache._raw_bytes(n) for n in cache._hot.values())
            cold = sum(
                cache._raw_bytes(n) / cache.cold_ratio
                for n in cache._cold.values()
            )
            assert stats.bytes_hot == pytest.approx(hot)
            assert stats.bytes_cold == pytest.approx(cold)

    def test_stats_rates(self):
        cache = make_cache()
        cache.store(1, 2 * BLOCK)
        cache.lookup(1, 2 * BLOCK)
        cache.lookup(2, 2 * BLOCK)
        stats = cache.stats()
        assert stats.request_hit_rate == pytest.approx(0.5)
        assert stats.token_hit_rate == pytest.approx(0.5)

    def test_empty_stats_rates_are_zero(self):
        stats = PrefixCacheStats()
        assert stats.token_hit_rate == 0.0
        assert stats.request_hit_rate == 0.0


class TestMatchesTickScanReference:
    """The LRU-ordered tiers replay the tick-scan cache exactly: the same
    ``(hit, delay_s)`` per lookup, the same float gauges and counters,
    and the same ``cache_*`` telemetry, demotions and evictions
    included."""

    @settings(max_examples=300, deadline=None)
    @given(
        blocks=st.sampled_from((1, 2, 5, 8, 16)),
        hot_frac=st.sampled_from((0.0, 0.3, 1.0)),
        cold_ratio=st.sampled_from((1.0, 1.7, 2.5, 3.0)),
        cold_s=st.sampled_from((0.0, 0.01)),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 9),
                      st.integers(0, 6 * BLOCK + 3)),
            max_size=80,
        ),
    )
    def test_same_returns_stats_and_events(
        self, blocks, hot_frac, cold_ratio, cold_s, ops
    ):
        caches = []
        for cls in (PrefixCache, _ReferenceCache):
            cache = cls(SPEC, blocks * BPB, hot_frac=hot_frac,
                        cold_ratio=cold_ratio, cold_hit_s_per_token=cold_s)
            cache.telemetry = TraceRecorder()
            caches.append(cache)
        new, ref = caches
        for t, (is_lookup, key, tokens) in enumerate(ops):
            for cache in caches:
                cache.now = float(t)
            if is_lookup:
                assert new.lookup(key, tokens) == ref.lookup(key, tokens)
            else:
                new.store(key, tokens)
                ref.store(key, tokens)
            assert new.stats() == ref.stats()
        assert new.telemetry.events == ref.telemetry.events


class TestMerge:
    def test_merge_sums_counters(self):
        a = PrefixCacheStats(n_lookups=3, n_hits=1, n_misses=2,
                             hit_tokens=16, offered_prefix_tokens=64,
                             bytes_hot=10.0)
        b = PrefixCacheStats(n_lookups=1, n_hits=1, n_misses=0,
                             hit_tokens=32, offered_prefix_tokens=32,
                             bytes_cold=5.0)
        m = PrefixCacheStats.merge([a, b, None])
        assert m.n_lookups == 4 and m.n_hits == 2 and m.n_misses == 2
        assert m.hit_tokens == 48 and m.offered_prefix_tokens == 96
        assert m.bytes_hot == 10.0 and m.bytes_cold == 5.0
        assert m.token_hit_rate == pytest.approx(0.5)

    def test_merge_of_nothing_is_zero(self):
        assert PrefixCacheStats.merge([]) == PrefixCacheStats()


class TestColdHitPricing:
    def test_identity_codec_is_free(self):
        assert cold_hit_seconds_per_token(SPEC, "none", 1.0) == 0.0

    def test_real_codec_costs_time(self):
        s = cold_hit_seconds_per_token(SPEC, "vector_tbe", 1.6)
        assert s > 0.0

    def test_higher_ratio_streams_fewer_bytes(self):
        lo = cold_hit_seconds_per_token(SPEC, "vector_tbe", 1.2)
        hi = cold_hit_seconds_per_token(SPEC, "vector_tbe", 2.4)
        assert hi < lo

    def test_gpu_rates_change_the_price(self):
        from repro.gpu.specs import get_gpu
        default = cold_hit_seconds_per_token(SPEC, "vector_tbe", 1.6)
        priced = cold_hit_seconds_per_token(
            SPEC, "vector_tbe", 1.6, gpu=get_gpu("rtx4090")
        )
        assert priced != default
        assert priced > 0.0
