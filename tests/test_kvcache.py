"""Tests for the paged KV-cache block allocator."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import CapacityError, SchedulingError
from repro.serving.kvcache import KVCacheSpec, PagedKVCache
from repro.serving.models import get_model


def make_cache(n_blocks: int = 64) -> PagedKVCache:
    spec = KVCacheSpec(n_layers=2, kv_heads=2, head_dim=8, block_size=16)
    return PagedKVCache(spec, capacity_bytes=n_blocks * spec.bytes_per_block)


class TestSpec:
    def test_bytes_per_token(self):
        spec = KVCacheSpec(n_layers=32, kv_heads=8, head_dim=128)
        # 2 x 32 x 8 x 128 x 2 = 131072 (LLaMA-8B, §6.5).
        assert spec.bytes_per_token == 131072

    def test_for_model_tp_splits_heads(self):
        model = get_model("llama3.1-70b")
        spec = KVCacheSpec.for_model(model, tensor_parallel=4)
        assert spec.kv_heads == 2

    def test_for_model_pp_splits_layers(self):
        model = get_model("llama3.1-70b")
        spec = KVCacheSpec.for_model(model, pipeline_parallel=4)
        assert spec.n_layers == 20

    def test_block_bytes(self):
        spec = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=4, block_size=16)
        assert spec.bytes_per_block == 16 * spec.bytes_per_token


class TestAllocation:
    def test_lifecycle(self):
        kv = make_cache()
        kv.allocate(1, 20)  # 2 blocks
        assert kv.sequence_length(1) == 20
        assert kv.used_blocks == 2
        kv.append_token(1)
        assert kv.sequence_length(1) == 21
        assert kv.used_blocks == 2  # fits in slack
        kv.append_token(1, 12)
        assert kv.used_blocks == 3
        freed = kv.free(1)
        assert freed == 3
        assert kv.used_blocks == 0

    def test_ledger_holds_ceil_blocks(self):
        kv = make_cache()
        kv.allocate(5, 33)
        assert kv.used_blocks == 3
        kv.append_decode([5], 15)  # 48 tokens: the third block fills
        assert kv.used_blocks == 3
        kv.append_decode([5])  # the 49th token opens a fourth
        assert (kv.sequence_length(5), kv.used_blocks) == (49, 4)

    def test_failed_allocate_changes_nothing(self):
        kv = make_cache(n_blocks=4)
        with pytest.raises(CapacityError):
            kv.allocate(7, 80)  # 5 blocks
        assert (kv.used_blocks, kv.free_blocks) == (0, 4)
        with pytest.raises(SchedulingError):
            kv.sequence_length(7)
        kv.allocate(7, 16)
        assert (kv.sequence_length(7), kv.used_blocks) == (16, 1)

    def test_append_decode_grows_batch(self):
        kv = make_cache()
        kv.allocate(1, 16)
        kv.allocate(2, 1)
        kv.append_decode([1, 2], 16)
        assert kv.sequence_length(1) == 32
        assert kv.sequence_length(2) == 17
        assert kv.used_blocks == 4

    def test_append_decode_raises_partway(self):
        kv = make_cache(n_blocks=4)
        kv.allocate(1, 16)
        kv.allocate(2, 16)
        with pytest.raises(CapacityError):
            kv.append_decode([1, 2], 17)  # 2 + 2 new blocks, 2 free
        # The first sequence keeps its growth, like sequential appends.
        assert kv.sequence_length(1) == 33
        assert kv.sequence_length(2) == 16
        assert kv.used_blocks == 4
        with pytest.raises(SchedulingError):
            kv.append_decode([9])

    def test_can_append(self):
        kv = make_cache(n_blocks=4)
        kv.allocate(1, 15)
        kv.allocate(2, 16)
        assert kv.can_append([1, 2], 1)  # bound: 2 <= 2 free
        # The bound (2 x 2 blocks) fails; the walk finds 1 + 1 needed.
        assert kv.can_append([1, 2], 16)
        assert not kv.can_append([1, 2], 33)

    def test_capacity_exhaustion(self):
        kv = make_cache(n_blocks=4)
        kv.allocate(1, 16 * 4)
        with pytest.raises(CapacityError):
            kv.append_token(1)

    def test_can_allocate(self):
        kv = make_cache(n_blocks=4)
        assert kv.can_allocate(None, 64)
        assert not kv.can_allocate(None, 65)

    def test_blocks_needed(self):
        kv = make_cache()
        kv.allocate(1, 16)
        assert kv.blocks_needed(1, 1) == 1
        assert kv.blocks_needed(1, 16) == 1
        assert kv.blocks_needed(1, 17) == 2

    def test_double_allocate_rejected(self):
        kv = make_cache()
        kv.allocate(1, 4)
        with pytest.raises(SchedulingError):
            kv.allocate(1, 4)

    def test_unknown_sequence_rejected(self):
        kv = make_cache()
        with pytest.raises(SchedulingError):
            kv.append_token(9)
        with pytest.raises(SchedulingError):
            kv.free(9)
        with pytest.raises(SchedulingError):
            kv.sequence_length(9)

    def test_zero_token_alloc_rejected(self):
        kv = make_cache()
        with pytest.raises(SchedulingError):
            kv.allocate(1, 0)

    def test_too_small_capacity(self):
        spec = KVCacheSpec(n_layers=2, kv_heads=2, head_dim=8)
        with pytest.raises(CapacityError):
            PagedKVCache(spec, capacity_bytes=10)

    def test_utilization(self):
        kv = make_cache(n_blocks=10)
        kv.allocate(1, 16 * 5)
        assert kv.utilization == pytest.approx(0.5)

    def test_blocks_reused_after_free(self):
        kv = make_cache(n_blocks=4)
        kv.allocate(1, 64)
        kv.free(1)
        kv.allocate(2, 64)
        assert kv.used_blocks == 4


N_BLOCKS = 8


def _blocks(lengths: dict[int, int]) -> int:
    return sum(-(-t // 16) for t in lengths.values())


class TestPropertyBased:
    @given(st.lists(
        st.tuples(
            st.sampled_from(["alloc", "append", "append_decode", "free"]),
            st.integers(0, 5), st.integers(1, 40),
        ),
        max_size=60,
    ))
    # Each op kind running out of blocks, then a retry that fits.
    @example([("alloc", 0, 40), ("alloc", 1, 40), ("alloc", 2, 40),
              ("alloc", 2, 16)])
    @example([("alloc", 0, 40), ("alloc", 1, 40), ("append", 0, 60),
              ("append", 0, 8)])
    @example([("alloc", 0, 16), ("alloc", 1, 16), ("alloc", 2, 16),
              ("append_decode", 0, 33), ("append_decode", 2, 16)])
    def test_accounting_invariant(self, ops):
        # Small enough that every op kind regularly runs out of blocks.
        kv = make_cache(n_blocks=N_BLOCKS)
        live: dict[int, int] = {}
        for op, seq, n in ops:
            expected = dict(live)
            fits = True
            if op == "alloc" and seq not in live:
                expected[seq] = n
                fits = _blocks(expected) <= N_BLOCKS
                call = (kv.allocate, seq, n)
            elif op == "append" and seq in live:
                expected[seq] += n
                fits = _blocks(expected) <= N_BLOCKS
                call = (kv.append_token, seq, n)
            elif op == "append_decode":
                ids = sorted(s for s in live if s >= seq)
                for s in ids:
                    grown = {**expected, s: expected[s] + n}
                    if _blocks(grown) > N_BLOCKS:
                        # Sequences before the one that does not fit keep
                        # their growth, like the sequential equivalent.
                        fits = False
                        break
                    expected = grown
                call = (kv.append_decode, ids, n)
            elif op == "free" and seq in live:
                del expected[seq]
                call = (kv.free, seq)
            else:
                continue
            if not fits:
                if op != "append_decode":
                    expected = live  # a failed call changes nothing
                with pytest.raises(CapacityError):
                    call[0](*call[1:])
            else:
                call[0](*call[1:])
            live = expected
            assert kv.used_blocks == _blocks(live)
            assert kv.free_blocks + kv.used_blocks == kv.n_blocks
            for s, tokens in live.items():
                assert kv.sequence_length(s) == tokens
            for s in set(range(6)) - set(live):
                with pytest.raises(SchedulingError):
                    kv.sequence_length(s)
