"""Tests for the step cost-model layer."""

import pytest

from repro.errors import ConfigError
from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.costs import (
    EngineCostModel,
    MemoizedStepCostModel,
    StepCostModel,
)
from repro.serving.engine import InferenceEngine
from repro.serving.models import get_model

G = get_gpu("rtx4090")
M = get_model("llama3.1-8b")


def model(backend="zipserv", **kw) -> EngineCostModel:
    return EngineCostModel(M, G, get_backend(backend), **kw)


class TestEngineCostModel:
    def test_satisfies_protocol(self):
        assert isinstance(model(), StepCostModel)
        assert isinstance(MemoizedStepCostModel(model()), StepCostModel)

    def test_engine_delegates_to_cost_model(self):
        eng = InferenceEngine(M, G, get_backend("zipserv"))
        assert eng.decode_step(8, 512).total_s == pytest.approx(
            eng.costs.decode_step(8, 512).total_s
        )
        assert eng.linear_time(32) is eng.costs.linear_time(32)

    def test_linear_cached_identity(self):
        costs = model()
        assert costs.linear_time(64) is costs.linear_time(64)

    def test_mixed_step_decode_only_matches_decode_step(self):
        costs = model()
        assert costs.mixed_step(16, 512, 0, 0).total_s == pytest.approx(
            costs.decode_step(16, 512).total_s
        )

    def test_mixed_step_prefill_only_matches_prefill_step(self):
        costs = model()
        # One sequence prefilling its whole prompt in one chunk.
        assert costs.mixed_step(0, 0, 1, 256).total_s == pytest.approx(
            costs.prefill_step(1, 256).total_s
        )

    def test_mixed_step_costs_more_than_parts_alone(self):
        costs = model()
        mixed = costs.mixed_step(8, 512, 2, 1024)
        assert mixed.total_s > costs.decode_step(8, 512).attention_s
        assert mixed.attention_s > 0

    def test_mixed_step_rejects_empty(self):
        with pytest.raises(ConfigError):
            model().mixed_step(0, 0, 0, 0)

    def test_kv_ratio_validation(self):
        with pytest.raises(ConfigError):
            model(kv_compression_ratio=0.5)


class TestMemoizedCostModel:
    def test_bucketing_caches(self):
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        first = memo.decode_step(8, 100)
        again = memo.decode_step(8, 120)  # same 64-token bucket (128)
        assert again == first
        assert memo.hits == 1 and memo.misses == 1

    def test_cache_hit_returns_fresh_copy(self):
        # Callers may accumulate into a returned breakdown (add() mutates
        # in place); that must never poison the cache.
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        first = memo.decode_step(8, 100)
        first.add(first)  # double it in place
        again = memo.decode_step(8, 100)
        assert again is not first
        assert again.total_s == pytest.approx(first.total_s / 2)

    def test_bucket_boundary_splits(self):
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        a = memo.decode_step(8, 128)   # bucket 128
        b = memo.decode_step(8, 129)   # bucket 192
        assert a != b

    def test_rounds_up_never_down(self):
        exact = model()
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        # The memoized charge uses the bucket top, so it can only be the
        # exact cost at a context >= the requested one.
        assert (memo.decode_step(8, 100).total_s
                >= exact.decode_step(8, 100).total_s)

    def test_component_queries_stay_exact(self):
        exact = model()
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        assert memo.attention_time(8, 100, "decode") == pytest.approx(
            exact.attention_time(8, 100, "decode")
        )
        assert memo.elementwise_time(33) == pytest.approx(
            exact.elementwise_time(33)
        )

    def test_mixed_step_cached_by_bucket(self):
        memo = MemoizedStepCostModel(model(), ctx_bucket=64, token_bucket=16)
        a = memo.mixed_step(8, 100, 1, 100)
        b = memo.mixed_step(8, 120, 1, 110)  # both bucket to (128, 112)
        assert a == b
        assert memo.hits == 1 and memo.misses == 1

    def test_float_table_prices_like_mixed_step(self):
        # The serving loops price through mixed_step_s: bitwise the
        # breakdown's total, under mixed_step's keys and accounting,
        # whichever query (breakdown or float) filled the entry.
        memo = MemoizedStepCostModel(model(), ctx_bucket=64, token_bucket=16)
        ref = MemoizedStepCostModel(model(), ctx_bucket=64, token_bucket=16)
        for shape in [(8, 100, 1, 100), (8, 120, 1, 110), (8, 100, 0, 0),
                      (0, 0, 2, 300)]:
            assert memo.mixed_step_s(*shape) == ref.mixed_step(*shape).total_s
        assert memo.cache_info() == ref.cache_info()
        seeded = memo.mixed_step(8, 200, 0, 0)  # seeds the bucket-256 entry
        before = memo.cache_info()["mixed"]
        assert memo.mixed_step_s(8, 250, 0, 0) == seeded.total_s
        after = memo.cache_info()["mixed"]
        assert after == {**before, "hits": before["hits"] + 1}

    def test_bucket_validation(self):
        with pytest.raises(ConfigError):
            MemoizedStepCostModel(model(), ctx_bucket=0)

    def test_cache_info_tracks_kinds(self):
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        memo.decode_step(8, 100)
        memo.decode_step(8, 120)  # same bucket: hit
        memo.prefill_step(1, 256)
        memo.mixed_step(8, 100, 1, 100)
        info = memo.cache_info()
        assert info["decode"] == {"hits": 1, "misses": 1, "size": 1}
        assert info["prefill"] == {"hits": 0, "misses": 1, "size": 1}
        assert info["mixed"] == {"hits": 0, "misses": 1, "size": 1}
        # Per-kind counters partition the global ones.
        assert memo.hits == 1 and memo.misses == 3
