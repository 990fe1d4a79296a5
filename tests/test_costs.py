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
        # whichever query (scalar, float or batch) filled the entry.
        memo = MemoizedStepCostModel(model(), ctx_bucket=64, token_bucket=16)
        ref = MemoizedStepCostModel(model(), ctx_bucket=64, token_bucket=16)
        for shape in [(8, 100, 1, 100), (8, 120, 1, 110), (8, 100, 0, 0),
                      (0, 0, 2, 300)]:
            assert memo.mixed_step_s(*shape) == ref.mixed_step(*shape).total_s
        assert memo.cache_info() == ref.cache_info()
        memo.decode_step_batch(8, [200])  # seeds the bucket-256 entry
        assert (memo.mixed_step_s(8, 250, 0, 0)
                == memo.mixed_step(8, 250, 0, 0).total_s)
        assert memo.cache_info()["mixed"]["hits"] == 1 + 2

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


class TestBatchDecodeCosts:
    """decode_step_batch must be bit-identical to the scalar paths."""

    CTXS = [1, 7, 64, 129, 1000, 4096]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"kv_compression_ratio": 4.0}],
        ids=["raw", "kvcomp"],
    )
    def test_engine_batch_matches_scalar_bitwise(self, kwargs):
        costs = model(**kwargs)
        batch = costs.decode_step_batch(8, self.CTXS)
        assert batch.shape == (len(self.CTXS),)
        for i, ctx in enumerate(self.CTXS):
            # Exact equality on purpose: the batch path replays the same
            # float ops elementwise, so == is the contract, not approx.
            assert batch[i] == costs.decode_step(8, ctx).total_s
            assert batch[i] == costs.mixed_step(8, ctx, 0, 0).total_s

    @pytest.mark.parametrize("backend", ["transformers", "vllm", "dfloat11"])
    def test_engine_batch_across_backends(self, backend):
        costs = model(backend)
        batch = costs.decode_step_batch(4, self.CTXS)
        for i, ctx in enumerate(self.CTXS):
            assert batch[i] == costs.decode_step(4, ctx).total_s

    def test_memoized_batch_prices_like_window_path(self):
        # The serving cores price decode-only windows via mixed_step;
        # the batch fast path must agree bitwise AND share the same
        # cache entries so scalar/batch interleaving stays coherent.
        memo = MemoizedStepCostModel(model(), ctx_bucket=64)
        ctxs = [100, 120, 128, 129]  # buckets: 128, 128, 128, 192
        batch = memo.decode_step_batch(8, ctxs)
        for i, ctx in enumerate(ctxs):
            assert batch[i] == memo.mixed_step(8, ctx, 0, 0).total_s
        info = memo.cache_info()
        assert info["mixed"]["misses"] == 2   # two distinct buckets
        assert info["mixed"]["size"] == 2
        # The scalar calls above all hit entries the batch call seeded.
        assert info["mixed"]["hits"] == 2 + len(ctxs)
