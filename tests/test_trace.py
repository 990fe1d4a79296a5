"""Tests for the workload trace generators."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving.trace import (
    DEFAULT_OUTPUTS,
    DEFAULT_PROMPTS,
    LengthDistribution,
    TenantSpec,
    closed_loop_trace,
    multi_tenant_trace,
    poisson_trace,
    session_trace,
    total_tokens,
)

#: Every float argument of the generators, as (argument, call with it).
_FLOAT_ARGS = [
    ("rate_rps", lambda v: poisson_trace(5, v)),
    ("start_at", lambda v: poisson_trace(5, 1.0, start_at=v)),
    ("rate_rps", lambda v: TenantSpec(rate_rps=v, n_requests=5)),
    ("start_at", lambda v: multi_tenant_trace(start_at=v)),
    ("session_rate_rps", lambda v: session_trace(3, v)),
    ("mean_turns", lambda v: session_trace(3, 1.0, mean_turns=v)),
    ("think_time_s", lambda v: session_trace(3, 1.0, think_time_s=v)),
    ("start_at", lambda v: session_trace(3, 1.0, start_at=v)),
]


class TestLengthDistribution:
    def test_bounds_respected(self):
        dist = LengthDistribution(mean=100, cv=1.5, minimum=10, maximum=200)
        samples = dist.sample(5000, np.random.default_rng(0))
        assert samples.min() >= 10
        assert samples.max() <= 200

    def test_mean_roughly_matches(self):
        dist = LengthDistribution(mean=100, cv=0.5, minimum=1, maximum=10000)
        samples = dist.sample(20000, np.random.default_rng(1))
        assert samples.mean() == pytest.approx(100, rel=0.1)

    def test_zero_cv_deterministic(self):
        dist = LengthDistribution(mean=64, cv=0.0, minimum=1, maximum=128)
        samples = dist.sample(10, np.random.default_rng(2))
        assert np.all(samples == 64)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LengthDistribution(mean=0, cv=1, minimum=1, maximum=2)
        with pytest.raises(ConfigError):
            LengthDistribution(mean=10, cv=1, minimum=5, maximum=2)


class TestPoissonTrace:
    def test_shape(self):
        trace = poisson_trace(50, rate_rps=10.0, seed=3)
        assert len(trace) == 50
        assert trace[0].arrival_s == 0.0
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_rate_controls_span(self):
        slow = poisson_trace(100, rate_rps=1.0, seed=4)
        fast = poisson_trace(100, rate_rps=100.0, seed=4)
        assert fast[-1].arrival_s < slow[-1].arrival_s

    def test_deterministic(self):
        a = poisson_trace(20, 5.0, seed=7)
        b = poisson_trace(20, 5.0, seed=7)
        assert all(
            (x.arrival_s, x.prompt_len, x.max_new_tokens)
            == (y.arrival_s, y.prompt_len, y.max_new_tokens)
            for x, y in zip(a, b)
        )

    def test_lengths_in_default_bounds(self):
        trace = poisson_trace(200, 10.0, seed=8)
        assert all(
            DEFAULT_PROMPTS.minimum <= r.prompt_len <= DEFAULT_PROMPTS.maximum
            for r in trace
        )
        assert all(
            DEFAULT_OUTPUTS.minimum <= r.max_new_tokens
            <= DEFAULT_OUTPUTS.maximum for r in trace
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            poisson_trace(0, 1.0)
        with pytest.raises(ConfigError):
            poisson_trace(5, 0.0)


class TestNonFiniteInputs:
    # Unchecked, a NaN rate makes every arrival NaN and an infinite one
    # makes every arrival 0.0.
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize(
        "name, call", _FLOAT_ARGS,
        ids=[f"{i}-{name}" for i, (name, _) in enumerate(_FLOAT_ARGS)],
    )
    def test_rejected_naming_the_argument(self, name, call, value):
        with pytest.raises(
            ConfigError, match=f"^{name} must be finite, got {value}$"
        ):
            call(value)


class TestClosedLoop:
    def test_all_at_time_zero(self):
        trace = closed_loop_trace(8, 64, 32)
        assert all(r.arrival_s == 0.0 for r in trace)
        assert total_tokens(trace) == 8 * 32

    def test_engine_serves_poisson_trace(self):
        from repro.gpu.specs import get_gpu
        from repro.serving.backends import get_backend
        from repro.serving.engine import InferenceEngine
        from repro.serving.models import get_model

        engine = InferenceEngine(
            get_model("llama3.1-8b"), get_gpu("rtx4090"),
            get_backend("zipserv"),
        )
        trace = poisson_trace(
            10, rate_rps=20.0,
            prompts=LengthDistribution(64, 0.3, 16, 128),
            outputs=LengthDistribution(24, 0.3, 8, 48),
            seed=9,
        )
        expected = total_tokens(trace)
        result = engine.run_continuous(trace)
        assert result.tokens_generated == expected
        assert result.n_requests == 10


class TestTimeOrigin:
    def test_default_anchors_at_zero(self):
        trace = poisson_trace(20, 5.0, seed=11)
        assert trace[0].arrival_s == 0.0

    def test_explicit_start_shifts_whole_stream(self):
        base = poisson_trace(20, 5.0, seed=11, start_at=0.0)
        moved = poisson_trace(20, 5.0, seed=11, start_at=3.5)
        assert moved[0].arrival_s == pytest.approx(3.5)
        # Gaps are preserved, not rewritten.
        for a, b in zip(base, moved):
            assert b.arrival_s - a.arrival_s == pytest.approx(3.5)

    def test_none_keeps_raw_process(self):
        raw = poisson_trace(20, 5.0, seed=11, start_at=None)
        assert raw[0].arrival_s > 0.0


class TestSeedDeterminism:
    """Every generator must replay bit-identically from its seed.

    The bench regression gate and the kernel goldens both assume traces
    are pure functions of their arguments — any RNG leak (global numpy
    state, dict ordering, time-based salt) would show up here first.
    """

    @staticmethod
    def _fields(trace):
        return [
            (r.request_id, r.arrival_s, r.prompt_len, r.max_new_tokens,
             r.tenant, r.priority)
            for r in trace
        ]

    def test_poisson_trace_replays_from_seed(self):
        a = self._fields(poisson_trace(200, 20.0, seed=42))
        b = self._fields(poisson_trace(200, 20.0, seed=42))
        assert a == b

    def test_poisson_trace_seed_changes_stream(self):
        a = self._fields(poisson_trace(200, 20.0, seed=42))
        b = self._fields(poisson_trace(200, 20.0, seed=43))
        assert a != b

    def test_multi_tenant_trace_replays_from_seed(self):
        from repro.serving.trace import multi_tenant_trace

        a = self._fields(multi_tenant_trace(seed=42))
        b = self._fields(multi_tenant_trace(seed=42))
        assert a == b
        c = self._fields(multi_tenant_trace(seed=1))
        assert a != c

    def test_closed_loop_trace_replays(self):
        # No RNG at all: identical across calls by construction.
        a = self._fields(closed_loop_trace(16, 64, 32))
        b = self._fields(closed_loop_trace(16, 64, 32))
        assert a == b


class TestMultiTenantTrace:
    def test_default_mix(self):
        from repro.serving.trace import DEFAULT_TENANTS, multi_tenant_trace

        trace = multi_tenant_trace(seed=3)
        expected = sum(t.n_requests for t in DEFAULT_TENANTS.values())
        assert len(trace) == expected
        tenants = {r.tenant for r in trace}
        assert tenants == set(DEFAULT_TENANTS)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == pytest.approx(0.0)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    def test_priorities_tagged_per_tenant(self):
        from repro.serving.trace import (
            DEFAULT_TENANTS, TenantSpec, multi_tenant_trace,
        )

        trace = multi_tenant_trace(seed=3)
        for req in trace:
            assert req.priority == DEFAULT_TENANTS[req.tenant].priority

    def test_custom_tenants_and_lengths(self):
        from repro.serving.trace import TenantSpec, multi_tenant_trace

        tenants = {
            "short": TenantSpec(
                rate_rps=50.0, n_requests=20,
                prompts=LengthDistribution(32, 0.2, 16, 64),
                outputs=LengthDistribution(8, 0.0, 8, 8),
                priority=2,
            ),
            "long": TenantSpec(
                rate_rps=5.0, n_requests=5,
                prompts=LengthDistribution(512, 0.2, 256, 1024),
                outputs=LengthDistribution(64, 0.0, 64, 64),
            ),
        }
        trace = multi_tenant_trace(tenants, seed=4)
        shorts = [r for r in trace if r.tenant == "short"]
        longs = [r for r in trace if r.tenant == "long"]
        assert len(shorts) == 20 and len(longs) == 5
        assert max(r.prompt_len for r in shorts) <= 64
        assert min(r.prompt_len for r in longs) >= 256
        assert all(r.priority == 2 for r in shorts)
        assert all(r.max_new_tokens == 64 for r in longs)

    def test_deterministic(self):
        from repro.serving.trace import multi_tenant_trace

        a = multi_tenant_trace(seed=9)
        b = multi_tenant_trace(seed=9)
        assert all(
            (x.arrival_s, x.prompt_len, x.max_new_tokens, x.tenant)
            == (y.arrival_s, y.prompt_len, y.max_new_tokens, y.tenant)
            for x, y in zip(a, b)
        )

    def test_validation(self):
        from repro.serving.trace import TenantSpec, multi_tenant_trace

        with pytest.raises(ConfigError):
            multi_tenant_trace({}, seed=0)
        with pytest.raises(ConfigError):
            TenantSpec(rate_rps=0.0, n_requests=5)
        with pytest.raises(ConfigError):
            TenantSpec(rate_rps=1.0, n_requests=0)

    def test_start_at_anchors_merged_stream(self):
        from repro.serving.trace import multi_tenant_trace

        moved = multi_tenant_trace(seed=5, start_at=2.0)
        assert moved[0].arrival_s == pytest.approx(2.0)
        raw = multi_tenant_trace(seed=5, start_at=None)
        assert raw[0].arrival_s > 0.0
