"""Tests for the serving-metrics layer."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving.metrics import (
    ContinuousResult,
    LatencySummary,
    RequestTiming,
    ServingMetrics,
    SLOTarget,
    collect_timings,
    percentile,
)
from repro.serving.scheduler import Request


def timing(ttft=0.1, tpot=0.02, n=10, arrival=0.0, **kw) -> RequestTiming:
    first = arrival + ttft
    return RequestTiming(
        request_id=kw.pop("request_id", 0),
        arrival_s=arrival,
        first_token_s=first,
        finish_s=first + tpot * (n - 1),
        n_tokens=n,
        **kw,
    )


class TestPercentile:
    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        values = list(rng.uniform(0, 10, size=37))
        for q in (0, 25, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_interpolates_even_count(self):
        # The seed's latencies[len // 2] would give 3.0 here; true p50 is 2.5.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            percentile([], 50)

    def test_bad_q_rejected(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 150)


class TestLatencySummary:
    def test_ordering(self):
        s = LatencySummary.from_values([float(i) for i in range(1, 101)])
        assert s.p50_s <= s.p90_s <= s.p95_s <= s.p99_s <= s.max_s
        assert s.n == 100
        assert s.mean_s == pytest.approx(50.5)

    def test_empty_is_zero(self):
        s = LatencySummary.from_values([])
        assert s.n == 0 and s.max_s == 0.0


class TestRequestTiming:
    def test_derived_metrics(self):
        t = RequestTiming(request_id=1, arrival_s=1.0, first_token_s=1.5,
                          finish_s=3.5, n_tokens=5)
        assert t.ttft_s == pytest.approx(0.5)
        assert t.tpot_s == pytest.approx(0.5)
        assert t.e2e_s == pytest.approx(2.5)

    def test_single_token_tpot_zero(self):
        t = RequestTiming(request_id=1, arrival_s=0.0, first_token_s=0.5,
                          finish_s=0.5, n_tokens=1)
        assert t.tpot_s == 0.0

    def test_slo(self):
        slo = SLOTarget(ttft_s=1.0, tpot_s=0.1)
        assert timing(ttft=0.5, tpot=0.05).meets(slo)
        assert not timing(ttft=1.5, tpot=0.05).meets(slo)
        assert not timing(ttft=0.5, tpot=0.2).meets(slo)

    def test_slo_validation(self):
        with pytest.raises(ConfigError):
            SLOTarget(ttft_s=0.0)

    @pytest.mark.parametrize("field", ["ttft_s", "tpot_s"])
    def test_slo_rejects_nan_but_allows_inf(self, field):
        # NaN fails every comparison: the run would report zero
        # attainment and goodput instead of an error.
        with pytest.raises(ConfigError, match=field):
            SLOTarget(**{field: math.nan})
        unbounded = SLOTarget(**{field: math.inf})
        assert timing(ttft=50.0, tpot=5.0).meets(
            SLOTarget(ttft_s=math.inf, tpot_s=math.inf)
        )
        assert getattr(unbounded, field) == math.inf


class TestCollectTimings:
    def test_skips_unfinished(self):
        done = Request(0, 16, 4, arrival_s=0.0)
        done.generated = 4
        done.first_token_s = 0.1
        done.finish_s = 0.5
        half = Request(1, 16, 4)
        rows = collect_timings([done, half])
        assert [t.request_id for t in rows] == [0]
        assert rows[0].n_tokens == 4

    def test_carries_tenant_and_priority(self):
        req = Request(0, 16, 4, tenant="chat", priority=3)
        req.generated = 4
        req.first_token_s = 0.1
        req.finish_s = 0.5
        row = collect_timings([req])[0]
        assert row.tenant == "chat" and row.priority == 3


class TestServingMetrics:
    def test_goodput_counts_only_slo_met(self):
        slo = SLOTarget(ttft_s=1.0, tpot_s=0.1)
        rows = [timing(ttft=0.5, request_id=0),
                timing(ttft=2.0, request_id=1),
                timing(ttft=0.2, request_id=2)]
        m = ServingMetrics.from_timings(rows, makespan_s=10.0, slo=slo)
        assert m.slo_attainment == pytest.approx(2 / 3)
        assert m.goodput_rps == pytest.approx(0.2)
        assert m.goodput_tok_s == pytest.approx(2.0)

    def test_empty_guarded(self):
        m = ServingMetrics.from_timings([], makespan_s=5.0)
        assert m.slo_attainment == 0.0 and m.goodput_rps == 0.0


class TestContinuousResult:
    def test_from_run_empty_finished_guarded(self):
        result = ContinuousResult.from_run(
            [], makespan_s=1.0, n_steps=0, peak_running=0
        )
        assert result.n_requests == 0
        assert result.latency_p50_s == 0.0
        assert result.throughput_tok_s == 0.0

    def test_interpolated_p50(self):
        reqs = []
        for i, lat in enumerate((1.0, 2.0, 3.0, 4.0)):
            r = Request(i, 16, 4, arrival_s=0.0)
            r.generated = 4
            r.first_token_s = 0.1
            r.finish_s = lat
            reqs.append(r)
        result = ContinuousResult.from_run(
            reqs, makespan_s=4.0, n_steps=4, peak_running=4
        )
        # Interpolated, not the seed's latencies[len // 2] (== 3.0).
        assert result.latency_p50_s == pytest.approx(2.5)
        assert result.latency_max_s == pytest.approx(4.0)

    def test_tenant_timings_filter(self):
        reqs = []
        for i, tenant in enumerate(("chat", "batch", "chat")):
            r = Request(i, 16, 2, tenant=tenant)
            r.generated = 2
            r.first_token_s = 0.1
            r.finish_s = 1.0
            reqs.append(r)
        result = ContinuousResult.from_run(
            reqs, makespan_s=1.0, n_steps=2, peak_running=3
        )
        assert len(result.tenant_timings("chat")) == 2
        assert len(result.tenant_timings("batch")) == 1


def partial(ttft=0.1, arrival=0.0, n=3, **kw) -> RequestTiming:
    """A deadline-cut timing: first token stamped, no finish."""
    return RequestTiming(
        request_id=kw.pop("request_id", 0),
        arrival_s=arrival,
        first_token_s=arrival + ttft,
        finish_s=None,
        n_tokens=n,
        **kw,
    )


class TestNaNSafeSummaries:
    """The empty-and-partial-cohort contract of an overloaded window."""

    def test_nonfinite_values_filtered(self):
        s = LatencySummary.from_values([1.0, math.nan, 3.0, math.inf])
        assert s.n == 2
        assert s.mean_s == pytest.approx(2.0)
        assert s.max_s == pytest.approx(3.0)

    def test_all_nan_is_zero_summary(self):
        s = LatencySummary.from_values([math.nan, math.nan])
        assert s.n == 0 and s.max_s == 0.0

    def test_partial_timing_properties(self):
        t = partial(ttft=0.4, n=5)
        assert not t.finished
        assert t.ttft_s == pytest.approx(0.4)
        assert math.isnan(t.tpot_s)
        assert math.isnan(t.e2e_s)

    def test_finished_timing_flag(self):
        assert timing().finished

    def test_partial_never_meets_slo(self):
        generous = SLOTarget(ttft_s=100.0, tpot_s=100.0)
        assert not partial(ttft=0.01).meets(generous)

    def test_collect_timings_include_partial(self):
        cut = Request(0, 16, 8, arrival_s=0.0)
        cut.generated = 3
        cut.first_token_s = 0.2
        never_started = Request(1, 16, 8, arrival_s=0.0)
        rows = collect_timings([cut, never_started], include_partial=True)
        assert [t.request_id for t in rows] == [0]
        assert rows[0].finish_s is None
        assert rows[0].n_tokens == 3
        # The default contract still drops both.
        assert collect_timings([cut, never_started]) == []

    def test_from_timings_all_partial_is_finite(self):
        rows = [partial(ttft=0.2 * (i + 1), request_id=i)
                for i in range(4)]
        m = ServingMetrics.from_timings(rows, makespan_s=10.0)
        assert m.n_timings == 4
        assert m.slo_attainment == 0.0
        assert m.slo_violation_rate == 1.0
        assert m.goodput_rps == 0.0
        assert m.latency.n == 0
        assert m.ttft.n == 4  # TTFTs of partials are real measurements
        assert math.isfinite(m.ttft.p95_s)

    def test_from_timings_mixed_cohort(self):
        rows = [timing(ttft=0.1, request_id=0),
                partial(ttft=0.3, request_id=1)]
        m = ServingMetrics.from_timings(rows, makespan_s=10.0)
        assert m.n_timings == 2
        assert m.slo_attainment == pytest.approx(0.5)
        assert m.slo_violation_rate == pytest.approx(0.5)
        assert m.latency.n == 1
        assert m.ttft.n == 2

    def test_violation_rate_zero_when_no_timings(self):
        m = ServingMetrics.from_timings([], makespan_s=5.0)
        assert m.n_timings == 0
        assert m.slo_violation_rate == 0.0


class TestOverloadAccounting:
    """ContinuousResult conservation fields and windowed metrics."""

    @staticmethod
    def _finished(request_id, arrival, finish, n=4):
        r = Request(request_id, 16, n, arrival_s=arrival)
        r.generated = n
        r.first_token_s = arrival + 0.1
        r.finish_s = finish
        return r

    @staticmethod
    def _cut(request_id, arrival, generated=2):
        r = Request(request_id, 16, 8, arrival_s=arrival)
        r.generated = generated
        r.first_token_s = arrival + 0.2
        return r

    def test_conservation_fields(self):
        done = [self._finished(0, 0.0, 1.0)]
        cut = [self._cut(1, 0.5), Request(2, 16, 8, arrival_s=0.9)]
        result = ContinuousResult.from_run(
            done, makespan_s=2.0, n_steps=5, peak_running=2,
            unfinished=cut, deadline_s=2.0,
        )
        assert result.n_requests == 1
        assert result.n_unfinished == 2
        assert result.n_rejected == 0
        assert result.n_offered == 3
        assert result.unfinished_rate == pytest.approx(2 / 3)
        assert result.deadline_s == 2.0

    def test_partial_tokens_count_toward_throughput(self):
        done = [self._finished(0, 0.0, 1.0, n=4)]
        cut = [self._cut(1, 0.5, generated=3)]
        result = ContinuousResult.from_run(
            done, makespan_s=2.0, n_steps=5, peak_running=2,
            unfinished=cut, deadline_s=2.0,
        )
        assert result.tokens_generated == 7
        assert result.throughput_tok_s == pytest.approx(3.5)

    def test_partial_timings_included(self):
        done = [self._finished(0, 0.0, 1.0)]
        cut = [self._cut(1, 0.5)]
        result = ContinuousResult.from_run(
            done, makespan_s=2.0, n_steps=5, peak_running=2,
            unfinished=cut, deadline_s=2.0,
        )
        assert len(result.timings) == 2
        assert result.timings[1].finish_s is None
        assert result.metrics.n_timings == 2

    def test_zero_finished_overloaded_window_is_nan_safe(self):
        # The ISSUE's headline case: everything offered, nothing done.
        cut = [self._cut(i, 0.1 * i) for i in range(5)]
        result = ContinuousResult.from_run(
            [], makespan_s=1.0, n_steps=3, peak_running=5,
            unfinished=cut, deadline_s=1.0,
        )
        assert result.n_requests == 0
        assert result.unfinished_rate == 1.0
        assert result.latency_p50_s == 0.0
        assert math.isfinite(result.throughput_tok_s)
        m = result.window_metrics(0.0, 1.0)
        assert m.slo_violation_rate == 1.0
        assert math.isfinite(m.ttft.p95_s)

    def test_defaults_keep_legacy_shape(self):
        result = ContinuousResult.from_run(
            [self._finished(0, 0.0, 1.0)],
            makespan_s=1.0, n_steps=1, peak_running=1,
        )
        assert result.n_unfinished == 0
        assert result.n_rejected == 0
        assert result.deadline_s is None
        assert result.n_offered == result.n_requests

    def test_window_filters_by_arrival(self):
        reqs = [self._finished(i, float(i), float(i) + 0.5)
                for i in range(10)]
        result = ContinuousResult.from_run(
            reqs, makespan_s=10.0, n_steps=10, peak_running=1,
        )
        m = result.window_metrics(2.0, 7.0)
        assert m.n_timings == 5  # arrivals 2, 3, 4, 5, 6
        # Goodput denominator is the window length, not the makespan.
        assert m.goodput_rps == pytest.approx(m.slo_attainment * 5 / 5.0)

    def test_window_validation(self):
        result = ContinuousResult.from_run(
            [], makespan_s=1.0, n_steps=0, peak_running=0
        )
        with pytest.raises(ConfigError):
            result.window_metrics(2.0, 2.0)

    def test_empty_window_is_zero_metrics(self):
        result = ContinuousResult.from_run(
            [self._finished(0, 0.0, 1.0)],
            makespan_s=1.0, n_steps=1, peak_running=1,
        )
        m = result.window_metrics(5.0, 6.0)
        assert m.n_timings == 0
        assert m.goodput_rps == 0.0
