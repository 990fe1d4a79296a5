"""Tests for the open-loop driver and knee search (`repro.serving.openloop`).

The properties that make an open-loop capacity number trustworthy:

* **arrival independence** — the offered stream is a pure function of
  ``(rate, duration, seed)``; a slow server sees exactly the stamps a
  fast one does;
* **conservation** — at every deadline,
  ``finished + unfinished + rejected == offered``;
* **warmup exclusion is pure summarisation** — trimming the window never
  changes what happened, only which cohort is reported;
* **overload terminates** — driving far past saturation ends at the
  deadline with finite, sensible metrics;
* **bisection converges and always terminates**, even under
  non-monotone probe noise.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigError
from repro.gpu.specs import get_gpu
from repro.serving import (
    DisaggConfig,
    InferenceEngine,
    SchedulerLimits,
    ServingConfig,
    find_knee,
    get_backend,
    get_model,
    goodput_feasible,
    open_loop_arrivals,
    run_open_loop,
)
from repro.serving.metrics import ContinuousResult

LIMITS = SchedulerLimits(max_num_seqs=16, max_batched_tokens=8192)


# ----------------------------------------------------------------------
# A synthetic closed-form server: single FIFO queue, fixed service time.
# Capacity is exactly 1/service_s requests per second, so knee placement
# is checkable without the engine's cost model in the loop.
# ----------------------------------------------------------------------
def make_fifo_server(service_s: float, recorded_arrivals=None):
    def serve(requests, deadline_s):
        reqs = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        if recorded_arrivals is not None:
            recorded_arrivals.append([r.arrival_s for r in reqs])
        clock = 0.0
        finished, unfinished = [], []
        for i, req in enumerate(reqs):
            start = max(clock, req.arrival_s)
            end = start + service_s
            if deadline_s is not None and end > deadline_s:
                # FIFO: nothing behind this request can finish either.
                unfinished.extend(reqs[i:])
                break
            req.first_token_s = start + 0.5 * service_s
            req.finish_s = end
            req.generated = req.max_new_tokens
            clock = end
            finished.append(req)
        return ContinuousResult.from_run(
            finished, makespan_s=clock, n_steps=len(finished),
            peak_running=1, unfinished=unfinished, deadline_s=deadline_s,
        )
    return serve


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(
        get_model("llama3.1-8b"), get_gpu("rtx4090"), get_backend("zipserv")
    )


@pytest.fixture(scope="module")
def colocated_serve(engine):
    config = ServingConfig(
        prefill_mode="chunked", cost_bucket=64, limits=LIMITS
    )
    return lambda reqs, deadline: engine.serve(
        reqs, config=config, deadline_s=deadline
    )


class TestOpenLoopArrivals:
    def test_pure_function_of_seed(self):
        a = open_loop_arrivals(10.0, 20.0, seed=7)
        b = open_loop_arrivals(10.0, 20.0, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = open_loop_arrivals(10.0, 20.0, seed=7)
        b = open_loop_arrivals(10.0, 20.0, seed=8)
        assert not np.array_equal(a, b)

    def test_all_inside_horizon(self):
        arrivals = open_loop_arrivals(50.0, 10.0, seed=0)
        assert arrivals.size > 0
        assert arrivals.min() > 0.0
        assert arrivals.max() < 10.0
        assert np.all(np.diff(arrivals) >= 0)

    def test_count_is_poisson_random(self):
        # Mean count over seeds approximates rate * duration; the count
        # itself varies seed to seed (unlike poisson_trace's fixed n).
        counts = [
            open_loop_arrivals(20.0, 10.0, seed=s).size for s in range(30)
        ]
        assert len(set(counts)) > 1
        assert np.mean(counts) == pytest.approx(200, rel=0.15)

    def test_long_horizon_chunks(self):
        # Forces the tail loop past the first chunk draw.
        arrivals = open_loop_arrivals(0.5, 400.0, seed=3)
        assert arrivals.max() < 400.0
        assert arrivals.size == pytest.approx(200, rel=0.5)

    def test_can_be_empty(self):
        assert open_loop_arrivals(0.001, 0.5, seed=0).size == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            open_loop_arrivals(0.0, 10.0)
        with pytest.raises(ConfigError):
            open_loop_arrivals(10.0, 0.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("name", ["rate_rps", "duration_s"])
    def test_non_finite_rejected(self, name, value):
        # Unchecked, these fail as an untyped ValueError or
        # OverflowError while sizing the first chunk of gaps.
        args = {"rate_rps": 10.0, "duration_s": 10.0, name: value}
        with pytest.raises(
            ConfigError, match=f"^{name} must be finite, got {value}$"
        ):
            open_loop_arrivals(**args, seed=1)


class TestArrivalIndependence:
    """The defining open-loop property: completions cannot shape load."""

    def test_fast_vs_slow_server_same_stamps(self):
        seen_fast, seen_slow = [], []
        fast = make_fifo_server(0.001, recorded_arrivals=seen_fast)
        slow = make_fifo_server(0.5, recorded_arrivals=seen_slow)
        for server, seen in ((fast, seen_fast), (slow, seen_slow)):
            run_open_loop(server, "chat", 8.0, 10.0,
                          warmup_s=1.0, cooldown_s=1.0, seed=11)
        assert seen_fast == seen_slow
        assert len(seen_fast[0]) > 0

    def test_engine_sees_same_stamps_as_stub(self, colocated_serve):
        seen_engine, seen_stub = [], []

        def recording_engine(reqs, deadline):
            seen_engine.append([r.arrival_s for r in reqs])
            return colocated_serve(reqs, deadline)

        stub = make_fifo_server(0.25, recorded_arrivals=seen_stub)
        run_open_loop(recording_engine, "chat", 6.0, 8.0, seed=5)
        run_open_loop(stub, "chat", 6.0, 8.0, seed=5)
        assert seen_engine == seen_stub

    def test_offered_count_independent_of_deadline(self):
        tight = run_open_loop(make_fifo_server(1.0), "fixed_length",
                              4.0, 10.0, deadline_s=10.0, seed=2)
        loose = run_open_loop(make_fifo_server(1.0), "fixed_length",
                              4.0, 10.0, deadline_s=100.0, seed=2)
        assert tight.n_offered == loose.n_offered


class TestConservation:
    """finished + unfinished + rejected == offered, at every deadline."""

    @given(seed=st.integers(0, 2**16))
    def test_fifo_overload(self, seed):
        m = run_open_loop(
            make_fifo_server(0.2), "fixed_length", 20.0, 10.0,
            deadline_s=10.0, seed=seed,
        )
        r = m.result
        assert r.n_requests + r.n_unfinished + r.n_rejected == m.n_offered

    @given(rate=st.floats(0.5, 50.0), service=st.floats(0.01, 1.0))
    def test_fifo_any_load(self, rate, service):
        m = run_open_loop(
            make_fifo_server(service), "fixed_length", rate, 5.0,
            deadline_s=5.0, seed=0,
        )
        r = m.result
        assert r.n_requests + r.n_unfinished + r.n_rejected == m.n_offered
        assert r.unfinished_rate <= 1.0

    @pytest.mark.parametrize("rate", [2.0, 10.0, 40.0])
    def test_colocated_engine(self, colocated_serve, rate):
        m = run_open_loop(
            colocated_serve, "chat", rate, 10.0,
            warmup_s=2.0, cooldown_s=2.0, deadline_s=12.0, seed=0,
        )
        r = m.result
        assert r.n_requests + r.n_unfinished + r.n_rejected == m.n_offered

    def test_disagg_engine_overload(self, engine):
        config = ServingConfig(
            mode="disaggregated", cost_bucket=64, limits=LIMITS,
            disagg=DisaggConfig(
                link_gb_per_s=0.125, transfer_codec="none",
                prefill_mode="chunked",
            ),
        )
        serve = lambda reqs, dl: engine.serve(
            reqs, config=config, deadline_s=dl
        )
        m = run_open_loop(serve, "chat", 30.0, 10.0,
                          deadline_s=12.0, seed=0)
        r = m.result
        assert r.n_unfinished > 0  # the starved link cannot keep up
        assert r.n_requests + r.n_unfinished + r.n_rejected == m.n_offered


class TestWarmupExclusion:
    """Trimming windows is pure summarisation, never re-simulation."""

    def test_steady_equals_direct_window(self):
        trimmed = run_open_loop(
            make_fifo_server(0.1), "chat", 5.0, 15.0,
            warmup_s=2.5, cooldown_s=2.5, deadline_s=45.0, seed=0,
        )
        untrimmed = run_open_loop(
            make_fifo_server(0.1), "chat", 5.0, 15.0,
            warmup_s=0.0, cooldown_s=0.0, deadline_s=45.0, seed=0,
        )
        assert trimmed.steady == untrimmed.result.window_metrics(2.5, 12.5)

    def test_steady_percentiles_insensitive_to_trim_choice(
        self, colocated_serve
    ):
        # Two different trims whose windows overlap on [3, 9): the
        # shared sub-window summarises identically from either run.
        a = run_open_loop(colocated_serve, "chat", 6.0, 12.0,
                          warmup_s=2.0, cooldown_s=2.0, seed=3)
        b = run_open_loop(colocated_serve, "chat", 6.0, 12.0,
                          warmup_s=3.0, cooldown_s=3.0, seed=3)
        assert a.result.window_metrics(3.0, 9.0) \
            == b.result.window_metrics(3.0, 9.0)
        assert b.steady == a.result.window_metrics(3.0, 9.0)

    def test_warmup_changes_reported_cohort_only(self):
        m = run_open_loop(
            make_fifo_server(0.1), "chat", 5.0, 15.0,
            warmup_s=5.0, cooldown_s=5.0, deadline_s=45.0, seed=0,
        )
        assert m.n_steady_offered <= m.n_offered
        assert m.steady.n_timings == m.n_steady_offered


class TestDeadline:
    def test_large_deadline_matches_unbounded_run(self, engine):
        from repro.serving import get_profile

        config = ServingConfig(
            prefill_mode="chunked", cost_bucket=64, limits=LIMITS
        )
        arrivals = open_loop_arrivals(4.0, 8.0, seed=9)
        unbounded = engine.serve(
            get_profile("chat").trace(arrivals, seed=9), config=config
        )
        bounded = engine.serve(
            get_profile("chat").trace(arrivals, seed=9), config=config,
            deadline_s=1e9,
        )
        assert bounded.makespan_s == unbounded.makespan_s
        assert bounded.n_requests == unbounded.n_requests
        assert bounded.n_unfinished == 0
        assert bounded.timings == unbounded.timings

    def test_overload_terminates_without_capacity_error(
        self, colocated_serve
    ):
        # Without the deadline this offered load never drains in-window;
        # with it, the run must end cleanly with the backlog counted.
        m = run_open_loop(colocated_serve, "code_generation", 50.0, 8.0,
                          deadline_s=9.0, seed=0)
        assert m.result.n_unfinished > 0
        assert m.result.deadline_s == 9.0

    def test_unbounded_stranded_requests_still_raise(self, engine):
        # The deadline path must not weaken the historical invariant:
        # run-to-completion with an unservable request still raises.
        from repro.serving.scheduler import Request

        huge = [Request(0, prompt_len=10_000_000, max_new_tokens=4)]
        with pytest.raises(CapacityError):
            engine.serve(huge, config=ServingConfig(limits=LIMITS))

    def test_run_open_loop_validation(self):
        server = make_fifo_server(0.1)
        with pytest.raises(ConfigError):
            run_open_loop(server, "chat", 5.0, 10.0, deadline_s=5.0)
        with pytest.raises(ConfigError):
            run_open_loop(server, "chat", 5.0, 10.0,
                          warmup_s=6.0, cooldown_s=5.0)
        with pytest.raises(ConfigError):
            run_open_loop(server, "chat", 5.0, 0.0)

    def test_default_deadline_is_three_durations(self):
        m = run_open_loop(make_fifo_server(0.01), "chat", 5.0, 10.0,
                          seed=0)
        assert m.deadline_s == 30.0

    def test_zero_offered_run_is_well_formed(self):
        m = run_open_loop(make_fifo_server(0.1), "chat", 0.001, 1.0,
                          seed=0)
        assert m.n_offered == 0
        assert m.result.n_requests == 0
        assert goodput_feasible(m)  # vacuously

    def test_serve_losing_requests_is_detected(self):
        def lossy(requests, deadline_s):
            return ContinuousResult.from_run(
                [], makespan_s=1.0, n_steps=0, peak_running=0,
            )
        with pytest.raises(ConfigError):
            run_open_loop(lossy, "chat", 5.0, 10.0, seed=0)


class TestPastSaturation:
    """Driving far past the knee must report finite, sensible metrics."""

    def test_colocated_engine_past_saturation(self, colocated_serve):
        m = run_open_loop(
            colocated_serve, "chat", 64.0, 10.0,
            warmup_s=2.0, cooldown_s=2.0, deadline_s=12.0, seed=0,
        )
        r = m.result
        assert r.n_unfinished > 0
        assert 0.0 < r.unfinished_rate <= 1.0
        assert math.isfinite(m.steady.ttft.p95_s)
        assert math.isfinite(m.steady.goodput_rps)
        assert math.isfinite(r.throughput_tok_s)
        assert 0.0 <= m.steady.slo_violation_rate <= 1.0
        # Deep overload: the offered-based rate counts never-started
        # requests as violations (the timing-based one cannot see them).
        assert m.steady_slo_violation_rate > 0.5
        assert not goodput_feasible(m)

    def test_fifo_all_unfinished_window(self):
        # Zero finished in the whole run: the NaN-safety acceptance case.
        m = run_open_loop(
            make_fifo_server(100.0), "fixed_length", 5.0, 10.0,
            warmup_s=1.0, cooldown_s=1.0, deadline_s=10.0, seed=0,
        )
        r = m.result
        assert r.n_requests == 0
        assert r.n_unfinished == m.n_offered
        assert m.steady.goodput_rps == 0.0
        assert math.isfinite(m.steady.ttft.p95_s)
        assert m.steady.latency.n == 0
        assert m.steady_slo_violation_rate == 1.0

    def test_offered_based_violation_rate_bounds(self):
        overloaded = run_open_loop(
            make_fifo_server(100.0), "fixed_length", 5.0, 10.0,
            warmup_s=1.0, cooldown_s=1.0, deadline_s=10.0, seed=0,
        )
        assert overloaded.steady_slo_violation_rate == 1.0
        easy = run_open_loop(
            make_fifo_server(0.01), "fixed_length", 2.0, 10.0,
            warmup_s=1.0, cooldown_s=1.0, seed=0,
        )
        assert easy.steady_slo_violation_rate == pytest.approx(0.0)


class TestMonotonicity:
    """Past the knee, more offered load never buys more goodput."""

    def test_fifo_goodput_collapses_past_knee(self):
        # Capacity 10 rps; measure at 1x, 1.6x, 3x, 6x capacity.
        goodputs = []
        for rate in (10.0, 16.0, 30.0, 60.0):
            m = run_open_loop(
                make_fifo_server(0.1), "fixed_length", rate, 30.0,
                warmup_s=5.0, cooldown_s=5.0, deadline_s=30.0, seed=1,
            )
            goodputs.append(m.steady.goodput_rps)
        for earlier, later in zip(goodputs, goodputs[1:]):
            assert later <= earlier + 0.5  # small sampling tolerance

    def test_engine_goodput_non_increasing_past_knee(self, colocated_serve):
        goodputs = []
        for rate in (16.0, 32.0, 64.0):
            m = run_open_loop(
                colocated_serve, "chat", rate, 12.0,
                warmup_s=2.0, cooldown_s=2.0, deadline_s=14.0, seed=0,
            )
            goodputs.append(m.steady.goodput_rps)
        for earlier, later in zip(goodputs, goodputs[1:]):
            assert later <= earlier + 0.5


class TestBisection:
    def test_closed_form_knee_within_tolerance(self):
        probe = lambda rate: rate <= 10.0
        k = find_knee(probe, 1.0, 33.0, rate_tol_rps=0.5, max_probes=12)
        assert k.converged
        assert 10.0 - 0.5 <= k.knee_rps <= 10.0
        assert k.infeasible_rps - k.knee_rps <= 0.5

    def test_probe_budget(self):
        # Bracket 32 wide, tolerance 0.5: 2 endpoints + 6 halvings.
        probes = []
        probe = lambda rate: (probes.append(rate), rate <= 10.0)[1]
        k = find_knee(probe, 1.0, 33.0, rate_tol_rps=0.5, max_probes=12)
        assert k.n_probes == len(probes) == 8

    def test_history_records_every_probe(self):
        k = find_knee(lambda r: r <= 4.0, 1.0, 9.0, rate_tol_rps=1.0)
        assert len(k.history) == k.n_probes
        assert all(ok == (rate <= 4.0) for rate, ok in k.history)

    def test_lo_infeasible_returns_zero(self):
        k = find_knee(lambda r: False, 1.0, 10.0)
        assert k.knee_rps == 0.0
        assert k.infeasible_rps == 1.0
        assert k.n_probes == 1
        assert not k.converged

    def test_hi_feasible_returns_hi(self):
        k = find_knee(lambda r: True, 1.0, 10.0)
        assert k.knee_rps == 10.0
        assert math.isinf(k.infeasible_rps)
        assert k.n_probes == 2
        assert not k.converged

    def test_nonmonotone_noise_still_terminates(self):
        # A deterministic noisy probe that flips answers near the knee:
        # the bracket invariant degrades to "observed", but the loop is
        # probe-bounded so it must terminate with a finite bracket.
        def noisy(rate):
            base = rate <= 10.0
            if 8.0 < rate < 12.0 and int(rate * 997) % 3 == 0:
                return not base
            return base
        k = find_knee(noisy, 1.0, 33.0, rate_tol_rps=0.25, max_probes=10)
        assert k.n_probes <= 10
        assert k.knee_rps < k.infeasible_rps

    def test_adversarial_alternating_probe_terminates(self):
        calls = []
        def adversarial(rate):
            calls.append(rate)
            return len(calls) % 2 == 1
        k = find_knee(adversarial, 1.0, 100.0, rate_tol_rps=0.01,
                      max_probes=7)
        assert k.n_probes <= 7

    def test_fifo_server_knee_near_capacity(self):
        # End to end: capacity is exactly 10 rps; queueing pushes the
        # SLO knee a bit below that. It must land in (5, 10.5].
        def probe(rate):
            m = run_open_loop(
                make_fifo_server(0.1), "fixed_length", rate, 60.0,
                warmup_s=10.0, cooldown_s=10.0, deadline_s=60.0, seed=4,
            )
            return goodput_feasible(m)
        k = find_knee(probe, 1.0, 33.0, rate_tol_rps=0.5, max_probes=12)
        assert k.converged
        assert 5.0 < k.knee_rps <= 10.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            find_knee(lambda r: True, 5.0, 5.0)
        with pytest.raises(ConfigError):
            find_knee(lambda r: True, 1.0, 10.0, rate_tol_rps=0.0)
        with pytest.raises(ConfigError):
            find_knee(lambda r: True, 1.0, 10.0, max_probes=1)
