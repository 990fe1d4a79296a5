"""The telemetry layer: attribution conservation, export, zero cost.

Four contracts:

* **conservation** — for every finished request, the seven attributed
  phase durations {queue, prefill, transfer_wait, wire, decode,
  preempt_recompute, decompress} sum to its end-to-end latency (±float
  eps) and none is negative, across {colocated, disagg chunked, fleet}
  × {preemption, backpressure stall, prefix-cache hit, rejection} —
  hypothesis-driven over trace shapes;
* **zero cost off** — telemetry is off by default
  (``result.telemetry is None``) and a telemetry-on run reproduces the
  telemetry-off floats exactly (the recorder only observes; it never
  participates in clock arithmetic).  The kernel-golden bit-compat
  matrix in ``tests/test_kernel.py`` runs with telemetry off and pins
  the off-path against the committed goldens;
* **export** — the Chrome-trace JSON passes the same schema validator
  CI runs (``tools/trace_report.py``): known ``ph`` types, monotone
  timestamps, matched B/E stall pairs, flow starts before finishes;
* **surfacing** — autoscaler decisions (``scale_events``) and the
  recorder itself ride on :class:`ContinuousResult`, so consumers never
  reach into the core object.
"""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import telemetry
from repro.serving.costs import StepBreakdown
from repro.serving.disagg import DisaggregatedCore
from repro.serving.fleet import AutoscalerConfig, FleetConfig, FleetCore
from repro.serving.kvcache import KVCacheSpec
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.router import RouterConfig
from repro.serving.scheduler import Request
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)
from repro.serving.telemetry import (
    PHASES,
    TelemetryConfig,
    TraceRecorder,
    recording,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from trace_report import validate_chrome_trace  # noqa: E402

#: Tiny KV geometry (the test_kernel.py toy): 512-byte 16-token blocks.
SPEC = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)

TEL = TelemetryConfig()


class FlatCostModel:
    """Deterministic toy StepCostModel — milliseconds, not GPU math."""

    def decode_step(self, batch, ctx):
        return StepBreakdown(linear_s=1e-3 + batch * 1e-5 + ctx * 1e-7)

    def prefill_step(self, batch, prompt_len):
        return StepBreakdown(linear_s=1e-3 + batch * prompt_len * 1e-6)

    def mixed_step(self, decode_batch, decode_ctx, prefill_seqs,
                   prefill_tokens):
        return StepBreakdown(
            linear_s=(1e-3 + (decode_batch + prefill_tokens) * 1e-6
                      + decode_ctx * 1e-7)
        )


def reqs(specs):
    """[(prompt, out, arrival)] or [(prompt, out, arrival, kwargs)]."""
    out = []
    for i, spec in enumerate(specs):
        p, o, a = spec[:3]
        kw = spec[3] if len(spec) > 3 else {}
        out.append(Request(i, prompt_len=p, max_new_tokens=o,
                           arrival_s=a, **kw))
    return out


def colocated_core(n_blocks=64, **cfg_kw):
    cfg_kw.setdefault("telemetry", TEL)
    config = ServingConfig(**cfg_kw)
    return ServingCore(
        FlatCostModel(), SPEC, n_blocks * SPEC.bytes_per_block, config
    )


def disagg_core(n_blocks=64, *, config_kw=None, **disagg_kw):
    config = ServingConfig(
        mode="disaggregated", telemetry=TEL,
        disagg=DisaggConfig(**disagg_kw),
        **(config_kw or {}),
    )
    return DisaggregatedCore(
        FlatCostModel(), SPEC, n_blocks * SPEC.bytes_per_block, config
    )


def fleet_core(n_blocks=64, **fleet_kw):
    config = ServingConfig(
        mode="fleet", telemetry=TEL, fleet=FleetConfig(**fleet_kw)
    )
    return FleetCore(
        FlatCostModel(), SPEC, n_blocks * SPEC.bytes_per_block, config
    )


def assert_conserves(result) -> TraceRecorder:
    """Per-request phases sum to e2e; attribution matches the timings."""
    rec = result.telemetry
    assert rec is not None
    # Only (exactly) the finished requests get an attribution.
    assert len(rec.attributions) == result.n_requests
    stamped = {t.request_id: t for t in result.timings}
    for attr in rec.attributions.values():
        seconds = attr.phase_seconds()
        assert set(seconds) == set(PHASES)
        for phase, value in seconds.items():
            assert value >= -1e-12, (attr.request_id, phase, value)
        assert math.isclose(
            sum(seconds.values()), attr.e2e_s,
            rel_tol=1e-9, abs_tol=1e-12,
        ), (attr.request_id, sum(seconds.values()), attr.e2e_s)
        timing = stamped[attr.request_id]
        assert attr.finish_s == timing.finish_s
        assert attr.arrival_s == timing.arrival_s
    return rec


# ----------------------------------------------------------------------
# Hypothesis trace shapes
# ----------------------------------------------------------------------
@st.composite
def trace_specs(draw, n_max=8, out_max=20):
    """A bursty toy trace: monotone arrivals, varied prompts/outputs."""
    n = draw(st.integers(min_value=2, max_value=n_max))
    specs, t = [], 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=0.02,
                            allow_nan=False, allow_infinity=False))
        specs.append((
            draw(st.integers(min_value=4, max_value=80)),
            draw(st.integers(min_value=1, max_value=out_max)),
            t,
        ))
    return specs


@st.composite
def session_specs(draw):
    """Two-turn sessions whose second turn re-offers the first prompt."""
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for s in range(n_sessions):
        t0 = s * draw(st.floats(min_value=0.0, max_value=0.01,
                                allow_nan=False))
        first = draw(st.integers(min_value=2, max_value=5)) * 16
        specs.append((first, draw(st.integers(min_value=1, max_value=8)),
                      t0, {"session_id": s}))
        specs.append((
            first + draw(st.integers(min_value=8, max_value=64)),
            draw(st.integers(min_value=1, max_value=8)),
            t0 + draw(st.floats(min_value=0.05, max_value=0.5,
                                allow_nan=False)),
            {"session_id": s, "prefix_tokens": first},
        ))
    return specs


class TestConservation:
    """Phases sum to e2e across topologies × lifecycle features."""

    @given(trace_specs())
    def test_colocated_group_with_preemption_pressure(self, specs):
        # 8 blocks = 128 KV tokens: long prompts + decode growth preempt.
        assert_conserves(colocated_core(n_blocks=8).serve(reqs(specs)))

    @given(trace_specs())
    def test_colocated_chunked_with_preemption_pressure(self, specs):
        result = colocated_core(
            n_blocks=8, prefill_mode="chunked", cost_bucket=4,
        ).serve(reqs(specs))
        assert_conserves(result)

    @given(trace_specs())
    def test_disagg_chunked_with_backpressure(self, specs):
        result = disagg_core(
            n_blocks=16, prefill_mode="chunked",
            backpressure=BackpressureConfig(min_free_kv_frac=0.5),
            config_kw={"prefill_mode": "chunked"},
        ).serve(reqs(specs))
        rec = assert_conserves(result)
        # Every request's KV crossed the wire exactly once.
        wires = [e for e in rec.events if e.kind == "wire"]
        assert len(wires) == result.n_requests

    @given(trace_specs(out_max=8))
    def test_fleet_with_rejection(self, specs):
        result = fleet_core(
            n_blocks=32, n_replicas=2,
            router=RouterConfig(max_outstanding_per_replica=2),
        ).serve(reqs(specs))
        rec = assert_conserves(result)
        assert result.n_requests + result.n_rejected == len(specs)
        rejects = sum(1 for e in rec.events if e.kind == "reject")
        assert rejects == result.n_rejected

    @given(session_specs())
    def test_colocated_prefix_cache_hits(self, specs):
        result = colocated_core(
            prefill_mode="chunked",
            prefix_cache=PrefixCacheConfig(
                capacity_frac=0.5, hot_frac=0.25, codec="kvcomp"
            ),
        ).serve(reqs(specs))
        rec = assert_conserves(result)
        stats = result.prefix_cache
        assert rec.metrics.counters.get("cache/hits", 0) == stats.n_hits


class TestLifecycleEvents:
    """Deterministic scenarios where each feature provably fires."""

    #: Eight identical prompts at once: saturates a small decode pool.
    BURST = [(64, 30, 0.0)] * 8

    def test_preemption_charges_recompute_phase(self):
        result = colocated_core(n_blocks=8).serve(
            reqs([(24, 40, 0.0), (24, 40, 0.001), (24, 40, 0.002)])
        )
        rec = assert_conserves(result)
        assert result.n_preemptions > 0
        preempts = [e for e in rec.events if e.kind == "preempt"]
        assert len(preempts) == result.n_preemptions
        recompute = sum(
            a.preempt_recompute_s for a in rec.attributions.values()
        )
        assert recompute > 0.0

    def test_backpressure_stall_events_bracket_the_stall(self):
        result = disagg_core(
            n_blocks=16,
            backpressure=BackpressureConfig(min_free_kv_frac=0.25),
        ).serve(reqs(self.BURST))
        rec = assert_conserves(result)
        assert result.pool("prefill").stall_s > 0.0
        begins = [e for e in rec.events if e.kind == "stall_begin"]
        ends = [e for e in rec.events if e.kind == "stall_end"]
        assert len(begins) == len(ends) > 0
        total = sum(
            e.t_s - b.t_s for b, e in zip(begins, ends)
        )
        assert math.isclose(
            total, result.pool("prefill").stall_s, rel_tol=1e-9
        )

    def test_cache_hit_charges_decompress_out_of_prefill(self):
        core = colocated_core(
            prefill_mode="chunked",
            prefix_cache=PrefixCacheConfig(
                capacity_frac=0.5, hot_frac=0.25, codec="kvcomp"
            ),
        )
        specs = []
        for s in range(4):
            specs.append((32, 4, s * 0.001, {"session_id": s}))
            specs.append((96, 4, 0.2 + s * 0.001,
                          {"session_id": s, "prefix_tokens": 32}))
        result = core.serve(reqs(specs))
        rec = assert_conserves(result)
        assert result.prefix_cache.n_hits > 0
        assert result.prefix_cache.n_demotions > 0
        assert rec.metrics.counters["cache/demotes"] > 0
        # Cold hits pay a decompress charge, reassigned zero-sum out of
        # the admitting prefill interval — conservation already held.
        assert sum(a.decompress_s for a in rec.attributions.values()) > 0.0

    def test_rejected_requests_leave_no_attribution(self):
        result = fleet_core(
            n_replicas=1,
            router=RouterConfig(max_outstanding_per_replica=2),
        ).serve(reqs([(24, 10, 0.0)] * 8))
        rec = assert_conserves(result)
        assert result.n_rejected > 0
        rejected_ids = {
            e.request_id for e in rec.events if e.kind == "reject"
        }
        assert len(rejected_ids) == result.n_rejected
        assert rejected_ids.isdisjoint(rec.attributions)

    def test_scale_events_surface_on_the_result(self):
        result = fleet_core(
            n_replicas=3, routing="least_outstanding",
            autoscaler=AutoscalerConfig(
                min_replicas=1, interval_s=0.01, kv_high_frac=0.05,
                kv_low_frac=0.01,
            ),
        ).serve(reqs([(48, 20, i * 0.001) for i in range(12)]))
        assert any(e.action == "up" for e in result.scale_events)
        rec = result.telemetry
        scales = [e for e in rec.events if e.kind == "scale"]
        assert len(scales) == len(result.scale_events)
        assert [e.args["action"] for e in scales] == [
            e.action for e in result.scale_events
        ]
        # Per-replica stats ride along too — no reaching into the core.
        assert len(result.replicas) == 3


class TestZeroCostOff:
    def test_off_by_default(self):
        core = ServingCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
            ServingConfig(),
        )
        result = core.serve(reqs([(24, 4, 0.0)]))
        assert ServingConfig().telemetry is None
        assert result.telemetry is None

    @pytest.mark.parametrize("topology", [
        "colocated-group", "colocated-chunked", "disagg", "fleet",
    ])
    def test_recording_reproduces_off_floats_exactly(self, topology):
        specs = [(24, 12, 0.0), (40, 8, 0.002), (16, 20, 0.004),
                 (64, 6, 0.006), (32, 16, 0.1), (20, 10, 0.102)]

        def run(telemetry_cfg):
            if topology == "colocated-group":
                core = colocated_core(n_blocks=16, telemetry=telemetry_cfg)
            elif topology == "colocated-chunked":
                core = colocated_core(
                    n_blocks=16, prefill_mode="chunked", cost_bucket=4,
                    telemetry=telemetry_cfg,
                )
            elif topology == "disagg":
                config = ServingConfig(
                    mode="disaggregated", telemetry=telemetry_cfg,
                    disagg=DisaggConfig(
                        backpressure=BackpressureConfig(
                            min_free_kv_frac=0.25
                        ),
                    ),
                )
                core = DisaggregatedCore(
                    FlatCostModel(), SPEC, 16 * SPEC.bytes_per_block,
                    config,
                )
            else:
                config = ServingConfig(
                    mode="fleet", telemetry=telemetry_cfg,
                    fleet=FleetConfig(n_replicas=2),
                )
                core = FleetCore(
                    FlatCostModel(), SPEC, 32 * SPEC.bytes_per_block,
                    config,
                )
            return core.serve(reqs(specs))

        off = run(None)
        on = run(TEL)
        assert off.telemetry is None and on.telemetry is not None
        # Float-exact equality: telemetry observed, never participated.
        assert on.makespan_s == off.makespan_s
        assert on.timings == off.timings
        assert on.n_steps == off.n_steps
        assert on.n_preemptions == off.n_preemptions


class TestChromeExport:
    def _stall_run(self):
        return disagg_core(
            n_blocks=16,
            backpressure=BackpressureConfig(min_free_kv_frac=0.25),
        ).serve(reqs(TestLifecycleEvents.BURST))

    def test_export_passes_the_ci_schema_validator(self):
        rec = self._stall_run().telemetry
        assert validate_chrome_trace(rec.chrome_trace()) == []

    def test_flows_link_transfer_enqueue_to_delivery(self):
        result = self._stall_run()
        trace = result.telemetry.chrome_trace()
        starts = [r for r in trace["traceEvents"] if r["ph"] == "s"]
        ends = [r for r in trace["traceEvents"] if r["ph"] == "f"]
        assert len(starts) == len(ends) == result.n_requests
        assert {r["id"] for r in starts} == {r["id"] for r in ends}

    def test_stall_pairs_match_in_export(self):
        trace = self._stall_run().telemetry.chrome_trace()
        depth = 0
        for row in trace["traceEvents"]:
            if row["ph"] == "B":
                depth += 1
            elif row["ph"] == "E":
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        import json

        rec = self._stall_run().telemetry
        path = tmp_path / "trace.json"
        rec.write_chrome_trace(path)
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["n_attributed"] == len(rec.attributions)

    def test_validator_flags_broken_traces(self):
        ok = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 1.0, "name": "a",
             "dur": 2.0},
        ]}
        assert validate_chrome_trace(ok) == []
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [
            {"ph": "?", "pid": 1, "tid": 1, "ts": 0, "name": "a"},
        ]}) != []
        assert validate_chrome_trace({"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 1, "ts": 5.0, "name": "a"},
            {"ph": "i", "pid": 1, "tid": 1, "ts": 1.0, "name": "b"},
        ]}) != []
        assert validate_chrome_trace({"traceEvents": [
            {"ph": "E", "pid": 1, "tid": 1, "ts": 0.0, "name": "stall"},
        ]}) != []
        assert validate_chrome_trace({"traceEvents": [
            {"ph": "f", "pid": 1, "tid": 1, "ts": 0.0, "name": "kv",
             "id": 9},
        ]}) != []


class TestAmbientRecording:
    def test_recording_context_captures_config_less_runs(self):
        core = ServingCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
            ServingConfig(),
        )
        with recording() as handle:
            result = core.serve(reqs([(24, 4, 0.0), (32, 6, 0.01)]))
        assert result.telemetry is handle.recorder
        assert_conserves(result)
        # The default is restored: runs after the context are silent.
        after = ServingCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
            ServingConfig(),
        ).serve(reqs([(24, 4, 0.0)]))
        assert after.telemetry is None

    def test_explicit_config_wins_over_ambient(self):
        # An explicitly disabled config stays off inside recording().
        core = ServingCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
            ServingConfig(telemetry=TelemetryConfig(enabled=False)),
        )
        with recording():
            result = core.serve(reqs([(24, 4, 0.0)]))
        assert result.telemetry is None

    def test_disabled_config_builds_no_recorder(self):
        assert TelemetryConfig(enabled=False).build() is None
        assert telemetry.build_recorder(None) is None


class TestRecorderPrimitives:
    def test_transition_clamps_backward_time(self):
        rec = TraceRecorder(TelemetryConfig())
        req = Request(0, prompt_len=8, max_new_tokens=1, arrival_s=1.0)
        rec.on_arrival(req, track="engine")
        rec.on_admit(req, 2.0, "engine")
        # A stale hint earlier than the phase boundary must not produce
        # a negative charge — it clamps to the boundary instead.
        rec.transition(req, 1.5, "decode")
        req.finish_s = 3.0
        rec.on_finish(req, 3.0, "engine")
        attr = rec.attributions[0]
        assert attr.queue_s == 1.0
        assert attr.prefill_s == 0.0
        assert attr.decode_s == 1.0
        assert math.isclose(
            sum(attr.phase_seconds().values()), attr.e2e_s, rel_tol=1e-12
        )

    def test_unknown_request_transitions_are_ignored(self):
        rec = TraceRecorder(TelemetryConfig())
        ghost = Request(99, prompt_len=8, max_new_tokens=1)
        rec.transition(ghost, 1.0, "decode")  # must not raise
        ghost.finish_s = 2.0
        rec.on_finish(ghost, 2.0, "engine")
        assert 99 not in rec.attributions

    def test_phase_shares_normalize(self):
        rec = TraceRecorder(TelemetryConfig())
        for i, arrive in enumerate((0.0, 0.5)):
            req = Request(i, prompt_len=8, max_new_tokens=1,
                          arrival_s=arrive)
            rec.on_arrival(req, track="engine")
            rec.on_admit(req, arrive + 0.25, "engine")
            rec.transition(req, arrive + 0.5, "decode")
            req.finish_s = arrive + 1.0
            rec.on_finish(req, arrive + 1.0, "engine")
        shares = rec.phase_shares()
        assert math.isclose(sum(shares.values()), 1.0, rel_tol=1e-12)
        assert shares["queue"] == 0.25
        assert shares["prefill"] == 0.25
        assert shares["decode"] == 0.5

    def test_slowest_orders_by_latency(self):
        rec = TraceRecorder(TelemetryConfig())
        for i, e2e in enumerate((0.5, 2.0, 1.0)):
            req = Request(i, prompt_len=8, max_new_tokens=1, arrival_s=0.0)
            rec.on_arrival(req, track="engine")
            rec.on_admit(req, 0.1, "engine")
            req.finish_s = e2e
            rec.on_finish(req, e2e, "engine")
        assert [a.request_id for a in rec.slowest(2)] == [1, 2]
