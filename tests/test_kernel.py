"""The unified event kernel: primitives, bit-compat, backpressure.

Four contracts:

* **kernel primitives** — stages advance in upstream→downstream order at
  each instant, time never rewinds, ``finish`` hooks always run, and a
  stage that stops making progress is reported instead of spinning; the
  kernel re-polls only stages that advanced, were notified or (idle)
  were woken, so an idle stage costs one poll however long the run;
* **bit-compatibility** — with backpressure off, a shared link,
  whole-prompt pool prefill and exact costs, the interleaved kernel
  reproduces the PR 3 sequential-simulation floats *bit-exactly* across
  {colocated, disaggregated} × {fcfs, priority_aging} × {none, kvcomp}
  wire codecs (goldens recorded from the pre-kernel implementation in
  ``tests/data/kernel_goldens.json``);
* **backpressure** — admission stalls bound decode-pool KV occupancy and
  link queue depth, conserve every request while actively stalling, and
  strand loudly (``CapacityError``) when a watermark can never clear;
* **new topologies** — per-replica links overlap on the wire, the
  chunked prefill pool co-schedules prompts, and ``overlap_fraction``
  hides wire time under prefill.
"""

import json
from pathlib import Path

import pytest

from repro.errors import CapacityError, SchedulingError
from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.costs import StepBreakdown
from repro.serving.disagg import DisaggregatedCore
from repro.serving.engine import InferenceEngine
from repro.serving.fleet import FleetConfig, FleetCore
from repro.serving.kernel import EventKernel, Stage
from repro.serving.kvcache import KVCacheSpec
from repro.serving.models import get_model
from repro.serving.scheduler import Request, SchedulerLimits
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)
from repro.serving.telemetry import TelemetryConfig
from repro.serving.trace import poisson_trace

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "kernel_goldens.json").read_text()
)

#: Tiny KV geometry: 32 bytes/token, 512-byte 16-token blocks.
SPEC = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)


class FlatCostModel:
    """Deterministic toy StepCostModel (same arithmetic as the goldens)."""

    def linear_time(self, n_tokens):
        return (n_tokens * 1e-5, 1, 0.0)

    def attention_time(self, batch, ctx, phase):
        return batch * ctx * 1e-7

    def elementwise_time(self, n_tokens):
        return n_tokens * 1e-7

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


#: The golden trace: contended arrivals, mixed priorities.
TRACE = [
    (24, 12, 0.0, 0), (40, 8, 0.0002, 1), (16, 20, 0.0004, 0),
    (64, 6, 0.0006, 2), (32, 16, 0.0008, 0), (20, 10, 0.005, 1),
    (48, 14, 0.0052, 0), (28, 9, 0.0054, 2), (16, 5, 0.02, 0),
    (56, 11, 0.0202, 1),
]
GOLDEN_KV_BYTES = 10 * SPEC.bytes_per_block


def golden_reqs():
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a, priority=pr)
        for i, (p, o, a, pr) in enumerate(TRACE)
    ]


def reqs(specs):
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a)
        for i, (p, o, a) in enumerate(specs)
    ]


def disagg_core(n_blocks: int, costs=None, config=None, **disagg):
    config = config or ServingConfig(
        mode="disaggregated",
        disagg=DisaggConfig(**disagg) if disagg else DisaggConfig(),
    )
    return DisaggregatedCore(
        costs or FlatCostModel(), SPEC,
        n_blocks * SPEC.bytes_per_block, config,
    )


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
class _ScriptedStage(Stage):
    """Fires at scripted times; records (time, kernel-now) on advance."""

    def __init__(self, name, times, log):
        self.name = name
        self.times = list(times)
        self.log = log
        self.finished = False

    def next_event_time(self):
        return self.times[0] if self.times else None

    def advance(self, now):
        self.log.append((self.name, self.times.pop(0), now))

    def finish(self):
        self.finished = True


class _CountingStage(Stage):
    """Reports a fixed event time (or ``None``); counts its polls."""

    def __init__(self, t):
        self.t = t
        self.polls = 0

    def next_event_time(self):
        self.polls += 1
        return self.t

    def advance(self, now):
        self.t = None


class TestEventKernel:
    def test_events_processed_in_time_order(self):
        log = []
        a = _ScriptedStage("a", [1.0, 3.0], log)
        b = _ScriptedStage("b", [2.0], log)
        kernel = EventKernel([a, b])
        end = kernel.run()
        assert [(name, t) for name, t, _ in log] == [
            ("a", 1.0), ("b", 2.0), ("a", 3.0)
        ]
        assert end == 3.0
        assert a.finished and b.finished

    def test_same_instant_cascade_is_stage_ordered(self):
        log = []
        up = _ScriptedStage("up", [1.0], log)
        down = _ScriptedStage("down", [1.0], log)
        EventKernel([up, down]).run()
        assert [name for name, _, _ in log] == ["up", "down"]

    def test_stale_wakeup_is_clamped_to_monotone_clock(self):
        # A stage reporting an event before the kernel's clock (a
        # backpressure wake-up) is advanced at the clamped `now`, never
        # at its stale time.
        log = []

        class _LateRiser(Stage):
            name = "late"

            def __init__(self):
                self.armed = False
                self.done = False

            def next_event_time(self):
                return 0.5 if self.armed and not self.done else None

            def advance(self, now):
                self.done = True
                log.append(("late", now))

        late = _LateRiser()

        class _Trigger(_ScriptedStage):
            def advance(self, now):
                super().advance(now)
                late.armed = True
                late.notify()

        EventKernel([_Trigger("trig", [2.0], log), late]).run()
        assert ("late", 2.0) in log

    def test_idle_stages_are_polled_once(self):
        # An idle stage is not re-polled until something notifies or
        # wakes it: a busy neighbour's 100 events cost it nothing.
        idle = [_CountingStage(None) for _ in range(20)]
        busy = _ScriptedStage("busy", [float(t) for t in range(1, 101)], [])
        EventKernel([busy, *idle]).run()
        assert [s.polls for s in idle] == [1] * 20

    @pytest.mark.parametrize("method, polls", [
        ("wake", (2, 1)),    # re-polls the idle stage only
        ("notify", (2, 2)),  # re-polls both
    ])
    def test_wake_leaves_a_cached_event_alone(self, method, polls):
        idle, scheduled = _CountingStage(None), _CountingStage(5.0)
        seen = []

        class _Caller(_ScriptedStage):
            def advance(self, now):
                super().advance(now)
                seen.append((idle.polls, scheduled.polls))
                getattr(idle, method)()
                getattr(scheduled, method)()

        EventKernel([_Caller("caller", [1.0, 2.0], []), idle,
                     scheduled]).run()
        assert seen == [(1, 1), polls]

    def test_due_stages_advance_in_stage_order_despite_stale_time(self):
        # The heap yields the stale (clamped) 0.5 before stage 0's 1.0;
        # the kernel must still advance them upstream→downstream.
        log = []
        late = _ScriptedStage("late", [], log)

        class _Arm(_ScriptedStage):
            def advance(self, now):
                super().advance(now)
                late.times.append(0.5)
                late.notify()

        EventKernel([_ScriptedStage("first", [1.0, 1.0], log),
                     _Arm("arm", [1.0], log), late]).run()
        assert log == [("first", 1.0, 1.0), ("arm", 1.0, 1.0),
                       ("first", 1.0, 1.0), ("late", 0.5, 1.0)]

    def test_missed_notify_is_reported_not_advanced(self):
        # A stage armed behind the kernel's back is never re-polled, so
        # its finish() hook reports the stranded work.
        class _Armed(Stage):
            name = "armed"
            armed = done = False

            def next_event_time(self):
                return 0.5 if self.armed and not self.done else None

            def advance(self, now):
                self.done = True

            def finish(self):
                if self.armed and not self.done:
                    raise CapacityError("armed stage never advanced")

        armed = _Armed()

        class _Trigger(_ScriptedStage):
            def advance(self, now):
                super().advance(now)
                armed.armed = True  # no notify()

        with pytest.raises(CapacityError):
            EventKernel([_Trigger("trig", [2.0], []), armed]).run()
        assert not armed.done

    def test_finish_hook_failure_propagates(self):
        class _Leftover(_ScriptedStage):
            def finish(self):
                raise CapacityError("work left behind")

        with pytest.raises(CapacityError):
            EventKernel([_Leftover("x", [], [])]).run()

    def test_stuck_stage_raises_instead_of_spinning(self):
        class _Spinner(Stage):
            name = "spin"

            def next_event_time(self):
                return 1.0

            def advance(self, now):
                pass  # never retires its event

        import repro.serving.kernel as kernel_mod
        old = kernel_mod._MAX_STALLED_ITERATIONS
        kernel_mod._MAX_STALLED_ITERATIONS = 50
        try:
            with pytest.raises(SchedulingError):
                EventKernel([_Spinner()]).run()
        finally:
            kernel_mod._MAX_STALLED_ITERATIONS = old

    def test_needs_at_least_one_stage(self):
        with pytest.raises(SchedulingError):
            EventKernel([])

    def test_fleet_polls_stay_proportional_to_advances(self):
        # kernel/polls is the host-independent guard against a return to
        # O(stages) polling: an 8-cell fleet has 25 stages, and
        # re-polling every idle one each iteration costs ~15 polls per
        # advance on this trace.
        engine = InferenceEngine(
            get_model("llama3.1-8b"), get_gpu("rtx4090"),
            get_backend("zipserv"),
        )
        limits = SchedulerLimits(16, 2048)
        cell = ServingConfig(
            mode="disaggregated", prefill_mode="chunked", limits=limits,
            cost_bucket=64, disagg=DisaggConfig(prefill_mode="chunked"),
        )
        config = ServingConfig(
            mode="fleet", prefill_mode="chunked", limits=limits,
            cost_bucket=64, telemetry=TelemetryConfig(),
            fleet=FleetConfig(
                n_replicas=8, routing="round_robin", instance=cell
            ),
        )
        result = FleetCore(
            engine.costs, engine.kv_spec, engine.plan.kv_bytes, config
        ).serve(poisson_trace(400, 48.0, seed=3))
        counters = result.telemetry.metrics.counters
        assert counters["kernel/polls"] <= 1.5 * counters["kernel/advances"]


# ----------------------------------------------------------------------
# Bit-compatibility with the PR 3 sequential simulation
# ----------------------------------------------------------------------
class TestBitCompatMatrix:
    """The kernel reproduces the recorded pre-kernel floats exactly.

    ``tests/data/kernel_goldens.json`` was captured from the PR 3
    sequential implementation (stage-by-stage disaggregated simulation,
    hand-rolled colocated loops) on the deterministic FlatCostModel
    trace above.  Equality below is ``==`` on floats — bit-exact, not
    approximate.
    """

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_reproduces_sequential_floats(self, key):
        mode, policy, codec = key.split("/")
        prefill_mode = "group" if mode == "colocated-group" else "chunked"
        if mode.startswith("colocated"):
            config = ServingConfig(policy=policy, prefill_mode=prefill_mode)
            core = ServingCore(
                FlatCostModel(), SPEC, GOLDEN_KV_BYTES, config
            )
        else:
            config = ServingConfig(
                policy=policy, prefill_mode=prefill_mode,
                mode="disaggregated",
                disagg=DisaggConfig(
                    prefill_replicas=1, decode_replicas=2,
                    link_gb_per_s=1e-6, link_latency_s=1e-3,
                    transfer_codec=codec,
                ),
            )
            core = DisaggregatedCore(
                FlatCostModel(), SPEC, GOLDEN_KV_BYTES, config
            )
        result = core.serve(golden_reqs())
        want = GOLDENS[key]
        assert result.makespan_s == want["makespan_s"]
        assert result.n_steps == want["n_steps"]
        assert result.tokens_generated == want["tokens_generated"]
        assert result.peak_running == want["peak_running"]
        assert result.n_preemptions == want["n_preemptions"]
        got = [
            [t.request_id, t.first_token_s, t.finish_s]
            for t in result.timings
        ]
        assert got == want["timings"]


# ----------------------------------------------------------------------
# Decode→prefill backpressure
# ----------------------------------------------------------------------
#: Eight identical prompts landing at once on a small decode pool.
BP_TRACE = [(64, 30, 0.0)] * 8


class TestBackpressure:
    def test_conserves_requests_while_actively_stalling(self):
        """No request lost or double-transferred when admission stalls."""
        result = disagg_core(
            16, backpressure=BackpressureConfig(min_free_kv_frac=0.25)
        ).serve(reqs(BP_TRACE))
        assert result.pool("prefill").stall_s > 0.0  # the stall was real
        assert result.n_requests == len(BP_TRACE)
        assert result.tokens_generated == sum(o for _, o, _ in BP_TRACE)
        assert result.transfer.n_transfers == len(BP_TRACE)
        transferred = [r.request_id for r in result.transfer.records]
        assert sorted(transferred) == list(range(len(BP_TRACE)))
        assert len(set(transferred)) == len(BP_TRACE)
        for t in result.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s

    def test_kv_watermark_bounds_occupancy_vs_feedback_free(self):
        baseline = disagg_core(16).serve(reqs(BP_TRACE))
        gated = disagg_core(
            16, backpressure=BackpressureConfig(min_free_kv_frac=0.25)
        ).serve(reqs(BP_TRACE))
        assert baseline.pool("decode").peak_kv_frac == 1.0
        assert baseline.n_preemptions > 0
        # Admission-time projection bounds the landing occupancy; decode
        # growth on 64→94-token requests adds at most 2 blocks/request.
        assert gated.pool("decode").peak_kv_frac < 1.0
        assert gated.n_preemptions == 0
        assert gated.pool("decode").peak_kv_frac <= 0.75 + 0.13

    def test_link_queue_watermark_bounds_queue_depth(self):
        baseline = disagg_core(64, link_gb_per_s=1e-6).serve(
            reqs(BP_TRACE)
        )
        gated = disagg_core(
            64, link_gb_per_s=1e-6,
            backpressure=BackpressureConfig(
                min_free_kv_frac=0.0, max_link_queue=2
            ),
        ).serve(reqs(BP_TRACE))
        assert baseline.transfer.peak_queue_depth > 2
        assert gated.transfer.peak_queue_depth <= 2
        assert gated.pool("prefill").stall_s > 0.0
        assert gated.n_requests == len(BP_TRACE)

    def test_impossible_watermark_strands_loudly(self):
        # A request needing 4 of 8 blocks can never leave >=90% free:
        # silent drop would fake a clean run, so the kernel raises.
        with pytest.raises(CapacityError):
            disagg_core(
                8, backpressure=BackpressureConfig(min_free_kv_frac=0.9)
            ).serve(reqs([(64, 4, 0.0)]))

    def test_backpressure_applies_to_chunked_prefill_pool(self):
        # The chunked pool admits to the watermark boundary in one
        # instant (no prefill serialization between gate checks), so a
        # tighter watermark than the group test's is needed to absorb
        # the admitted requests' decode growth: 0.5 of 16 blocks admits
        # two 4-block prompts, which grow to 12 blocks — peak 0.75,
        # no preemption.
        result = disagg_core(
            16, prefill_mode="chunked",
            backpressure=BackpressureConfig(min_free_kv_frac=0.5),
        ).serve(reqs(BP_TRACE))
        baseline = disagg_core(16, prefill_mode="chunked").serve(
            reqs(BP_TRACE)
        )
        assert result.n_requests == len(BP_TRACE)
        assert result.pool("prefill").stall_s > 0.0
        assert result.pool("decode").peak_kv_frac < 1.0
        assert result.n_preemptions == 0
        assert baseline.pool("decode").peak_kv_frac == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"min_free_kv_frac": -0.1},
        {"min_free_kv_frac": 1.5},
        {"max_link_queue": 0},
    ])
    def test_bad_watermarks_rejected(self, kwargs):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            BackpressureConfig(**kwargs)


# ----------------------------------------------------------------------
# Per-replica transfer links
# ----------------------------------------------------------------------
class TestPerReplicaLinks:
    def test_transfers_overlap_across_links(self):
        shared = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6
        ).serve(reqs(BP_TRACE))
        dedicated = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6,
            link_topology="per_replica",
        ).serve(reqs(BP_TRACE))
        assert shared.transfer.n_links == 1
        assert dedicated.transfer.n_links == 2
        # Two channels at the same bandwidth drain the same bytes in
        # roughly half the wall time; the shared FIFO serializes.
        assert dedicated.makespan_s < shared.makespan_s
        assert dedicated.tokens_generated == shared.tokens_generated
        records = sorted(
            dedicated.transfer.records, key=lambda r: r.start_s
        )
        overlapped = any(
            later.start_s < earlier.done_s - 1e-12
            for earlier, later in zip(records, records[1:])
        )
        assert overlapped

    def test_each_link_is_fifo(self):
        result = disagg_core(
            64, decode_replicas=2, link_gb_per_s=1e-6,
            link_topology="per_replica",
        ).serve(reqs(BP_TRACE))
        by_link: dict[int, list] = {}
        for rec in result.transfer.records:
            assert rec.ready_s <= rec.start_s <= rec.done_s
            by_link.setdefault(rec.link, []).append(rec)
        assert sorted(by_link) == [0, 1]
        for records in by_link.values():
            # Within a channel: serve order is (ready, id), transfers
            # never overlap, and no transfer starts before the channel
            # freed from the previous one.
            ordered = sorted(
                records, key=lambda r: (r.ready_s, r.request_id)
            )
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.start_s >= earlier.done_s - 1e-12

    def test_bad_topology_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(link_topology="mesh")


# ----------------------------------------------------------------------
# Chunked prefill inside the prefill pool
# ----------------------------------------------------------------------
class TestChunkedPrefillPool:
    def test_conservation_and_mode_report(self):
        group = disagg_core(64).serve(reqs(BP_TRACE))
        chunked = disagg_core(64, prefill_mode="chunked").serve(
            reqs(BP_TRACE)
        )
        assert group.prefill_mode == "group"
        assert chunked.prefill_mode == "chunked"
        assert chunked.n_requests == len(BP_TRACE)
        assert chunked.tokens_generated == group.tokens_generated
        assert chunked.transfer.n_transfers == len(BP_TRACE)
        for t in chunked.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s

    def test_short_prompt_not_serialized_behind_giant_prompt(self):
        # Group mode runs whole prompts one at a time per replica, so a
        # short prompt arriving alongside a 6000-token prompt waits out
        # the entire pass before its own; the chunked pool co-schedules
        # both under max_batched_tokens (8192), so the short prompt's
        # chunk rides the same iteration as the giant one's and its
        # first token lands a full short-prefill pass earlier.
        def trace():
            return reqs([(6000, 4, 0.0), (16, 4, 0.0)])

        group = disagg_core(1024).serve(trace())
        chunked = disagg_core(1024, prefill_mode="chunked").serve(trace())
        group_ttft = {t.request_id: t.ttft_s for t in group.timings}
        chunked_ttft = {t.request_id: t.ttft_s for t in chunked.timings}
        assert chunked_ttft[1] < group_ttft[1]

    def test_oversized_prompt_strands_loudly(self):
        # 1024-token prompt KV can never fit an 8-block (128-token)
        # chunked prefill replica.
        with pytest.raises(CapacityError):
            disagg_core(8, prefill_mode="chunked").serve(
                reqs([(1024, 4, 0.0)])
            )

    def test_bad_prefill_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(prefill_mode="speculative")


# ----------------------------------------------------------------------
# Analytic prefill/transfer overlap
# ----------------------------------------------------------------------
class TestOverlapFraction:
    def test_wire_time_scaled_by_hidden_fraction(self):
        plain = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.01
        ).serve(reqs(BP_TRACE))
        hidden = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.01,
            overlap_fraction=0.75,
        ).serve(reqs(BP_TRACE))
        plain_serial = plain.transfer.time.mean_s - 0.01
        hidden_serial = hidden.transfer.time.mean_s - 0.01
        assert hidden_serial == pytest.approx(plain_serial * 0.25)
        assert hidden.makespan_s < plain.makespan_s

    def test_full_overlap_leaves_only_latency(self):
        result = disagg_core(
            64, link_gb_per_s=1e-6, link_latency_s=0.125,
            overlap_fraction=1.0,
        ).serve(reqs(BP_TRACE))
        for rec in result.transfer.records:
            assert rec.wire_s == pytest.approx(0.125)

    def test_bad_fraction_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DisaggConfig(overlap_fraction=1.5)
