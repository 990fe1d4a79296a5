"""Disaggregated serving: conservation across pools, transfer accounting.

The invariants under test (see ``serving/disagg.py``):

* every submitted request is prefilled once, transferred once, and decoded
  to completion — nothing is lost between pools;
* wire bytes equal the prompt's KV footprint divided by the codec ratio;
* the link is a serial FIFO: transfers never overlap and never start
  before their KV is ready;
* an infinite, zero-latency link makes every transfer free, and
  ``mode="colocated"`` bypasses the disaggregated path entirely
  (bit-compatible with :class:`ServingCore`).
"""

import math

import pytest

from repro.errors import CapacityError, ConfigError
from repro.serving.costs import StepBreakdown
from repro.serving.disagg import DisaggregatedCore, resolve_transfer_ratio
from repro.serving.kvcache import KVCacheSpec
from repro.serving.scheduler import Request, SchedulerLimits
from repro.serving.serve import DisaggConfig, ServingConfig, ServingCore

#: Tiny KV geometry: 32 bytes/token, 512-byte 16-token blocks.
SPEC = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)


class FlatCostModel:
    """Deterministic toy StepCostModel: time scales with tokens/context."""

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


def core(n_blocks: int, **disagg) -> DisaggregatedCore:
    config = ServingConfig(
        mode="disaggregated",
        disagg=DisaggConfig(**disagg) if disagg else DisaggConfig(),
    )
    return DisaggregatedCore(
        FlatCostModel(), SPEC, n_blocks * SPEC.bytes_per_block, config
    )


def reqs(specs) -> list[Request]:
    return [
        Request(i, prompt_len=p, max_new_tokens=o, arrival_s=a,
                priority=(pr[0] if pr else 0))
        for i, (p, o, a, *pr) in enumerate(specs)
    ]


TRACE = [(24, 12, 0.0), (40, 8, 0.01), (16, 20, 0.02), (64, 6, 0.5),
         (32, 16, 0.55), (20, 10, 1.2)]


class TestConservation:
    """Every prefilled request is eventually transferred and decoded."""

    @pytest.mark.parametrize("replicas", [(1, 1), (2, 2), (1, 3)])
    def test_all_requests_served(self, replicas):
        prefill, decode = replicas
        trace = reqs(TRACE)
        result = core(64, prefill_replicas=prefill,
                      decode_replicas=decode,
                      link_gb_per_s=1e-6).serve(trace)
        assert result.n_requests == len(trace)
        assert result.tokens_generated == sum(o for _, o, *_ in TRACE)
        assert result.transfer.n_transfers == len(trace)
        assert sorted(r.request_id for r in result.transfer.records) == \
            [r.request_id for r in trace]
        for t in result.timings:
            assert t.arrival_s <= t.first_token_s <= t.finish_s
            assert t.finish_s <= result.makespan_s + 1e-12

    def test_transfer_happens_between_prefill_and_decode(self):
        trace = reqs(TRACE)
        result = core(64, link_gb_per_s=1e-6).serve(trace)
        by_id = {t.request_id: t for t in result.timings}
        for rec in result.transfer.records:
            timing = by_id[rec.request_id]
            # KV becomes ready exactly at first-token time (prefill done)
            # and must land before the request can finish decoding.
            assert rec.ready_s == pytest.approx(timing.first_token_s)
            assert rec.ready_s <= rec.start_s <= rec.done_s
            assert rec.done_s <= timing.finish_s

    def test_decode_preemption_still_conserves(self):
        # 4 blocks = 64 token slots; two requests growing to 56 tokens
        # each cannot coexist on one decode replica: preempt-recompute
        # must trigger there and still finish both.
        trace = reqs([(16, 40, 0.0), (16, 40, 0.0)])
        result = core(4).serve(trace)
        assert result.n_preemptions > 0
        assert result.tokens_generated == 80
        assert result.n_requests == 2

    def test_unservable_request_raises_instead_of_dropping(self):
        # Request 0's prompt KV (80 tokens = 5 blocks) can never fit a
        # 4-block replica; silently dropping it (and request 1, stranded
        # behind it by head-of-line blocking) would fake a clean run.
        trace = reqs([(80, 4, 0.0), (16, 4, 0.0)])
        with pytest.raises(CapacityError):
            core(4).serve(trace)

    def test_memoized_costs_fast_forward_matches_stepwise(self):
        # A context-insensitive cost model prices identically whether or
        # not contexts are bucketed, so the memoized run's fast-forwarded
        # decode windows must reproduce the stepwise run's work — same
        # tokens, approximately the same stamps.  The event kernel caps
        # a window at the upstream stages' next event (it cannot see
        # hand-offs that are not scheduled yet), so window boundaries —
        # and with them the iteration count — may shift by a step where
        # the old sequential simulation, which knew every landing time
        # upfront, fast-forwarded straight through.
        decode_step_s = 1e-3

        class ConstCostModel(FlatCostModel):
            def mixed_step(self, decode_batch, decode_ctx, prefill_seqs,
                           prefill_tokens):
                return StepBreakdown(linear_s=decode_step_s)

            def prefill_step(self, batch, prompt_len):
                return StepBreakdown(linear_s=5e-3)

        kv_bytes = 64 * SPEC.bytes_per_block
        exact = DisaggregatedCore(
            ConstCostModel(), SPEC, kv_bytes,
            ServingConfig(mode="disaggregated"),
        ).serve(reqs(TRACE))
        memo = DisaggregatedCore(
            ConstCostModel(), SPEC, kv_bytes,
            ServingConfig(mode="disaggregated", cost_bucket=64),
        ).serve(reqs(TRACE))
        assert memo.tokens_generated == exact.tokens_generated
        assert abs(memo.n_steps - exact.n_steps) <= len(TRACE)
        assert memo.makespan_s == pytest.approx(exact.makespan_s)
        # Fast-forward multiplies step costs where the stepwise loop sums
        # them, and a split window can push an admission one boundary
        # over — stamps agree to within one decode step.
        for m, e in zip(memo.timings, exact.timings):
            assert m.request_id == e.request_id
            assert m.n_tokens == e.n_tokens
            assert m.first_token_s == pytest.approx(e.first_token_s)
            assert abs(m.finish_s - e.finish_s) <= 1.5 * decode_step_s


class TestTransferAccounting:
    def test_bytes_match_kv_size_over_ratio(self):
        trace = reqs(TRACE)
        ratio = 2.0
        result = core(64, link_gb_per_s=1e-6,
                      transfer_ratio=ratio).serve(trace)
        per_token = SPEC.bytes_per_token / ratio
        by_id = {r.request_id: r for r in trace}
        for rec in result.transfer.records:
            assert rec.nbytes == by_id[rec.request_id].prompt_len * per_token
        assert result.transfer.total_bytes == pytest.approx(
            sum(r.prompt_len for r in trace) * per_token
        )
        assert result.transfer.compression_ratio == ratio

    def test_link_is_serial_fifo(self):
        result = core(64, link_gb_per_s=1e-6).serve(reqs(TRACE))
        records = sorted(result.transfer.records, key=lambda r: r.start_s)
        for earlier, later in zip(records, records[1:]):
            assert later.start_s >= earlier.done_s - 1e-12

    def test_infinite_link_is_free(self):
        result = core(64).serve(reqs(TRACE))  # inf GB/s, zero latency
        for rec in result.transfer.records:
            assert rec.wire_s == 0.0
            assert rec.queue_s == 0.0
        assert result.transfer.link_utilization == 0.0

    def test_latency_charged_per_transfer(self):
        latency = 0.125
        result = core(64, link_latency_s=latency).serve(reqs(TRACE))
        for rec in result.transfer.records:
            assert rec.wire_s == pytest.approx(latency)

    def test_compression_shrinks_wire_time_by_ratio(self):
        raw = core(64, link_gb_per_s=1e-6).serve(reqs(TRACE))
        comp = core(64, link_gb_per_s=1e-6,
                    transfer_ratio=2.0).serve(reqs(TRACE))
        assert raw.transfer.total_bytes / comp.transfer.total_bytes == \
            pytest.approx(2.0)
        assert comp.transfer.time.mean_s == pytest.approx(
            raw.transfer.time.mean_s / 2.0
        )
        assert comp.makespan_s <= raw.makespan_s

    def test_ttft_is_pool_local(self):
        """The link never delays the first token (prefill emits it)."""
        fast = core(64).serve(reqs(TRACE))
        slow = core(64, link_gb_per_s=1e-7).serve(reqs(TRACE))
        fast_ttft = {t.request_id: t.ttft_s for t in fast.timings}
        for t in slow.timings:
            assert t.ttft_s == pytest.approx(fast_ttft[t.request_id])
        assert slow.makespan_s > fast.makespan_s


class TestPools:
    def test_pool_stats_reported(self):
        result = core(64, prefill_replicas=2,
                      decode_replicas=3).serve(reqs(TRACE))
        prefill, decode = result.pool("prefill"), result.pool("decode")
        assert prefill.n_replicas == 2 and decode.n_replicas == 3
        assert prefill.n_steps == len(TRACE)
        assert 0.0 < prefill.utilization <= 1.0
        assert 0.0 < decode.utilization <= 1.0
        assert prefill.busy_s > 0 and decode.busy_s > 0
        with pytest.raises(ConfigError):
            result.pool("transfer")

    def test_prefill_never_starts_before_arrival(self):
        # Replica 1 idles past the t=0.1 arrivals and takes one of them;
        # replica 0 then frees at t≈0.051 with the other already queued.
        # Its prefill must start at the arrival (0.1), not the replica's
        # earlier free time — a regression here yields negative TTFT.
        trace = reqs([(50_000, 4, 0.0), (16, 4, 0.1), (16, 4, 0.1)])
        result = core(8192, prefill_replicas=2).serve(trace)
        assert result.n_requests == 3
        for t in result.timings:
            assert t.first_token_s >= t.arrival_s
            assert t.ttft_s >= 0.0

    def test_priority_orders_prefill_queue(self):
        # Both arrive before the single prefill replica frees: the
        # high-priority request must prefill first despite arriving later.
        config = ServingConfig(
            mode="disaggregated", policy="priority",
            disagg=DisaggConfig(),
        )
        low = Request(0, prompt_len=32, max_new_tokens=4, arrival_s=0.0,
                      priority=0)
        high = Request(1, prompt_len=32, max_new_tokens=4, arrival_s=0.0,
                       priority=5)
        dcore = DisaggregatedCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block, config
        )
        result = dcore.serve([low, high])
        ttft = {t.request_id: t.first_token_s for t in result.timings}
        assert ttft[1] < ttft[0]

    def test_extra_decode_replicas_shorten_makespan(self):
        # All requests land at once; one replica serializes the KV-bound
        # batches, two split them.
        trace = [(16, 60, 0.0)] * 6
        one = core(12, decode_replicas=1).serve(reqs(trace))
        two = core(12, decode_replicas=2).serve(reqs(trace))
        assert two.makespan_s < one.makespan_s
        assert one.tokens_generated == two.tokens_generated == 360


class TestColocatedCompatibility:
    def test_colocated_mode_is_bit_compatible(self):
        """mode="colocated" must not perturb the plain core's output."""
        trace_a = reqs(TRACE)
        trace_b = reqs(TRACE)
        kv_bytes = 64 * SPEC.bytes_per_block
        plain = ServingCore(
            FlatCostModel(), SPEC, kv_bytes, ServingConfig()
        ).serve(trace_a)
        explicit = ServingCore(
            FlatCostModel(), SPEC, kv_bytes,
            ServingConfig(mode="colocated"),
        ).serve(trace_b)
        assert explicit.makespan_s == plain.makespan_s
        assert explicit.n_steps == plain.n_steps
        assert explicit.timings == plain.timings
        assert explicit.mode == plain.mode == "colocated"
        assert explicit.pools == () and explicit.transfer is None

    def test_core_rejects_colocated_config(self):
        with pytest.raises(ConfigError):
            DisaggregatedCore(
                FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
                ServingConfig(mode="colocated"),
            )

    def test_plain_core_rejects_disaggregated_config(self):
        # The mirror guard: a disaggregated config must not silently run
        # colocated with its pool geometry and link costs ignored.
        with pytest.raises(ConfigError):
            ServingCore(
                FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block,
                ServingConfig(mode="disaggregated"),
            )

    def test_result_reports_actual_prefill_mode(self):
        # The prefill pool always runs whole-prompt passes; the result
        # must say so even when the config carries the colocated-only
        # chunked setting.
        config = ServingConfig(
            mode="disaggregated", prefill_mode="chunked",
            disagg=DisaggConfig(),
        )
        result = DisaggregatedCore(
            FlatCostModel(), SPEC, 64 * SPEC.bytes_per_block, config
        ).serve(reqs(TRACE))
        assert result.prefill_mode == "group"

    def test_serve_needs_requests(self):
        with pytest.raises(ConfigError):
            core(64).serve([])


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"prefill_replicas": 0},
        {"decode_replicas": 0},
        {"link_gb_per_s": 0.0},
        {"link_gb_per_s": -1.0},
        {"link_latency_s": -1e-3},
        {"transfer_codec": "zstd"},
        {"transfer_ratio": 0.5},
    ])
    def test_bad_disagg_config(self, kwargs):
        with pytest.raises(ConfigError):
            DisaggConfig(**kwargs)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_transfer_ratio_rejected(self, value):
        with pytest.raises(ConfigError, match=f"got {value}$"):
            DisaggConfig(transfer_codec="kvcomp", transfer_ratio=value)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            ServingConfig(mode="sharded")

    def test_codec_ratio_resolution(self):
        none = ServingConfig(mode="disaggregated")
        assert resolve_transfer_ratio(none) == 1.0
        kvcomp = ServingConfig(
            mode="disaggregated",
            disagg=DisaggConfig(transfer_codec="kvcomp"),
        )
        assert resolve_transfer_ratio(kvcomp) > 1.3
        explicit = ServingConfig(
            mode="disaggregated",
            disagg=DisaggConfig(transfer_codec="kvcomp",
                                transfer_ratio=3.0),
        )
        assert resolve_transfer_ratio(explicit) == 3.0
