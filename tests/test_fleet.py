"""Tests for the fleet layer: router policies, FleetCore, autoscaler.

The invariants that make a fleet simulation trustworthy:

* **determinism** — routing decisions are a pure function of the trace
  and replica state (no RNG, platform-stable tenant hash), so the same
  trace routes identically across runs;
* **conservation** — across replicas, under overload and deadlines:
  ``sum(per-replica finished) == fleet finished`` and
  ``finished + unfinished + rejected == offered``;
* **stickiness** — session affinity keeps a tenant on one replica for
  as long as that replica exists;
* **safety** — the autoscaler never drains a replica with in-flight
  work, and scale-ups respect the warm-up delay;
* **equivalence** — a 1-replica round-robin fleet is the colocated
  engine, bit for bit, and (on the configs where it holds) the
  disaggregated one;
* **decomposition** — a statically routed fleet is N independent cell
  runs, each fed its own requests at the fleet's arrival instants;
* **signals** — every cell's ``kv_occupancy`` counter equals a recount
  from its queues at every routing decision.
"""

import math
from bisect import bisect_right
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SchedulingError, UnknownSpecError
from repro.gpu.specs import get_gpu
from repro.serving import (
    ROUTING_POLICIES,
    AutoscalerConfig,
    AutoscalerStage,
    ChunkedPrefillPoolStage,
    DisaggConfig,
    EventKernel,
    FleetConfig,
    FleetCore,
    InferenceEngine,
    LeastKVOccupancyPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    SchedulerLimits,
    ServingConfig,
    SLOTarget,
    Stage,
    find_knee,
    get_backend,
    get_model,
    get_profile,
    get_routing_policy,
    goodput_feasible,
    list_routing_policies,
    multi_tenant_trace,
    open_loop_arrivals,
    PrefixCacheConfig,
    poisson_trace,
    register_routing_policy,
    run_open_loop,
)
from repro.utils import ceil_div
from test_serving_goldens import (
    _BACKPRESSURE,
    _busy_chat,
    _chat,
    _disagg,
    _engine,
    _fleet,
    _sessions,
    mask_pool_peaks,
)

LIMITS = SchedulerLimits(max_num_seqs=16, max_batched_tokens=8192)
BUILTINS = (
    "round_robin",
    "least_outstanding",
    "least_kv_occupancy",
    "session_affinity",
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(
        get_model("llama3.1-8b"), get_gpu("rtx4090"), get_backend("zipserv")
    )


def fleet_config(n=4, routing="round_robin", **fleet_kw) -> ServingConfig:
    return ServingConfig(
        mode="fleet", prefill_mode="chunked", cost_bucket=64, limits=LIMITS,
        fleet=FleetConfig(n_replicas=n, routing=routing, **fleet_kw),
    )


def serve_fleet(engine, config, n=120, rate=8.0, seed=0, deadline_s=None):
    return engine.serve(
        poisson_trace(n, rate, seed=seed), config=config,
        deadline_s=deadline_s,
    )


def fleet_core(engine, config) -> FleetCore:
    """A FleetCore on the engine's stack, for router/autoscaler inspection."""
    return FleetCore(
        engine.costs, engine.kv_spec, engine.plan.kv_bytes, config
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRoutingRegistry:
    def test_builtins_registered(self):
        assert set(BUILTINS) <= set(list_routing_policies())

    def test_get_by_name_case_insensitive(self):
        assert isinstance(
            get_routing_policy("Round_Robin"), RoundRobinPolicy
        )

    def test_instance_passes_through(self):
        policy = LeastKVOccupancyPolicy()
        assert get_routing_policy(policy) is policy

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            get_routing_policy("round_robbin")
        assert "round_robin" in str(excinfo.value)

    def test_unknown_name_rejected_at_config_time(self):
        with pytest.raises(UnknownSpecError):
            FleetConfig(routing="nope")

    def test_register_custom_policy(self, engine):
        @register_routing_policy
        class AlwaysFirstPolicy(RoutingPolicy):
            name = "always_first"

            def select(self, req, active, now):
                return active[0]

        try:
            result = serve_fleet(
                engine, fleet_config(n=3, routing="always_first"), n=40
            )
            assert result.routing_histogram == (40, 0, 0)
        finally:
            del ROUTING_POLICIES["always_first"]

    def test_register_collision_raises(self):
        class Impostor(RoutingPolicy):
            name = "round_robin"

            def select(self, req, active, now):
                return active[0]

        with pytest.raises(SchedulingError):
            register_routing_policy(Impostor)


# ----------------------------------------------------------------------
# Routing behaviour
# ----------------------------------------------------------------------
class TestRouting:
    def test_round_robin_even_split(self, engine):
        result = serve_fleet(engine, fleet_config(n=4), n=200)
        assert result.routing_histogram == (50, 50, 50, 50)
        assert result.n_requests == 200

    @pytest.mark.parametrize("routing", BUILTINS)
    def test_all_policies_serve_everything(self, engine, routing):
        result = serve_fleet(engine, fleet_config(n=3, routing=routing))
        assert result.n_requests == 120
        assert sum(result.routing_histogram) == 120

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        routing=st.sampled_from(BUILTINS),
    )
    def test_routing_is_deterministic(self, engine, seed, routing):
        """Same trace, same policy → identical decisions, twice over."""
        config = fleet_config(n=3, routing=routing)
        first = serve_fleet(engine, config, n=60, seed=seed)
        second = serve_fleet(engine, config, n=60, seed=seed)
        assert first.routing_histogram == second.routing_histogram
        assert first.timings == second.timings
        assert first.makespan_s == second.makespan_s

    def test_session_affinity_stickiness(self, engine):
        """Same tenant → same replica, for every tenant in the trace."""
        requests = multi_tenant_trace(seed=3)
        tenant_of = {r.request_id: r.tenant for r in requests}
        core = fleet_core(
            engine, fleet_config(n=4, routing="session_affinity")
        )
        result = core.serve(requests)
        homes: dict[str, int] = {}
        for request_id, replica_index in core.last_router.assignments.items():
            tenant = tenant_of[request_id]
            homes.setdefault(tenant, replica_index)
            assert homes[tenant] == replica_index, tenant
        # Multi-tenant means this test saw more than one tenant.
        assert len(homes) >= 2
        assert result.n_requests == len(requests)

    def test_one_replica_fleet_is_the_colocated_engine(self, engine):
        """``n_replicas=1`` reproduces colocated serving bit for bit."""
        trace = lambda: poisson_trace(150, 10.0, seed=5)  # noqa: E731
        colocated = engine.serve(
            trace(),
            config=ServingConfig(
                prefill_mode="chunked", cost_bucket=64, limits=LIMITS
            ),
        )
        fleet = engine.serve(trace(), config=fleet_config(n=1))
        assert fleet.makespan_s == colocated.makespan_s
        # The fleet result sorts finished requests by id; the timings
        # themselves (every float) must match bit for bit.
        key = lambda t: t.request_id  # noqa: E731
        assert sorted(fleet.timings, key=key) == sorted(
            colocated.timings, key=key
        )
        assert fleet.n_steps == colocated.n_steps

    @pytest.mark.parametrize(("prefill_mode", "link_topology", "bucket"), [
        ("group", "shared", 0),
        ("group", "per_replica", 0),
        ("chunked", "shared", 0),
        ("chunked", "per_replica", 0),
        ("group", "shared", 64),
        ("group", "per_replica", 64),
        ("chunked", "shared", 64),
        ("chunked", "per_replica", 64),
    ])
    def test_one_cell_fleet_is_the_disaggregated_engine(
        self, engine, prefill_mode, link_topology, bucket
    ):
        """A disagg cell behind a 1-replica router is ``DisaggregatedCore``.

        Two prefill and two decode replicas on a starved 0.125 GB/s
        ``kvcomp`` link: every config of the {prefill mode} × {link} ×
        {cost bucket} product without backpressure.  Windows no longer
        depend on where they end, so the router's arrival instants
        change nothing.  The eight backpressure configs (the same
        product with the watermarks on) still differ behind a router:
        the gate reads decode-pool state that poll order moves.
        ROADMAP.md's plumbing-invariance item owns them.
        """
        cell = ServingConfig(
            mode="disaggregated", limits=LIMITS, cost_bucket=bucket,
            disagg=DisaggConfig(
                prefill_replicas=2, decode_replicas=2,
                link_gb_per_s=0.125, transfer_codec="kvcomp",
                link_topology=link_topology, prefill_mode=prefill_mode,
            ),
        )
        trace = lambda: poisson_trace(300, 20.0, seed=3)  # noqa: E731
        core = engine.serve(trace(), config=cell)
        fleet = engine.serve(trace(), config=ServingConfig(
            mode="fleet", prefill_mode="chunked", limits=LIMITS,
            cost_bucket=bucket,
            fleet=FleetConfig(
                n_replicas=1, routing="round_robin", instance=cell
            ),
        ))
        assert fleet.makespan_s == core.makespan_s
        assert fleet.n_steps == core.n_steps
        key = lambda t: t.request_id  # noqa: E731
        assert sorted(fleet.timings, key=key) == sorted(
            core.timings, key=key
        )
        assert fleet.replicas[0].transfer.records == core.transfer.records


# ----------------------------------------------------------------------
# Decomposition: a statically routed fleet is N independent cell runs
# ----------------------------------------------------------------------
class _ArrivalReplay(Stage):
    """The router's stand-in in front of one cell on its own kernel.

    It advances at the given arrival instants — every arrival of the
    whole trace, as the fleet's router does, or only its cell's — and
    delivers only the requests routed to its cell.
    """

    name = "router"

    def __init__(self, arrivals: list[float], mine: list, cell) -> None:
        self._arrivals = arrivals
        self._mine = mine
        self._mine_arrivals = [r.arrival_s for r in mine]
        self._cursor = self._delivered = 0
        self.cell = cell

    def next_event_time(self) -> float | None:
        if self._cursor == len(self._arrivals):
            return None
        return self._arrivals[self._cursor]

    def advance(self, now: float) -> None:
        self._cursor = bisect_right(self._arrivals, now)
        due = bisect_right(self._mine_arrivals, now)
        for req in self._mine[self._delivered:due]:
            self.cell.deliver(req)
        if due > self._delivered:
            self._delivered = due
            self.cell.notify()


def _decomposed_run(config, requests, kv_bytes, fleet_instants):
    """Route ``requests`` up front with the fleet's policy, then run
    each cell alone, advancing its feeder at every fleet arrival or only
    at its own; returns the cells and the ``EventKernel`` runs' combined
    makespan."""
    engine = _engine()
    core = FleetCore(engine.costs, engine.kv_spec, kv_bytes, config)
    cells = [
        core._build_cell(i, cfg)
        for i, cfg in enumerate(config.fleet.resolve_instances(config))
    ]
    policy = get_routing_policy(config.fleet.routing)
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    routed = {cell.index: [] for cell in cells}
    for req in ordered:
        routed[policy.select(req, cells, req.arrival_s).index].append(req)
    arrivals = [r.arrival_s for r in ordered]
    for cell in cells:
        mine = routed[cell.index]
        feeder = _ArrivalReplay(
            arrivals if fleet_instants else [r.arrival_s for r in mine],
            mine, cell,
        )
        cell.attach_router((feeder,))
        EventKernel([feeder, *cell.stages]).run()
    return cells, max(cell.clock for cell in cells)


#: name -> (fleet config over (cost bucket, routing), trace, KV fraction).
_DECOMPOSED = {
    "colocated_x3": (
        lambda b, routing: _fleet(b, 3, routing),
        lambda: _chat(200, 12.0), 1.0),
    "colocated_cache_x3": (
        lambda b, routing: _fleet(
            b, 3, routing,
            prefix_cache=PrefixCacheConfig(hot_frac=0.3, codec="kvcomp"),
        ),
        _sessions, 1.0),
    "disagg_chunked_cache_x2": (
        lambda b, routing: _fleet(
            b, 2, routing, _disagg(b, "chunked"),
            prefix_cache=PrefixCacheConfig(hot_frac=0.5, codec="kvcomp"),
        ),
        _sessions, 1.0),
    "disagg_group_x2": (
        lambda b, routing: _fleet(b, 2, routing, _disagg(b, "group")),
        _sessions, 1.0),
    "disagg_chunked_kv6_x2": (
        lambda b, routing: _fleet(b, 2, routing, _disagg(b, "chunked")),
        _busy_chat, 0.06),
    "disagg_backpressure_kv5_x2": (
        lambda b, routing: _fleet(
            b, 2, routing, _disagg(
                b, "chunked", _BACKPRESSURE,
                decode_replicas=2, link_topology="per_replica",
            ),
        ),
        _chat, 0.05),
}


def _mask_pool_peaks(stats):
    """``ReplicaStats`` rows with their pools masked by
    :func:`mask_pool_peaks`."""
    return tuple(
        replace(row, pools=mask_pool_peaks(row.pools)) for row in stats
    )


class TestDecomposition:
    @pytest.mark.parametrize("fleet_instants", (True, False),
                             ids=("fleet_instants", "own_arrivals"))
    @pytest.mark.parametrize("bucket", (0, 64))
    @pytest.mark.parametrize("routing", ("round_robin", "session_affinity"))
    @pytest.mark.parametrize("setup", sorted(_DECOMPOSED))
    def test_static_fleet_is_independent_cell_runs(
        self, setup, routing, bucket, fleet_instants
    ):
        """Under static routing each cell run alone reproduces every
        fleet output exactly, whether its feeder replays every fleet
        arrival instant or only the cell's own: a decode window ends
        where it would in a stepwise run, wherever events cut it.  Fed
        its own arrivals only, a cell's multi-replica decode pool may
        sample a different pool-wide ``peak_kv_frac`` (a sum over
        replicas at different clocks; ROADMAP.md item 1)."""
        config_of, trace_of, kv_frac = _DECOMPOSED[setup]
        config = config_of(bucket, routing)
        engine = _engine()
        kv_bytes = kv_frac * engine.plan.kv_bytes
        fleet_requests = trace_of()
        result = FleetCore(
            engine.costs, engine.kv_spec, kv_bytes, config
        ).serve(fleet_requests)
        cell_requests = trace_of()
        cells, makespan = _decomposed_run(
            config, cell_requests, kv_bytes, fleet_instants
        )

        stamps = lambda reqs: {  # noqa: E731
            r.request_id: (r.arrival_s, r.first_token_s, r.finish_s)
            for r in reqs
        }
        assert stamps(cell_requests) == stamps(fleet_requests)
        assert makespan == result.makespan_s
        assert sum(cell.n_steps for cell in cells) == result.n_steps
        stats = tuple(cell.stats(makespan) for cell in cells)
        replicas = result.replicas
        if not fleet_instants:
            stats = _mask_pool_peaks(stats)
            replicas = _mask_pool_peaks(replicas)
        assert repr(stats) == repr(replicas)


# ----------------------------------------------------------------------
# Routing signals: the cells' running counters equal a queue recount
# ----------------------------------------------------------------------
def _recount_occupancy(cell, block_size: int) -> float:
    """A cell's projected KV occupancy, recounted from its queues."""
    blocks = lambda reqs: sum(  # noqa: E731
        ceil_div(r.prompt_len, block_size) for r in reqs
    )
    if cell.mode == "colocated":
        # Allocated blocks, plus the footprint of every routed request
        # that was never admitted (still pending, or waiting with no
        # preemption behind it).
        scheduler = cell.scheduler
        queued = [r for *_, r in cell.pending] + [
            r for r in scheduler.waiting if r.n_preemptions == 0
        ]
        return (scheduler.kv.used_blocks + blocks(queued)) / max(
            scheduler.kv.n_blocks, 1
        )
    # Disagg: the decode pool's projection with every request the
    # prefill side has not yet committed folded in.
    prefill = cell.prefill
    queued = list(prefill.pending)
    if isinstance(prefill, ChunkedPrefillPoolStage):
        for replica in prefill.replicas:
            queued += [r for *_, r in replica.pending]
            queued += replica.scheduler.waiting
    else:
        queued += prefill.waiting
    return 1.0 - cell.decode_pool.projected_free_frac(blocks(queued))


class _RecountingPolicy(LeastKVOccupancyPolicy):
    """``least_kv_occupancy`` that checks every signal it reads."""

    def __init__(self, block_size: int) -> None:
        super().__init__()
        self.block_size = block_size
        self.n_checked = 0

    def select(self, req, active, now):
        for cell in active:
            assert cell.kv_occupancy() == _recount_occupancy(
                cell, self.block_size
            ), (cell.index, now)
            self.n_checked += 1
        return super().select(req, active, now)


class TestRoutingSignals:
    @pytest.mark.parametrize("kv_frac", (1.0, 0.06))
    @pytest.mark.parametrize("cell", ("colocated", "group", "chunked"))
    def test_kv_occupancy_equals_a_recount(self, engine, cell, kv_frac):
        """Each cell keeps its routing signal in a running counter:
        blocks committed on delivery, retired at first admission
        (colocated) or when prefill commits them (disagg).  At every
        routing decision that counter must equal a recount."""
        instance = None
        if cell != "colocated":
            instance = ServingConfig(
                mode="disaggregated", limits=LIMITS, cost_bucket=64,
                disagg=DisaggConfig(
                    prefill_mode=cell, link_gb_per_s=0.125,
                    transfer_codec="kvcomp",
                ),
            )
        policy = _RecountingPolicy(engine.kv_spec.block_size)
        config = fleet_config(n=3, routing=policy, instance=instance)
        core = FleetCore(
            engine.costs, engine.kv_spec, kv_frac * engine.plan.kv_bytes,
            config,
        )
        stamps = open_loop_arrivals(12.0, 2.0 * 200 / 12.0, seed=1)[:200]
        result = core.serve(get_profile("chat").trace(stamps, seed=1))
        assert result.n_requests == 200
        assert policy.n_checked == 3 * 200


# ----------------------------------------------------------------------
# Conservation + per-replica breakdown
# ----------------------------------------------------------------------
class TestConservation:
    def test_per_replica_finished_sums_to_fleet(self, engine):
        result = serve_fleet(
            engine, fleet_config(n=4, routing="least_kv_occupancy"), n=200
        )
        assert sum(s.n_finished for s in result.replicas) == result.n_requests
        assert sum(result.routing_histogram) == 200

    @pytest.mark.parametrize(
        "routing", ("round_robin", "least_outstanding", "session_affinity")
    )
    def test_conservation_under_overload_and_deadline(self, engine, routing):
        """The satellite invariant: overload + deadline loses nothing."""
        result = serve_fleet(
            engine, fleet_config(n=2, routing=routing),
            n=400, rate=80.0, deadline_s=4.0,
        )
        assert (
            result.n_requests + result.n_unfinished + result.n_rejected
            == 400
        )
        assert sum(s.n_finished for s in result.replicas) == result.n_requests
        assert result.n_unfinished > 0  # the deadline actually bit
        per_replica_seen = sum(
            s.n_finished + s.n_unfinished for s in result.replicas
        )
        assert per_replica_seen == sum(result.routing_histogram)

    def test_replica_stats_shape(self, engine):
        result = serve_fleet(engine, fleet_config(n=3), n=90)
        assert len(result.replicas) == 3
        for i, stats in enumerate(result.replicas):
            assert stats.index == i
            assert stats.mode == "colocated"
            assert [p.name for p in stats.pools] == [f"replica{i}/engine"]
        assert [p.name for p in result.pools] == [
            f"replica{i}/engine" for i in range(3)
        ]

    def test_mixed_fleet_reports_per_mode_stats(self, engine):
        colocated = ServingConfig(
            prefill_mode="chunked", cost_bucket=64, limits=LIMITS
        )
        disagg = ServingConfig(
            mode="disaggregated", cost_bucket=64, limits=LIMITS,
            disagg=DisaggConfig(prefill_mode="chunked"),
        )
        config = ServingConfig(
            mode="fleet", cost_bucket=64, limits=LIMITS,
            fleet=FleetConfig(
                routing="least_outstanding",
                instances=(colocated, disagg),
            ),
        )
        result = serve_fleet(engine, config, n=80, rate=5.0)
        assert result.n_requests == 80
        assert [s.mode for s in result.replicas] == [
            "colocated", "disaggregated"
        ]
        assert result.replicas[0].transfer is None
        transfer = result.replicas[1].transfer
        assert transfer is not None
        assert transfer.n_transfers == result.replicas[1].n_finished
        names = [p.name for p in result.replicas[1].pools]
        assert names == ["replica1/prefill", "replica1/decode"]


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
class _StubReplica:
    def __init__(self, index, occupancy=0.0, outstanding=0, active=0.0):
        self.index = index
        self._occupancy = occupancy
        self.n_outstanding = outstanding
        self.active_since = active
        self.stall_s = 0.0

    def kv_occupancy(self):
        return self._occupancy


class _StubRouter:
    n_unrouted = 1  # keeps the stage ticking


class TestAutoscalerUnit:
    def test_scales_up_past_high_watermark_with_warmup(self):
        config = AutoscalerConfig(
            min_replicas=1, interval_s=1.0, warmup_s=2.5, kv_high_frac=0.8
        )
        replicas = [
            _StubReplica(0, occupancy=0.9, outstanding=4),
            _StubReplica(1, active=None),
        ]
        stage = AutoscalerStage(config, _StubRouter(), replicas)
        stage.advance(1.0)
        (event,) = stage.events
        assert event.action == "up"
        assert event.replica == 1
        assert event.active_at_s == pytest.approx(1.0 + 2.5)
        assert replicas[1].active_since == pytest.approx(3.5)

    def test_never_drains_replica_with_inflight_work(self):
        config = AutoscalerConfig(min_replicas=1, interval_s=1.0,
                                  kv_low_frac=0.2)
        replicas = [
            _StubReplica(0, occupancy=0.01, outstanding=0),
            _StubReplica(1, occupancy=0.05, outstanding=3),
        ]
        stage = AutoscalerStage(config, _StubRouter(), replicas)
        stage.advance(1.0)
        # Replica 1 is busy: the only drain candidate is idle replica 0,
        # and draining it would violate min_replicas=1 only if replica 1
        # were inactive — here replica 0 drains, replica 1 survives.
        (event,) = stage.events
        assert event.action == "down"
        assert event.replica == 0
        assert event.n_outstanding == 0
        assert replicas[1].active_since is not None

    def test_no_drain_when_every_active_is_busy(self):
        config = AutoscalerConfig(min_replicas=1, interval_s=1.0,
                                  kv_low_frac=0.2)
        replicas = [
            _StubReplica(0, occupancy=0.05, outstanding=2),
            _StubReplica(1, occupancy=0.05, outstanding=1),
        ]
        stage = AutoscalerStage(config, _StubRouter(), replicas)
        stage.advance(1.0)
        assert stage.events == []

    def test_respects_min_replicas_floor(self):
        config = AutoscalerConfig(min_replicas=2, interval_s=1.0,
                                  kv_low_frac=0.2)
        replicas = [
            _StubReplica(0, occupancy=0.0, outstanding=0),
            _StubReplica(1, occupancy=0.0, outstanding=0),
        ]
        stage = AutoscalerStage(config, _StubRouter(), replicas)
        stage.advance(1.0)
        assert stage.events == []


class TestAutoscalerEndToEnd:
    def test_burst_scales_up_and_serves_everything(self, engine):
        config = fleet_config(
            n=4, routing="least_outstanding",
            autoscaler=AutoscalerConfig(
                min_replicas=1, interval_s=0.25, warmup_s=0.5,
                kv_low_frac=0.01, kv_high_frac=0.05,
            ),
        )
        core = fleet_core(engine, config)
        result = core.serve(poisson_trace(200, 30.0, seed=0))
        assert result.n_requests == 200
        events = core.scale_events
        assert any(e.action == "up" for e in events)
        # Scaled-up replicas actually took traffic.
        assert sum(1 for n in result.routing_histogram if n > 0) >= 2
        for event in events:
            if event.action == "down":
                assert event.n_outstanding == 0

    def test_without_autoscaler_all_replicas_active(self, engine):
        result = serve_fleet(engine, fleet_config(n=4), n=100, rate=20.0)
        assert all(n > 0 for n in result.routing_histogram)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_defaults_fleet_config_for_fleet_mode(self):
        config = ServingConfig(mode="fleet")
        assert isinstance(config.fleet, FleetConfig)
        assert config.fleet.n_replicas == 2

    def test_rejects_non_config_fleet(self):
        with pytest.raises(ConfigError):
            ServingConfig(mode="fleet", fleet="nope")

    def test_rejects_nonpositive_replicas(self):
        with pytest.raises(ConfigError):
            FleetConfig(n_replicas=0)

    def test_rejects_nested_fleet_instance(self):
        with pytest.raises(ConfigError):
            FleetConfig(instance=ServingConfig(mode="fleet"))

    def test_rejects_codec_slots_on_instances(self):
        with pytest.raises(ConfigError):
            FleetConfig(instance=ServingConfig(weight_codec="kvcomp"))

    def test_rejects_autoscaler_floor_above_fleet(self):
        with pytest.raises(ConfigError):
            FleetConfig(
                n_replicas=2,
                autoscaler=AutoscalerConfig(min_replicas=3),
            )

    def test_autoscaler_watermark_ordering(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(kv_low_frac=0.9, kv_high_frac=0.8)

    @pytest.mark.parametrize("field", ("interval_s", "warmup_s"))
    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_autoscaler_rejects_non_finite_times(self, field, value):
        # interval_s=inf once passed and hung serve() ticking at t=inf.
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            AutoscalerConfig(**{field: value})

    def test_instances_tuple_sets_size(self):
        inner = ServingConfig(prefill_mode="chunked")
        config = FleetConfig(instances=(inner, inner, inner))
        assert config.size == 3


# ----------------------------------------------------------------------
# Engine dispatch + open-loop driver
# ----------------------------------------------------------------------
class TestEngineAndOpenLoop:
    def test_engine_dispatches_fleet_mode(self, engine):
        result = serve_fleet(engine, fleet_config(n=2), n=50)
        assert result.mode == "fleet"
        assert result.policy == "fcfs"

    def test_find_knee_works_on_a_fleet(self, engine):
        """The open-loop driver needs no fleet-specific plumbing."""
        config = fleet_config(n=2, routing="least_kv_occupancy")

        def serve(requests, deadline_s):
            return engine.serve(
                requests, config=config, deadline_s=deadline_s
            )

        def probe(rate):
            return goodput_feasible(run_open_loop(
                serve, "fixed_length", rate, 6.0, warmup_s=1.0,
                cooldown_s=1.0, seed=0, slo=SLOTarget(2.0, 0.25),
            ))

        knee = find_knee(probe, 0.5, 64.0, rate_tol_rps=4.0, max_probes=6)
        assert 0.5 < knee.knee_rps < 64.0
        assert knee.infeasible_rps > knee.knee_rps
        assert knee.n_probes >= 2
