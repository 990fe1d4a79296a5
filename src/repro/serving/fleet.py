"""Fleet-scale serving: N engine instances behind a router, on one kernel.

One engine — colocated or disaggregated — tops out at its capacity knee;
"millions of users" means a *fleet* of them behind a load balancer, the
shape the multi-instance k8s deployments shipped with
inference-benchmarker (replicas behind a service) deploy in production.
This module makes that shape simulable without a new simulator: a fleet
run is just more :class:`~repro.serving.kernel.Stage` objects on the
same :class:`~repro.serving.kernel.EventKernel`.

Composition (selected by ``ServingConfig(mode="fleet",
fleet=FleetConfig(...))`` through ``InferenceEngine.serve``):

* :class:`~repro.serving.router.RouterStage` — consumes the arrival
  stream and hands each request to a replica via a registered
  :class:`~repro.serving.router.RoutingPolicy`;
* N **cells** (replicas), each a full engine instance with its own
  scheduler and KV cache, built directly by :class:`FleetCore`: a
  :class:`~repro.serving.serve.ColocatedStage`, or a
  :class:`~repro.serving.disagg.DisaggCell` (prefill pool → transfer
  link → decode pool).  A cell is the router's whole interface —
  ``deliver``, the occupancy/outstanding signals, per-cell
  ``ReplicaStats`` — with no adapter in between.  Each cell has its
  *own* :class:`ServingConfig`, so mixed fleets — a few big disagg
  cells plus cheap colocated spot instances — are expressible
  (``FleetConfig.instances``);
* an optional :class:`AutoscalerStage` — a periodic control loop that
  *activates* standby replicas when the fleet's projected KV occupancy
  crosses the high watermark (or backpressure stall time grows), after
  a configurable warm-up delay, and *drains* idle replicas at the low
  watermark — never one holding in-flight work.

Costs are resolved **once** at the fleet level: the engine's codec
stack (weights/KV/wire, auto slots, calibration) feeds every replica,
and replicas sharing a ``cost_bucket`` share one memoized cost model —
a 4-replica fleet warms one step-price cache, not four.

Fast-forward correctness: a cell's decode window may not run past an
arrival the router has not delivered to it yet, nor past an instant
at which the router or the autoscaler reads the cell's state, so the
fleet hands each cell the events that can reach it: a colocated cell
caps its window at the next one, a disagg cell adds them to its decode
pool's upstream set.  Under a static policy with no admission cap and
no autoscaler the router routes the trace ahead
(:meth:`~repro.serving.router.RouterStage.route_ahead`), and those
events are the cell's own arrivals; otherwise they are every arrival
and every autoscaler tick.
Conservation — every
offered request is finished, in flight, or still queued somewhere, and
``sum(per-replica finished) == fleet finished`` — is tested in
``tests/test_fleet.py`` and surfaced per replica on
:class:`~repro.serving.metrics.ContinuousResult.replicas`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from ..utils import require_finite, require_int
from .costs import StepCostModel, maybe_memoize
from .disagg import DisaggCell
from .kernel import EventKernel, Stage
from .kvcache import KVCacheSpec
from .metrics import ContinuousResult
from .prefixcache import PrefixCacheStats
from .router import RouterConfig, RouterStage, get_routing_policy
from .scheduler import Request, get_policy
from .serve import ColocatedStage, ServingConfig
from .telemetry import build_recorder

__all__ = [
    "AutoscalerConfig",
    "AutoscalerStage",
    "FleetConfig",
    "FleetCore",
    "ScaleEvent",
]


@dataclass(frozen=True)
class AutoscalerConfig:
    """The fleet autoscaler's control loop.

    Every ``interval_s`` of simulated time (while work exists) the
    controller reads the fleet's signals and may take one action:

    * **scale up** — when the worst active replica's projected KV
      occupancy reaches ``kv_high_frac``, or any prefill pool's
      backpressure stall time grew since the last tick, activate one
      standby replica; it starts taking traffic ``warmup_s`` later
      (model load + cache warm time);
    * **scale down** — when the worst occupancy is at or below
      ``kv_low_frac`` and more than ``min_replicas`` are active, drain
      one replica — always the highest-indexed one with **zero
      outstanding work** (never a replica holding in-flight requests;
      the invariant ``tests/test_fleet.py`` pins).

    ``min_replicas`` is also the initially-active count; replicas
    beyond it start standby.  ``max_replicas=None`` caps at the fleet
    size.
    """

    min_replicas: int = 1
    max_replicas: int | None = None
    interval_s: float = 1.0
    warmup_s: float = 0.0
    kv_high_frac: float = 0.85
    kv_low_frac: float = 0.15

    def __post_init__(self) -> None:
        require_int(1, min_replicas=self.min_replicas)
        if self.max_replicas is not None:
            require_int(self.min_replicas, max_replicas=self.max_replicas)
        # An infinite interval would tick forever at t=inf; an infinite
        # warm-up would activate a replica never.
        require_finite(interval_s=self.interval_s, warmup_s=self.warmup_s)
        if not self.interval_s > 0:
            raise ConfigError("interval_s must be positive")
        if self.warmup_s < 0:
            raise ConfigError("warmup_s must be >= 0")
        if not 0.0 <= self.kv_low_frac < self.kv_high_frac <= 1.0:
            raise ConfigError(
                "need 0 <= kv_low_frac < kv_high_frac <= 1, got"
                f" [{self.kv_low_frac}, {self.kv_high_frac}]"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Geometry and routing of a replica fleet (``mode="fleet"``).

    ``instance`` is the per-replica :class:`ServingConfig` template
    (``mode="colocated"`` or ``"disaggregated"``); ``None`` derives it
    from the fleet-level config (same policy, limits, prefill mode and
    cost bucket, colocated).  ``instances`` instead lists one config
    per replica for heterogeneous fleets and overrides
    ``n_replicas``/``instance``.  Instance configs may not set codec
    slots or calibration — compression resolves once at the fleet
    level (``InferenceEngine.serve``) and feeds every replica — and
    may not nest fleets.
    """

    n_replicas: int = 2
    routing: object = "round_robin"
    instance: ServingConfig | None = None
    instances: tuple[ServingConfig, ...] = ()
    autoscaler: AutoscalerConfig | None = None
    #: Front-door admission control
    #: (:class:`~repro.serving.router.RouterConfig`); ``None`` admits
    #: everything.
    router: RouterConfig | None = None

    def __post_init__(self) -> None:
        require_int(1, n_replicas=self.n_replicas)
        if self.router is not None and not isinstance(
            self.router, RouterConfig
        ):
            raise ConfigError(
                "FleetConfig.router must be a RouterConfig,"
                f" got {type(self.router).__name__}"
            )
        get_routing_policy(self.routing)  # raises UnknownSpecError
        for cfg in (self.instance, *self.instances):
            if cfg is None:
                continue
            if not isinstance(cfg, ServingConfig):
                raise ConfigError(
                    "fleet instances must be ServingConfig values,"
                    f" got {type(cfg).__name__}"
                )
            if cfg.mode == "fleet":
                raise ConfigError("fleet instances cannot nest fleets")
            for slot in (cfg.weight_codec, cfg.kv_codec,
                         cfg.transfer_codec):
                if slot is not None:
                    raise ConfigError(
                        "instance codec slots must be None: compression"
                        " resolves once at the fleet level (set the"
                        " slots on the mode='fleet' config)"
                    )
            if cfg.calibration is not None:
                raise ConfigError(
                    "instance calibration must be None (set it on the"
                    " mode='fleet' config)"
                )
        n = len(self.instances) or self.n_replicas
        if self.autoscaler is not None and self.autoscaler.min_replicas > n:
            raise ConfigError(
                f"autoscaler min_replicas ({self.autoscaler.min_replicas})"
                f" exceeds the fleet size ({n})"
            )

    @property
    def size(self) -> int:
        """Total replicas (active + standby)."""
        return len(self.instances) or self.n_replicas

    def resolve_instances(
        self, outer: ServingConfig
    ) -> tuple[ServingConfig, ...]:
        """Settle the per-replica configs against the fleet-level one.

        Fleet-level codec state propagates down where an instance needs
        it: the (already policy-resolved) ``transfer_codec`` to disagg
        instances, ``calibration`` to everyone — so wire pricing inside
        a replica sees the same measured ratios the fleet's cost stack
        was built with — and ``prefix_cache`` to any instance that does
        not set its own (every replica carves a private cache; a fleet
        of N replicas holds N independent prefix caches, which is why
        ``session_affinity`` routing changes fleet hit rates).  A
        group-prefill disagg instance skips the fleet-level cache; one
        that sets its own is rejected when its :class:`DisaggCell` is
        built, exactly as
        :class:`~repro.serving.disagg.DisaggregatedCore` rejects it.
        """
        if self.instances:
            base = self.instances
        else:
            template = self.instance
            if template is None:
                template = replace(
                    outer, mode="colocated", fleet=None,
                    weight_codec=None, kv_codec=None,
                    transfer_codec=None, calibration=None,
                    # One recorder per fleet run, threaded explicitly by
                    # FleetCore — never one per replica config.
                    telemetry=None,
                )
            base = (template,) * self.n_replicas
        resolved = []
        for cfg in base:
            updates: dict = {}
            if (
                outer.transfer_codec is not None
                and cfg.mode == "disaggregated"
            ):
                updates["transfer_codec"] = outer.transfer_codec
            if outer.calibration is not None:
                updates["calibration"] = outer.calibration
            if (
                outer.prefix_cache is not None
                and cfg.prefix_cache is None
                # Group-mode disagg prefill has no scheduler to skip
                # cached tokens with — such instances run cache-less.
                and not (
                    cfg.mode == "disaggregated"
                    and cfg.disagg.prefill_mode != "chunked"
                )
            ):
                updates["prefix_cache"] = outer.prefix_cache
            resolved.append(replace(cfg, **updates) if updates else cfg)
        return tuple(resolved)


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action, for the scaling timeline."""

    t_s: float
    action: str  # "up" | "down"
    replica: int
    reason: str  # "kv" | "stall" | "idle"
    #: For "up": when the replica starts taking traffic (t_s + warmup).
    active_at_s: float | None = None
    #: The replica's outstanding work at action time (always 0 on
    #: "down" — the never-drain-in-flight invariant, pinned in tests).
    n_outstanding: int = 0


class AutoscalerStage(Stage):
    """Periodic scale-up/scale-down control loop as a kernel stage.

    Ticks every ``interval_s`` while the fleet has work (unrouted
    arrivals or outstanding requests); reports no event otherwise, so
    an idle fleet drains without the autoscaler keeping the kernel
    alive.  Each tick reads the same signals backpressure uses —
    projected KV occupancy (committed blocks included) and prefill
    stall growth — and takes at most one action; activations take
    effect ``warmup_s`` later, which the router observes through
    ``replica.is_active``.
    """

    name = "autoscaler"

    def __init__(
        self,
        config: AutoscalerConfig,
        router: RouterStage,
        replicas: list,
        recorder=None,
    ):
        self.config = config
        self.router = router
        self.replicas = replicas
        self._rec = recorder
        self.events: list[ScaleEvent] = []
        self._next = config.interval_s
        self._last_stall = 0.0

    def _has_work(self) -> bool:
        if self.router.n_unrouted:
            return True
        return any(r.n_outstanding for r in self.replicas)

    def next_event_time(self) -> float | None:
        return self._next if self._has_work() else None

    def advance(self, now: float) -> None:
        while self._next <= now:
            self._evaluate(self._next)
            self._next += self.config.interval_s

    def _evaluate(self, t: float) -> None:
        cfg = self.config
        active = [
            r for r in self.replicas
            if r.active_since is not None and r.active_since <= t
        ]
        warming = [
            r for r in self.replicas
            if r.active_since is not None and r.active_since > t
        ]
        standby = [r for r in self.replicas if r.active_since is None]
        occupancy = max((r.kv_occupancy() for r in active), default=0.0)
        stall = sum(r.stall_s for r in self.replicas)
        stalled = stall > self._last_stall
        self._last_stall = stall
        cap = cfg.max_replicas
        if cap is None:
            cap = len(self.replicas)
        if (
            (occupancy >= cfg.kv_high_frac or stalled)
            and standby
            and len(active) + len(warming) < cap
        ):
            replica = standby[0]
            replica.active_since = t + cfg.warmup_s
            event = ScaleEvent(
                t_s=t,
                action="up",
                replica=replica.index,
                reason="kv" if occupancy >= cfg.kv_high_frac else "stall",
                active_at_s=replica.active_since,
            )
            self.events.append(event)
            if self._rec is not None:
                self._rec.on_scale(event)
        elif (
            occupancy <= cfg.kv_low_frac
            and len(active) > cfg.min_replicas
        ):
            # Drain the highest-indexed idle replica; a replica with
            # outstanding work is never drained.
            for replica in reversed(active):
                if replica.n_outstanding == 0:
                    replica.active_since = None
                    event = ScaleEvent(
                        t_s=t,
                        action="down",
                        replica=replica.index,
                        reason="idle",
                        n_outstanding=replica.n_outstanding,
                    )
                    self.events.append(event)
                    if self._rec is not None:
                        self._rec.on_scale(event)
                    break


class FleetCore:
    """Fleet serving: router → N replicas (+ autoscaler) on one kernel.

    Drop-in sibling of :class:`~repro.serving.serve.ServingCore` and
    :class:`~repro.serving.disagg.DisaggregatedCore` — same constructor
    shape, same :meth:`serve` contract — selected by
    ``ServingConfig(mode="fleet")``.  The result reports ``mode="fleet"``
    with per-replica breakdowns on ``result.replicas`` (and their pools
    flattened into ``result.pools`` under ``replica<i>/...`` names).

    After :meth:`serve`, ``last_router`` and ``scale_events`` expose the
    run's routing assignments and autoscaler timeline for inspection.
    """

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig | None = None,
    ):
        self.config = config or ServingConfig(mode="fleet")
        if self.config.mode != "fleet":
            raise ConfigError(
                f"FleetCore requires mode='fleet', got"
                f" {self.config.mode!r}"
            )
        self.costs = costs
        self.kv_spec = kv_spec
        self.kv_bytes = kv_bytes
        self.policy = get_policy(self.config.policy)
        # Replicas sharing a cost bucket share one memoized cost model:
        # the fleet warms one step-price cache, not one per replica.
        self._memoized: dict[int, StepCostModel] = {}
        self.last_router: RouterStage | None = None
        self.scale_events: tuple[ScaleEvent, ...] = ()

    # ------------------------------------------------------------------
    def _costs_for(self, bucket: int) -> StepCostModel:
        if bucket not in self._memoized:
            self._memoized[bucket] = maybe_memoize(self.costs, bucket)
        return self._memoized[bucket]

    def _build_cell(self, index: int, cfg: ServingConfig, recorder=None):
        cls = DisaggCell if cfg.mode == "disaggregated" else ColocatedStage
        return cls(
            self._costs_for(cfg.cost_bucket), self.kv_spec, self.kv_bytes,
            cfg, recorder=recorder, index=index,
        )

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Replay a trace through the fleet; same contract as the cores.

        ``deadline_s`` bounds the simulation exactly as in the single
        cores; conservation holds by construction —
        ``n_requests + n_unfinished == n_offered`` — so
        :func:`~repro.serving.openloop.run_open_loop` (and therefore
        ``find_knee``) drives a fleet unchanged.
        """
        if not requests:
            raise ConfigError("serve needs at least one request")
        rec = build_recorder(self.config.telemetry)
        fleet = self.config.fleet
        instance_configs = fleet.resolve_instances(self.config)
        replicas = [
            self._build_cell(i, cfg, recorder=rec)
            for i, cfg in enumerate(instance_configs)
        ]
        router = RouterStage(
            requests, fleet.routing, replicas, config=fleet.router,
            recorder=rec,
        )
        if rec is not None:
            for req in sorted(
                requests, key=lambda r: (r.arrival_s, r.request_id)
            ):
                rec.on_arrival(req, track=router.name)
        n_active = len(replicas)
        if fleet.autoscaler is not None:
            n_active = min(fleet.autoscaler.min_replicas, len(replicas))
        for replica in replicas[:n_active]:
            replica.active_since = 0.0
        autoscaler = None
        fleet_stages: tuple[Stage, ...] = (router,)
        if fleet.autoscaler is not None:
            autoscaler = AutoscalerStage(
                fleet.autoscaler, router, replicas, recorder=rec
            )
            fleet_stages += (autoscaler,)
        # Without an autoscaler every replica stays active, so a static
        # policy's routes follow from the trace alone: the router routes
        # it now, and each cell's windows stop only at its own arrivals.
        shares = router.route_ahead() if autoscaler is None else None
        for i, replica in enumerate(replicas):
            replica.attach_router(
                fleet_stages if shares is None else (shares[i],)
            )
        stages: list[Stage] = [router]
        for replica in replicas:
            stages.extend(replica.stages)
        if autoscaler is not None:
            stages.append(autoscaler)
        EventKernel(stages, recorder=rec).run(until=deadline_s)
        self.last_router = router
        self.scale_events = (
            tuple(autoscaler.events) if autoscaler is not None else ()
        )

        finished: list[Request] = []
        for replica in replicas:
            finished.extend(replica.finished)
        finished.sort(key=lambda r: r.request_id)
        done_ids = {r.request_id for r in finished}
        done_ids.update(r.request_id for r in router.rejected)
        unfinished = [
            r for r in requests if r.request_id not in done_ids
        ]
        makespan = max((r.clock for r in replicas), default=0.0)
        stats = tuple(r.stats(makespan) for r in replicas)
        cache_stats = [
            s for replica in replicas for s in replica.cache_stats()
        ]
        return ContinuousResult.from_run(
            finished,
            makespan_s=makespan,
            n_steps=sum(r.n_steps for r in replicas),
            peak_running=max((r.peak_running for r in replicas), default=0),
            slo=self.config.slo,
            n_preemptions=sum(r.n_preemptions for r in replicas),
            policy=self.policy.name,
            prefill_mode=self.config.prefill_mode,
            mode="fleet",
            pools=tuple(p for s in stats for p in s.pools),
            unfinished=unfinished,
            n_rejected=len(router.rejected),
            deadline_s=deadline_s,
            replicas=stats,
            prefix_cache=(
                PrefixCacheStats.merge(cache_stats)
                if cache_stats else None
            ),
            scale_events=self.scale_events,
            telemetry=rec,
        )
