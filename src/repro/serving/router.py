"""Request routing across a replica fleet: policies + the router stage.

The fleet layer (:mod:`repro.serving.fleet`) composes N independent
engine instances on one :class:`~repro.serving.kernel.EventKernel`; this
module owns the *front door*: a :class:`RouterStage` that consumes the
trace's arrival stream and hands each request to one replica, chosen by
a pluggable :class:`RoutingPolicy`.

Policies live in a codec-style registry (:data:`ROUTING_POLICIES`,
mirroring ``repro.serving.scheduler.POLICIES`` and the compression
registry): register a subclass with :func:`register_routing_policy` and
any ``FleetConfig(routing="<name>")`` picks it up.  Builtins:

* ``round_robin`` — cycle over the active replicas; the baseline every
  load balancer ships.
* ``least_outstanding`` — fewest requests routed-but-unfinished; the
  classic least-connections balancer.
* ``least_kv_occupancy`` — lowest *projected* KV-block occupancy, fed by
  the same committed-block signals decode→prefill backpressure reads
  (:meth:`~repro.serving.disagg.DecodePoolStage.projected_free_frac`
  on disagg replicas; allocated + router-committed blocks on colocated
  ones).  Because routing *commits* a request's landing footprint at
  the routing instant, the signal self-balances before any KV is
  allocated — under heterogeneous prompt lengths this beats counting
  requests, since one RAG prompt occupies the KV of fifty chat turns.
* ``session_affinity`` — sticky key→replica mapping (first pick by
  key hash over the active set), so multi-turn sessions land where
  their prefix KV lives.  Requests are keyed by ``session_id`` when
  set, else by a non-default ``tenant`` name; **unkeyed** requests
  cycle round-robin instead of hashing, so a mixed keyed/unkeyed
  stream cannot convoy its unkeyed half onto one replica.  A key whose
  replica is drained by the autoscaler is re-homed on its next
  request.

The router also owns front-door **admission control**:
:class:`RouterConfig(max_outstanding_per_replica=...)` caps each
replica's routed-but-unfinished backlog; a request whose selected
replica is at the cap is *rejected* at the routing instant — recorded
on :attr:`RouterStage.rejected`, surfaced as
``ContinuousResult.n_rejected`` and (being offered-but-not-good)
counted by ``steady_slo_violation_rate``.  The default (``None``)
admits everything, byte-identical to the pre-admission-control fleet.

Determinism: every builtin is a pure function of the routing history
and replica state — no RNG, and the tenant hash is ``zlib.crc32`` (not
Python's seeded ``hash``) — so a trace routes identically across
processes and platforms (tested in ``tests/test_fleet.py``).

**The perf-critical contract** (the reason this is a kernel stage and
not a loop): the kernel re-polls only stages that advanced or were
notified, so the router must :meth:`~repro.serving.kernel.Stage.notify`
exactly the replicas it delivered into — a missed one strands its
request, and waking every replica per arrival would put the fleet back
on the O(stages) re-poll path (the 100k-request fleet trace gate in
``benchmarks/bench_serving.py`` would catch it).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..errors import ConfigError, SchedulingError, UnknownSpecError
from .kernel import Stage
from .scheduler import Request

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "LeastKVOccupancyPolicy",
    "SessionAffinityPolicy",
    "ROUTING_POLICIES",
    "register_routing_policy",
    "get_routing_policy",
    "list_routing_policies",
    "RouterConfig",
    "RouterStage",
]


class RoutingPolicy:
    """Picks the replica that serves each arriving request.

    Subclasses implement :meth:`select`; instances may keep state across
    calls (a round-robin cursor, an affinity map) — the router constructs
    one policy instance per run, so state never leaks between serves.
    """

    #: Registry key (``FleetConfig(routing=<name>)``).
    name = "routing"

    def select(
        self, req: Request, active: list, now: float
    ):
        """Return the replica (from ``active``) that takes ``req``.

        ``active`` is the non-empty list of replicas currently accepting
        traffic (warm and not draining), in index order; ``now`` is the
        routing instant.  Must be deterministic — no RNG, no
        process-seeded hashing — so fleet runs replay bit-identically.
        """
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Cycle over the active replicas in index order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, req: Request, active: list, now: float):
        replica = active[self._cursor % len(active)]
        self._cursor += 1
        return replica


class LeastOutstandingPolicy(RoutingPolicy):
    """Fewest routed-but-unfinished requests (least connections)."""

    name = "least_outstanding"

    def select(self, req: Request, active: list, now: float):
        return min(active, key=lambda r: (r.n_outstanding, r.index))


class LeastKVOccupancyPolicy(RoutingPolicy):
    """Lowest projected KV-block occupancy (committed-block signal).

    ``replica.kv_occupancy()`` counts blocks already allocated *plus*
    blocks committed to requests still queued or in flight — the same
    projection backpressure watermarks gate on — so the signal moves at
    the routing instant, not when KV lands.

    Occupancy is compared at **watermark granularity** (:data:`n_bands`
    equal bands) rather than block granularity, and ties cycle
    round-robin over the band-minimal replicas.  Both choices are
    load-balancer hysteresis, not approximation:

    * at block granularity, whichever replica most recently finished a
      decode batch is fractionally emptiest and convoys *every*
      subsequent arrival until admission catches up — per-request
      commitments are tiny next to running-batch contexts, so the raw
      signal herds and TTFT spikes;
    * within a band the replicas are indistinguishable on memory, and
      an adaptive tie-break (least-outstanding) would chase scheduler
      jitter — on homogeneous traffic that makes the policy strictly
      worse than plain round-robin, the balancer it must dominate.

    Across bands — a replica materially fuller than its peers, the
    regime where one RAG prompt occupies the KV of fifty chat turns —
    occupancy dominates.
    """

    name = "least_kv_occupancy"

    #: Occupancy bands: replicas within the same quartile tie.  Quartile
    #: watermarks match the backpressure convention (low/high fractions
    #: of KV) and are coarse enough that homogeneous traffic — where
    #: every replica hovers around one occupancy — collapses to pure
    #: round-robin rather than band-edge oscillation.
    n_bands = 4

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, req: Request, active: list, now: float):
        banded = [
            (int(r.kv_occupancy() * self.n_bands), r) for r in active
        ]
        low = min(band for band, _ in banded)
        candidates = [r for band, r in banded if band == low]
        replica = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return replica


class SessionAffinityPolicy(RoutingPolicy):
    """Sticky key→replica mapping (hash first, then pinned).

    The affinity key is ``session_id`` when the request carries one
    (multi-turn session traces — the prefix cache lives on the replica
    the session is pinned to), else a non-``"default"`` ``tenant``
    name.  The first request of a key picks ``crc32(key) %
    len(active)`` — a platform-stable hash, deliberately not Python's
    per-process seeded ``hash()`` — and every later request follows
    the pin while that replica stays active.  A pin to a drained
    replica is re-homed (and re-pinned) on the key's next request.

    **Unkeyed** requests (no session, default tenant) are *not*
    pinned: they cycle round-robin over the active set.  Hashing them
    would put every unkeyed request behind one shared ``"default"``
    key and convoy the whole stream onto a single replica — the bug
    class this branch exists to avoid.
    """

    name = "session_affinity"

    def __init__(self) -> None:
        self._pins: dict[str, object] = {}
        self._cursor = 0

    def select(self, req: Request, active: list, now: float):
        session = getattr(req, "session_id", None)
        if session is not None:
            key = f"s{session}"
        else:
            tenant = getattr(req, "tenant", "default")
            if tenant == "default":
                replica = active[self._cursor % len(active)]
                self._cursor += 1
                return replica
            key = f"t{tenant}"
        replica = self._pins.get(key)
        if replica is None or replica not in active:
            replica = active[zlib.crc32(key.encode()) % len(active)]
            self._pins[key] = replica
        return replica


ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    cls.name: cls
    for cls in (
        RoundRobinPolicy,
        LeastOutstandingPolicy,
        LeastKVOccupancyPolicy,
        SessionAffinityPolicy,
    )
}


def register_routing_policy(cls: type[RoutingPolicy]) -> type[RoutingPolicy]:
    """Register a :class:`RoutingPolicy` subclass under ``cls.name``.

    Usable as a decorator; returns the class unchanged.  Re-registering
    a taken name raises — shadowing a builtin silently would change
    every config using it.
    """
    name = cls.name
    if name in ROUTING_POLICIES and ROUTING_POLICIES[name] is not cls:
        raise SchedulingError(
            f"routing policy name {name!r} is already registered"
        )
    ROUTING_POLICIES[name] = cls
    return cls


def get_routing_policy(policy) -> RoutingPolicy:
    """Resolve a policy by name (case-insensitive) or pass one through."""
    if isinstance(policy, RoutingPolicy):
        return policy
    key = str(policy).lower()
    if key not in ROUTING_POLICIES:
        raise UnknownSpecError(
            "routing policy", policy, list(ROUTING_POLICIES)
        )
    return ROUTING_POLICIES[key]()


def list_routing_policies() -> list[str]:
    """Registered routing-policy names, sorted."""
    return sorted(ROUTING_POLICIES)


@dataclass(frozen=True)
class RouterConfig:
    """Front-door admission control (``FleetConfig(router=...)``).

    ``max_outstanding_per_replica`` caps a replica's
    routed-but-unfinished backlog: a request whose policy-selected
    replica is at the cap is **rejected** at the routing instant
    instead of delivered — the request never enters any queue, exactly
    like a load balancer returning 503 when the backend's connection
    pool is exhausted.  ``None`` (the default) admits everything.
    """

    max_outstanding_per_replica: int | None = None

    def __post_init__(self) -> None:
        cap = self.max_outstanding_per_replica
        if cap is not None and cap < 1:
            raise ConfigError(
                f"max_outstanding_per_replica must be >= 1, got {cap}"
            )


class RouterStage(Stage):
    """The fleet's front door: routes the arrival stream to replicas.

    Holds the full trace sorted by arrival and a cursor — no pops, so a
    100k-request trace costs one sort up front and O(1) per arrival.
    Each :meth:`advance` routes every arrival due at ``now`` through the
    policy (which sees only active replicas), delivers it into the
    chosen replica's entry queue, and then notifies *exactly the
    replicas it touched* — the heap-kernel contract that keeps a
    1000-replica fleet from waking wholesale on every arrival.

    ``assignments`` records ``request_id → replica index`` for the
    routing histogram and the determinism tests; requests refused by
    admission control (:class:`RouterConfig`) land on ``rejected``
    instead and are never delivered anywhere.
    """

    name = "router"

    def __init__(
        self,
        requests: list[Request],
        policy,
        replicas: list,
        config: RouterConfig | None = None,
        recorder=None,
    ):
        self.policy = get_routing_policy(policy)
        self.replicas = replicas
        self.config = config or RouterConfig()
        self._rec = recorder
        self._pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        self._cursor = 0
        self.assignments: dict[int, int] = {}
        self.rejected: list[Request] = []

    # ------------------------------------------------------------------
    @property
    def n_unrouted(self) -> int:
        """Arrivals not yet handed to a replica."""
        return len(self._pending) - self._cursor

    def next_arrival_s(self) -> float | None:
        """When the next unrouted request arrives (fast-forward horizon).

        Colocated fleet replicas cap their decode fast-forward windows
        here: a window may not overshoot an arrival the router has not
        delivered yet (the fleet twin of the disagg upstream-horizon
        cap).  Side-effect-free, so it doubles as this stage's next
        event time.
        """
        if self._cursor >= len(self._pending):
            return None
        return self._pending[self._cursor].arrival_s

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        return self.next_arrival_s()

    def advance(self, now: float) -> None:
        pending, replicas = self._pending, self.replicas
        cap = self.config.max_outstanding_per_replica
        touched = set()
        while self._cursor < len(pending):
            req = pending[self._cursor]
            if req.arrival_s > now:
                break
            self._cursor += 1
            active = [r for r in replicas if r.is_active(now)]
            if not active:
                raise SchedulingError(
                    "no active replica to route request"
                    f" {req.request_id} at t={now}"
                )
            replica = self.policy.select(req, active, now)
            if cap is not None and replica.n_outstanding >= cap:
                self.rejected.append(req)
                if self._rec is not None:
                    self._rec.on_reject(req, now, self.name)
                continue
            replica.deliver(req)
            self.assignments[req.request_id] = replica.index
            touched.add(replica)
            if self._rec is not None:
                self._rec.on_route(req, now, replica.index)
        for replica in touched:
            replica.notify()

    def finish(self) -> None:
        if self.n_unrouted:
            raise SchedulingError(
                f"{self.n_unrouted} requests left unrouted"
            )
