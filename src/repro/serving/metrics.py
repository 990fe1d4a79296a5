"""Serving metrics: interpolated percentiles, TTFT/TPOT, SLO goodput.

The **metrics layer** of the serving architecture.  The serving core hands
this module the finished requests plus the simulated makespan; it produces
the numbers a production operator actually watches:

* **latency percentiles** — linearly interpolated p50/p90/p95/p99 (the
  seed's ``latencies[len // 2]`` was a biased p50 for even counts);
* **TTFT** — time to first token, ``first_token_s - arrival_s``;
* **TPOT** — time per output token after the first,
  ``(finish_s - first_token_s) / (n_tokens - 1)``;
* **SLO goodput** — requests per second that met *both* the TTFT and TPOT
  targets, the metric under which freed KV memory (§6.5) becomes visible
  as admissible concurrency rather than raw throughput;
* **disaggregation accounting** — :class:`PoolStats` (per-pool busy time
  and utilization) and :class:`TransferStats` (per-transfer wire time and
  link queueing delay, total bytes moved, link utilization) for the
  two-pool mode of :mod:`repro.serving.disagg`, where compressed KV
  transfer (the SplitZip effect) must be visible next to TTFT/TPOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..utils import bounded, check_fields


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method).

    ``q`` is in percent (0-100).  Raises on an empty input rather than
    inventing a number.
    """
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(values)
    rank = (len(xs) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


@dataclass(frozen=True)
class LatencySummary:
    """Interpolated distribution summary of one latency-like metric."""

    n: int = 0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p90_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencySummary":
        """Summarise a sample; an empty sample yields the zero summary.

        Non-finite values (the NaN stamps of partial timings — requests
        cut off by a deadline before finishing) are filtered out rather
        than poisoning the percentiles; a cohort with *only* non-finite
        values therefore also yields the zero summary (``n == 0``), so
        an overloaded window with zero finished requests summarises
        cleanly instead of raising.
        """
        values = [v for v in values if math.isfinite(v)]
        if not values:
            return cls()
        return cls(
            n=len(values),
            mean_s=sum(values) / len(values),
            p50_s=percentile(values, 50),
            p90_s=percentile(values, 90),
            p95_s=percentile(values, 95),
            p99_s=percentile(values, 99),
            max_s=max(values),
        )


@dataclass(frozen=True)
class SLOTarget:
    """Per-request service-level objective (chat-interactive defaults).

    ``inf`` leaves a term unbounded.  NaN is rejected: it would fail
    every comparison and report zero attainment instead of an error.
    """

    ttft_s: float = bounded(1.0, gt=0.0, inf_ok=True)
    tpot_s: float = bounded(0.1, gt=0.0, inf_ok=True)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class RequestTiming:
    """Timing of one request, derived from its lifecycle stamps.

    ``finish_s=None`` marks a **partial** timing — the request produced
    its first token but was cut off (by an open-loop ``deadline_s``)
    before finishing.  Its TTFT is real; its TPOT and end-to-end latency
    are ``nan`` (filtered by :meth:`LatencySummary.from_values`), and it
    never meets an SLO (``nan`` comparisons are False).
    """

    request_id: int
    arrival_s: float
    first_token_s: float
    finish_s: float | None
    n_tokens: int
    tenant: str = "default"
    priority: int = 0

    @property
    def finished(self) -> bool:
        """Whether the request ran to completion (has a finish stamp)."""
        return self.finish_s is not None

    @property
    def ttft_s(self) -> float:
        """Time to first token."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token after the first (nan if partial)."""
        if self.finish_s is None:
            return math.nan
        if self.n_tokens <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.n_tokens - 1)

    @property
    def e2e_s(self) -> float:
        """End-to-end request latency (nan if partial)."""
        if self.finish_s is None:
            return math.nan
        return self.finish_s - self.arrival_s

    def meets(self, slo: SLOTarget) -> bool:
        """Whether this request met both SLO targets.

        A partial timing never meets (its ``nan`` TPOT compares False),
        so deadline-cut requests count as SLO violations, not free
        passes.
        """
        return self.ttft_s <= slo.ttft_s and self.tpot_s <= slo.tpot_s


def collect_timings(
    finished, include_partial: bool = False,
) -> list[RequestTiming]:
    """Extract :class:`RequestTiming` rows from request objects.

    Requests missing a ``first_token_s`` stamp are always dropped (they
    never produced output).  Requests with a first token but no
    ``finish_s`` are dropped by default (the historical contract for
    finished sets); with ``include_partial=True`` they become partial
    timings (``finish_s=None``) — the deadline-cut cohort of an
    open-loop overload run, whose TTFTs are real measurements.
    """
    rows = []
    for req in finished:
        if req.first_token_s is None:
            continue
        if req.finish_s is None and not include_partial:
            continue
        rows.append(RequestTiming(
            request_id=req.request_id,
            arrival_s=req.arrival_s,
            first_token_s=req.first_token_s,
            finish_s=req.finish_s,
            n_tokens=req.generated,
            tenant=getattr(req, "tenant", "default"),
            priority=getattr(req, "priority", 0),
        ))
    return rows


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate serving metrics over one trace run."""

    latency: LatencySummary = field(default_factory=LatencySummary)
    ttft: LatencySummary = field(default_factory=LatencySummary)
    tpot: LatencySummary = field(default_factory=LatencySummary)
    slo: SLOTarget = field(default_factory=SLOTarget)
    slo_attainment: float = 0.0
    goodput_rps: float = 0.0
    goodput_tok_s: float = 0.0
    #: How many timings entered the aggregation (finished + partial);
    #: the denominator behind ``slo_attainment``.  ``latency.n`` can be
    #: smaller — partial timings carry no finite e2e latency.
    n_timings: int = 0

    @property
    def slo_violation_rate(self) -> float:
        """Fraction of timed requests that violated the SLO (0 if none)."""
        return 1.0 - self.slo_attainment if self.n_timings else 0.0

    @classmethod
    def from_timings(
        cls,
        timings: list[RequestTiming],
        makespan_s: float,
        slo: SLOTarget | None = None,
    ) -> "ServingMetrics":
        """Aggregate a run; empty ``timings`` yields the zero metrics.

        Partial timings (``finish_s=None``) are legal inputs: their
        ``nan`` latencies are filtered out of the summaries by
        :meth:`LatencySummary.from_values`, they count in the
        ``slo_attainment`` denominator, and they never reach the goodput
        numerator — an all-partial overloaded window therefore reports
        real TTFTs, zero latency samples, zero attainment, finite
        everything.
        """
        slo = slo or SLOTarget()
        if not timings:
            return cls(slo=slo)
        good = [t for t in timings if t.meets(slo)]
        span = max(makespan_s, 1e-12)
        return cls(
            latency=LatencySummary.from_values([t.e2e_s for t in timings]),
            ttft=LatencySummary.from_values([t.ttft_s for t in timings]),
            tpot=LatencySummary.from_values(
                [t.tpot_s for t in timings if t.n_tokens > 1]
            ),
            slo=slo,
            slo_attainment=len(good) / len(timings),
            goodput_rps=len(good) / span,
            goodput_tok_s=sum(t.n_tokens for t in good) / span,
            n_timings=len(timings),
        )


@dataclass(frozen=True)
class PoolStats:
    """Aggregate utilization of one replica pool (disaggregated mode).

    ``busy_s`` sums every replica's active compute time; ``utilization``
    normalises it by ``n_replicas * makespan``, so a pool of two replicas
    each busy half the run reports 0.5.  ``stall_s`` is the time the
    pool's admission was held back by decode→prefill backpressure
    (prefill pool only; 0 without a watermark), and ``peak_kv_frac`` is
    the highest KV-block occupancy the pool observed (decode pool only —
    the quantity a backpressure watermark bounds).
    """

    name: str
    n_replicas: int
    busy_s: float
    utilization: float
    n_steps: int
    stall_s: float = 0.0
    peak_kv_frac: float = 0.0

    @classmethod
    def from_busy(
        cls,
        name: str,
        busy: list[float],
        makespan_s: float,
        n_steps: int,
        stall_s: float = 0.0,
        peak_kv_frac: float = 0.0,
    ) -> "PoolStats":
        """Build from per-replica busy seconds over one run."""
        span = max(makespan_s, 1e-12)
        return cls(
            name=name,
            n_replicas=len(busy),
            busy_s=sum(busy),
            utilization=sum(busy) / (max(len(busy), 1) * span),
            n_steps=n_steps,
            stall_s=stall_s,
            peak_kv_frac=peak_kv_frac,
        )


@dataclass(frozen=True)
class TransferRecord:
    """One KV hand-off over the prefill→decode link."""

    request_id: int
    nbytes: float
    #: When the KV became ready to ship (prefill completed).
    ready_s: float
    #: When the link started serving it (>= ready_s under FIFO queueing).
    start_s: float
    #: When the last byte landed on the decode replica.
    done_s: float
    #: Which link channel carried it (always 0 on the shared FIFO; the
    #: target replica's index under ``link_topology="per_replica"``).
    link: int = 0

    @property
    def wire_s(self) -> float:
        """Time on the wire (serialisation + link latency)."""
        return self.done_s - self.start_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting for the link behind earlier transfers."""
        return self.start_s - self.ready_s


@dataclass(frozen=True)
class TransferStats:
    """The KV-transfer stage of one disaggregated run.

    ``compression_ratio`` is the transfer codec's ratio (1.0 when KV ships
    raw); ``total_bytes`` is post-compression wire bytes.  ``time`` and
    ``queue`` summarise per-transfer wire time and link queueing delay —
    the two numbers a bandwidth-constrained link inflates and a compressed
    codec (SplitZip-style) deflates.  ``n_links`` is 1 for the shared
    FIFO channel and ``decode_replicas`` for the per-replica topology
    (``link_utilization`` normalises over all channels);
    ``peak_queue_depth`` is the most hand-offs ever waiting for a
    channel at once — the quantity a ``max_link_queue`` backpressure
    watermark bounds.
    """

    n_transfers: int
    total_bytes: float
    compression_ratio: float
    link_utilization: float
    time: LatencySummary = field(default_factory=LatencySummary)
    queue: LatencySummary = field(default_factory=LatencySummary)
    records: tuple[TransferRecord, ...] = ()
    n_links: int = 1
    peak_queue_depth: int = 0

    @classmethod
    def from_records(
        cls,
        records: list[TransferRecord],
        makespan_s: float,
        compression_ratio: float,
        n_links: int = 1,
        peak_queue_depth: int = 0,
    ) -> "TransferStats":
        """Summarise a run's transfer records."""
        span = max(makespan_s, 1e-12)
        return cls(
            n_transfers=len(records),
            total_bytes=sum(r.nbytes for r in records),
            compression_ratio=compression_ratio,
            link_utilization=sum(r.wire_s for r in records)
            / (max(n_links, 1) * span),
            time=LatencySummary.from_values([r.wire_s for r in records]),
            queue=LatencySummary.from_values([r.queue_s for r in records]),
            records=tuple(records),
            n_links=n_links,
            peak_queue_depth=peak_queue_depth,
        )


@dataclass(frozen=True)
class ReplicaStats:
    """Per-instance breakdown of one fleet run (``mode="fleet"``).

    One row per replica, active or not: how many requests the router
    sent it (``n_routed``), how many it finished, and its engine pools'
    utilization (one ``PoolStats`` for a colocated replica; prefill +
    decode, plus ``transfer``, for a disaggregated one).  Conservation
    holds per replica — ``n_routed == n_finished + n_unfinished`` — and
    across the fleet: the per-replica finished counts sum to the
    result's ``n_requests`` (tested in ``tests/test_fleet.py``).
    """

    index: int
    mode: str
    n_routed: int
    n_finished: int
    n_unfinished: int
    pools: tuple[PoolStats, ...] = ()
    #: KV-transfer accounting (disaggregated replicas only).
    transfer: TransferStats | None = None


@dataclass
class ContinuousResult:
    """Outcome of a continuous-batching trace run.

    The first eight fields are the seed-era summary (kept for
    compatibility); ``metrics`` carries the full TTFT/TPOT/percentile/SLO
    picture and the remaining fields describe how the run was scheduled.

    ``n_requests`` counts *finished* requests.  A deadline-bounded run
    (open-loop overload) additionally reports ``n_unfinished`` (offered
    but cut off by ``deadline_s``) and ``n_rejected`` (refused at
    admission); conservation holds by construction:
    ``n_requests + n_unfinished + n_rejected == n_offered``.
    """

    makespan_s: float
    tokens_generated: int
    throughput_tok_s: float
    n_requests: int
    n_steps: int
    peak_running: int
    latency_p50_s: float
    latency_max_s: float
    metrics: ServingMetrics = field(default_factory=ServingMetrics)
    timings: list[RequestTiming] = field(default_factory=list)
    n_preemptions: int = 0
    policy: str = "fcfs"
    prefill_mode: str = "group"
    #: ``"colocated"`` (one engine does both phases) or ``"disaggregated"``
    #: (prefill pool → KV-transfer link → decode pool).
    mode: str = "colocated"
    #: Per-pool utilization; empty in colocated mode.
    pools: tuple[PoolStats, ...] = ()
    #: KV-transfer accounting; ``None`` in colocated mode.
    transfer: TransferStats | None = None
    #: Requests still in flight (or never started) when the run's
    #: ``deadline_s`` cut it off; 0 on run-to-completion traces.
    n_unfinished: int = 0
    #: Requests refused at admission (none of the current admission
    #: paths reject — the slot exists so conservation is checkable).
    n_rejected: int = 0
    #: The hard simulation deadline the run was bounded by, if any.
    deadline_s: float | None = None
    #: Per-replica breakdown (``mode="fleet"`` only; empty otherwise).
    replicas: tuple[ReplicaStats, ...] = ()
    #: Prefix-cache counters
    #: (:class:`~repro.serving.prefixcache.PrefixCacheStats`; summed
    #: across replicas in fleet mode).  ``None`` when no cache was
    #: configured.
    prefix_cache: object = None
    #: Autoscaler decisions (:class:`~repro.serving.fleet.ScaleEvent`
    #: tuples; ``mode="fleet"`` with an autoscaler only, else empty).
    scale_events: tuple = ()
    #: The run's :class:`~repro.serving.telemetry.TraceRecorder` when
    #: telemetry was enabled; ``None`` otherwise (the default).
    telemetry: object = None

    @property
    def routing_histogram(self) -> tuple[int, ...]:
        """Requests routed per replica, in index order (fleet runs)."""
        return tuple(r.n_routed for r in self.replicas)

    @property
    def n_offered(self) -> int:
        """Total requests submitted to the run (finished or not)."""
        return self.n_requests + self.n_unfinished + self.n_rejected

    @property
    def unfinished_rate(self) -> float:
        """Fraction of offered requests cut off unfinished (0 if none)."""
        offered = self.n_offered
        return self.n_unfinished / offered if offered else 0.0

    def window_metrics(
        self,
        start_s: float,
        end_s: float,
        slo: SLOTarget | None = None,
    ) -> ServingMetrics:
        """Metrics over the requests that *arrived* in ``[start_s, end_s)``.

        The steady-state window of an open-loop run: warmup and cooldown
        cohorts are excluded by arrival stamp (the standard open-loop
        convention — a request belongs to the window that offered it,
        wherever its tokens land), and the goodput denominator is the
        window length, so goodput_rps is directly comparable to the
        offered rate.  Partial timings inside the window count as SLO
        violations; an empty window yields the zero metrics.
        """
        if not end_s > start_s:
            raise ConfigError(
                f"window needs end_s > start_s, got [{start_s}, {end_s})"
            )
        rows = [
            t for t in self.timings if start_s <= t.arrival_s < end_s
        ]
        return ServingMetrics.from_timings(
            rows, end_s - start_s, slo or self.metrics.slo
        )

    def pool(self, name: str) -> PoolStats:
        """The named pool's stats (disaggregated runs only)."""
        for stats in self.pools:
            if stats.name == name:
                return stats
        raise ConfigError(
            f"no pool {name!r} in this result"
            f" (mode={self.mode!r}, pools={[p.name for p in self.pools]})"
        )

    def tenant_timings(self, tenant: str) -> list[RequestTiming]:
        """Timings of one tenant's requests (multi-tenant traces)."""
        return [t for t in self.timings if t.tenant == tenant]

    @classmethod
    def from_run(
        cls,
        finished,
        makespan_s: float,
        n_steps: int,
        peak_running: int,
        slo: SLOTarget | None = None,
        n_preemptions: int = 0,
        policy: str = "fcfs",
        prefill_mode: str = "group",
        mode: str = "colocated",
        pools: tuple[PoolStats, ...] = (),
        transfer: TransferStats | None = None,
        unfinished=(),
        n_rejected: int = 0,
        deadline_s: float | None = None,
        replicas: tuple["ReplicaStats", ...] = (),
        prefix_cache=None,
        scale_events: tuple = (),
        telemetry=None,
    ) -> "ContinuousResult":
        """Build the result from the finished set (guards the empty case).

        ``unfinished`` carries the requests a ``deadline_s`` cut off:
        those that produced a first token contribute partial timings
        (real TTFT, nan TPOT/e2e, never SLO-good) and their generated
        tokens count toward throughput — the work was done, even if the
        request was not.  Default arguments keep run-to-completion
        results bit-identical.
        """
        timings = collect_timings(finished)
        timings += collect_timings(unfinished, include_partial=True)
        metrics = ServingMetrics.from_timings(timings, makespan_s, slo)
        tokens = sum(r.generated for r in finished)
        tokens += sum(r.generated for r in unfinished)
        return cls(
            makespan_s=makespan_s,
            tokens_generated=tokens,
            throughput_tok_s=tokens / makespan_s if makespan_s > 0 else 0.0,
            n_requests=len(finished),
            n_steps=n_steps,
            peak_running=peak_running,
            latency_p50_s=metrics.latency.p50_s,
            latency_max_s=metrics.latency.max_s,
            metrics=metrics,
            timings=timings,
            n_preemptions=n_preemptions,
            policy=policy,
            prefill_mode=prefill_mode,
            mode=mode,
            pools=pools,
            transfer=transfer,
            n_unfinished=len(unfinished),
            n_rejected=n_rejected,
            deadline_s=deadline_s,
            replicas=replicas,
            prefix_cache=prefix_cache,
            scale_events=scale_events,
            telemetry=telemetry,
        )
