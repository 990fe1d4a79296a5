"""Disaggregated prefill/decode serving on the shared event kernel.

Colocated serving (:class:`~repro.serving.serve.ServingCore`) time-shares
one engine between prefill and decode, so long prompts inflate decode
latency (chunking only softens this).  Production stacks increasingly
*disaggregate*: a **prefill pool** runs prompt processing, a **decode
pool** runs continuous-batching decode, and each finished prefill ships
its KV cache across an interconnect.  That hand-off is where lossless KV
compression pays a second dividend — the SplitZip observation — because
the wire bytes shrink by the same Vector-TBE ratio that shrinks HBM
residency (:mod:`repro.extensions.kvcomp`).

One :class:`DisaggCell` is the whole path: three pluggable stages on
one :class:`~repro.serving.kernel.EventKernel`, built under their final
names.  :class:`DisaggregatedCore` runs one cell; a fleet
(:mod:`repro.serving.fleet`) runs several behind a router.  Every
prefill and decode engine runs the shared engine iteration
(:meth:`~repro.serving.serve.EngineReplica.step`), overriding only where
its role differs.

1. **prefill pool** (:class:`PrefillPoolStage`, or
   :class:`ChunkedPrefillPoolStage` with
   ``DisaggConfig(prefill_mode="chunked")``) — ``prefill_replicas``
   engines pulling from one policy-ordered queue.  Group mode runs one
   whole-prompt pass per request (prefill saturates compute; batching
   buys nothing in this regime); chunked mode co-schedules prompt chunks
   across concurrent requests on each replica via
   :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.plan_step`,
   so one giant prompt no longer serializes a replica.  The first token
   is produced here, so TTFT is independent of the link.
2. **transfer link** (:class:`TransferLinkStage`) — a serial FIFO
   channel (``link_topology="shared"``) or one dedicated channel per
   decode replica (``"per_replica"``).  Each transfer carries
   ``prompt_len * raw_bytes_per_token / ratio`` bytes (the sender
   re-encodes the raw KV with the wire codec, whatever codec the cache
   is resident in) and costs ``bytes / bandwidth + latency``; queueing
   behind earlier transfers is accounted separately so a saturated link
   is visible as queue delay, not just wire time.
   ``DisaggConfig.overlap_fraction`` hides that fraction of the
   serialization time under the tail of the producing prefill
   (layer-wise overlap, modelled analytically).
3. **decode pool** (:class:`DecodePoolStage`) — ``decode_replicas``
   engines, each with its own full KV cache and
   :class:`~repro.serving.scheduler.ContinuousBatchScheduler`.
   Requests are released to their replica when their KV lands; they
   enter decode with ``prefill_remaining = 0`` (the KV came over the
   wire).  A request preempted *on the decode replica* recomputes there
   — recompute cannot be outsourced back to the prefill pool.

With ``DisaggConfig.backpressure`` set, capacity pressure propagates
*backwards*: the prefill stage stalls admission while the decode pool's
projected free KV or the link queue depth crosses the configured
watermark.  A pool with nothing but gated admissions reports no event;
the link and the decode pool :meth:`~repro.serving.kernel.Stage.wake`
it after every advance, so it resumes (one kernel iteration later) at
the instant of the downstream advance that cleared the watermark.  A
gated pool with an event of its own (an in-flight hand-off, another
replica's step, an arrival) keeps it and re-judges the gate then.  The
feedback-free default (backpressure ``None``, shared link, group
prefill, exact costs) reproduces the old stage-by-stage sequential
simulation bit-exactly — the stages perform the same float operations
in the same order, the kernel only interleaves them
(``tests/test_kernel.py`` pins this against recorded PR 3 floats).

Conservation invariants (tested in ``tests/test_disagg.py`` and
``tests/test_kernel.py``): every submitted request is prefilled exactly
once, transferred exactly once, and decoded to completion — also while
backpressure is actively stalling admission; wire bytes equal KV size
divided by the codec ratio; an infinite, zero-latency link makes every
transfer free.  A request whose KV can never fit its decode replica (or
whose footprint can never satisfy the backpressure watermark) raises
:class:`~repro.errors.CapacityError` instead of being silently dropped.
"""

from __future__ import annotations

import heapq
from bisect import insort
from functools import partial
from itertools import chain, takewhile

from ..compression import resolve_spec
from ..errors import CapacityError, ConfigError, SchedulingError
from ..utils import ceil_div
from .costs import StepCostModel, maybe_memoize
from .kernel import EventKernel, Stage
from .kvcache import KVCacheSpec
from .metrics import (
    ContinuousResult,
    PoolStats,
    ReplicaStats,
    TransferRecord,
    TransferStats,
)
from .prefixcache import PrefixCacheStats
from .scheduler import Request, get_policy
from .serve import (
    EngineReplica,
    ServingConfig,
    _raise_stranded,
    next_event_among,
)
from .telemetry import build_recorder

__all__ = [
    "DisaggCell",
    "DisaggregatedCore",
    "PrefillPoolStage",
    "ChunkedPrefillPoolStage",
    "TransferLinkStage",
    "DecodePoolStage",
    "resolve_transfer_ratio",
]


def resolve_transfer_ratio(config: ServingConfig) -> float:
    """The wire compression ratio implied by the transfer codec.

    An explicit ``transfer_ratio`` wins; otherwise the codec named by
    ``config.resolved_transfer_codec`` (the ``ServingConfig`` slot, with
    ``DisaggConfig.transfer_codec`` as fallback) resolves through the
    compression registry's wire estimator — **measured** when the
    config carries a calibration profile (``config.calibration``) or
    one is installed process-wide, analytic otherwise: 1.0 for
    ``"none"``, the activation ratio for ``"kvcomp"``/``vector_tbe``,
    the entropy-coded split-plane ratio for the baseline codecs.  This
    is the value :class:`TransferLinkStage` prices every wire byte off.
    """
    if config.disagg.transfer_ratio is not None:
        return float(config.disagg.transfer_ratio)
    name = config.resolved_transfer_codec
    if name == "auto":
        raise ConfigError(
            "transfer_codec='auto' must be resolved through"
            " InferenceEngine.serve (codec policy selection needs the"
            " model/GPU pair); pass the selected codec name here"
        )
    return resolve_spec(name, "wire", profile=config.calibration).ratio


# ----------------------------------------------------------------------
# Stage 1: the prefill pool
# ----------------------------------------------------------------------
class _BackpressureGate:
    """The decode→prefill admission gate shared by both pool flavours.

    Evaluates the configured watermarks against live downstream state
    and owns the stall bookkeeping (observational only — recording the
    first-stall instant never changes a scheduling decision, so calling
    :meth:`stalled` from a stage's ``next_event_time`` keeps that
    method effectively pure).  Stall events land on the owning pool's
    lane, with its recorder.
    """

    def __init__(self, owner: Stage):
        self.backpressure = owner.backpressure
        self.link = owner.link
        self.decode_pool = owner.decode_pool
        if self.backpressure is not None:
            # The gate reads state the link and the decode pool own:
            # they wake the gated pool after every advance.
            self.link._gated = self.decode_pool._gated = owner
        self.stall_s = 0.0
        self._stall_since: float | None = None
        self.recorder = owner._rec
        self.track = owner.name

    def stalled(self, head: Request, t: float) -> bool:
        """Whether admitting ``head`` at time ``t`` must wait."""
        bp = self.backpressure
        if bp is None:
            return False
        over = (
            bp.max_link_queue is not None
            and self.link.queue_depth >= bp.max_link_queue
        ) or (
            bp.min_free_kv_frac > 0.0
            and self.decode_pool.projected_free_frac(
                self.decode_pool.blocks_for(head)
            ) < bp.min_free_kv_frac
        )
        if over and self._stall_since is None:
            self._stall_since = t
            if self.recorder is not None:
                self.recorder.on_stall(t, self.track)
        return over

    def resumed(self, now: float) -> bool:
        """Credit a cleared stall (call when an admission succeeds)."""
        if self._stall_since is None:
            return False
        self.stall_s += max(0.0, now - self._stall_since)
        self._stall_since = None
        if self.recorder is not None:
            self.recorder.on_stall_clear(now, self.track)
        return True

    def raise_stranded(self, stranded_ids) -> None:
        """Fail loudly for requests that were never prefilled."""
        hint = (
            " (backpressure watermark can never clear for them)"
            if self.backpressure is not None else ""
        )
        raise CapacityError(
            f"requests {sorted(stranded_ids)} were never prefilled{hint}"
        )


class PrefillPoolStage(Stage):
    """Whole-prompt prefill pool: one policy-ordered queue, N replicas.

    Each prefill-start decision replays the sequential pool's arithmetic
    exactly — pop the earliest-free replica, absorb due arrivals, pick
    the policy head, start at ``max(replica_free, arrival)`` — but as
    kernel events, so a backpressure watermark can gate the *next* start
    without touching any timestamp of the starts that do happen.  A
    replica freed by a short job can be popped with a clock behind
    requests another replica's jump already queued; prefill must still
    not start before the request arrives.

    Finished prefills are delivered to the transfer link at their
    completion instant (the in-flight heap), never earlier, which is
    what keeps the link's queue depth an honest backpressure signal.
    Requests enter through ``pending`` in arrival order (the owning
    :class:`DisaggCell` delivers them).
    """

    def __init__(
        self,
        costs: StepCostModel,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str = "prefill",
    ):
        disagg = config.disagg
        self.name = name
        self._rec = recorder
        self.costs = costs
        self.policy = get_policy(config.policy)
        self.backpressure = disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(self)
        n = disagg.prefill_replicas
        self._free: list[tuple[float, int]] = [(0.0, i) for i in range(n)]
        heapq.heapify(self._free)
        self.busy = [0.0] * n
        self.pending: list[Request] = []
        self.waiting: list[Request] = []
        #: (done_s, request_id, request) — prefills on a replica now.
        self._inflight: list[tuple[float, int, Request]] = []
        self.n_prefills = 0
        #: Starts may never predate the instant a stall cleared.
        self._floor = 0.0

    # ------------------------------------------------------------------
    def _next_start_time(self) -> float | None:
        """When the next prefill-start decision is due (gate ignored)."""
        if not (self.pending or self.waiting):
            return None
        free_t, _ = self._free[0]
        if self.waiting or self.pending[0].arrival_s <= free_t:
            return free_t
        return self.pending[0].arrival_s

    def _peek_head(self, t: float) -> Request:
        """The request the policy would start at decision time ``t``:
        the queue's head or an arrival due by ``t``, whichever ranks
        first (the backpressure gate consults this on every poll)."""
        due = takewhile(lambda r: r.arrival_s <= t, self.pending)
        return min(chain(self.waiting[:1], due), key=self.policy.waiting_key)

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        t_done = self._inflight[0][0] if self._inflight else None
        t_start = self._next_start_time()
        if (
            self.backpressure is not None
            and t_start is not None
            and self.gate.stalled(self._peek_head(t_start), t_start)
        ):
            t_start = None
        if t_done is None:
            return t_start
        if t_start is None:
            return t_done
        return min(t_done, t_start)

    def advance(self, now: float) -> None:
        # Deliver completed prefills to the link first: a hand-off due
        # at `now` must be visible to the link within this instant.
        while self._inflight and self._inflight[0][0] <= now:
            done, _, req = heapq.heappop(self._inflight)
            self.link.enqueue(done, req)
        # Then make every start decision due at `now`.
        while True:
            t = self._next_start_time()
            if t is None or t > now:
                return
            if self.backpressure is not None and self.gate.stalled(
                self._peek_head(t), t
            ):
                return
            self._start_one(now)

    def _start_one(self, now: float) -> None:
        """One prefill start: the sequential pool's loop body."""
        now_r, idx = heapq.heappop(self._free)
        pending, key = self.pending, self.policy.waiting_key
        if not self.waiting and pending[0].arrival_s > now_r:
            now_r = pending[0].arrival_s  # idle until the next arrival
        while pending and pending[0].arrival_s <= now_r:
            insort(self.waiting, pending.pop(0), key=key)
        req = self.waiting.pop(0)
        start = max(now_r, req.arrival_s)
        if self.gate.resumed(now):
            # The stall cleared at `now`; forbid this (and any later)
            # start from predating it.
            self._floor = max(self._floor, now)
        if self._floor > start:
            start = self._floor
        duration = self.costs.prefill_step(1, req.prompt_len).total_s
        done = start + duration
        self.busy[idx] += duration
        self.n_prefills += 1
        # The prefill engine emits the first token; TTFT never waits on
        # the link.
        if req.first_token_s is None:
            req.first_token_s = done
        rec = self._rec
        if rec is not None:
            rec.transition(req, start, "prefill")
            rec.span(start, duration, "prefill", f"{self.name}/r{idx}",
                     ("tokens", req.prompt_len))
        heapq.heappush(self._inflight, (done, req.request_id, req))
        self.decode_pool.commit_blocks(req)
        heapq.heappush(self._free, (done, idx))

    @property
    def stall_s(self) -> float:
        return self.gate.stall_s

    def finish(self) -> None:
        if self.pending or self.waiting:
            self.gate.raise_stranded(
                r.request_id for r in self.pending + self.waiting
            )


class _PrefillReplica(EngineReplica):
    """One chunked prefill engine: decode never happens here.

    Runs :meth:`EngineReplica.step` in prefill-only form.  The prefix
    cache lives on this side — that is where cached tokens skip work —
    carved out of the replica's own KV budget.
    """

    def __init__(self, pool, index, costs, kv_spec, kv_bytes, config,
                 recorder=None):
        super().__init__(
            f"{pool.name}/r{index}", costs, kv_spec, kv_bytes, config,
            recorder,
        )
        self.pool = pool
        self.index = index
        self.outstanding_prompt = 0

    def next_event_time(self) -> float | None:
        if self.scheduler.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0][0])
        if self.scheduler.waiting and not self._gated(self.clock):
            # A gate-stalled replica has no event of its own.  When no
            # other replica or hand-off gives this pool one either, the
            # link and the decode pool wake it after every advance, so
            # it resumes (at the kernel's clamped clock) on the first
            # iteration after the watermark clears.
            return self.clock
        return None

    def _gated(self, now: float) -> bool:
        scheduler = self.scheduler
        if self.pool.backpressure is None or not scheduler.waiting:
            return False
        return self.pool.gate.stalled(scheduler.waiting[0], now)

    def _admit(self, now: float) -> bool:
        scheduler, pool = self.scheduler, self.pool
        if (
            pool.backpressure is not None
            and not scheduler.running
            and scheduler.waiting
            and self.clock < now
        ):
            # The replica sat gate-stalled with a frozen clock while the
            # kernel moved on: admissions — and the chunks, TTFT stamps
            # and hand-offs they produce — happen at the resume instant,
            # never retroactively (the chunked twin of the group pool's
            # start floor).
            self.clock = now
            if self._rec is not None:
                scheduler._now = now
        # Admit one request at a time so the backpressure gate sees each
        # admission's committed KV before judging the next head — a
        # whole-round admit could flood the decode pool in one go.
        gated = self._gated(now)
        while not gated and scheduler.waiting:
            admitted = scheduler.admit(
                enforce_token_budget=False, max_requests=1
            )
            if not admitted:
                break
            pool.decode_pool.commit_blocks(admitted[0])
            pool.gate.resumed(now)
            gated = self._gated(now)
        return gated

    def _after_step(self) -> None:
        # Prefill plans never open a window: this runs after single steps.
        scheduler = self.scheduler
        for req in [r for r in scheduler.running if r.prefill_remaining == 0]:
            scheduler.release(req)
            self.outstanding_prompt -= req.prompt_len
            # Blocks were committed at admission (the KV journey became
            # inevitable there); the decode pool uncommits on landing.
            # Delivery to the link waits for the hand-off's ready
            # instant (the post-step clock) via the in-flight heap.
            heapq.heappush(
                self.pool._inflight, (self.clock, req.request_id, req)
            )

    def _step_span(self, plan, step_s: float) -> None:
        self._rec.span(
            self.clock, step_s, "prefill", self.name,
            ("tokens", plan.n_prefill_tokens, "seqs", plan.n_prefill_seqs),
        )


class ChunkedPrefillPoolStage(Stage):
    """Chunked prefill pool: each replica co-schedules prompt chunks.

    Selected by ``DisaggConfig(prefill_mode="chunked")``.  Arrivals are
    dispatched to the replica with the fewest outstanding prompt tokens
    (ties to the lowest index); each replica then runs the colocated
    chunked iteration in prefill-only form — decode never happens here,
    a request is
    :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.release`-d
    to the transfer link the instant its last chunk completes (which is
    also its TTFT stamp).  Unlike the group pool, chunked replicas hold
    prompt KV resident while prefilling, so each replica carries the
    same KV budget as a decode replica.

    Backpressure gates *admission* into a replica (running chunks always
    finish): requests are admitted one at a time, the gate re-judged
    against the new policy head after each, with the admitted request's
    landing footprint committed to the decode pool's projection — so the
    watermark holds per request, exactly as in the group pool.
    """

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str = "prefill",
    ):
        self.name = name
        self._rec = recorder
        self.backpressure = config.disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(self)
        self.replicas = [
            _PrefillReplica(self, i, costs, kv_spec, kv_bytes, config,
                            recorder)
            for i in range(config.disagg.prefill_replicas)
        ]
        #: Arrivals in order, not yet dispatched to a replica.
        self.pending: list[Request] = []
        #: (ready_s, request_id, request) — chunk-complete hand-offs not
        #: yet delivered to the link (a step's hand-off becomes ready at
        #: the post-step clock, which may lie beyond the current kernel
        #: instant — delivering early would inflate the link queue the
        #: backpressure watermark reads).
        self._inflight: list[tuple[float, int, Request]] = []

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        times = [self.pending[0].arrival_s] if self.pending else []
        if self._inflight:
            times.append(self._inflight[0][0])
        times += [
            t for r in self.replicas
            if (t := r.next_event_time()) is not None
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        while self._inflight and self._inflight[0][0] <= now:
            ready, _, req = heapq.heappop(self._inflight)
            self.link.enqueue(ready, req)
        while self.pending and self.pending[0].arrival_s <= now:
            req = self.pending.pop(0)
            target = min(
                self.replicas,
                key=lambda r: (r.outstanding_prompt, r.index),
            )
            target.outstanding_prompt += req.prompt_len
            heapq.heappush(
                target.pending, (req.arrival_s, req.request_id, req)
            )
        for replica in self.replicas:
            t = replica.next_event_time()
            if t is not None and t <= now:
                replica.step(now)

    def finish(self) -> None:
        stranded = [r.request_id for r in self.pending] + [
            r.request_id
            for replica in self.replicas
            for r in (
                replica.scheduler.waiting
                + [req for _, _, req in replica.pending]
            )
        ]
        if stranded:
            self.gate.raise_stranded(stranded)

    @property
    def stall_s(self) -> float:
        return self.gate.stall_s

    @property
    def busy(self) -> list[float]:
        return [r.busy_s for r in self.replicas]

    @property
    def n_prefills(self) -> int:
        return sum(r.n_steps for r in self.replicas)

    def cache_stats(self) -> list[PrefixCacheStats]:
        """Per-replica prefix-cache counters (empty when cache off)."""
        return [
            r.prefix_cache.stats()
            for r in self.replicas
            if r.prefix_cache is not None
        ]


# ----------------------------------------------------------------------
# Stage 2: the transfer link
# ----------------------------------------------------------------------
class TransferLinkStage(Stage):
    """KV-transfer link: serial FIFO channel(s) between the pools.

    ``link_topology="shared"`` is one channel serving hand-offs in
    (ready, request-id) order — byte-for-byte the PR 2 fold.
    ``"per_replica"`` gives every decode replica its own channel at the
    configured bandwidth, so transfers to different replicas overlap on
    the wire.  Either way the *target replica* is chosen when the
    hand-off is enqueued (least outstanding decode tokens, ties to the
    lowest index — the same greedy the sequential simulation applied in
    transfer order, which for the shared FIFO is the same order), and
    the decode pool learns the landing time the moment the transfer
    starts, never earlier.
    """

    #: The backpressure-gated prefill pool, woken after every advance.
    _gated: Stage | None = None

    def __init__(
        self,
        config: ServingConfig,
        kv_spec: KVCacheSpec,
        transfer_ratio: float,
        decode_pool: "DecodePoolStage",
        recorder=None,
        name: str = "transfer",
    ):
        self.name = name
        self._rec = recorder
        disagg = config.disagg
        self.latency = disagg.link_latency_s
        self.bandwidth = disagg.link_gb_per_s * 1e9
        self.overlap = disagg.overlap_fraction
        # Wire bytes are priced off the *raw* KV footprint: the sender
        # re-encodes with the wire codec, whatever codec (if any) the KV
        # is resident in.  For a plain spec raw == resident.
        self.per_token = kv_spec.raw_bytes_per_token / transfer_ratio
        self.per_replica = disagg.link_topology == "per_replica"
        self.n_links = (
            disagg.decode_replicas if self.per_replica else 1
        )
        self.decode_pool = decode_pool
        self._free = [0.0] * self.n_links
        #: Per-channel (ready_s, request_id, request, target) queues.
        self._queues: list[list[tuple[float, int, Request, int]]] = [
            [] for _ in range(self.n_links)
        ]
        self.records: list[TransferRecord] = []
        self.peak_queue_depth = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Hand-offs waiting for a channel (not yet on the wire)."""
        return sum(len(q) for q in self._queues)

    def enqueue(self, ready: float, req: Request) -> None:
        """Accept a finished prefill's KV for transfer at time ``ready``."""
        target = self.decode_pool.assign(req)
        channel = target if self.per_replica else 0
        heapq.heappush(
            self._queues[channel], (ready, req.request_id, req, target)
        )
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        if self._rec is not None:
            self._rec.on_transfer_enqueue(req, ready, self.name, target)
            self._rec.metrics.gauge(
                f"{self.name}/queue_depth", ready, float(self.queue_depth)
            )
        # A hand-off may be due earlier than this stage's cached next
        # event — tell the kernel to re-poll (the heap contract).
        self.notify()

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        times = [
            max(q[0][0], self._free[ch])
            for ch, q in enumerate(self._queues) if q
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        for channel, queue in enumerate(self._queues):
            while queue and max(queue[0][0], self._free[channel]) <= now:
                ready, _, req, target = heapq.heappop(queue)
                nbytes = req.prompt_len * self.per_token
                wire = nbytes / self.bandwidth
                if self.overlap > 0.0:
                    wire *= 1.0 - self.overlap
                wire += self.latency
                start = max(ready, self._free[channel])
                done = start + wire
                self._free[channel] = done
                self.records.append(TransferRecord(
                    request_id=req.request_id,
                    nbytes=nbytes,
                    ready_s=ready,
                    start_s=start,
                    done_s=done,
                    link=channel,
                ))
                if self._rec is not None:
                    self._rec.on_transfer(
                        req, ready, start, done, nbytes, self.name,
                        channel,
                    )
                self.decode_pool.deliver(target, req, done)
        if self._gated is not None:
            self._gated.wake()

    def finish(self) -> None:
        if self.queue_depth:
            # The link always drains (it reports an event while queued);
            # a leftover here is a kernel-wiring bug, not a workload
            # property.
            raise SchedulingError(
                f"{self.queue_depth} transfers left on the link"
            )


# ----------------------------------------------------------------------
# Stage 3: the decode pool
# ----------------------------------------------------------------------
class _DecodeReplica(EngineReplica):
    """One decode-pool engine: its own KV cache, scheduler and clock.

    Runs :meth:`EngineReplica.step` with one twist: an admitted request
    that was never preempted here enters with ``prefill_remaining = 0``
    — its KV arrived over the link, so no prefill is owed.  Locally
    preempted requests keep the recompute debt ``admit`` assigns them
    and re-prefill on this replica.  ``pending`` holds KV landings.
    """

    carves_prefix_cache = False

    def __init__(self, pool, index, costs, kv_spec, kv_bytes, config,
                 recorder=None):
        super().__init__(
            f"{pool.name}/r{index}", costs, kv_spec, kv_bytes, config,
            recorder,
        )
        self.pool = pool
        self.index = index
        self.outstanding_tokens = 0
        #: Assigned transfers whose landing time is not yet known.
        self.n_unreleased = 0
        self._quiescent = False

    @property
    def _kernel(self):
        """The pool's kernel: its deadline bounds this replica's windows."""
        return self.pool._kernel

    def next_event_time(self) -> float | None:
        if self._quiescent:
            return None
        if self.scheduler.running or self.scheduler.waiting:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0][0])
        return None

    def _admit(self, now: float) -> bool:
        if not self.scheduler.waiting:
            return False
        pool, rec = self.pool, self._rec
        for req in self.scheduler.admit(enforce_token_budget=False):
            if req.n_preemptions == 0:
                req.prefill_remaining = 0
                pool.committed_blocks -= pool.blocks_for(req)
                if rec is not None:
                    # The KV landed over the link — no prefill is owed;
                    # decode residency starts at this admission.
                    rec.transition(req, self.clock, "decode")
        return False

    def _idle(self, gated: bool) -> None:
        # Nothing runs and nothing is scheduled to land.  If requests
        # still wait their KV cannot fit *now* — quiesce; a later
        # landing re-polls us, and finish() raises if none ever comes
        # (the conservation guarantee).
        self._quiescent = True

    def _after_step(self) -> None:
        """Sample the pool-wide occupancy a backpressure watermark bounds."""
        pool = self.pool
        used = sum(r.scheduler.kv.used_blocks for r in pool.replicas)
        pool.peak_kv_frac = max(
            pool.peak_kv_frac, used / max(pool.total_blocks, 1)
        )


class DecodePoolStage(Stage):
    """Decode pool: N independent continuous-batching replicas.

    Each replica runs the one engine iteration
    (:meth:`~repro.serving.serve.EngineReplica.step`).  Fast-forward
    windows are capped at the upstream stages' next event in addition
    to the replica's own next KV landing: the interleaved kernel cannot
    see hand-offs that have not been scheduled yet, so it stops a window
    where new work *could* appear (with exact costs every window is one
    step and the cap is moot).

    The stage also owns the backpressure bookkeeping the prefill stage
    reads: committed-but-not-landed KV blocks and the pool's projected
    free fraction, plus the peak observed occupancy
    (``peak_kv_frac``) the ``ext_disagg`` sweep reports.  For routing it
    keeps ``queued_blocks``: the landing footprint of requests delivered
    to the cell whose prefill has not yet committed them.
    """

    #: The backpressure-gated prefill pool, woken after every advance.
    _gated: Stage | None = None

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
        name: str = "decode",
    ):
        self.name = name
        self._rec = recorder
        self.replicas = [
            _DecodeReplica(self, i, costs, kv_spec, kv_bytes, config,
                           recorder)
            for i in range(config.disagg.decode_replicas)
        ]
        self.block_size = kv_spec.block_size
        self.total_blocks = sum(
            r.scheduler.kv.n_blocks for r in self.replicas
        )
        self.committed_blocks = 0
        self.queued_blocks = 0
        self.peak_kv_frac = 0.0

    def set_upstream(self, *stages: Stage) -> None:
        """Cap every replica's fast-forward windows at the next event of
        ``stages``."""
        for replica in self.replicas:
            replica.horizon = partial(next_event_among, stages)

    # ------------------------------------------------------------------
    # Backpressure bookkeeping (read by the prefill stage)
    # ------------------------------------------------------------------
    def blocks_for(self, req: Request) -> int:
        """KV blocks this request will occupy when its KV lands."""
        return ceil_div(req.prompt_len, self.block_size)

    def commit_blocks(self, req: Request) -> None:
        """Reserve the request's landing footprint (at prefill start)."""
        blocks = self.blocks_for(req)
        self.committed_blocks += blocks
        self.queued_blocks -= blocks

    def projected_free_frac(self, extra_blocks: int = 0) -> float:
        """Pool free-block fraction after in-flight KV (+extra) lands."""
        free = sum(r.scheduler.kv.free_blocks for r in self.replicas)
        return (free - self.committed_blocks - extra_blocks) / max(
            self.total_blocks, 1
        )

    # ------------------------------------------------------------------
    # Hand-off plumbing (called by the transfer link)
    # ------------------------------------------------------------------
    def assign(self, req: Request) -> int:
        """Pick the target replica for a hand-off (at enqueue time).

        Least-outstanding-tokens first, ties to the lowest replica index
        — the same deterministic greedy the sequential simulation
        applied, and over the same sequence of hand-offs, so the
        placement is unchanged.  ``outstanding_tokens`` accumulates and
        is never decremented, matching the sequential fold exactly.
        """
        target = min(
            self.replicas, key=lambda r: (r.outstanding_tokens, r.index)
        )
        target.outstanding_tokens += req.remaining_tokens
        target.n_unreleased += 1
        return target.index

    def deliver(self, index: int, req: Request, release_s: float) -> None:
        """Schedule a transfer's landing on its replica (at wire start)."""
        replica = self.replicas[index]
        replica.n_unreleased -= 1
        heapq.heappush(
            replica.pending, (release_s, req.request_id, req)
        )
        if self._rec is not None:
            self._rec.on_deliver(req, release_s, replica.name)
        replica._quiescent = False
        # The landing may predate this stage's cached next event — tell
        # the kernel to re-poll (the heap contract).
        self.notify()

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        return next_event_among(self.replicas)

    def advance(self, now: float) -> None:
        for replica in self.replicas:
            t = replica.next_event_time()
            if t is not None and t <= now:
                replica.step(now)
        if self._gated is not None:
            self._gated.wake()

    def finish(self) -> None:
        for replica in self.replicas:
            if replica.scheduler.has_work:
                _raise_stranded(replica.scheduler)
            if replica.pending or replica.n_unreleased:
                raise SchedulingError(
                    f"decode replica {replica.index} left"
                    " undelivered hand-offs"
                )


# ----------------------------------------------------------------------
# The cell: three stages, one engine instance
# ----------------------------------------------------------------------
class DisaggCell:
    """One disaggregated engine instance: prefill → link → decode.

    Builds the stage-trio under its final names — ``prefill``,
    ``transfer`` and ``decode`` for the bare cell
    :class:`DisaggregatedCore` runs (``index=None``), ``prefill[i]``
    etc. for fleet cell ``i`` — and is what the fleet router delivers
    to.  :meth:`deliver` queues a request on the prefill pool and adds
    its landing footprint to ``decode_pool.queued_blocks``, so
    :meth:`kv_occupancy` reads a backlogged cell as full as it is about
    to be without recounting its queues.  :meth:`pools` and
    :meth:`transfer` report the cell's accounting, under ``prefill`` /
    ``decode`` for the bare cell and ``replica<i>/...`` in a fleet.
    """

    mode = "disaggregated"

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
        index: int | None = None,
    ):
        disagg = config.disagg
        if (
            config.prefix_cache is not None
            and disagg.prefill_mode != "chunked"
        ):
            raise ConfigError(
                "prefix_cache requires DisaggConfig("
                "prefill_mode='chunked'): the group prefill pool has no"
                " per-replica scheduler to skip cached tokens with"
            )
        self.index = index
        self.transfer_ratio = resolve_transfer_ratio(config)
        tag = "" if index is None else f"[{index}]"
        self.decode_pool = DecodePoolStage(
            costs, kv_spec, kv_bytes, config, recorder, name=f"decode{tag}"
        )
        self.link = TransferLinkStage(
            config, kv_spec, self.transfer_ratio, self.decode_pool,
            recorder, name=f"transfer{tag}",
        )
        if disagg.prefill_mode == "chunked":
            self.prefill: Stage = ChunkedPrefillPoolStage(
                costs, kv_spec, kv_bytes, config, self.link,
                self.decode_pool, recorder, name=f"prefill{tag}",
            )
        else:
            self.prefill = PrefillPoolStage(
                costs, config, self.link, self.decode_pool, recorder,
                name=f"prefill{tag}",
            )
        self.stages = (self.prefill, self.link, self.decode_pool)
        self.decode_pool.set_upstream(self.prefill, self.link)
        self.n_routed = 0
        #: When this cell (became / will become) active; ``None`` =
        #: standby or drained.  Set by the fleet core and autoscaler.
        self.active_since: float | None = None

    # -- router surface -------------------------------------------------
    def notify(self) -> None:
        """Re-poll the entry stage (after a delivery into it)."""
        self.prefill.notify()

    def attach_router(self, upstream) -> None:
        """Add ``upstream`` to the decode pool's window caps: the
        fleet's router and autoscaler, or only the cell's own arrival
        schedule (see :meth:`ColocatedStage.attach_router
        <repro.serving.serve.ColocatedStage.attach_router>`)."""
        self.decode_pool.set_upstream(self.prefill, self.link, *upstream)

    def is_active(self, now: float) -> bool:
        return self.active_since is not None and self.active_since <= now

    def deliver(self, req: Request) -> None:
        """Queue a request in arrival order; count its landing blocks."""
        self.prefill.pending.append(req)
        self.n_routed += 1
        self.decode_pool.queued_blocks += self.decode_pool.blocks_for(req)

    @property
    def n_outstanding(self) -> int:
        return self.n_routed - self.n_finished

    def kv_occupancy(self) -> float:
        """Projected decode-pool occupancy, queued requests included."""
        pool = self.decode_pool
        return 1.0 - pool.projected_free_frac(pool.queued_blocks)

    @property
    def stall_s(self) -> float:
        return self.prefill.stall_s

    # -- result surface -------------------------------------------------
    @property
    def n_finished(self) -> int:
        return sum(
            len(r.scheduler.finished) for r in self.decode_pool.replicas
        )

    @property
    def finished(self) -> list[Request]:
        return [
            req for r in self.decode_pool.replicas
            for req in r.scheduler.finished
        ]

    @property
    def clock(self) -> float:
        """The cell's makespan: last decode step or transfer stamp."""
        records = self.link.records
        return max(
            [r.clock for r in self.decode_pool.replicas]
            + [t.done_s for t in records]
            + [t.ready_s for t in records]
        )

    @property
    def n_steps(self) -> int:
        return self.prefill.n_prefills + sum(
            r.n_steps for r in self.decode_pool.replicas
        )

    @property
    def peak_running(self) -> int:
        return max(r.peak_running for r in self.decode_pool.replicas)

    @property
    def n_preemptions(self) -> int:
        return sum(
            r.scheduler.n_preemptions for r in self.decode_pool.replicas
        )

    def cache_stats(self) -> list[PrefixCacheStats]:
        """Prefix-cache counters (only chunked prefill pools carry any)."""
        return getattr(self.prefill, "cache_stats", list)()

    def pools(self, makespan_s: float) -> tuple[PoolStats, PoolStats]:
        """Prefill and decode pool accounting over ``makespan_s``."""
        prefix = "" if self.index is None else f"replica{self.index}/"
        replicas = self.decode_pool.replicas
        return (
            PoolStats.from_busy(
                f"{prefix}prefill", self.prefill.busy, makespan_s,
                n_steps=self.prefill.n_prefills,
                stall_s=self.prefill.stall_s,
            ),
            PoolStats.from_busy(
                f"{prefix}decode", [r.busy_s for r in replicas],
                makespan_s, n_steps=sum(r.n_steps for r in replicas),
                peak_kv_frac=self.decode_pool.peak_kv_frac,
            ),
        )

    def transfer(self, makespan_s: float) -> TransferStats:
        """The link's transfer accounting over ``makespan_s``."""
        return TransferStats.from_records(
            self.link.records, makespan_s, self.transfer_ratio,
            n_links=self.link.n_links,
            peak_queue_depth=self.link.peak_queue_depth,
        )

    def stats(self, makespan_s: float) -> ReplicaStats:
        """The cell's fleet row: routing counts, pools and link."""
        return ReplicaStats(
            index=self.index,
            mode=self.mode,
            n_routed=self.n_routed,
            n_finished=self.n_finished,
            n_unfinished=self.n_outstanding,
            pools=self.pools(makespan_s),
            transfer=self.transfer(makespan_s),
        )


class DisaggregatedCore:
    """Two-pool serving: prefill pool → KV-transfer link → decode pool.

    Drop-in sibling of :class:`~repro.serving.serve.ServingCore` — same
    constructor shape, same :meth:`serve` contract — selected by
    ``ServingConfig(mode="disaggregated")``: one :class:`DisaggCell` on
    the kernel.  The result's ``pools`` and ``transfer`` fields carry
    the disaggregation-specific accounting.
    """

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig | None = None,
    ):
        self.config = config or ServingConfig(mode="disaggregated")
        if self.config.mode != "disaggregated":
            raise ConfigError(
                "DisaggregatedCore requires mode='disaggregated',"
                f" got {self.config.mode!r}"
            )
        self.costs = maybe_memoize(costs, self.config.cost_bucket)
        self.kv_spec = kv_spec
        self.kv_bytes = kv_bytes
        self.policy = get_policy(self.config.policy)
        self.transfer_ratio = resolve_transfer_ratio(self.config)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Replay a trace through the three-stage kernel pipeline.

        ``deadline_s`` bounds the simulation exactly as in
        :meth:`~repro.serving.serve.ServingCore.serve`: the kernel stops
        before the first event past it, and every request not yet
        decoded to completion — still queued for prefill, on the wire,
        or mid-decode — is counted in ``n_unfinished`` (with partial
        timings where a first token exists) instead of raising the
        stranded-work invariant.  ``None`` keeps run-to-completion
        behaviour bit-exactly.
        """
        if not requests:
            raise ConfigError("serve needs at least one request")
        rec = build_recorder(self.config.telemetry)
        cell = DisaggCell(
            self.costs, self.kv_spec, self.kv_bytes, self.config,
            recorder=rec,
        )
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.request_id)):
            if rec is not None:
                rec.on_arrival(req, track=cell.prefill.name)
            cell.deliver(req)
        EventKernel(list(cell.stages), recorder=rec).run(until=deadline_s)
        makespan = cell.clock
        finished = sorted(cell.finished, key=lambda r: r.request_id)
        finished_ids = {r.request_id for r in finished}
        cache_stats = cell.cache_stats()
        return ContinuousResult.from_run(
            finished,
            makespan_s=makespan,
            n_steps=cell.n_steps,
            peak_running=cell.peak_running,
            slo=self.config.slo,
            n_preemptions=cell.n_preemptions,
            policy=self.policy.name,
            # The pool runs whatever DisaggConfig.prefill_mode says —
            # the (colocated-only) ServingConfig.prefill_mode does not
            # reshape it; report what actually happened.
            prefill_mode=self.config.disagg.prefill_mode,
            mode="disaggregated",
            pools=cell.pools(makespan),
            transfer=cell.transfer(makespan),
            unfinished=[
                r for r in requests if r.request_id not in finished_ids
            ],
            deadline_s=deadline_s,
            prefix_cache=(
                PrefixCacheStats.merge(cache_stats) if cache_stats else None
            ),
            telemetry=rec,
        )
