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

:class:`DisaggregatedCore` models the whole path as three pluggable
stages on one :class:`~repro.serving.kernel.EventKernel`:

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

from ..compression import resolve_spec
from ..errors import CapacityError, ConfigError, SchedulingError
from ..utils import ceil_div
from .costs import StepCostModel, maybe_memoize
from .kernel import EventKernel, Stage
from .kvcache import KVCacheSpec, PagedKVCache
from .metrics import (
    ContinuousResult,
    PoolStats,
    TransferRecord,
    TransferStats,
)
from .prefixcache import PrefixCacheStats
from .scheduler import ContinuousBatchScheduler, Request, get_policy
from .serve import (
    ServingConfig,
    _raise_stranded,
    build_prefix_cache,
    decode_window_len,
    run_decode_window,
)
from .telemetry import build_recorder

__all__ = [
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
    method effectively pure).
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
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder` plus
        #: the track stall events land on; the owning stage attaches
        #: both (and the fleet layer re-points ``track`` after renaming
        #: its stages).
        self.recorder = None
        self.track = "prefill"

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
    """

    name = "prefill"

    def __init__(
        self,
        requests: list[Request],
        costs: StepCostModel,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
    ):
        disagg = config.disagg
        self.costs = costs
        self.policy = get_policy(config.policy)
        self.backpressure = disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(self)
        self._rec = recorder
        if recorder is not None:
            self.gate.recorder = recorder
            self.gate.track = self.name
        n = disagg.prefill_replicas
        self._free: list[tuple[float, int]] = [(0.0, i) for i in range(n)]
        heapq.heapify(self._free)
        self.busy = [0.0] * n
        self.pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        self.waiting: list[Request] = []
        #: (done_s, request_id, request) — prefills on a replica now.
        self._inflight: list[tuple[float, int, Request]] = []
        self.n_prefills = 0
        #: Starts may never predate the instant a stall cleared.
        self._floor = 0.0
        self._head_cache: tuple[tuple[float, int, int], Request] | None = (
            None
        )

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
        """The request the policy would start at decision time ``t``.

        The backpressure gate consults this on every kernel poll; the
        candidate set only changes when a start mutates the queues
        (which always moves a queue length), so the policy sort is
        cached on ``(t, len(waiting), len(pending))``.
        """
        key = (t, len(self.waiting), len(self.pending))
        if self._head_cache is not None and self._head_cache[0] == key:
            return self._head_cache[1]
        candidates = self.waiting + [
            r for r in self.pending if r.arrival_s <= t
        ]
        head = self.policy.order_waiting(candidates)[0]
        self._head_cache = (key, head)
        return head

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
        """One prefill start: the sequential pool's loop body, verbatim."""
        now_r, idx = heapq.heappop(self._free)
        while self.pending and self.pending[0].arrival_s <= now_r:
            self.waiting.append(self.pending.pop(0))
        if not self.waiting:
            now_r = max(now_r, self.pending[0].arrival_s)
            while self.pending and self.pending[0].arrival_s <= now_r:
                self.waiting.append(self.pending.pop(0))
        req = self.policy.order_waiting(self.waiting)[0]
        self.waiting.remove(req)
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
                     args={"tokens": req.prompt_len})
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


class _PrefillReplica:
    """One chunked prefill engine: scheduler, KV cache and local clock."""

    def __init__(
        self,
        index: int,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
    ):
        self.index = index
        self.costs = costs
        self.config = config
        # The prefix cache lives on the *prefill* side — that is where
        # cached tokens skip work.  Each replica carves a private cache
        # out of its own KV budget (None when no cache is configured).
        self.prefix_cache, batch_bytes = build_prefix_cache(
            config, kv_spec, kv_bytes, costs
        )
        self.scheduler = ContinuousBatchScheduler(
            PagedKVCache(kv_spec, batch_bytes), config.limits,
            config.policy, prefix_cache=self.prefix_cache,
        )
        #: (arrival_s, tiebreak, request) — dispatched, not yet due.
        self.pending: list[tuple[float, int, Request]] = []
        self.outstanding_prompt = 0
        self.clock = 0.0
        self.busy_s = 0.0
        self.n_steps = 0


class ChunkedPrefillPoolStage(Stage):
    """Chunked prefill pool: each replica co-schedules prompt chunks.

    Selected by ``DisaggConfig(prefill_mode="chunked")``.  Arrivals are
    dispatched to the replica with the fewest outstanding prompt tokens
    (ties to the lowest index); each replica then runs the colocated
    chunked planner in prefill-only form — decode never happens here, a
    request is :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.release`-d
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

    name = "prefill"

    def __init__(
        self,
        requests: list[Request],
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        link: "TransferLinkStage",
        decode_pool: "DecodePoolStage",
        recorder=None,
    ):
        self.costs = costs
        self.config = config
        self.backpressure = config.disagg.backpressure
        self.link = link
        self.decode_pool = decode_pool
        self.gate = _BackpressureGate(self)
        self.replicas = [
            _PrefillReplica(i, costs, kv_spec, kv_bytes, config)
            for i in range(config.disagg.prefill_replicas)
        ]
        self._rec = recorder
        if recorder is not None:
            self.attach_recorder(recorder)
        self.pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        #: (ready_s, request_id, request) — chunk-complete hand-offs not
        #: yet delivered to the link (a step's hand-off becomes ready at
        #: the post-step clock, which may lie beyond the current kernel
        #: instant — delivering early would inflate the link queue the
        #: backpressure watermark reads).
        self._inflight: list[tuple[float, int, Request]] = []

    def attach_recorder(self, recorder) -> None:
        """Point every telemetry hook of this pool at ``recorder``.

        Track names derive from ``self.name``; the fleet layer calls
        this again after renaming the stage so a replica's lanes read
        ``prefill[2]/r0`` rather than a bare ``prefill/r0``.
        """
        self._rec = recorder
        self.gate.recorder = recorder
        self.gate.track = self.name
        for replica in self.replicas:
            replica.scheduler.telemetry = recorder
            replica.scheduler.track = f"{self.name}/r{replica.index}"
            if replica.prefix_cache is not None:
                replica.prefix_cache.telemetry = recorder
                replica.prefix_cache.track = (
                    f"{self.name}/r{replica.index}/cache"
                )

    # ------------------------------------------------------------------
    def _replica_event(self, replica: _PrefillReplica) -> float | None:
        if replica.scheduler.running:
            return replica.clock
        if replica.pending:
            return max(replica.clock, replica.pending[0][0])
        if replica.scheduler.waiting and not self._gated(
            replica, replica.clock
        ):
            # A gate-stalled replica has no event of its own.  When no
            # other replica or hand-off gives this pool one either, the
            # link and the decode pool wake it after every advance, so
            # it resumes (at the kernel's clamped clock) on the first
            # iteration after the watermark clears.
            return replica.clock
        return None

    def next_event_time(self) -> float | None:
        times = [self.pending[0].arrival_s] if self.pending else []
        if self._inflight:
            times.append(self._inflight[0][0])
        times += [
            t for r in self.replicas
            if (t := self._replica_event(r)) is not None
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
            t = self._replica_event(replica)
            if t is not None and t <= now:
                self._step_replica(replica, now)

    # ------------------------------------------------------------------
    def _gated(self, replica: _PrefillReplica, now: float) -> bool:
        if self.backpressure is None or not replica.scheduler.waiting:
            return False
        head = replica.scheduler.policy.order_waiting(
            replica.scheduler.waiting
        )[0]
        return self.gate.stalled(head, now)

    def _step_replica(self, replica: _PrefillReplica, now: float) -> None:
        """One scheduling iteration of one chunked prefill replica."""
        scheduler = replica.scheduler
        while replica.pending and replica.pending[0][0] <= replica.clock:
            _, _, req = heapq.heappop(replica.pending)
            scheduler.submit(req)
        if (
            self.backpressure is not None
            and not scheduler.running
            and scheduler.waiting
            and replica.clock < now
        ):
            # The replica sat gate-stalled with a frozen clock while the
            # kernel moved on: admissions — and the chunks, TTFT stamps
            # and hand-offs they produce — happen at the resume instant,
            # never retroactively (the chunked twin of the group pool's
            # start floor).
            replica.clock = now
        rec = self._rec
        if rec is not None:
            scheduler._now = replica.clock
        # Admit one request at a time so the backpressure gate sees each
        # admission's committed KV before judging the next head — a
        # whole-round admit could flood the decode pool in one go.
        gated = self._gated(replica, now)
        while not gated and scheduler.waiting:
            admitted = scheduler.admit(
                enforce_token_budget=False, max_requests=1
            )
            if not admitted:
                break
            self.decode_pool.commit_blocks(admitted[0])
            self.gate.resumed(now)
            gated = self._gated(replica, now)
        plan = scheduler.plan_step()
        if plan.empty:
            if replica.pending:
                replica.clock = max(replica.clock, replica.pending[0][0])
                return
            if scheduler.has_work and not gated:
                # Nothing runs, nothing is due, admission is not gated,
                # yet requests wait: their prompt KV can never fit this
                # replica.  (A gated replica reports no event instead —
                # the link and the decode pool wake the pool after every
                # advance, and finish() reports it if the watermark
                # never clears.)
                _raise_stranded(scheduler)
            return
        if scheduler.prefix_cache is not None:
            # Cold-tier hits pay their decompression before the step
            # that uses the restored KV (mirrors the colocated stage).
            delay_s = scheduler.consume_cache_delay()
            if delay_s > 0.0:
                if rec is not None:
                    rec.span(replica.clock, delay_s, "decompress",
                             scheduler.track)
                replica.clock += delay_s
                replica.busy_s += delay_s
        breakdown = self.costs.mixed_step(
            0, 1, plan.n_prefill_seqs, plan.n_prefill_tokens
        )
        if rec is not None:
            rec.span(replica.clock, breakdown.total_s, "prefill",
                     scheduler.track,
                     args={"tokens": plan.n_prefill_tokens,
                           "seqs": plan.n_prefill_seqs})
        replica.clock += breakdown.total_s
        replica.busy_s += breakdown.total_s
        replica.n_steps += 1
        scheduler.apply_step(plan, replica.clock)
        shipped = [
            r for r in scheduler.running if r.prefill_remaining == 0
        ]
        for req in shipped:
            scheduler.release(req)
            replica.outstanding_prompt -= req.prompt_len
            # Blocks were committed at admission (the KV journey became
            # inevitable there); the decode pool uncommits on landing.
            # Delivery to the link waits for the hand-off's ready
            # instant (the post-step clock) via the in-flight heap.
            heapq.heappush(
                self._inflight, (replica.clock, req.request_id, req)
            )
        if rec is not None:
            rec.sample_engine(scheduler.track, replica.clock, scheduler)

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

    name = "transfer"
    #: The backpressure-gated prefill pool, woken after every advance.
    _gated: Stage | None = None

    def __init__(
        self,
        config: ServingConfig,
        kv_spec: KVCacheSpec,
        transfer_ratio: float,
        decode_pool: "DecodePoolStage",
        recorder=None,
    ):
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
class _DecodeReplica:
    """One decode-pool engine: its own KV cache, scheduler and clock."""

    def __init__(
        self,
        index: int,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
    ):
        self.index = index
        self.costs = costs
        self.config = config
        self.scheduler = ContinuousBatchScheduler(
            PagedKVCache(kv_spec, kv_bytes), config.limits, config.policy
        )
        #: (release_s, tiebreak, request) — KV arrival order on this replica.
        self.pending: list[tuple[float, int, Request]] = []
        self.outstanding_tokens = 0
        #: Assigned transfers whose landing time is not yet known.
        self.n_unreleased = 0
        self.clock = 0.0
        self.busy_s = 0.0
        self.n_steps = 0
        self.peak_running = 0
        self._quiescent = False


class DecodePoolStage(Stage):
    """Decode pool: N independent continuous-batching replicas.

    Each replica's scheduling iteration mirrors the colocated chunked
    loop, with one twist: an admitted request that was never preempted
    here enters with ``prefill_remaining = 0`` — its KV arrived over the
    link, so no prefill is owed.  Locally preempted requests keep the
    recompute debt ``admit`` assigns them and re-prefill on this
    replica.  Fast-forward windows are capped at the upstream stages'
    next event in addition to the replica's own next KV landing: the
    interleaved kernel cannot see hand-offs that have not been scheduled
    yet, so it stops a window where new work *could* appear (with exact
    costs every window is one step and the cap is moot).

    The stage also owns the backpressure bookkeeping the prefill stage
    reads: committed-but-not-landed KV blocks and the pool's projected
    free fraction, plus the peak observed occupancy
    (``peak_kv_frac``) the ``ext_disagg`` sweep reports.
    """

    name = "decode"
    #: The backpressure-gated prefill pool, woken after every advance.
    _gated: Stage | None = None

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
    ):
        self.config = config
        self.replicas = [
            _DecodeReplica(i, costs, kv_spec, kv_bytes, config)
            for i in range(config.disagg.decode_replicas)
        ]
        self._rec = recorder
        if recorder is not None:
            self.attach_recorder(recorder)
        self.block_size = kv_spec.block_size
        self.total_blocks = sum(
            r.scheduler.kv.n_blocks for r in self.replicas
        )
        self.committed_blocks = 0
        self.peak_kv_frac = 0.0
        self._upstream: tuple[Stage, ...] = ()

    def set_upstream(self, *stages: Stage) -> None:
        """Register the stages whose events cap fast-forward windows."""
        self._upstream = stages

    def attach_recorder(self, recorder) -> None:
        """Point every replica's telemetry hooks at ``recorder``.

        Re-called by the fleet layer after renaming the stage so track
        names carry the replica-qualified stage name.
        """
        self._rec = recorder
        for replica in self.replicas:
            replica.scheduler.telemetry = recorder
            replica.scheduler.track = f"{self.name}/r{replica.index}"

    # ------------------------------------------------------------------
    # Backpressure bookkeeping (read by the prefill stage)
    # ------------------------------------------------------------------
    def blocks_for(self, req: Request) -> int:
        """KV blocks this request will occupy when its KV lands."""
        return ceil_div(req.prompt_len, self.block_size)

    def commit_blocks(self, req: Request) -> None:
        """Reserve the request's landing footprint (at prefill start)."""
        self.committed_blocks += self.blocks_for(req)

    def _uncommit_blocks(self, req: Request) -> None:
        self.committed_blocks -= self.blocks_for(req)

    def projected_free_frac(self, extra_blocks: int = 0) -> float:
        """Pool free-block fraction after in-flight KV (+extra) lands."""
        free = sum(r.scheduler.kv.free_blocks for r in self.replicas)
        return (free - self.committed_blocks - extra_blocks) / max(
            self.total_blocks, 1
        )

    def _sample_occupancy(self) -> None:
        used = sum(r.scheduler.kv.used_blocks for r in self.replicas)
        self.peak_kv_frac = max(
            self.peak_kv_frac, used / max(self.total_blocks, 1)
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
            self._rec.on_deliver(
                req, release_s, f"{self.name}/r{index}"
            )
        replica._quiescent = False
        # The landing may predate this stage's cached next event — tell
        # the kernel to re-poll (the heap contract).
        self.notify()

    # ------------------------------------------------------------------
    def _replica_event(self, replica: _DecodeReplica) -> float | None:
        if replica._quiescent:
            return None
        if replica.scheduler.running or replica.scheduler.waiting:
            return replica.clock
        if replica.pending:
            return max(replica.clock, replica.pending[0][0])
        return None

    def next_event_time(self) -> float | None:
        times = [
            t for r in self.replicas
            if (t := self._replica_event(r)) is not None
        ]
        return min(times) if times else None

    def advance(self, now: float) -> None:
        for replica in self.replicas:
            t = self._replica_event(replica)
            if t is not None and t <= now:
                self._step_replica(replica)
        if self._gated is not None:
            self._gated.wake()

    def _upstream_horizon(self) -> float | None:
        times = [
            t for s in self._upstream
            if (t := s.next_event_time()) is not None
        ]
        return min(times) if times else None

    def _step_replica(self, replica: _DecodeReplica) -> None:
        """One scheduling iteration: the sequential replica loop body."""
        scheduler = replica.scheduler
        rec = self._rec
        if rec is not None:
            scheduler._now = replica.clock
        while replica.pending and replica.pending[0][0] <= replica.clock:
            _, _, req = heapq.heappop(replica.pending)
            scheduler.submit(req)
        for req in scheduler.admit(enforce_token_budget=False):
            if req.n_preemptions == 0:
                req.prefill_remaining = 0
                self._uncommit_blocks(req)
                if rec is not None:
                    # The KV landed over the link — no prefill is owed;
                    # decode residency starts at this admission.
                    rec.transition(req, replica.clock, "decode")
        plan = scheduler.plan_step()
        if self.config.preemption and plan.decode:
            victims = scheduler.ensure_decode_capacity(plan.decode)
            if victims:
                plan.drop(victims)
        if plan.empty:
            if replica.pending:
                replica.clock = max(replica.clock, replica.pending[0][0])
                return
            # Nothing runs and nothing is scheduled to land.  If
            # requests still wait their KV cannot fit *now* — quiesce;
            # a later landing re-polls us, and finish() raises if none
            # ever comes (the conservation guarantee).
            replica._quiescent = True
            return
        replica.peak_running = max(
            replica.peak_running, len(scheduler.running)
        )
        breakdown = replica.costs.mixed_step(
            len(plan.decode),
            max(plan.mean_decode_ctx, 1),
            plan.n_prefill_seqs,
            plan.n_prefill_tokens,
        )
        next_event = replica.pending[0][0] if replica.pending else None
        if self.config.cost_bucket > 0:
            # Only bucketed costs fast-forward; with exact costs the
            # window is always one step and the horizon cap is moot —
            # skip the upstream polls (they include the prefill pool's
            # policy sort) on the hot path.
            horizon = self._upstream_horizon()
            if horizon is not None:
                next_event = (
                    horizon if next_event is None
                    else min(next_event, horizon)
                )
        k = decode_window_len(
            scheduler, plan, next_event, replica.clock,
            breakdown.total_s, self.config.cost_bucket,
        )
        if k > 1:
            win_start = replica.clock
            replica.clock, segments = run_decode_window(
                scheduler, replica.costs, plan, next_event,
                replica.clock, self.config.cost_bucket,
                breakdown.total_s, k,
                preemption=self.config.preemption,
                on_segment=self._sample_occupancy,
            )
            for step_s, ki in segments:
                replica.busy_s += step_s * ki
                replica.n_steps += ki
            if rec is not None:
                t = win_start
                for step_s, ki in segments:
                    rec.span(t, step_s * ki, "decode", scheduler.track,
                             args={"steps": ki,
                                   "batch": len(plan.decode)})
                    t += step_s * ki
                rec.sample_engine(
                    scheduler.track, replica.clock, scheduler
                )
        else:
            if rec is not None:
                rec.span(
                    replica.clock, breakdown.total_s, "step",
                    scheduler.track,
                    args={"decode": len(plan.decode),
                          "prefill_tokens": plan.n_prefill_tokens},
                )
            replica.clock += breakdown.total_s
            replica.busy_s += breakdown.total_s
            replica.n_steps += 1
            scheduler.apply_step(plan, replica.clock)
            self._sample_occupancy()
            if rec is not None:
                rec.sample_engine(
                    scheduler.track, replica.clock, scheduler
                )

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
# The core: three stages on one kernel
# ----------------------------------------------------------------------
class DisaggregatedCore:
    """Two-pool serving: prefill pool → KV-transfer link → decode pool.

    Drop-in sibling of :class:`~repro.serving.serve.ServingCore` — same
    constructor shape, same :meth:`serve` contract — selected by
    ``ServingConfig(mode="disaggregated")``.  The result's ``pools`` and
    ``transfer`` fields carry the disaggregation-specific accounting.
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
        if (
            self.config.prefix_cache is not None
            and self.config.disagg.prefill_mode != "chunked"
        ):
            raise ConfigError(
                "prefix_cache requires DisaggConfig("
                "prefill_mode='chunked'): the group prefill pool has no"
                " per-replica scheduler to skip cached tokens with"
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
        disagg = self.config.disagg
        decode_pool = DecodePoolStage(
            self.costs, self.kv_spec, self.kv_bytes, self.config,
            recorder=rec,
        )
        link = TransferLinkStage(
            self.config, self.kv_spec, self.transfer_ratio, decode_pool,
            recorder=rec,
        )
        if disagg.prefill_mode == "chunked":
            prefill: Stage = ChunkedPrefillPoolStage(
                requests, self.costs, self.kv_spec, self.kv_bytes,
                self.config, link, decode_pool, recorder=rec,
            )
        else:
            prefill = PrefillPoolStage(
                requests, self.costs, self.config, link, decode_pool,
                recorder=rec,
            )
        if rec is not None:
            for req in sorted(
                requests, key=lambda r: (r.arrival_s, r.request_id)
            ):
                rec.on_arrival(req, track=prefill.name)
        decode_pool.set_upstream(prefill, link)
        EventKernel(
            [prefill, link, decode_pool], recorder=rec
        ).run(until=deadline_s)

        replicas = decode_pool.replicas
        transfers = link.records
        makespan = max(
            [r.clock for r in replicas]
            + [t.done_s for t in transfers]
            + [t.ready_s for t in transfers]
        )
        finished: list[Request] = []
        for replica in replicas:
            finished.extend(replica.scheduler.finished)
        finished.sort(key=lambda r: r.request_id)
        finished_ids = {r.request_id for r in finished}
        unfinished = [
            r for r in requests if r.request_id not in finished_ids
        ]
        pools = (
            PoolStats.from_busy(
                "prefill", prefill.busy, makespan,
                n_steps=prefill.n_prefills,
                stall_s=prefill.stall_s,
            ),
            PoolStats.from_busy(
                "decode",
                [r.busy_s for r in replicas],
                makespan,
                n_steps=sum(r.n_steps for r in replicas),
                peak_kv_frac=decode_pool.peak_kv_frac,
            ),
        )
        return ContinuousResult.from_run(
            finished,
            makespan_s=makespan,
            n_steps=prefill.n_prefills + sum(r.n_steps for r in replicas),
            peak_running=max(r.peak_running for r in replicas),
            slo=self.config.slo,
            n_preemptions=sum(
                r.scheduler.n_preemptions for r in replicas
            ),
            policy=self.policy.name,
            # The pool runs whatever DisaggConfig.prefill_mode says —
            # the (colocated-only) ServingConfig.prefill_mode does not
            # reshape it; report what actually happened.
            prefill_mode=disagg.prefill_mode,
            mode="disaggregated",
            pools=pools,
            transfer=TransferStats.from_records(
                transfers, makespan, self.transfer_ratio,
                n_links=link.n_links,
                peak_queue_depth=link.peak_queue_depth,
            ),
            unfinished=unfinished,
            deadline_s=deadline_s,
            prefix_cache=(
                PrefixCacheStats.merge(cache_stats)
                if (cache_stats := getattr(
                    prefill, "cache_stats", lambda: []
                )())
                else None
            ),
            telemetry=rec,
        )
