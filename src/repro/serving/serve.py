"""The serving core: an event-driven loop over cost + scheduling layers.

Top of the three-layer serving architecture.  :class:`ServingCore` owns the
simulated clock and nothing else: each iteration it asks the scheduler what
to run (admission, chunked-prefill planning, preemption when KV fills),
prices the plan with a :class:`~repro.serving.costs.StepCostModel`, advances
time, and commits the plan.  When no work is runnable it jumps the clock to
the next arrival — event-driven, no idle ticking.

Two prefill modes:

* ``"group"`` — the seed engine's behaviour, kept bit-compatible for the
  ``InferenceEngine.run_continuous`` facade: each admission group pays one
  whole-prompt prefill pass at ``max(prompt_len)``;
* ``"chunked"`` — vLLM-style chunked prefill: prompt tokens are
  co-scheduled with decode tokens under ``max_batched_tokens``, so decode
  latency is never held hostage by a long prompt.

Results carry the full metrics picture (TTFT/TPOT, interpolated
percentiles, SLO goodput) via :mod:`repro.serving.metrics`.

:class:`ServingConfig` is also where the **serving mode** is chosen:
``mode="colocated"`` runs this module's single-engine loop, while
``mode="disaggregated"`` routes through
:class:`repro.serving.disagg.DisaggregatedCore` — a prefill pool and a
decode pool joined by a KV-transfer link whose cost and codec live in
:class:`DisaggConfig`.

Both topologies run on the shared event kernel
(:mod:`repro.serving.kernel`) and share one engine iteration:
:class:`EngineReplica` owns an engine's scheduler, prefix cache, pending
heap, clock and counters, and its :meth:`~EngineReplica.step` is the one
chunked iteration every engine runs — the colocated engine
(:class:`ColocatedStage`, a single :class:`~repro.serving.kernel.Stage`
whose per-event body is exactly one iteration of the historical clock
loop) and the disaggregated prefill and decode replicas, which override
only admission, idling and the post-step hook.  The disaggregated
topology is three cooperating stages with optional decode→prefill
backpressure (:class:`BackpressureConfig`).  A :class:`ColocatedStage`
is also a fleet *cell*: the unit a router delivers to.

Invariants this layer guarantees (tested in ``tests/test_serving_core.py``
and ``tests/test_disagg.py``):

* **bit-compatibility of ``run_continuous``** — ``prefill_mode="group"``
  with the FCFS policy and exact costs reproduces the seed engine's clock
  arithmetic exactly (same floats, not merely close), so
  ``InferenceEngine.run_continuous`` never drifts from the seed;
  ``mode="colocated"`` is likewise bit-identical to the pre-disaggregation
  ``serve()`` output.
* **event-driven clock** — time only moves when work is priced or the loop
  jumps to the next arrival; no idle ticking, so makespan is exactly the
  sum of executed step costs plus waiting gaps.
* **fast-forward exactness** — a fast-forwarded window of ``k`` identical
  decode steps commits the same token counts, stamps, KV growth and
  clock float sequence as ``k`` stepwise iterations would (only legal
  under bucketed costs, where every step in the window prices
  identically), so without backpressure a windowed run equals the same
  run stepped one step per iteration (``tests/test_stepwise_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappop, heappush

from ..compression import (
    ACTIVATION_SIGMA,
    get_codec,
    get_codec_policy,
    resolve_spec,
)
from ..errors import CapacityError, ConfigError
from ..utils import bounded, ceil_div, check_fields
from .costs import StepCostModel, maybe_memoize
from .kernel import EventKernel, Stage
from .kvcache import KVCacheSpec, PagedKVCache
from .metrics import ContinuousResult, PoolStats, ReplicaStats, SLOTarget
from .prefixcache import (
    PrefixCache,
    PrefixCacheConfig,
    cold_hit_seconds_per_token,
)
from .scheduler import (
    ContinuousBatchScheduler,
    Request,
    SchedulerLimits,
    SchedulerPolicy,
    get_policy,
)
from .telemetry import TelemetryConfig, build_recorder

PREFILL_MODES = ("group", "chunked")
SERVING_MODES = ("colocated", "disaggregated", "fleet")
LINK_TOPOLOGIES = ("shared", "per_replica")

#: Sentinel for the codec slots: resolve the slot through the codec
#: policy at config time (``InferenceEngine.serve`` does the resolution,
#: since selection needs the model/GPU pair).
AUTO_CODEC = "auto"


def _raise_stranded(scheduler) -> None:
    """Fail loudly when queued work can never run.

    Reached when nothing is running, nothing is due to arrive, admission
    was just attempted, and requests still wait: their KV can never fit
    (or, in group mode, their prompt exceeds the admission token budget).
    Returning a clean-looking result would silently drop them — and under
    head-of-line blocking everything queued behind them — so every
    serving loop raises instead (the conservation invariant of
    :mod:`repro.serving.scheduler`).
    """
    stranded = sorted(r.request_id for r in scheduler.waiting)
    raise CapacityError(
        f"requests {stranded} can never be admitted: KV demand or prompt"
        " length exceeds what this engine can ever free"
    )


@dataclass(frozen=True)
class BackpressureConfig:
    """Decode→prefill backpressure watermarks (disaggregated mode).

    The feedback-free pipeline admits prefills as fast as the prefill
    pool can run them, so a slow link or a full decode pool shows up as
    an unbounded transfer queue and decode-side preemption storms.  With
    backpressure configured, the prefill pool **stalls admission** (the
    event kernel simply stops scheduling prefill starts; running
    prefills complete) while either watermark is crossed, and resumes
    the instant downstream events clear it:

    Each watermark is opt-in (the defaults gate nothing):

    * ``min_free_kv_frac`` — the decode pool's *projected* free-block
      fraction (free blocks minus blocks already committed to prefilled
      or in-flight KV, over total blocks) must stay at or above this
      after admitting the candidate request; 0 (default) disables the
      occupancy watermark;
    * ``max_link_queue`` — no new prefill is admitted while this many
      hand-offs sit queued (not yet on the wire) at the transfer link;
      ``None`` (default) disables the queue watermark.

    Watermarks gate *admission* only — prefills already in flight still
    complete and their KV still lands, so observed peaks can exceed the
    watermark's level by the work admitted before it tripped (up to one
    request per prefill replica on the queue side, plus decode-time KV
    growth on the occupancy side).  This is deliberate hysteresis, not
    slack: admission-time projection is what a real admission controller
    has.

    A request whose own KV footprint can never satisfy the watermark is
    stranded and raises :class:`~repro.errors.CapacityError` at the end
    of the run instead of being silently dropped (tested in
    ``tests/test_kernel.py``).
    """

    min_free_kv_frac: float = bounded(0.0, ge=0.0, le=1.0)
    max_link_queue: int | None = bounded(None, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class DisaggConfig:
    """Geometry and link of the disaggregated (two-pool) serving mode.

    ``prefill_replicas`` engines do nothing but whole-prompt prefill;
    ``decode_replicas`` engines do nothing but continuous-batching decode,
    each with its own full KV cache.  Finished prefills ship their KV over
    a serial FIFO link of ``link_gb_per_s`` GB/s (``inf`` models an ideal
    fabric) with ``link_latency_s`` per-transfer setup cost.  The
    ``transfer_codec`` decides what goes on the wire and may name *any*
    codec in the compression registry (:mod:`repro.compression`):
    ``"none"`` ships raw BF16 KV, ``"kvcomp"`` (the ``vector_tbe`` alias)
    ships Vector-TBE-compressed blocks at the analytic activation ratio,
    the entropy baselines ship their split-plane streams — override the
    analytic ratio with ``transfer_ratio``.  Compressed transfer is the
    SplitZip effect, where lossless KV compression pays off a second time
    on the interconnect.
    """

    prefill_replicas: int = bounded(1, ge=1)
    decode_replicas: int = bounded(1, ge=1)
    link_gb_per_s: float = bounded(math.inf, gt=0.0, inf_ok=True)
    link_latency_s: float = bounded(0.0, ge=0.0)
    #: A codec registry name, looked up in ``__post_init__``.
    transfer_codec: str = "none"
    #: Explicit wire compression ratio; ``None`` derives it from the
    #: codec's registry estimator (1.0 for ``"none"``).
    transfer_ratio: float | None = bounded(None, ge=1.0)
    #: ``"shared"`` — one serial FIFO channel carries every hand-off
    #: (the PR 2 model); ``"per_replica"`` — each decode replica has its
    #: own dedicated link of ``link_gb_per_s``, so transfers to
    #: different replicas overlap on the wire.
    link_topology: str = bounded("shared", choices=LINK_TOPOLOGIES)
    #: How the prefill pool runs: ``"group"`` — one whole-prompt pass
    #: per request per replica (the PR 2 model, bit-compatible default);
    #: ``"chunked"`` — each prefill replica co-schedules prompt chunks
    #: across concurrent requests under ``SchedulerLimits`` via
    #: :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.plan_step`.
    #: (Deliberately separate from the colocated-only
    #: ``ServingConfig.prefill_mode``, which existing disagg configs set
    #: without meaning to reshape the pool.)
    prefill_mode: str = bounded("group", choices=PREFILL_MODES)
    #: Analytic layer-wise prefill/transfer overlap: this fraction of a
    #: hand-off's serialization time is hidden under the tail of its
    #: prefill (early layers' KV ships while late layers still compute),
    #: so only ``1 - overlap_fraction`` of the wire time plus the link
    #: latency is paid after prefill completes.  0 (default) keeps the
    #: PR 2 no-overlap arithmetic bit-exactly.
    overlap_fraction: float = bounded(0.0, ge=0.0, le=1.0)
    #: Decode→prefill backpressure watermarks; ``None`` (default) keeps
    #: the feedback-free PR 2 pipeline.
    backpressure: BackpressureConfig | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        get_codec(self.transfer_codec)  # raises UnknownSpecError if absent


@dataclass(frozen=True)
class ServingConfig:
    """How the serving core schedules and accounts a trace run.

    The three ``*_codec`` slots make compression a first-class serving
    property: each may name any codec in the compression registry
    (:mod:`repro.compression`) and any combination is valid — raw
    weights with compressed KV and a compressed wire is a legal
    deployment.  ``None`` keeps the historical behaviour for that slot
    (backend-chosen weight scheme, engine-level ``kv_compression_ratio``,
    ``disagg.transfer_codec``), so existing configs stay bit-compatible.

    Each slot also accepts ``"auto"``: the slot is then resolved at
    config time by ``codec_policy`` (``"best_ratio"`` /
    ``"best_throughput"`` / ``"balanced"`` / ``"balanced(alpha)"`` — see
    :mod:`repro.compression.policy`), per tensor class for the weight
    slot, against the engine's (model, gpu) pair.  ``calibration``
    carries a measured :class:`~repro.compression.MeasuredRatioProfile`
    (:func:`repro.compression.calibrate`): with one set, every codec
    ratio in the run — auto-selected or named — resolves measured
    rather than analytic (explicit ratios still win over both).
    """

    #: A policy name or instance, resolved by ``get_policy`` in
    #: ``__post_init__``.
    policy: str | SchedulerPolicy = "fcfs"
    prefill_mode: str = bounded("chunked", choices=PREFILL_MODES)
    limits: SchedulerLimits = field(default_factory=SchedulerLimits)
    slo: SLOTarget = field(default_factory=SLOTarget)
    #: 0 disables cost memoization; > 0 buckets decode contexts (and
    #: prefill chunks, at a quarter of the size) to that many tokens.
    cost_bucket: int = bounded(0, ge=0)
    preemption: bool = True
    #: ``"colocated"`` runs prefill and decode on one engine
    #: (:class:`ServingCore`); ``"disaggregated"`` splits them into two
    #: pools joined by a KV-transfer link
    #: (:class:`repro.serving.disagg.DisaggregatedCore`); ``"fleet"``
    #: composes N replica instances behind a routing stage
    #: (:class:`repro.serving.fleet.FleetCore`), geometry in ``fleet``.
    mode: str = bounded("colocated", choices=SERVING_MODES)
    disagg: DisaggConfig = field(default_factory=DisaggConfig)
    #: Fleet geometry and routing
    #: (:class:`repro.serving.fleet.FleetConfig`); defaults to a
    #: two-replica round-robin fleet when ``mode="fleet"``, ignored
    #: otherwise.  (Typed ``object`` to keep the import lazy — the
    #: fleet layer builds on this module.)
    fleet: object = None
    #: Weight storage/execution codec (``None`` = the backend's scheme;
    #: ``"auto"`` = per-layer-class policy selection).
    weight_codec: str | None = None
    #: KV-cache residency codec (``None`` = the engine's construction-time
    #: ``kv_compression_ratio``; ``"none"`` forces raw KV; ``"auto"`` =
    #: policy selection).
    kv_codec: str | None = None
    #: Disaggregation wire codec (``None`` = ``disagg.transfer_codec``;
    #: ``"auto"`` = policy selection).
    transfer_codec: str | None = None
    #: Codec-selection policy used by ``"auto"`` slots — a name parsed
    #: by :func:`repro.compression.get_codec_policy` or a
    #: :class:`~repro.compression.CodecPolicy` instance.
    codec_policy: object = "balanced"
    #: Measured calibration profile
    #: (:class:`~repro.compression.MeasuredRatioProfile`); ``None``
    #: keeps analytic ratio resolution (bit-compatible).
    calibration: object = None
    #: Prefix-cache provisioning
    #: (:class:`~repro.serving.prefixcache.PrefixCacheConfig`): carve a
    #: fraction of the KV budget into a two-tier session-prefix cache so
    #: repeated prompts skip their cached prefill.  Applies to every
    #: topology (per-replica caches in fleet and disaggregated chunked-
    #: prefill pools).  ``None`` (default) disables the cache and keeps
    #: every existing config bit-compatible.
    prefix_cache: PrefixCacheConfig | None = None
    #: Telemetry capture (:class:`~repro.serving.telemetry.TelemetryConfig`):
    #: per-request spans, sim-time metric timelines and latency
    #: attribution, surfaced on ``ContinuousResult.telemetry``.  ``None``
    #: (default) records nothing and costs nothing — the clock
    #: arithmetic is bit-identical either way (telemetry only *reads*
    #: simulation state).
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        for slot in (self.weight_codec, self.kv_codec, self.transfer_codec):
            if slot is not None and slot != AUTO_CODEC:
                get_codec(slot)  # raises UnknownSpecError if absent
        if self.mode == "fleet" or self.fleet is not None:
            # Imported lazily: the fleet layer builds on this module.
            from .fleet import FleetConfig

            if self.fleet is None:
                object.__setattr__(self, "fleet", FleetConfig())
            elif not isinstance(self.fleet, FleetConfig):
                raise ConfigError(
                    f"fleet must be a FleetConfig, got {self.fleet!r}"
                )
        # Bad policy names fail at config construction, not at the first
        # serve() (or, for the codec policy, its first "auto" slot).
        get_policy(self.policy)
        get_codec_policy(self.codec_policy)

    @property
    def auto_slots(self) -> tuple[str, ...]:
        """Which codec slots are set to ``"auto"``."""
        prefix_slot = (
            self.prefix_cache.codec
            if self.prefix_cache is not None else None
        )
        return tuple(
            name for name, slot in (
                ("weight", self.weight_codec),
                ("kv", self.kv_codec),
                ("transfer", self.transfer_codec),
                ("prefix", prefix_slot),
            )
            if slot == AUTO_CODEC
        )

    @property
    def resolved_transfer_codec(self) -> str:
        """The wire codec name after slot fallback."""
        return (
            self.transfer_codec
            if self.transfer_codec is not None
            else self.disagg.transfer_codec
        )

    def with_limits(self, limits: SchedulerLimits | None) -> "ServingConfig":
        """A copy with ``limits`` swapped in (if given)."""
        return self if limits is None else replace(self, limits=limits)


def _discover_gpu(costs):
    """The GpuSpec a cost model prices on, if reachable (memoization
    wrappers keep it on their inner model)."""
    gpu = getattr(costs, "gpu", None)
    if gpu is None:
        gpu = getattr(getattr(costs, "inner", None), "gpu", None)
    return gpu


def build_prefix_cache(
    config: ServingConfig, kv_spec, kv_bytes: float, costs,
) -> tuple[PrefixCache | None, float]:
    """Provision one engine's prefix cache from its serving config.

    Returns ``(cache, batch_kv_bytes)``: the cache holds
    ``capacity_frac`` of ``kv_bytes`` and the block allocator gets the
    remainder — cache capacity is charged against the KV memory plan,
    never conjured.  With ``config.prefix_cache=None`` this is the
    identity: ``(None, kv_bytes)``, the bit-compatibility fast path
    every topology shares.

    The cold tier's codec resolves like every other slot:
    ``InferenceEngine.serve`` settles ``"auto"`` at config time; a core
    constructed directly resolves it here through ``codec_policy``
    against the cost model's GPU (same policy, same placement class,
    same answer).  Ratios honour ``config.calibration``.
    """
    pc = config.prefix_cache
    if pc is None:
        return None, kv_bytes
    cache_bytes = kv_bytes * pc.capacity_frac
    cold_ratio, cold_s = 1.0, 0.0
    if pc.codec is not None:
        codec = pc.codec
        gpu = _discover_gpu(costs)
        if codec == AUTO_CODEC:
            if gpu is None:
                raise ConfigError(
                    "prefix codec 'auto' needs a GPU-bearing cost model"
                    " to resolve; name the codec explicitly"
                )
            spec = get_codec_policy(config.codec_policy).select(
                "prefix", gpu, profile=config.calibration,
                sigma=ACTIVATION_SIGMA, cls="prefix:block",
            )
        else:
            spec = resolve_spec(
                codec, "prefix", sigma=ACTIVATION_SIGMA,
                cls="prefix:block", profile=config.calibration,
            )
        cold_ratio = spec.ratio
        cold_s = cold_hit_seconds_per_token(
            kv_spec, spec.codec, cold_ratio, gpu
        )
    cache = PrefixCache(
        kv_spec, cache_bytes,
        hot_frac=pc.hot_frac,
        cold_ratio=cold_ratio,
        cold_hit_s_per_token=cold_s,
    )
    return cache, kv_bytes - cache_bytes


class EngineReplica:
    """One continuous-batching engine: the iteration every topology runs.

    Owns one engine's scheduler, prefix cache (carved out of its KV
    budget by :func:`build_prefix_cache`), pending heap of
    ``(arrival_s, request_id, request)``, clock and counters.
    :meth:`step` is the one chunked-prefill iteration — submit, admit,
    plan, preempt, cold-tier delay, price, then one step or a
    fast-forward window, then sample — shared by the colocated engine
    (:class:`ColocatedStage`) and the disaggregated prefill and decode
    replicas (:mod:`repro.serving.disagg`).  Subclasses override only
    where their role differs:

    * :meth:`_admit` — admission; returns whether a gate holds it back;
    * :meth:`_idle` — an empty plan with nothing pending (raise on
      stranded work, or quiesce);
    * :meth:`_after_step` — after each committed step or window segment
      (sample peak KV occupancy, or hand finished prefills downstream);
    * :meth:`_step_span` — the telemetry span of a single step.

    ``horizon`` is an optional callable returning the next event this
    engine cannot see.  For a fleet cell that is the router's next
    arrival and the autoscaler's next tick, or only the cell's own next
    arrival when the router routed the trace ahead
    (:meth:`~repro.serving.router.RouterStage.route_ahead`); for a
    decode replica, its pool's upstream stages' next events, the
    cell's fleet-side events included.  A fast-forward window takes no
    step that starts at or after it; it is polled after pricing on
    every step with bucketed costs (``cost_bucket > 0``), the only steps
    that can open a window.  ``horizon is None`` promises more: every
    future arrival already sits in ``pending``.  An engine that is also the
    only stage of its kernel (``ServingCore``'s engine) then owns all
    the state its next iteration reads, so :func:`run_decode_window`
    may replay that iteration inline when its head is a provable no-op
    (see there).
    """

    #: Whether the engine carves a prefix cache out of its KV budget
    #: (decode replicas receive their KV over the link: nothing to skip).
    carves_prefix_cache = True
    #: The :class:`~repro.serving.kernel.EventKernel` running this
    #: engine (its ``until`` bounds every window); a stage's own, a pool
    #: replica's that of its pool.
    _kernel = None

    def __init__(
        self,
        name: str,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
    ):
        self.name = name
        self.costs = costs
        self.config = config
        # Per-step price in seconds: the memoized model's float table,
        # or an exact model's ``mixed_step(...).total_s``.
        price = getattr(costs, "mixed_step_s", None)
        if price is None:
            def price(*shape):
                return costs.mixed_step(*shape).total_s
        self._price = price
        cache, batch_bytes = (
            build_prefix_cache(config, kv_spec, kv_bytes, costs)
            if self.carves_prefix_cache else (None, kv_bytes)
        )
        self.prefix_cache = cache
        self.scheduler = ContinuousBatchScheduler(
            PagedKVCache(kv_spec, batch_bytes), config.limits,
            config.policy, prefix_cache=cache,
        )
        self.pending: list[tuple[float, int, Request]] = []
        self.clock = 0.0
        self.n_steps = 0
        self.peak_running = 0
        #: Accumulated compute time and peak KV occupancy — pure
        #: accounting, never consulted by the clock arithmetic.
        self.busy_s = 0.0
        self.peak_kv_frac = 0.0
        self.horizon = None
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder`,
        #: also attached to the scheduler (and cache) so their events
        #: carry sim time on this engine's lanes.
        self._rec = recorder
        if recorder is not None:
            self.scheduler.telemetry = recorder
            self.scheduler.track = name
            if cache is not None:
                cache.telemetry = recorder
                # The bare colocated engine keeps its historical lane.
                cache.track = "cache" if name == "engine" else f"{name}/cache"

    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """One scheduling iteration of this engine (kernel time ``now``)."""
        scheduler, pending, config = self.scheduler, self.pending, self.config
        rec = self._rec
        if rec is not None:
            scheduler._now = self.clock
        while pending and pending[0][0] <= self.clock:
            scheduler.submit(heappop(pending)[2])
        gated = self._admit(now)
        plan = scheduler.plan_step()
        victims = None
        if config.preemption and plan.decode:
            victims = scheduler.ensure_decode_capacity(plan.decode)
            if victims:
                plan.drop(victims)
        if plan.empty:
            if pending:
                self.clock = max(self.clock, pending[0][0])
            else:
                self._idle(gated)
            return
        self.peak_running = max(self.peak_running, len(scheduler.running))
        if scheduler.prefix_cache is not None:
            self._charge_cache_delay()
        step_s = self._price(
            len(plan.decode),
            max(plan.mean_decode_ctx, 1),
            plan.n_prefill_seqs,
            plan.n_prefill_tokens,
        )
        bucket = config.cost_bucket
        # A preemption freed KV after this iteration's admission attempt:
        # when the queue head now fits, the next iteration admits it, so
        # no window may open past this step.
        if bucket > 0 and not (victims and not scheduler.admission_blocked()):
            next_event = pending[0][0] if pending else None
            if self.horizon is not None:
                h = self.horizon()
                if h is not None and (next_event is None or h < next_event):
                    next_event = h
            kernel = self._kernel
            k = decode_window_len(
                scheduler, plan, next_event,
                None if kernel is None else kernel.until,
                self.clock, step_s, bucket,
            )
            if k > 1:
                # The window closes every iteration it runs, this one too.
                run_decode_window(self, plan, next_event, step_s, k)
                return
        if rec is not None:
            self._step_span(plan, step_s)
        self.clock += step_s
        self.busy_s += step_s
        self.n_steps += 1
        scheduler.apply_step(plan, self.clock)
        self._after_step()
        if rec is not None:
            rec.sample_engine(self.name, self.clock, scheduler)

    def _close_iteration(
        self, clock: float, segments: list[tuple[float, int]], batch: int,
        one_step: bool,
    ) -> None:
        """End an iteration :func:`run_decode_window` ran, at ``clock``.

        Adds every step to ``busy_s`` one ``+= step_s`` at a time, the
        stepwise loop's float sequence, and counts it in ``n_steps``;
        records a window's ``decode`` spans as one row of its segments
        (a one-step iteration emitted its ``step`` span before its
        commit), moves the clock and takes the iteration's one engine
        sample.
        """
        busy_s = self.busy_s
        for step_s, k in segments:
            for _ in range(k):
                busy_s += step_s
            self.n_steps += k
        self.busy_s = busy_s
        rec = self._rec
        if rec is not None:
            if not one_step:
                rec.span(self.clock, 0.0, "decode", self.name,
                         ("batch", batch), tuple(segments))
            rec.sample_engine(self.name, clock, self.scheduler)
        self.clock = clock

    def _replay_head(self) -> bool:
        """Run the next iteration's head inline, at ``self.clock``.

        :func:`run_decode_window` calls this only at or before the
        kernel's deadline.  Submit the arrivals due now, then report
        whether admission is a provable no-op — the queue is empty or
        its head does not fit (the scheduler's ``admission_blocked``,
        the predicate ``admit`` itself stops at).  On success the
        kernel's clock moves to the iteration's start, as if it had
        advanced this stage there.  On failure the submitted arrivals
        simply wait for the next kernel advance, whose head finds
        nothing left to submit.
        """
        clock = self.clock
        scheduler, pending = self.scheduler, self.pending
        if self._rec is not None:
            scheduler._now = clock
        while pending and pending[0][0] <= clock:
            scheduler.submit(heappop(pending)[2])
        if not scheduler.admission_blocked():
            return False
        self._kernel.now = clock
        return True

    # -- override points -----------------------------------------------
    def _admit(self, now: float) -> bool:
        """Admit what fits; returns whether a gate holds admission back."""
        raise NotImplementedError

    def _idle(self, gated: bool) -> None:
        """Nothing to run and nothing pending: queued work is stranded
        unless a gate holds it (the gate's owner reports it then)."""
        if not gated and self.scheduler.has_work:
            _raise_stranded(self.scheduler)

    def _after_step(self) -> None:
        kv = self.scheduler.kv
        frac = kv.used_blocks / kv.n_blocks
        if frac > self.peak_kv_frac:
            self.peak_kv_frac = frac

    def _step_span(self, plan, step_s: float) -> None:
        self._rec.span(
            self.clock, step_s, "step", self.name,
            ("decode", len(plan.decode),
             "prefill_tokens", plan.n_prefill_tokens),
        )

    def _charge_cache_delay(self) -> None:
        """Charge cold-tier prefix hits' decompress stream to the clock.

        Called before the pass that prefills the admitted prompts, so
        the restored KV exists when their first uncached token runs.
        Cache-off schedulers never enter (zero extra float ops on the
        bit-compat path).
        """
        delay_s = self.scheduler.consume_cache_delay()
        if delay_s > 0.0:
            if self._rec is not None:
                self._rec.span(self.clock, delay_s, "decompress", self.name)
            self.clock += delay_s
            self.busy_s += delay_s


class ColocatedStage(EngineReplica, Stage):
    """The colocated engine: one event-kernel stage, and one fleet cell.

    Each :meth:`advance` performs exactly one iteration of the
    historical ``ServingCore`` clock loop — :meth:`EngineReplica.step`
    for chunked prefill, the seed-compatible whole-prompt body for group
    prefill — so the float operations run in the same order as the
    pre-kernel ``while`` loop.  While it holds work its next event is
    its own clock.

    A *cell* is one engine instance the fleet router delivers to:
    ``ServingCore`` runs one bare cell (``index=None``, lane
    ``engine``); ``FleetCore`` builds cell ``i`` as ``engine[i]``.
    :meth:`deliver` commits a request's landing footprint so
    :meth:`kv_occupancy` sees routed work before any KV is allocated;
    the commitment retires at the request's first admission.
    """

    mode = "colocated"
    stall_s = 0.0

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig,
        recorder=None,
        index: int | None = None,
    ):
        super().__init__(
            "engine" if index is None else f"engine[{index}]",
            costs, kv_spec, kv_bytes, config, recorder,
        )
        self.index = index
        self.stages = (self,)
        self.block_size = kv_spec.block_size
        self.committed_blocks = 0
        self.n_routed = 0
        #: When this cell (became / will become) active; ``None`` =
        #: standby or drained.  Set by the fleet core and autoscaler.
        self.active_since: float | None = None
        self._body = (
            self._advance_group if config.prefill_mode == "group"
            else self.step
        )

    # ------------------------------------------------------------------
    def next_event_time(self) -> float | None:
        if not self.pending and not self.scheduler.has_work:
            return None
        return self.clock

    def advance(self, now: float) -> None:
        self._body(now)

    def _admit(self, now: float) -> bool:
        if self.scheduler.waiting:
            self._retire(self.scheduler.admit(enforce_token_budget=False))
        return False

    def _retire(self, admitted: list[Request]) -> None:
        """Retire router commitments at each request's first admission."""
        for req in admitted:
            if req.n_preemptions == 0:
                self.committed_blocks -= ceil_div(
                    req.prompt_len, self.block_size
                )

    def _advance_group(self, now: float) -> None:
        """One iteration of the seed-compatible whole-prompt-prefill loop."""
        scheduler, pending = self.scheduler, self.pending
        rec = self._rec
        if rec is not None:
            scheduler._now = self.clock
        while pending and pending[0][0] <= self.clock:
            scheduler.submit(heappop(pending)[2])
        admitted = scheduler.admit()
        self._retire(admitted)
        if admitted:
            if scheduler.prefix_cache is not None:
                self._charge_cache_delay()
            prompt = max(r.prefill_remaining for r in admitted)
            step_s = self.costs.prefill_step(len(admitted), prompt).total_s
            if rec is not None:
                rec.span(self.clock, step_s, "prefill", self.name,
                         ("batch", len(admitted), "tokens", prompt))
            self.clock += step_s
            self.busy_s += step_s
            for req in admitted:
                req.prefill_remaining = 0
                if req.first_token_s is None:
                    req.first_token_s = self.clock
                if rec is not None:
                    rec.transition(req, self.clock, "decode")
        if not scheduler.running:
            if pending:
                self.clock = max(self.clock, pending[0][0])
            else:
                self._idle(False)
            return
        if self.config.preemption:
            if rec is not None:
                scheduler._now = self.clock
            scheduler.ensure_decode_capacity(list(scheduler.running))
        batch = len(scheduler.running)
        self.peak_running = max(self.peak_running, batch)
        mean_ctx = int(
            sum(r.context_len for r in scheduler.running) / batch
        )
        step_s = self.costs.decode_step(batch, max(mean_ctx, 1)).total_s
        if rec is not None:
            rec.span(self.clock, step_s, "decode", self.name,
                     ("batch", batch))
        self.clock += step_s
        self.busy_s += step_s
        self.n_steps += 1
        if rec is not None:
            scheduler._now = self.clock
        for req in scheduler.step():
            if req.done:
                req.finish_s = self.clock
                if rec is not None:
                    rec.on_finish(req, self.clock, self.name)
        self._after_step()
        if rec is not None:
            rec.sample_engine(self.name, self.clock, scheduler)

    # -- router surface -------------------------------------------------
    def attach_router(self, upstream) -> None:
        """Cap this cell's windows at the next event of ``upstream``.

        That is the fleet's router and autoscaler, whose every arrival
        and tick may read the cell's state, or, when the router routed
        the trace ahead, only the cell's own arrival schedule
        (:meth:`~repro.serving.router.RouterStage.route_ahead`).
        """
        self.horizon = partial(next_event_among, upstream)

    def is_active(self, now: float) -> bool:
        return self.active_since is not None and self.active_since <= now

    def deliver(self, req: Request) -> None:
        """Queue a routed request and commit its landing footprint."""
        heappush(self.pending, (req.arrival_s, req.request_id, req))
        self.n_routed += 1
        self.committed_blocks += ceil_div(req.prompt_len, self.block_size)

    @property
    def n_outstanding(self) -> int:
        return self.n_routed - len(self.scheduler.finished)

    def kv_occupancy(self) -> float:
        """Projected block occupancy: allocated + router-committed."""
        kv = self.scheduler.kv
        return (kv.used_blocks + self.committed_blocks) / max(
            kv.n_blocks, 1
        )

    # -- result surface -------------------------------------------------
    @property
    def finished(self) -> list[Request]:
        return self.scheduler.finished

    @property
    def n_preemptions(self) -> int:
        return self.scheduler.n_preemptions

    def cache_stats(self) -> list:
        """This cell's prefix-cache counters (empty when cache off)."""
        cache = self.prefix_cache
        return [] if cache is None else [cache.stats()]

    def stats(self, makespan_s: float) -> ReplicaStats:
        """The cell's fleet row: routing counts and its one engine pool."""
        pool = PoolStats.from_busy(
            f"replica{self.index}/engine", [self.busy_s], makespan_s,
            n_steps=self.n_steps, peak_kv_frac=self.peak_kv_frac,
        )
        return ReplicaStats(
            index=self.index,
            mode=self.mode,
            n_routed=self.n_routed,
            n_finished=len(self.finished),
            n_unfinished=self.n_outstanding,
            pools=(pool,),
        )


class ServingCore:
    """Event-driven continuous-batching simulator (colocated topology)."""

    def __init__(
        self,
        costs: StepCostModel,
        kv_spec: KVCacheSpec,
        kv_bytes: float,
        config: ServingConfig | None = None,
    ):
        self.config = config or ServingConfig()
        if self.config.mode != "colocated":
            # Mirror of DisaggregatedCore's guard: running a
            # disaggregated config colocated would silently ignore the
            # pool geometry and link costs.
            raise ConfigError(
                "ServingCore requires mode='colocated', got"
                f" {self.config.mode!r}; use DisaggregatedCore (or"
                " InferenceEngine.serve, which routes on mode)"
            )
        self.costs = maybe_memoize(costs, self.config.cost_bucket)
        self.kv_spec = kv_spec
        self.kv_bytes = kv_bytes

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[Request],
        deadline_s: float | None = None,
    ) -> ContinuousResult:
        """Replay a request trace; returns the full metrics picture.

        ``deadline_s`` bounds the simulation: the kernel stops before
        the first event past it, and everything still pending, waiting
        or running is counted in the result's ``n_unfinished`` (with
        partial timings for requests that produced a first token)
        instead of being simulated to completion.  ``None`` (default)
        keeps the historical run-to-completion behaviour bit-exactly —
        including the stranded-request :class:`~repro.errors.CapacityError`,
        which a deadline run skips (a backlog at the deadline is the
        measured outcome, not a bug).
        """
        if not requests:
            raise ConfigError("serve needs at least one request")
        rec = build_recorder(self.config.telemetry)
        stage = ColocatedStage(
            self.costs, self.kv_spec, self.kv_bytes, self.config,
            recorder=rec,
        )
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.request_id)):
            if rec is not None:
                rec.on_arrival(req, track=stage.name)
            stage.deliver(req)
        EventKernel([stage], recorder=rec).run(until=deadline_s)
        scheduler, cache = stage.scheduler, stage.prefix_cache
        unfinished = (
            [req for *_, req in sorted(stage.pending)]
            + scheduler.waiting + scheduler.running
        )
        return ContinuousResult.from_run(
            scheduler.finished,
            makespan_s=stage.clock,
            n_steps=stage.n_steps,
            peak_running=stage.peak_running,
            slo=self.config.slo,
            n_preemptions=scheduler.n_preemptions,
            policy=scheduler.policy.name,
            prefill_mode=self.config.prefill_mode,
            unfinished=unfinished,
            deadline_s=deadline_s,
            prefix_cache=cache.stats() if cache is not None else None,
            telemetry=rec,
        )


def next_event_among(stages) -> float | None:
    """The earliest next event of ``stages`` (``None``: none has one)."""
    times = [t for s in stages if (t := s.next_event_time()) is not None]
    return min(times) if times else None


def decode_window_len(
    scheduler: ContinuousBatchScheduler,
    plan,
    next_event_s: float | None,
    until: float | None,
    clock: float,
    step_s: float,
    bucket: int,
) -> int:
    """Steps the current decode-only plan can repeat unchanged.

    Called only by :meth:`EngineReplica.step`, the one engine iteration
    of every topology.  Only meaningful with bucketed costs
    (``bucket > 0``): inside a context bucket every decode step of a
    stable batch prices identically, so a loop may advance ``k`` steps
    in one shot.  The window ends at the first event that would change
    the plan or its price: a request finishing, the mean context
    crossing a bucket edge, KV needing more blocks than are free
    (conservative — fall back to stepping so preemption logic runs), or
    the next external event at ``next_event_s`` (an arrival, a KV
    landing on a decode replica, or the next advance of a stage that
    could deliver one or reads this engine's state).  It takes every
    step that *starts* before ``next_event_s`` and no later than the
    kernel's deadline ``until`` (:func:`_segment_len`): exactly the
    steps the stepwise loop runs before the kernel processes that
    event, the one that crosses it included.  Exact costs
    (``bucket == 0``) always step one at a time, since every step then
    prices differently.

    A non-empty waiting queue does not end the window: admission was
    just attempted and blocked, and with no arrivals, finishes or frees
    inside the window the blocker (sequence slots, or free KV, which
    only shrinks while decode grows) persists until the window's last
    step — exactly when the stepwise loop would next admit.  (The
    caller opens no window in an iteration whose preemption freed KV
    the queue head now fits into.)
    """
    if (
        bucket <= 0
        or plan.prefill
        or not plan.decode
        or len(plan.decode) != len(scheduler.running)
    ):
        return 1
    k = min(r.max_new_tokens - r.generated for r in plan.decode)
    mean_ctx = max(plan.mean_decode_ctx, 1)
    k = min(k, ceil_div(mean_ctx, bucket) * bucket - mean_ctx + 1)
    if k <= 1:
        return 1
    return _segment_len(
        scheduler.kv, [r.request_id for r in plan.decode], k,
        next_event_s, until, clock, step_s,
    )


def run_decode_window(
    engine: EngineReplica,
    plan,
    next_event_s: float | None,
    step_s: float,
    k: int,
) -> None:
    """Advance the widest fast-forward window: chained bucketed segments.

    Called by :meth:`EngineReplica.step` once :func:`decode_window_len`
    opened a window of ``k > 1`` steps priced ``step_s``; every
    iteration run here also closes here
    (:meth:`EngineReplica._close_iteration`).
    The stepwise simulator pays a full scheduling iteration — arrival
    submit, admission attempt, ``plan_step``, capacity check, step
    pricing — for every step, even when each of those is provably a
    no-op.  This helper chains segments inside one stage advance while
    the no-op proof holds:

    * **no arrivals/landings** — every step starts before
      ``next_event_s`` (the caller folds its horizon in), so no submits
      happen and, with no finishes either, admission's blocker
      (sequence slots, or free KV, which only shrinks while decode
      grows) persists — the attempt stays a no-op.
    * **no preemptions** — chaining continues only where
      ``ensure_decode_capacity`` would return without acting.
    * **same plan** — no finishes and a no-op admission leave the
      running set (and its order) untouched, so ``plan_step`` would
      rebuild exactly this decode set with contexts one segment older.

    **Inline iterations.**  The window's iteration ends where the next
    arrival is due or the next segment would be a single step (it
    takes a request's last token, crosses a bucket edge, or is all the
    KV holds).  An engine with no horizon that is its kernel's only
    stage — the lone colocated engine, whose future arrivals all sit in
    ``pending`` — then replays the next iteration inline whenever its
    head is a provable no-op: the arrivals due at its start are
    submitted and nothing is admissible
    (:meth:`EngineReplica._replay_head`), no request finished, and every
    sequence can grow by one token.  That head is checked at every
    boundary, not only at arrivals.  The replay takes ``k`` from
    :func:`decode_window_len`'s formula and keeps the price (past a
    bucket edge, from this window's bucket-edge table); a one-step
    iteration is its own ``(step_s, 1)`` segment, committed like
    ``apply_step`` after its ``step`` span.  Each iteration closes as a
    kernel-driven one does: ``decode`` spans after a window, then one
    engine sample before the next head submits.  Any other engine, or
    a head that is not a no-op, returns to the kernel without
    committing further work, and the next kernel advance runs the
    unmodified stepwise body from an identical scheduler state — so
    stopping early is always bit-safe.

    **Scalar window.**  Every request advances by the same ``k`` per
    segment, so the first finish (``min_rem``) and the mean context
    (``plan.decode_ctx_sum``) are tracked as scalars; ``Request``
    objects are only touched by the scheduler's per-segment
    :meth:`~repro.serving.scheduler.ContinuousBatchScheduler.commit_decode`.

    **Float discipline**: the clock advances one ``+= step_s`` per
    step, and :meth:`EngineReplica._close_iteration` replays the same
    adds into ``busy_s`` — the stepwise loop's own float sequence, so
    every stamp equals the stepwise run's.  No step starts after the
    kernel's ``until``.  The engine prices with the bucketed model
    (``maybe_memoize`` at ``cost_bucket > 0``), so a segment that stays
    inside its context bucket keeps its price.  At the window's first
    bucket-edge crossing, ``engine._price`` fills a table with the
    decode-only price of every edge the window can still reach — the
    same query, at the same bucketed context, the stepwise body makes
    there — and later segments read it.  The engine's post-step hook
    samples occupancy after each segment's commit and, in a segment
    that takes a last token, also before that step frees its KV: the
    samples the stepwise loop's maximum is taken over.
    """
    scheduler = engine.scheduler
    bucket, preemption = engine.config.cost_bucket, engine.config.preemption
    kernel = engine._kernel
    until = None if kernel is None else kernel.until
    replay = (
        engine.horizon is None
        and kernel is not None
        and len(kernel.stages) == 1
    )
    decode = plan.decode
    batch = len(decode)
    ids = [r.request_id for r in decode]
    kv = scheduler.kv
    min_rem = min(r.max_new_tokens - r.generated for r in decode)
    edge = ceil_div(max(plan.mean_decode_ctx, 1), bucket) * bucket
    # Filled on the first bucket-edge crossing: most windows end at the
    # next arrival inside their first bucket and never need it.
    prices: dict[int, float] | None = None
    clock = engine.clock
    segments: list[tuple[float, int]] = []
    one_step = False
    while True:
        min_rem -= k
        for _ in range(k - 1):
            clock += step_s
        last = k
        if min_rem <= 0 and k > 1:
            # The last step frees the finished requests' KV: sample the
            # occupancy before it, as the stepwise loop does.
            scheduler.commit_decode(decode, ids, k - 1, clock, False)
            engine._after_step()
            last = 1
        clock += step_s
        scheduler.commit_decode(decode, ids, last, clock, min_rem <= 0)
        segments.append((step_s, k))
        plan.decode_ctx_sum += batch * k
        engine._after_step()
        if min_rem <= 0 or (until is not None and clock > until):
            break
        if (preemption or replay) and not kv.can_append(ids, 1):
            break
        due = next_event_s is not None and next_event_s <= clock
        if due and not replay:
            break
        mean_ctx = max(plan.mean_decode_ctx, 1)
        if mean_ctx > edge:
            edge = ceil_div(mean_ctx, bucket) * bucket
            if prices is None:
                hi = ceil_div(mean_ctx + min_rem, bucket) * bucket
                prices = {
                    e: engine._price(batch, e, 0, 0)
                    for e in range(edge, hi + bucket, bucket)
                }
            step_s = prices[edge]
        # A due arrival or a finished one-step iteration always ends the
        # iteration; otherwise only a one-step next segment does.
        boundary = due or one_step
        if not boundary:
            k = _segment_len(
                kv, ids, min(min_rem, edge - mean_ctx + 1), next_event_s,
                until, clock, step_s,
            )
            if k > 1:
                continue
            if not replay:
                # Other engines leave the one-step segment to the
                # stepwise body of the next kernel advance.
                break
        engine._close_iteration(clock, segments, batch, one_step)
        segments = []
        if not engine._replay_head():
            return
        if boundary:
            pending = engine.pending
            next_event_s = pending[0][0] if pending else None
            k = _segment_len(
                kv, ids, min(min_rem, edge - mean_ctx + 1), next_event_s,
                until, clock, step_s,
            )
        one_step = k == 1
        if one_step and engine._rec is not None:
            engine._step_span(plan, step_s)
    engine._close_iteration(clock, segments, batch, one_step)


def _segment_len(kv, ids, k, next_event_s, until, clock, step_s) -> int:
    """Cap a window segment of up to ``k`` steps, the first starting at
    ``clock``: keep the steps that start before ``next_event_s`` and no
    later than ``until``, each one ``+= step_s`` after the last, then
    check the KV its sequences can still grow into (the tail of
    :func:`decode_window_len`'s formula)."""
    if next_event_s is not None or until is not None:
        stop = math.inf if next_event_s is None else next_event_s
        last = math.inf if until is None else until
        n, t = 1, clock + step_s
        while n < k and t < stop and t <= last:
            n += 1
            t += step_s
        k = n
    if k > 1 and not kv.can_append(ids, k):
        return 1
    return k
