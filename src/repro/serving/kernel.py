"""The event-driven simulation kernel shared by every serving topology.

Before this module existed the repository had two hand-rolled clock
loops: :class:`~repro.serving.serve.ServingCore` drove one colocated
engine, and :class:`~repro.serving.disagg.DisaggregatedCore` simulated
its prefill pool, transfer link and decode pool *in sequence* — legal
only because nothing fed back from decode to prefill.  Backpressure,
per-replica links and chunked prefill inside the prefill pool all break
that one-way assumption, so the loops were unified here instead: one
kernel, pluggable **stages**, requests flowing through explicit stage
queues.

A :class:`Stage` owns a piece of the pipeline (an engine pool, a
transfer link) and exposes exactly two verbs:

* :meth:`Stage.next_event_time` — when this stage can next do work
  (``None`` when it has nothing runnable and nothing scheduled — e.g.
  idle, or stalled on another stage's state);
* :meth:`Stage.advance` — perform the work due at ``now``.

:class:`EventKernel` interleaves them: each iteration it takes the
minimum next-event time across stages and advances, **in stage order**,
every stage whose event is due.  Stage order is upstream→downstream
(prefill, link, decode), so a hand-off produced at time ``t`` is visible
to the next stage within the same instant — exactly the causality the
old sequential simulation got for free by running stages to completion
one after another.  Reverse-direction coupling (decode→prefill
backpressure) takes one explicit wake-up: a stalled upstream stage
returns ``None``, and the stages whose state its stall reads call its
:meth:`Stage.wake` after every advance, so it resumes the moment the
watermark clears.

Event extraction is **heap-driven and notify-driven**.  The kernel
caches each stage's last reported event time in a min-heap and
re-polls a stage only when its answer may have changed:

* the stage was just advanced (its own state changed);
* the stage called :meth:`Stage.notify` — or another stage called it on
  the stage's behalf — after an external state change (a hand-off
  delivered into its queue);
* another stage called its :meth:`Stage.wake` while its cached answer
  was ``None`` (state its stall condition reads may have changed).

An iteration costs O(stages that changed), not O(stages): an idle
stage is not polled again until something notifies or wakes it.  Due
stages are popped off the heap and sorted into stage order; stale heap
entries are skipped on pop via per-stage generation counters (lazy
deletion).  As those three events are the only ways an answer changes,
each iteration's due set equals what polling every idle stage every
iteration would find.  ``wake`` leaves a cached time alone on purpose:
re-polling a gated stage with an event of its own could resume it early.

Invariants (tested in ``tests/test_kernel.py``):

* **time is monotone** — the kernel clamps stage-reported times to its
  own clock, so a stage waking from a stall can never rewind the run;
* **progress** — a stage advanced at its own event time must either do
  work or move its internal clock; the kernel raises
  :class:`~repro.errors.SchedulingError` instead of spinning if the
  pipeline stops making progress at one instant;
* **no silent exits** — after the loop drains, every stage's
  :meth:`Stage.finish` hook runs; stages still holding requests raise
  there (:class:`~repro.errors.CapacityError`), so a backpressure
  deadlock or an unservable request can never be dropped;
* **inline iterations keep ``until`` and ``now`` exact** — a stage that
  is its kernel's only stage and owns every future event (the lone
  colocated engine) may run several of its iterations inside one
  advance (:func:`~repro.serving.serve.run_decode_window`).  It starts
  each one only at or before :attr:`EventKernel.until`, and moves
  :attr:`EventKernel.now` to that start, so the deadline cut and the
  ``kernel/now`` gauge read as if the kernel had advanced every
  iteration itself; only the ``kernel/*`` counters see fewer advances;
* **bit-compatibility** — with exact costs (``cost_bucket=0``),
  backpressure off, a shared link and whole-prompt pool prefill, the
  interleaved schedule reproduces the old sequential simulation's floats
  bit-exactly (the stages perform the same float operations in the same
  order; the kernel only re-orders *between* stages, which the one-way
  data flow makes commutative).  Under bucketed costs a decode stage's
  fast-forward window is additionally capped at the upstream stages'
  next event (the interleaved kernel cannot see hand-offs that have not
  been scheduled yet), which may split a window the sequential
  simulation took whole — token counts are unchanged; step counts and
  stamps agree to within the one-step boundary shifts float
  accumulation can introduce (the same approximation contract bucketed
  costs already had versus stepwise execution).
"""

from __future__ import annotations

import heapq

from ..errors import SchedulingError

__all__ = ["Stage", "EventKernel"]

#: Advancing this many consecutive kernel iterations without the clock
#: moving means a stage is reporting events it never retires — a stage
#: bug, not a workload property (same-instant cascades are bounded by
#: the number of queued work items).
_MAX_STALLED_ITERATIONS = 1_000_000


class Stage:
    """One pipeline stage of an event-driven serving simulation.

    Subclasses own their internal clocks and queues; the kernel only
    ever asks *when* they next have something to do and tells them to
    do it.  Contract:

    * :meth:`next_event_time` must be side-effect-free and may be
      called any number of times between advances;
    * returned times must not decrease except after an external state
      change (another stage delivering work, or a backpressure
      watermark clearing) — the kernel clamps such wake-ups to its own
      monotone clock;
    * :meth:`advance` called at the stage's own event time must make
      progress: commit work, or move the stage's internal clock
      strictly forward;
    * a stage that mutates *another* stage's queues mid-advance (a
      hand-off) must call :meth:`notify` on the receiver: the kernel
      never re-polls an idle stage unprompted, so a missed notification
      strands the delivery (the receiver's :meth:`finish` reports it);
    * a ``None`` answer that reads another stage's state (a stall) needs
      that stage to call :meth:`wake` after every advance.
    """

    #: Human-readable stage name (used in error messages and stats).
    name = "stage"

    def notify(self) -> None:
        """Mark this stage's cached next-event time stale.

        Called (by the stage itself or by a peer delivering work into
        it) after an external state change that may move the stage's
        next event *earlier*.  Outside a running kernel this is a
        no-op, so stages may call it unconditionally.
        """
        kernel = getattr(self, "_kernel", None)
        if kernel is not None:
            kernel.invalidate(self)

    def wake(self) -> None:
        """Re-poll this stage if its last kernel answer was ``None``.

        Called by a stage whose advance may have cleared a stall this
        stage reports (a backpressure watermark).  Unlike :meth:`notify`
        it leaves a cached event time alone.  No-op outside a kernel.
        """
        kernel = getattr(self, "_kernel", None)
        if kernel is not None:
            kernel._wake(self)

    def next_event_time(self) -> float | None:
        """When this stage can next do work (``None`` = nothing runnable)."""
        raise NotImplementedError

    def advance(self, now: float) -> None:
        """Perform the work due at ``now``."""
        raise NotImplementedError

    def finish(self) -> None:
        """Post-run invariant hook: raise if work was left behind.

        Called once by :meth:`EventKernel.run` after no stage has an
        event left.  The default accepts a clean exit; stages
        holding undeliverable requests (a prompt that can never fit, a
        watermark that can never clear) override this to raise
        :class:`~repro.errors.CapacityError` instead of letting the
        run end looking successful.
        """


class EventKernel:
    """Interleaves a list of stages into one event-driven simulation.

    ``stages`` must be listed upstream→downstream: at each instant the
    kernel advances due stages in list order, so same-instant hand-offs
    flow forward through the pipeline, while feedback (backpressure)
    takes effect on the next kernel iteration at the same instant.
    """

    def __init__(self, stages: list[Stage], recorder=None):
        if not stages:
            raise SchedulingError("EventKernel needs at least one stage")
        self.stages = list(stages)
        #: Optional :class:`~repro.serving.telemetry.TraceRecorder`;
        #: the kernel reports loop-level counters (iterations, stage
        #: advances, stage polls) into its metrics registry after
        #: :meth:`run` — once per run, never inside the hot loop.
        self.recorder = recorder
        #: The kernel's monotone clock: the latest instant processed.
        self.now = 0.0
        #: The deadline of the running :meth:`run` (``None``: none).
        self.until: float | None = None
        # Lazy-invalidation heap state, live only while run() executes.
        self._index: dict[int, int] = {}   # id(stage) -> stage index
        self._dirty: set[int] = set()      # stage indices needing re-poll
        self._cached: list[float | None] = []  # last answer per stage

    def invalidate(self, stage: Stage) -> None:
        """Mark ``stage``'s cached next-event time stale (see notify)."""
        idx = self._index.get(id(stage))
        if idx is not None:
            self._dirty.add(idx)

    def _wake(self, stage: Stage) -> None:
        """Mark ``stage`` stale if its cached answer is ``None`` (see wake)."""
        idx = self._index.get(id(stage))
        if idx is not None and self._cached[idx] is None:
            self._dirty.add(idx)

    def run(self, until: float | None = None) -> float:
        """Drive the stages until no event is left; returns the clock.

        Each iteration: re-poll the dirty stages (advanced, notified or
        woken) in stage order, take the earliest cached event from the
        heap, clamp it to the monotone clock (a stage waking from a
        backpressure stall may report a stale time), then pop every
        stage whose event is due at that instant and advance them in
        stage order.  When the loop drains, every stage's
        :meth:`Stage.finish` hook runs.

        ``until`` is a hard simulation deadline: the kernel stops
        *before* the first event scheduled strictly past it, leaving
        unfinished work in the stages (an overloaded open-loop run must
        terminate with its backlog counted, not simulated forever).  A
        deadline stop skips the :meth:`Stage.finish` invariant hooks —
        leftover work is the expected outcome, and the caller accounts
        it; a run that drains *before* the deadline still runs them.
        An event *at* ``until`` is processed (its advance may carry a
        stage's internal clock past the deadline — the last step is
        committed whole, never split).  ``until=None`` (default) is the
        historical run-to-completion behaviour, bit-identical.

        Heap entries are ``(time, generation, stage_index)``; a stage's
        generation bumps on every re-poll, so entries whose generation
        no longer matches are skipped on pop instead of being removed
        eagerly (lazy deletion).
        """
        stages = self.stages
        n = len(stages)
        self.until = until
        cached: list[float | None] = [None] * n
        gen = [0] * n
        heap: list[tuple[float, int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        self._index = {id(s): i for i, s in enumerate(stages)}
        self._cached = cached
        dirty = self._dirty = set(range(n))
        for stage in stages:
            stage._kernel = self
        try:
            stalled_iterations = 0
            timed_out = False
            n_iterations = 0
            n_advances = 0
            n_polls = 0
            while True:
                n_iterations += 1
                # Re-poll only the stages whose state may have changed,
                # in stage order: a poll may stamp a backpressure stall.
                n_polls += len(dirty)
                for i in sorted(dirty):
                    t = stages[i].next_event_time()
                    cached[i] = t
                    gen[i] += 1
                    if t is not None:
                        push(heap, (t, gen[i], i))
                dirty.clear()
                # Pop stale generations until the heap head is live.
                while heap and heap[0][1] != gen[heap[0][2]]:
                    pop(heap)
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    timed_out = True
                    break
                if t > self.now:
                    self.now = t
                    stalled_iterations = 0
                else:
                    stalled_iterations += 1
                    if stalled_iterations > _MAX_STALLED_ITERATIONS:
                        raise SchedulingError(
                            "event kernel stopped making progress at"
                            f" t={self.now!r} (stages:"
                            f" {[s.name for s in stages]})"
                        )
                # Collect every due stage before advancing any: an
                # advance may notify peers, and those re-polls belong to
                # the *next* iteration.  The heap yields them by time,
                # the pipeline needs them upstream→downstream.
                now = self.now
                due = []
                while heap and heap[0][0] <= now:
                    _, g, i = pop(heap)
                    if g == gen[i]:
                        due.append(i)
                due.sort()
                for i in due:
                    stages[i].advance(now)
                dirty.update(due)
                n_advances += len(due)
            if not timed_out:
                for stage in stages:
                    stage.finish()
            if self.recorder is not None:
                metrics = self.recorder.metrics
                metrics.count("kernel/iterations", n_iterations)
                metrics.count("kernel/advances", n_advances)
                metrics.count("kernel/polls", n_polls)
                metrics.gauge("kernel/now", self.now, self.now)
        finally:
            for stage in stages:
                stage._kernel = None
            self._index = {}
            self._dirty = set()
            self._cached = []
        return self.now
