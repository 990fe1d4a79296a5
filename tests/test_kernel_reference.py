"""Differential oracle: the notify-driven kernel against a poll-all loop.

``EventKernel`` re-polls a stage only when it advanced, was notified, or
— while its cached answer is ``None`` — was woken, and pops its due
stages off the heap.  ``_ReferenceKernel`` below is the plain loop that
needs none of that bookkeeping: every iteration it re-polls every dirty
stage *and every stage whose last answer was* ``None``, then scans all
stages for due events.  ``Stage.wake`` is a no-op under it, because the
``None`` rule already re-polls every stalled stage.

The two must produce bit-identical serving outputs — the golden-suite
digest over every timing, pool, link and telemetry record — or raise
the same error, across disaggregated cells and fleets of them, with
every backpressure watermark on and off.  Dropping the link's or the
decode pool's ``wake`` call makes this test fail.  It cannot catch a
``notify`` used where ``wake`` belongs (the reference honours
``notify`` too); the backpressure serving goldens catch that case.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, SchedulingError
from repro.serving import disagg, fleet, serve
from repro.serving.disagg import DisaggregatedCore
from repro.serving.fleet import FleetConfig, FleetCore
from repro.serving.kernel import EventKernel
from repro.serving.serve import BackpressureConfig, DisaggConfig, ServingConfig

# The golden suite's engine, trace generator, limits, link and digest.
from test_serving_goldens import (  # noqa: E402
    LIMITS,
    LINK,
    TEL,
    _engine,
    _trace,
    digest,
)


class _ReferenceKernel(EventKernel):
    """Re-polls dirty *and* idle stages each iteration; scans for due ones."""

    def _wake(self, stage):
        pass  # the None rule below re-polls every idle stage anyway

    def run(self, until=None):
        n = len(self.stages)
        self.until = until  # read by the engines' fast-forward windows
        cached = [None] * n
        gen = [0] * n
        heap = []
        self._index = {id(s): i for i, s in enumerate(self.stages)}
        self._dirty = set(range(n))
        for stage in self.stages:
            stage._kernel = self
        try:
            stalled_iterations = 0
            timed_out = False
            n_iterations = n_advances = n_polls = 0
            while True:
                n_iterations += 1
                for i in range(n):
                    if i in self._dirty or cached[i] is None:
                        t = self.stages[i].next_event_time()
                        n_polls += 1
                        cached[i] = t
                        gen[i] += 1
                        if t is not None:
                            heapq.heappush(heap, (t, gen[i], i))
                self._dirty.clear()
                while heap and heap[0][1] != gen[heap[0][2]]:
                    heapq.heappop(heap)
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
                    if stalled_iterations > 1_000_000:
                        raise SchedulingError("reference kernel stalled")
                due = [
                    i for i in range(n)
                    if cached[i] is not None and cached[i] <= self.now
                ]
                for i in due:
                    self.stages[i].advance(self.now)
                    self._dirty.add(i)
                n_advances += len(due)
            if not timed_out:
                for stage in self.stages:
                    stage.finish()
            if self.recorder is not None:
                metrics = self.recorder.metrics
                metrics.count("kernel/iterations", n_iterations)
                metrics.count("kernel/advances", n_advances)
                metrics.count("kernel/polls", n_polls)
                metrics.gauge("kernel/now", self.now, self.now)
        finally:
            for stage in self.stages:
                stage._kernel = None
            self._index = {}
            self._dirty = set()
        return self.now


_WATERMARKS = (
    None,
    BackpressureConfig(min_free_kv_frac=0.2),
    BackpressureConfig(max_link_queue=4),
    BackpressureConfig(min_free_kv_frac=0.2, max_link_queue=4),
)


@st.composite
def scenarios(draw):
    """One chunked-disagg cell, or a round-robin fleet of 1–3 of them."""
    bucket = draw(st.sampled_from((0, 64)))
    telemetry = draw(st.sampled_from((None, TEL)))
    cell = ServingConfig(
        mode="disaggregated", prefill_mode="chunked", limits=LIMITS,
        cost_bucket=bucket,
        disagg=DisaggConfig(
            prefill_mode=draw(st.sampled_from(("group", "chunked"))),
            prefill_replicas=draw(st.integers(1, 3)),
            decode_replicas=draw(st.integers(1, 2)),
            link_topology=draw(st.sampled_from(("shared", "per_replica"))),
            backpressure=draw(st.sampled_from(_WATERMARKS)),
            **LINK,
        ),
    )
    n_cells = draw(st.sampled_from((None, 1, 2, 3)))
    if n_cells is None:
        config = replace(cell, telemetry=telemetry)
    else:
        config = ServingConfig(
            mode="fleet", prefill_mode="chunked", limits=LIMITS,
            cost_bucket=bucket, telemetry=telemetry,
            fleet=FleetConfig(
                n_replicas=n_cells, routing="round_robin", instance=cell,
            ),
        )
    return (
        config,
        draw(st.sampled_from((0.04, 0.05, 0.08, 1.0))),
        draw(st.integers(60, 160)),
        draw(st.sampled_from((None, 5.0))),
    )


def _outcome(scenario, kernel):
    """The run's digest, or the type of the error it raised."""
    config, kv_frac, n_requests, deadline = scenario
    engine = _engine()
    core_cls = FleetCore if config.mode == "fleet" else DisaggregatedCore
    core = core_cls(
        engine.costs, engine.kv_spec, kv_frac * engine.plan.kv_bytes, config
    )
    with ExitStack() as stack:
        for module in (serve, disagg, fleet):
            stack.enter_context(
                mock.patch.object(module, "EventKernel", kernel)
            )
        try:
            return digest(core.serve(
                _trace("chat", n_requests, 8.0, seed=1), deadline_s=deadline
            ))
        except ReproError as exc:
            return type(exc)


@given(scenarios())
def test_kernel_matches_poll_all_reference(scenario):
    assert _outcome(scenario, EventKernel) == _outcome(
        scenario, _ReferenceKernel
    )
