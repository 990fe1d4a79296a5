"""Event-sourced telemetry: spans, metric timelines, latency attribution.

The simulator's results are end-of-run aggregates (`ContinuousResult`,
`PoolStats`, `TransferStats`); they say *what* happened but not *where
the time went*.  This module is the observability substrate the ZipServ
claims need: compressed KV shrinks **wire** time, decompress-on-hit
trades cache capacity for **decompress** time, backpressure converts
preemption storms into **queue** time — all per-request, per-phase
quantities, invisible in aggregates.

Three coupled views, all carried by one :class:`TraceRecorder`:

* **structured events** — :class:`TraceEvent` records (arrival, admit,
  prefill chunk/span, decode segment, preempt, transfer
  enqueue/wire/deliver, backpressure stall begin/end, prefix-cache
  hit/demote/evict, route, reject, scale, finish).  The recorder
  exports them as Chrome-trace-format JSON
  (:meth:`TraceRecorder.chrome_trace`): one track per pool / link
  channel / replica, ``X`` duration spans for serial stage work,
  ``B``/``E`` pairs for backpressure stalls, ``s``/``f`` flow arrows
  linking a request's prefill → wire → decode hand-off across tracks,
  ``C`` counter series from the metrics registry — loadable in
  ``chrome://tracing`` or Perfetto.
* **sim-time metrics** — a :class:`MetricsRegistry` of counters, gauge
  timelines sampled on event boundaries (KV occupancy, batch size,
  queue depths) and histograms, exportable as plain dicts.
* **latency attribution** — a per-request phase interval state machine.
  Every request is in exactly one phase at a time (:data:`PHASES`);
  stages call :meth:`TraceRecorder.transition` at phase boundaries and
  the interval since the last boundary is charged to the phase being
  left.  Because the intervals telescope over ``[arrival_s, finish_s]``
  with a monotone boundary sequence, the per-phase seconds of a
  finished request **sum to its end-to-end latency by construction**
  (float addition error only — the conservation property
  ``tests/test_telemetry.py`` pins across every topology).  Decompress
  time is re-assigned out of the admitting prefill interval zero-sum,
  so conservation survives it.

**Recorded as rows, derived on read.**  A write — a recorder method,
or a :class:`MetricsRegistry` ``count`` / ``gauge`` / ``observe`` —
appends one tuple of plain values (its operation, the time, the track,
the request id, the few numbers it needs and an event's args as a flat
``key, value, ...`` tail whose keys are constants of the call site) and
builds nothing else; engine samples go to per-track columns, and a
fast-forward window is one row of ``(step_s, k)`` segments.  Each view
— events, attributions with counters and histograms, gauges — is folded
from the rows on its own first read, replaying the float operations the
eager bookkeeping ran in the same order, so the views are bit-identical
to it; ``len(recorder.events)`` counts rows and builds no event.

**Off by default, zero-cost when off.**  Nothing here runs unless a
:class:`TelemetryConfig` is supplied (``ServingConfig(telemetry=...)``)
or installed ambiently (:func:`recording`).  Every instrumentation site
in the serving stack is guarded by an ``is None`` check on the recorder
and only *reads* simulation state — the clock arithmetic of an
instrumented run is bit-identical with telemetry on or off, and with it
off the only cost is the ``None`` checks (the ``events_per_s`` gate in
``tools/bench_regression.py`` holds; the telemetry-on overhead on a
20k-request trace, its first read included, is gated there too).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from operator import truediv

from ..errors import ConfigError
from ..utils import check_fields

__all__ = [
    "PHASES",
    "TelemetryConfig",
    "TraceEvent",
    "RequestAttribution",
    "MetricsRegistry",
    "TraceRecorder",
    "build_recorder",
    "recording",
    "RecordingHandle",
]

#: The latency-attribution phases, in pipeline order.  Every simulated
#: second of a request's life between arrival and finish is charged to
#: exactly one of these:
#:
#: * ``queue`` — waiting anywhere: unrouted, un-admitted, or landed on a
#:   decode replica but not yet admitted (the default phase);
#: * ``prefill`` — resident on an engine owing prompt tokens;
#: * ``transfer_wait`` — KV ready to ship, waiting for a link channel;
#: * ``wire`` — on the wire (serialization + link latency);
#: * ``decode`` — resident on an engine generating tokens;
#: * ``preempt_recompute`` — re-prefilling context after a recompute
#:   preemption (the re-admission's prefill residency);
#: * ``decompress`` — cold-tier prefix-cache hit decompression,
#:   re-assigned zero-sum out of the admitting prefill interval.
PHASES = (
    "queue",
    "prefill",
    "transfer_wait",
    "wire",
    "decode",
    "preempt_recompute",
    "decompress",
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Whether a run records telemetry (``ServingConfig(telemetry=...)``).

    A recorder captures everything: the event log, the metric timelines
    and the per-request attribution.  ``enabled=False`` is exactly
    equivalent to not configuring telemetry at all — no recorder is
    built, every instrumentation site short-circuits on its ``None``
    check — and, set explicitly, wins over an ambient :func:`recording`.
    ``enabled`` must be a ``bool``: a string such as ``"false"`` (read
    from a config file) is a :class:`~repro.errors.ConfigError`, not a
    truthy "on".
    """

    enabled: bool = True

    def __post_init__(self) -> None:
        check_fields(self)

    def build(self) -> "TraceRecorder | None":
        """A fresh recorder for one run (``None`` when disabled)."""
        return TraceRecorder(self) if self.enabled else None


@dataclass(slots=True)
class TraceEvent:
    """One structured telemetry event, in simulated seconds.

    ``kind`` names the taxonomy entry; ``track`` is the emitting
    pool/link/replica lane (one Chrome-trace thread each); ``dur_s > 0``
    marks a duration span (exported as a ``ph="X"`` complete event),
    ``dur_s == 0`` an instant.
    """

    t_s: float
    kind: str
    track: str
    request_id: int | None = None
    dur_s: float = 0.0
    args: dict | None = None


@dataclass(frozen=True)
class RequestAttribution:
    """Where one finished request's end-to-end latency went.

    The seven phase fields partition ``[arrival_s, finish_s]``:
    ``total_s`` equals ``e2e_s`` up to float-addition error (the
    conservation contract, property-tested across every topology).
    """

    request_id: int
    arrival_s: float
    finish_s: float
    queue_s: float = 0.0
    prefill_s: float = 0.0
    transfer_wait_s: float = 0.0
    wire_s: float = 0.0
    decode_s: float = 0.0
    preempt_recompute_s: float = 0.0
    decompress_s: float = 0.0

    @property
    def e2e_s(self) -> float:
        """End-to-end latency (finish minus arrival)."""
        return self.finish_s - self.arrival_s

    @property
    def total_s(self) -> float:
        """Sum of the seven phase charges (== ``e2e_s`` up to float eps)."""
        return (
            self.queue_s + self.prefill_s + self.transfer_wait_s
            + self.wire_s + self.decode_s + self.preempt_recompute_s
            + self.decompress_s
        )

    def phase_seconds(self) -> dict[str, float]:
        """The seven charges keyed by :data:`PHASES` name."""
        return {
            "queue": self.queue_s,
            "prefill": self.prefill_s,
            "transfer_wait": self.transfer_wait_s,
            "wire": self.wire_s,
            "decode": self.decode_s,
            "preempt_recompute": self.preempt_recompute_s,
            "decompress": self.decompress_s,
        }


def _pairs(row: tuple, i: int) -> dict | None:
    """The ``key, value, ...`` tail of a row from ``row[i]`` on, as an
    event's args dict (``None`` when the row has no tail)."""
    n = len(row) - i
    # Literal dicts for the common shapes: several times faster than zip.
    if n == 4:
        return {row[i]: row[i + 1], row[i + 2]: row[i + 3]}
    if n == 2:
        return {row[i]: row[i + 1]}
    if n == 0:
        return None
    return dict(zip(row[i::2], row[i + 1::2]))


class MetricsRegistry:
    """Sim-time counters, gauge timelines and histograms.

    Gauges are sampled on event boundaries by the instrumented stages
    (KV occupancy, batch size, queue depths); each sample appends a
    ``(t_s, value)`` point, so a gauge is a full timeline, not a last
    value.  Counters are monotone accumulators; histograms collect raw
    observations for offline summarising.  Writes are rows of the
    owning recorder's log; the three dicts are folded from it on read.
    """

    def __init__(self, log: "_Log | None" = None) -> None:
        self._log = _Log() if log is None else log

    def count(self, name: str, delta: float = 1.0) -> None:
        """Bump a counter."""
        self._log.rows.append(("count", name, delta))

    def gauge(self, name: str, t_s: float, value: float) -> None:
        """Append one timeline sample to a gauge."""
        self._log.rows.append(("gauge", t_s, name, value))

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        self._log.rows.append(("observe", name, value))

    counters = property(lambda self: self._log.view("tally").counters)
    gauges = property(lambda self: self._log.view("gauges"))
    histograms = property(lambda self: self._log.view("tally").histograms)

    def timelines(self) -> dict:
        """JSON-able export of everything recorded."""
        return {
            "counters": dict(self.counters),
            "gauges": {
                name: [[t, v] for t, v in series]
                for name, series in self.gauges.items()
            },
            "histograms": {
                name: list(values)
                for name, values in self.histograms.items()
            },
        }


# The folds below read the log in emission order and run, per row, the
# bookkeeping the write that appended it once ran eagerly: the same
# float operations in the same order, so every view is bit-identical to
# eager recording and each counter and gauge sits at its first use.

#: Row operations that emit no event.
_SILENT = frozenset(("transition", "count", "gauge", "observe", "samples"))


class _Tally:
    """Attribution, counters and histograms: the small views.

    Also keeps each ``finish`` row's time as clamped by its request's
    last phase boundary, which the event fold reads.
    """

    def __init__(self, log: list[tuple]):
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}
        self.attributions: dict[int, RequestAttribution] = {}
        self.finish_times: list[float] = []
        #: request_id -> [phase start, phase, charges, arrival_s] while live.
        self._live: dict[int, list] = {}
        count, move = self._count, self._transition
        for row in log:
            op = row[0]
            if op == "event" or op == "window" or op == "samples":
                continue
            if op == "transition":
                _, t, rid, phase = row
                move(rid, t, phase)
            elif op == "admit":
                _, t, _, rid, phase, _, decompress_s = row
                if move(rid, t, phase) and decompress_s > 0.0:
                    # A cold-tier hit's delay, re-assigned zero-sum out
                    # of the prefill interval it inflates.
                    charges = self._live[rid][2]
                    charges["decompress"] = (
                        charges.get("decompress", 0.0) + decompress_s
                    )
                    charges[phase] = charges.get(phase, 0.0) - decompress_s
                count("requests/admitted")
            elif op == "prefill_chunk":
                if row[5]:
                    move(row[3], row[1], "decode")
            elif op == "arrival":
                _, t, _, rid = row
                self._live[rid] = [t, "queue", {}, t]
                count("requests/offered")
            elif op == "finish":
                _, t, _, rid, arrival_s = row
                t = self._close(rid, t)
                self.finish_times.append(t)
                count("requests/finished")
                self._observe("request/e2e_s", t - arrival_s)
            elif op == "transfer_enqueue":
                move(row[3], row[1], "transfer_wait")
            elif op == "wire":
                _, ready, start, done, nbytes, _, _, rid = row
                move(rid, start, "wire")
                move(rid, done, "queue")
                count("transfer/bytes", nbytes)
                self._observe("transfer/wire_s", done - start)
                self._observe("transfer/queue_s", start - ready)
            elif op == "cache":
                count(f"cache/{row[2].removeprefix('cache_')}s")
            elif op == "count":
                count(row[1], row[2])
            elif op == "observe":
                self._observe(row[1], row[2])
            elif op == "preempt":
                move(row[3], row[1], "queue")
                count("requests/preempted")
            elif op == "reject":
                self._live.pop(row[3], None)
                count("requests/rejected")
            elif op == "stall_begin":
                count("backpressure/stalls")
            elif op == "scale":
                count(f"autoscaler/{row[1].action}")

    def _count(self, name: str, delta: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def _observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, []).append(value)

    def _transition(self, rid: int, t: float, phase: str) -> bool:
        """Charge the current phase up to ``t``, then enter ``phase``.

        The boundary sequence is clamped monotone per request, so the
        charged intervals telescope exactly over the request's life —
        the conservation property rests on this method alone.  Returns
        whether ``rid`` is live (registered, not yet finished/rejected).
        """
        live = self._live.get(rid)
        if live is None:
            return False
        since, cur, charges, _ = live
        if t < since:
            t = since
        elif t > since:
            charges[cur] = charges.get(cur, 0.0) + (t - since)
        live[0], live[1] = t, phase
        return True

    def _close(self, rid: int, t: float) -> float:
        """Freeze a finishing request's attribution; returns its finish
        time clamped to its last boundary (``t`` if it is not live)."""
        live = self._live.pop(rid, None)
        if live is None:
            return t
        since, phase, charges, arrival = live
        if t < since:
            t = since
        elif t > since:
            charges[phase] = charges.get(phase, 0.0) + (t - since)
        self.attributions[rid] = RequestAttribution(
            rid, arrival, t, *(charges.get(name, 0.0) for name in PHASES)
        )
        return t


def _fold_events(log: list[tuple], finish_times: list[float]) -> list:
    """Every event the log's rows emitted, in emission order."""
    events: list[TraceEvent] = []
    append, finish_times = events.append, iter(finish_times)
    for row in log:
        op = row[0]
        if op == "event":
            append(TraceEvent(*row[1:6], _pairs(row, 6)))
        elif op == "window":
            # One span per (step_s, k) segment, back to back, each end
            # k ``+= step_s`` after its start: the engine clock's adds.
            _, t, kind, track, segments = row[:5]
            args = _pairs(row, 5) or {}
            for step_s, k in segments:
                start = t
                for _ in range(k):
                    t += step_s
                append(TraceEvent(
                    start, kind, track, None, t - start, {"steps": k, **args}
                ))
        elif op in _SILENT:
            continue
        elif op == "admit":
            _, t, track, rid, _, hit_tokens, _ = row
            append(TraceEvent(
                t, "admit", track, rid, 0.0,
                {"hit_tokens": hit_tokens} if hit_tokens else None,
            ))
        elif op == "prefill_chunk":
            _, t, track, rid, chunk, _ = row
            append(TraceEvent(t, op, track, rid, 0.0, {"tokens": chunk}))
        elif op == "finish":
            append(TraceEvent(next(finish_times), op, row[2], row[3]))
        elif op == "transfer_enqueue":
            _, t, track, rid, target = row
            append(TraceEvent(t, op, track, rid, 0.0, {"target": target}))
        elif op == "wire":
            _, _, start, done, nbytes, track, channel, rid = row
            append(TraceEvent(
                start, op, f"{track}/ch{channel}", rid, done - start,
                {"bytes": nbytes},
            ))
        elif op == "cache":
            _, t, kind, track = row[:4]
            append(TraceEvent(t, kind, track, None, 0.0, _pairs(row, 4)))
        elif op == "scale":
            event = row[1]
            append(TraceEvent(event.t_s, op, "autoscaler", None, 0.0, {
                "action": event.action,
                "replica": event.replica,
                "reason": event.reason,
            }))
        elif op == "stall_begin":
            append(TraceEvent(row[1], op, row[2]))
        else:  # "arrival", "preempt", "reject": (op, t, track, rid)
            append(TraceEvent(row[1], op, row[2], row[3]))
    return events


def _fold_gauges(log: list[tuple], samples: dict[str, list]) -> dict:
    """Every gauge timeline, each at its first use."""
    gauges: dict[str, list[tuple[float, float]]] = {}
    for row in log:
        op = row[0]
        if op == "gauge":
            _, t, name, value = row
            gauges.setdefault(name, []).append((t, value))
        elif op == "samples":
            # An engine's first sample: its three gauges start here,
            # filled at once from its columns.
            track = row[1]
            cols = samples[track]
            t = cols[0::5]
            kv_frac, batch, waiting = (
                gauges.setdefault(f"{track}/{name}", [])
                for name in ("kv_frac", "batch", "waiting")
            )
            kv_frac += zip(t, map(
                truediv, cols[1::5], map(max, cols[2::5], repeat(1))
            ))
            batch += zip(t, map(float, cols[3::5]))
            waiting += zip(t, map(float, cols[4::5]))
    return gauges


class _Log:
    """A recorder's rows and engine sample columns, and the views folded
    from them: each on its own first read, again once more rows arrived.

    The recorder, its registry and its event sequence share it; it
    points back at none of them, so they form no reference cycle.
    """

    def __init__(self) -> None:
        #: Append-only rows, one per write, in emission order.
        self.rows: list[tuple] = []
        #: track -> its engine samples, five flat columns interleaved:
        #: time, used blocks, total blocks, running, waiting.
        self.samples: dict[str, list] = {}
        self._views: dict[str, object] = {}
        self._folded_at = (0, 0)

    def view(self, name: str):
        """The ``tally``, ``events``, ``n_events`` or ``gauges`` view."""
        rows, samples = self.rows, self.samples
        size = (len(rows), sum(map(len, samples.values())))
        if size != self._folded_at:
            self._views.clear()
            self._folded_at = size
        view = self._views.get(name)
        if view is None:
            if name == "tally":
                view = _Tally(rows)
            elif name == "events":
                view = _fold_events(rows, self.view("tally").finish_times)
            elif name == "n_events":
                view = sum(
                    len(row[4]) if row[0] == "window" else 1
                    for row in rows if row[0] not in _SILENT
                )
            else:
                view = _fold_gauges(rows, samples)
            self._views[name] = view
        return view


class _Events(Sequence):
    """A recorder's events: counted from its log, built on first access.

    ``len()`` never builds them, so a caller that only counts events
    keeps no :class:`TraceEvent` next to the log.
    """

    def __init__(self, log: _Log):
        self._log = log

    def __len__(self) -> int:
        return self._log.view("n_events")

    def __getitem__(self, index):
        return self._log.view("events")[index]

    def __iter__(self):
        return iter(self._log.view("events"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(self._log.view("events"))


class TraceRecorder:
    """The per-run telemetry sink every instrumented stage writes into.

    One recorder is built per ``serve()`` call (shared by every stage
    of the run's topology — all three disagg stages, every fleet
    replica) and surfaced on ``ContinuousResult.telemetry``.  Every
    write method appends plain values — one row to the log, or one
    engine sample to its track's columns — and builds nothing else;
    ``events``, ``attributions`` and the ``metrics`` dicts are folded
    from the log on first read (see the module docstring).
    **Callers** hold the ``recorder is None`` guard, so the off path
    never enters here.
    """

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config or TelemetryConfig()
        log = self._log = _Log()
        self._rows, self._samples = log.rows, log.samples
        self.metrics = MetricsRegistry(log)
        #: Every event, in emission order.
        self.events = _Events(log)

    @property
    def attributions(self) -> dict[int, RequestAttribution]:
        """request_id → finished attribution rows."""
        return self._log.view("tally").attributions

    # ------------------------------------------------------------------
    # Raw emission
    # ------------------------------------------------------------------
    def emit(
        self,
        t_s: float,
        kind: str,
        track: str,
        request_id: int | None = None,
        dur_s: float = 0.0,
        args: tuple | None = None,
    ) -> None:
        """Append one event; ``args`` is a flat ``(key, value, ...)``
        tuple, read back as the event's ``args`` dict."""
        self._rows.append(
            ("event", t_s, kind, track, request_id, dur_s) + (args or ())
        )

    def span(self, t: float, dur_s: float, kind: str, track: str,
             args: tuple | None = None, segments: tuple | None = None) -> None:
        """A duration span on one track (prefill pass, decode segment).

        With ``segments`` the row is a fast-forward window: its
        ``(step_s, k)`` pairs read back as one span per segment, back to
        back from ``t``, each ending ``k`` adds of ``step_s`` after its
        start (the engine clock's float sequence) with ``steps=k`` ahead
        of ``args`` (``dur_s`` is unused).
        """
        if segments is None:
            row = ("event", t, kind, track, None, dur_s)
        else:
            row = ("window", t, kind, track, segments)
        self._rows.append(row + args if args else row)

    # ------------------------------------------------------------------
    # The attribution state machine
    # ------------------------------------------------------------------
    def transition(self, req, t: float, phase: str) -> None:
        """Charge the current phase up to ``t``, then enter ``phase``.

        Boundaries are clamped monotone per request, so a stale ``t``
        can shift charge between phases but never break the sum; a
        request that is not live (never arrived, or already finished or
        rejected) is ignored.
        """
        self._rows.append(("transition", t, req.request_id, phase))

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the instrumented stages)
    # ------------------------------------------------------------------
    def on_arrival(self, req, track: str = "router") -> None:
        """Register a request: attribution starts in ``queue``."""
        self._rows.append(("arrival", req.arrival_s, track, req.request_id))

    def on_admit(
        self,
        req,
        t: float,
        track: str,
        hit_tokens: int = 0,
        decompress_s: float = 0.0,
    ) -> None:
        """An engine admitted ``req``: prefill (or recompute) begins.

        A cold-tier prefix hit's decompress delay is re-assigned out of
        the prefill interval it is about to inflate — the stage charges
        the delay to its clock *before* the admitting step, so the
        prefill interval always covers it and both phases stay >= 0.
        """
        phase = "preempt_recompute" if req.n_preemptions else "prefill"
        self._rows.append((
            "admit", t, track, req.request_id, phase, hit_tokens,
            decompress_s,
        ))

    def on_prefill_chunk(self, req, t: float, track: str, chunk: int) -> None:
        """One prompt chunk committed; completion enters ``decode``."""
        self._rows.append((
            "prefill_chunk", t, track, req.request_id, chunk,
            req.prefill_remaining == 0,
        ))

    def on_preempt(self, req, t: float, track: str) -> None:
        """A running request was evicted (recompute preemption)."""
        self._rows.append(("preempt", t, track, req.request_id))

    def on_transfer_enqueue(
        self, req, t: float, track: str, target: int
    ) -> None:
        """Prefilled KV handed to the link: ``transfer_wait`` begins."""
        self._rows.append(
            ("transfer_enqueue", t, track, req.request_id, target)
        )

    def on_transfer(
        self,
        req,
        ready: float,
        start: float,
        done: float,
        nbytes: float,
        track: str,
        channel: int,
    ) -> None:
        """One wire transfer served: ``wire`` from start to done."""
        self._rows.append((
            "wire", ready, start, done, nbytes, track, channel,
            req.request_id,
        ))

    def on_deliver(self, req, t: float, track: str) -> None:
        """A transfer landed on its decode replica (flow arrow target)."""
        self._rows.append(
            ("event", t, "transfer_deliver", track, req.request_id, 0.0)
        )

    def on_finish(self, req, t: float, track: str) -> None:
        """A request finished: close and freeze its attribution."""
        self._rows.append(("finish", t, track, req.request_id, req.arrival_s))

    def on_reject(self, req, t: float, track: str = "router") -> None:
        """Admission control refused a request at the front door."""
        self._rows.append(("reject", t, track, req.request_id))

    def on_route(self, req, t: float, replica: int) -> None:
        """The router handed a request to a replica (stays ``queue``)."""
        self._rows.append((
            "event", t, "route", "router", req.request_id, 0.0,
            "replica", replica,
        ))

    def on_stall(self, t: float, track: str) -> None:
        """Backpressure began stalling a prefill pool's admission."""
        self._rows.append(("stall_begin", t, track))

    def on_stall_clear(self, t: float, track: str) -> None:
        """The stall cleared; admission resumed."""
        self._rows.append(("event", t, "stall_end", track, None, 0.0))

    def on_cache(self, kind: str, t: float, track: str,
                 args: tuple | None = None) -> None:
        """A prefix-cache event (``cache_hit``/``cache_demote``/
        ``cache_evict``), emitted by :class:`PrefixCache` itself."""
        self._rows.append(("cache", t, kind, track) + (args or ()))

    def on_scale(self, event) -> None:
        """An autoscaler action (:class:`~repro.serving.fleet.ScaleEvent`)."""
        self._rows.append(("scale", event))

    def sample_engine(self, track: str, t: float, scheduler) -> None:
        """Gauge one engine's KV occupancy, batch size and queue depth."""
        cols = self._samples.get(track)
        if cols is None:
            cols = self._samples[track] = []
            self._rows.append(("samples", track))
        kv = scheduler.kv
        cols += (
            t, kv.used_blocks, kv.n_blocks,
            len(scheduler.running), len(scheduler.waiting),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def phase_shares(self) -> dict[str, float]:
        """Fraction of total attributed seconds per phase (sums to 1)."""
        totals = dict.fromkeys(PHASES, 0.0)
        for attr in self.attributions.values():
            for phase, seconds in attr.phase_seconds().items():
                totals[phase] += seconds
        grand = sum(totals.values())
        if grand <= 0.0:
            return totals
        return {phase: s / grand for phase, s in totals.items()}

    def slowest(self, n: int = 10) -> list[RequestAttribution]:
        """The ``n`` finished requests with the largest e2e latency."""
        rows = sorted(
            self.attributions.values(),
            key=lambda a: (-a.e2e_s, a.request_id),
        )
        return rows[:n]

    # ------------------------------------------------------------------
    # Chrome trace export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The run as Chrome trace event format (``chrome://tracing``).

        Mapping: every track becomes one thread of one process;
        duration events (``dur_s > 0``) export as ``ph="X"`` complete
        events, stall begin/end as matched ``B``/``E`` pairs, transfer
        enqueue→deliver as ``s``→``f`` flow arrows keyed by request id,
        everything else as thread-scoped instants; gauge timelines
        export as ``C`` counter series.  Events are globally sorted by
        timestamp, so the file is monotone (the schema property
        ``tools/trace_report.py`` validates in CI).
        """
        tracks: dict[str, int] = {}

        def tid(track: str) -> int:
            if track not in tracks:
                tracks[track] = len(tracks) + 1
            return tracks[track]

        rows: list[dict] = []
        open_stalls: dict[str, int] = {}
        for ev in self.events:
            ts = ev.t_s * 1e6
            base: dict = {"pid": 1, "tid": tid(ev.track), "ts": ts}
            args = dict(ev.args) if ev.args else {}
            if ev.request_id is not None:
                args["request_id"] = ev.request_id
            if ev.kind == "stall_begin":
                rows.append({**base, "ph": "B", "name": "stall",
                             "cat": "backpressure", "args": args})
                open_stalls[ev.track] = open_stalls.get(ev.track, 0) + 1
            elif ev.kind == "stall_end":
                rows.append({**base, "ph": "E", "name": "stall",
                             "cat": "backpressure", "args": args})
                open_stalls[ev.track] = open_stalls.get(ev.track, 0) - 1
            elif ev.kind == "transfer_enqueue":
                rows.append({**base, "ph": "s", "name": "kv",
                             "cat": "flow", "id": ev.request_id,
                             "args": args})
            elif ev.kind == "transfer_deliver":
                rows.append({**base, "ph": "f", "bp": "e", "name": "kv",
                             "cat": "flow", "id": ev.request_id,
                             "args": args})
            elif ev.dur_s > 0.0:
                rows.append({**base, "ph": "X", "name": ev.kind,
                             "cat": "span", "dur": ev.dur_s * 1e6,
                             "args": args})
            else:
                rows.append({**base, "ph": "i", "name": ev.kind,
                             "cat": "instant", "s": "t", "args": args})
        # A run cut off mid-stall (deadline) leaves a B without an E;
        # close it at the last timestamp so the B/E invariant holds.
        last_ts = max((r["ts"] for r in rows), default=0.0)
        for track, depth in open_stalls.items():
            for _ in range(max(depth, 0)):
                rows.append({
                    "pid": 1, "tid": tracks[track], "ts": last_ts,
                    "ph": "E", "name": "stall", "cat": "backpressure",
                    "args": {},
                })
        for name, series in self.metrics.gauges.items():
            track, _, short = name.rpartition("/")
            counter_tid = tid(track or name)
            for t, value in series:
                rows.append({
                    "pid": 1, "tid": counter_tid, "ts": t * 1e6,
                    "ph": "C", "name": name,
                    "args": {short or "value": value},
                })
        rows.sort(key=lambda r: (r["ts"], r["tid"]))
        meta: list[dict] = [{
            "ph": "M", "pid": 1, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": "zipserv-sim"},
        }]
        for track, t in sorted(tracks.items(), key=lambda kv: kv[1]):
            meta.append({
                "ph": "M", "pid": 1, "tid": t, "ts": 0,
                "name": "thread_name", "args": {"name": track},
            })
            meta.append({
                "ph": "M", "pid": 1, "tid": t, "ts": 0,
                "name": "thread_sort_index", "args": {"sort_index": t},
            })
        return {
            "traceEvents": meta + rows,
            "displayTimeUnit": "ms",
            "otherData": {
                "phase_shares": self.phase_shares(),
                "n_attributed": len(self.attributions),
            },
        }

    def write_chrome_trace(self, path) -> None:
        """Serialise :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ----------------------------------------------------------------------
# Ambient enablement (tooling: bench --trace, trace_report.py)
# ----------------------------------------------------------------------
@dataclass
class RecordingHandle:
    """Yielded by :func:`recording`: its config, and the recorder of the
    last config-less run inside the context (``None`` until one runs)."""

    config: TelemetryConfig = field(default_factory=TelemetryConfig)
    recorder: TraceRecorder | None = None


#: The handle of the innermost active :func:`recording` context.  ``None``
#: (the shipped value) means telemetry is off for every config that does
#: not set its own ``ServingConfig.telemetry`` — the zero-cost contract.
#: Only the context holds it, so a run's recorder lives as long as its
#: result or the caller's handle, never in this module.
_AMBIENT: RecordingHandle | None = None


def build_recorder(
    config: TelemetryConfig | None,
) -> TraceRecorder | None:
    """Resolve the effective config and build one run's recorder.

    Serving cores call this at the top of ``serve()``: an explicit
    ``ServingConfig.telemetry`` wins; otherwise the config of the active
    :func:`recording` context applies, and its handle receives the
    recorder; with neither, telemetry is off and the core's
    instrumentation guards all short-circuit.
    """
    handle = None
    if config is None:
        handle = _AMBIENT
        if handle is None:
            return None
        config = handle.config
    if not isinstance(config, TelemetryConfig):
        raise ConfigError(
            "telemetry must be a TelemetryConfig, got"
            f" {type(config).__name__}"
        )
    recorder = config.build()
    if handle is not None:
        handle.recorder = recorder
    return recorder


@contextmanager
def recording(config: TelemetryConfig | None = None):
    """Ambiently enable telemetry for every run inside the context.

    Installs ``config`` (default: record everything) for any ``serve()``
    whose config leaves ``telemetry=None`` — the hook
    ``bench_serving.py --trace`` and ``tools/trace_report.py`` use to
    trace *registered* scenarios without editing them.  Yields a
    :class:`RecordingHandle` whose ``recorder`` is the last such run's
    recorder, also after the context exits.
    """
    global _AMBIENT
    effective = config or TelemetryConfig()
    if not isinstance(effective, TelemetryConfig):
        raise ConfigError(
            "recording() takes a TelemetryConfig, got"
            f" {type(effective).__name__}"
        )
    previous = _AMBIENT
    _AMBIENT = handle = RecordingHandle(effective)
    try:
        yield handle
    finally:
        _AMBIENT = previous
