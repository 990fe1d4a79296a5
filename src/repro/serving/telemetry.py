"""Event-sourced telemetry: spans, metric timelines, latency attribution.

The simulator's results are end-of-run aggregates (`ContinuousResult`,
`PoolStats`, `TransferStats`); they say *what* happened but not *where
the time went*.  This module is the observability substrate the ZipServ
claims need: compressed KV shrinks **wire** time, decompress-on-hit
trades cache capacity for **decompress** time, backpressure converts
preemption storms into **queue** time — all per-request, per-phase
quantities, invisible in aggregates.

Three coupled facilities, all carried by one :class:`TraceRecorder`:

* **structured events** — stages emit lightweight :class:`TraceEvent`
  records (arrival, admit, prefill chunk/span, decode segment, preempt,
  transfer enqueue/wire/deliver, backpressure stall begin/end,
  prefix-cache hit/demote/evict, route, reject, scale, finish).  The
  recorder exports them as Chrome-trace-format JSON
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
  the recorder charges the elapsed interval to the phase being left.
  Because the intervals telescope over ``[arrival_s, finish_s]`` with a
  monotone boundary sequence, the per-phase seconds of a finished
  request **sum to its end-to-end latency by construction** (float
  addition error only — the conservation property
  ``tests/test_telemetry.py`` pins across every topology).  Decompress
  time is re-assigned out of the admitting prefill interval zero-sum,
  so conservation survives it.

**Off by default, zero-cost when off.**  Nothing here runs unless a
:class:`TelemetryConfig` is supplied (``ServingConfig(telemetry=...)``)
or installed ambiently (:func:`recording`).  Every instrumentation site
in the serving stack is guarded by an ``is None`` check on the recorder
and only *reads* simulation state — the clock arithmetic of an
instrumented run is bit-identical with telemetry on or off, and with it
off the only cost is the ``None`` checks (the ``events_per_s`` gate in
``tools/bench_regression.py`` holds; the telemetry-on overhead on a
20k-request trace is gated there too).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConfigError

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
    """

    enabled: bool = True

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


class MetricsRegistry:
    """Sim-time counters, gauge timelines and histograms.

    Gauges are sampled on event boundaries by the instrumented stages
    (KV occupancy, batch size, queue depths); each sample appends a
    ``(t_s, value)`` point, so a gauge is a full timeline, not a last
    value.  Counters are monotone accumulators; histograms collect raw
    observations for offline summarising.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, list[tuple[float, float]]] = {}
        self.histograms: dict[str, list[float]] = {}

    def count(self, name: str, delta: float = 1.0) -> None:
        """Bump a counter."""
        self.counters[name] = self.counters.get(name, 0.0) + delta

    def gauge(self, name: str, t_s: float, value: float) -> None:
        """Append one timeline sample to a gauge."""
        series = self.gauges.get(name)
        if series is None:
            series = self.gauges[name] = []
        series.append((t_s, value))

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        series = self.histograms.get(name)
        if series is None:
            series = self.histograms[name] = []
        series.append(value)

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


class TraceRecorder:
    """The per-run telemetry sink every instrumented stage writes into.

    One recorder is built per ``serve()`` call (shared by every stage
    of the run's topology — all three disagg stages, every fleet
    replica) and surfaced on ``ContinuousResult.telemetry``.  All
    methods are cheap appends/dict updates; **callers** hold the
    ``recorder is None`` guard, so the off path never enters here.
    """

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config or TelemetryConfig()
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        #: request_id → finished attribution rows.
        self.attributions: dict[int, RequestAttribution] = {}
        # Attribution state machine: per live request, the time the
        # current phase started, which phase, and the charges so far.
        self._since: dict[int, float] = {}
        self._phase: dict[int, str] = {}
        self._charges: dict[int, dict[str, float]] = {}
        self._arrival: dict[int, float] = {}
        #: track -> its (kv_frac, batch, waiting) gauge series.
        self._engine_series: dict[str, tuple[list, list, list]] = {}

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
        args: dict | None = None,
    ) -> None:
        """Append one event."""
        self.events.append(
            TraceEvent(t_s, kind, track, request_id, dur_s, args)
        )

    # ------------------------------------------------------------------
    # The attribution state machine
    # ------------------------------------------------------------------
    def transition(self, req, t: float, phase: str) -> None:
        """Charge the current phase up to ``t``, then enter ``phase``.

        The boundary sequence is clamped monotone per request, so the
        charged intervals telescope exactly over the request's life —
        the conservation property rests on this method alone.
        """
        rid = req.request_id
        since = self._since.get(rid)
        if since is None:
            return
        if t < since:
            t = since
        elif t > since:
            charges = self._charges[rid]
            cur = self._phase[rid]
            charges[cur] = charges.get(cur, 0.0) + (t - since)
        self._since[rid] = t
        self._phase[rid] = phase

    def _reassign(self, rid: int, src: str, dst: str, seconds: float) -> None:
        """Move ``seconds`` of charge from one phase to another (zero-sum)."""
        charges = self._charges[rid]
        charges[dst] = charges.get(dst, 0.0) + seconds
        charges[src] = charges.get(src, 0.0) - seconds

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the instrumented stages)
    # ------------------------------------------------------------------
    def on_arrival(self, req, track: str = "router") -> None:
        """Register a request: attribution starts in ``queue``."""
        rid = req.request_id
        self._since[rid] = req.arrival_s
        self._phase[rid] = "queue"
        self._charges[rid] = {}
        self._arrival[rid] = req.arrival_s
        self.metrics.count("requests/offered")
        self.emit(req.arrival_s, "arrival", track, rid)

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
        rid = req.request_id
        phase = "preempt_recompute" if req.n_preemptions else "prefill"
        if rid in self._since:
            self.transition(req, t, phase)
            if decompress_s > 0.0:
                self._reassign(rid, phase, "decompress", decompress_s)
        self.metrics.count("requests/admitted")
        args = {"hit_tokens": hit_tokens} if hit_tokens else None
        self.emit(t, "admit", track, rid, args=args)

    def on_prefill_chunk(self, req, t: float, track: str, chunk: int) -> None:
        """One prompt chunk committed; completion enters ``decode``."""
        if req.prefill_remaining == 0:
            self.transition(req, t, "decode")
        self.emit(t, "prefill_chunk", track, req.request_id,
                  args={"tokens": chunk})

    def on_preempt(self, req, t: float, track: str) -> None:
        """A running request was evicted (recompute preemption)."""
        self.transition(req, t, "queue")
        self.metrics.count("requests/preempted")
        self.emit(t, "preempt", track, req.request_id)

    def on_transfer_enqueue(
        self, req, t: float, track: str, target: int
    ) -> None:
        """Prefilled KV handed to the link: ``transfer_wait`` begins."""
        self.transition(req, t, "transfer_wait")
        self.emit(t, "transfer_enqueue", track, req.request_id,
                  args={"target": target})

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
        self.transition(req, start, "wire")
        self.transition(req, done, "queue")
        self.metrics.count("transfer/bytes", nbytes)
        self.metrics.observe("transfer/wire_s", done - start)
        self.metrics.observe("transfer/queue_s", start - ready)
        self.emit(start, "wire", f"{track}/ch{channel}", req.request_id,
                  dur_s=done - start, args={"bytes": nbytes})

    def on_deliver(self, req, t: float, track: str) -> None:
        """A transfer landed on its decode replica (flow arrow target)."""
        self.emit(t, "transfer_deliver", track, req.request_id)

    def on_finish(self, req, t: float, track: str) -> None:
        """A request finished: close and freeze its attribution."""
        rid = req.request_id
        since = self._since.pop(rid, None)
        if since is not None:
            phase = self._phase.pop(rid)
            charges = self._charges.pop(rid)
            if t < since:
                t = since
            elif t > since:
                charges[phase] = charges.get(phase, 0.0) + (t - since)
            arrival = self._arrival.pop(rid, req.arrival_s)
            self.attributions[rid] = RequestAttribution(
                request_id=rid,
                arrival_s=arrival,
                finish_s=t,
                queue_s=charges.get("queue", 0.0),
                prefill_s=charges.get("prefill", 0.0),
                transfer_wait_s=charges.get("transfer_wait", 0.0),
                wire_s=charges.get("wire", 0.0),
                decode_s=charges.get("decode", 0.0),
                preempt_recompute_s=charges.get("preempt_recompute", 0.0),
                decompress_s=charges.get("decompress", 0.0),
            )
        self.metrics.count("requests/finished")
        self.metrics.observe("request/e2e_s", t - req.arrival_s)
        self.emit(t, "finish", track, rid)

    def on_reject(self, req, t: float, track: str = "router") -> None:
        """Admission control refused a request at the front door."""
        rid = req.request_id
        self._since.pop(rid, None)
        self._phase.pop(rid, None)
        self._charges.pop(rid, None)
        self._arrival.pop(rid, None)
        self.metrics.count("requests/rejected")
        self.emit(t, "reject", track, rid)

    def on_route(self, req, t: float, replica: int) -> None:
        """The router handed a request to a replica (stays ``queue``)."""
        self.emit(t, "route", "router", req.request_id,
                  args={"replica": replica})

    def on_stall(self, t: float, track: str) -> None:
        """Backpressure began stalling a prefill pool's admission."""
        self.metrics.count("backpressure/stalls")
        self.emit(t, "stall_begin", track)

    def on_stall_clear(self, t: float, track: str) -> None:
        """The stall cleared; admission resumed."""
        self.emit(t, "stall_end", track)

    def on_cache(self, kind: str, t: float, track: str,
                 args: dict | None = None) -> None:
        """A prefix-cache event (``cache_hit``/``cache_demote``/
        ``cache_evict``), emitted by :class:`PrefixCache` itself."""
        self.metrics.count(f"cache/{kind.removeprefix('cache_')}s")
        self.emit(t, kind, track, args=args)

    def on_scale(self, event) -> None:
        """An autoscaler action (:class:`~repro.serving.fleet.ScaleEvent`)."""
        self.metrics.count(f"autoscaler/{event.action}")
        self.emit(event.t_s, "scale", "autoscaler", args={
            "action": event.action,
            "replica": event.replica,
            "reason": event.reason,
        })

    def span(self, t: float, dur_s: float, kind: str, track: str,
             args: dict | None = None) -> None:
        """A duration span on one track (prefill pass, decode segment)."""
        self.emit(t, kind, track, dur_s=dur_s, args=args)

    def sample_engine(self, track: str, t: float, scheduler) -> None:
        """Gauge one engine's KV occupancy, batch size and queue depth."""
        series = self._engine_series.get(track)
        if series is None:
            # Created (or found) once per track; every later sample is
            # three appends.
            gauges = self.metrics.gauges
            series = self._engine_series[track] = tuple(
                gauges.setdefault(f"{track}/{name}", [])
                for name in ("kv_frac", "batch", "waiting")
            )
        kv = scheduler.kv
        kv_frac, batch, waiting = series
        kv_frac.append((t, kv.used_blocks / max(kv.n_blocks, 1)))
        batch.append((t, float(len(scheduler.running))))
        waiting.append((t, float(len(scheduler.waiting))))

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
#: Process-wide default telemetry config.  ``None`` (the shipped value)
#: means telemetry is off for every config that does not set its own
#: ``ServingConfig.telemetry`` — the zero-cost contract.  Set via
#: :func:`recording`, which lets tooling trace any registered scenario
#: without touching its config.
DEFAULT: TelemetryConfig | None = None

#: The recorder most recently built by :func:`build_recorder` — how
#: :func:`recording` hands the recorder of an ambient-enabled run back
#: to the caller (mirrors the bench harness's last-core idiom).
LAST: TraceRecorder | None = None


def build_recorder(
    config: TelemetryConfig | None,
) -> TraceRecorder | None:
    """Resolve the effective config and build one run's recorder.

    Serving cores call this at the top of ``serve()``: an explicit
    ``ServingConfig.telemetry`` wins; otherwise the ambient
    :data:`DEFAULT` (installed by :func:`recording`) applies; with
    neither, telemetry is off and the core's instrumentation guards all
    short-circuit.
    """
    effective = config if config is not None else DEFAULT
    if effective is None:
        return None
    if not isinstance(effective, TelemetryConfig):
        raise ConfigError(
            "telemetry must be a TelemetryConfig, got"
            f" {type(effective).__name__}"
        )
    recorder = effective.build()
    if recorder is not None:
        global LAST
        LAST = recorder
    return recorder


@dataclass
class RecordingHandle:
    """Yielded by :func:`recording`; exposes the captured recorder."""

    config: TelemetryConfig = field(default_factory=TelemetryConfig)

    @property
    def recorder(self) -> TraceRecorder | None:
        """The last recorder built inside (or after) the context."""
        return LAST


@contextmanager
def recording(config: TelemetryConfig | None = None):
    """Ambiently enable telemetry for every run inside the context.

    Installs ``config`` (default: record everything) as the process
    :data:`DEFAULT`, so any ``serve()`` whose config leaves
    ``telemetry=None`` records — the hook ``bench_serving.py --trace``
    and ``tools/trace_report.py`` use to trace *registered* scenarios
    without editing them.  Yields a :class:`RecordingHandle` whose
    ``recorder`` property returns the run's recorder afterwards.
    """
    global DEFAULT
    effective = config or TelemetryConfig()
    if not isinstance(effective, TelemetryConfig):
        raise ConfigError(
            "recording() takes a TelemetryConfig, got"
            f" {type(effective).__name__}"
        )
    previous = DEFAULT
    DEFAULT = effective
    try:
        yield RecordingHandle(effective)
    finally:
        DEFAULT = previous
