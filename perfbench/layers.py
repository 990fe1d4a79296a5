"""Span tracing around the library's layer entry points.

The traced run wraps each layer's public entry points from here, outside
the program: class methods are replaced on their class, and module-level
functions are replaced in *every* module that holds a reference to them
(``from .serve import run_decode_window`` copies the function object into
``repro.serving.disagg``, so patching ``repro.serving.serve`` alone would
miss that call site).

Each wrapped call appends one span — entry point, start, end, parent span
— to flat in-memory arrays.  A layer's self time is the summed duration
of its spans minus the part covered by their child spans, so time spent
in a wrapped callee is charged to the callee's layer, and time in code
that is not wrapped is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Module name -> layer name, for the serving stages discovered at run
#: time (every ``Stage`` subclass's ``advance`` is one kernel advance).
STAGE_LAYERS = {
    "repro.serving.serve": "serve",
    "repro.serving.disagg": "disagg",
    "repro.serving.router": "router",
    "repro.serving.fleet": "fleet",
}

#: (layer, module, class or None for module functions, entry points).
#: Entry points that no longer exist are reported and skipped, so a
#: refactor that renames one shows up as a missing layer, not a crash.
ENTRY_POINTS = [
    ("engine", "repro.serving.engine", "InferenceEngine",
     ["__init__", "serve"]),
    ("scheduler", "repro.serving.scheduler", "ContinuousBatchScheduler",
     ["submit", "admit", "plan_step", "apply_step", "release", "preempt",
      "ensure_decode_capacity", "step", "consume_cache_delay"]),
    ("kvcache", "repro.serving.kvcache", "PagedKVCache",
     ["allocate", "append_token", "append_decode", "free"]),
    ("serve", "repro.serving.serve", "ServingCore", ["serve"]),
    ("serve", "repro.serving.serve", None,
     ["run_decode_window", "commit_decode_window", "decode_window_len",
      "build_prefix_cache"]),
    ("costs", "repro.serving.costs", "MemoizedStepCostModel",
     ["decode_step", "decode_step_batch", "prefill_step", "mixed_step"]),
    ("costs", "repro.serving.costs", "EngineCostModel",
     ["decode_step", "decode_step_batch", "prefill_step", "mixed_step"]),
    ("kernel", "repro.serving.kernel", "EventKernel", ["run"]),
    ("disagg", "repro.serving.disagg", "DisaggregatedCore", ["serve"]),
    ("disagg", "repro.serving.disagg", "TransferLinkStage", ["enqueue"]),
    ("disagg", "repro.serving.disagg", "DecodePoolStage",
     ["assign", "deliver", "commit_blocks", "projected_free_frac"]),
    ("router", "repro.serving.router", "RoundRobinPolicy", ["select"]),
    ("router", "repro.serving.router", "LeastOutstandingPolicy",
     ["select"]),
    ("router", "repro.serving.router", "LeastKVOccupancyPolicy",
     ["select"]),
    ("router", "repro.serving.router", "SessionAffinityPolicy", ["select"]),
    ("fleet", "repro.serving.fleet", "FleetCore", ["serve"]),
    ("fleet", "repro.serving.fleet", "_ColocatedReplica",
     ["deliver", "kv_occupancy", "n_outstanding", "is_active"]),
    ("fleet", "repro.serving.fleet", "_DisaggReplica",
     ["deliver", "kv_occupancy", "n_outstanding", "is_active"]),
    ("prefixcache", "repro.serving.prefixcache", "PrefixCache",
     ["lookup", "store"]),
    ("telemetry", "repro.serving.telemetry", "TraceRecorder",
     ["emit", "transition", "span", "sample_engine", "on_arrival",
      "on_admit", "on_prefill_chunk", "on_preempt", "on_transfer_enqueue",
      "on_transfer", "on_deliver", "on_finish", "on_reject", "on_route",
      "on_stall", "on_stall_clear", "on_cache", "on_scale"]),
    ("tcatbe", "repro.tcatbe.compressor", None, ["compress"]),
    ("tcatbe", "repro.tcatbe.decompressor", None, ["decompress"]),
    ("functional", "repro.kernels.functional", None, ["zipgemm_execute"]),
    ("codecs", "repro.codecs.huffman", "HuffmanCodec", ["encode", "decode"]),
    ("codecs", "repro.codecs.rans", "RansCodec", ["encode", "decode"]),
    ("codecs", "repro.codecs.bf16_split", "BF16LosslessCodec",
     ["compress", "decompress"]),
    ("calibrate", "repro.compression.calibrate", None, ["calibrate"]),
]

#: Every layer above plus the benchmark's own spans, in report order.
LAYERS = (
    "engine", "scheduler", "kvcache", "serve", "costs", "kernel", "disagg",
    "router", "fleet", "prefixcache", "telemetry", "tcatbe", "functional",
    "codecs", "calibrate", "bench",
)


class SpanLog:
    """Spans kept in flat arrays: entry id, start, end, parent index."""

    def __init__(self) -> None:
        self.entries: list[str] = []
        self.entry_layer: list[str] = []
        self._entry_ids: dict[str, int] = {}
        self.entry = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.entry)

    def entry_id(self, name: str, layer: str) -> int:
        eid = self._entry_ids.get(name)
        if eid is None:
            eid = self._entry_ids[name] = len(self.entries)
            self.entries.append(name)
            self.entry_layer.append(layer)
        return eid

    def wrap(self, fn, name: str, layer: str, after=None):
        """``fn`` recording one span per call (``after(self)`` runs after
        the span closes, for the few entry points sampled on exit)."""
        eid = self.entry_id(name, layer)
        entry, start, end, parent = self.entry, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(entry)
            entry.append(eid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if after is not None:
                    after(args[0])

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            entries=np.array(self.entries),
            entry_layer=np.array(self.entry_layer),
            entry=np.frombuffer(self.entry, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class Instrumentation:
    """Installs the wrappers of :data:`ENTRY_POINTS` and undoes them."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        #: MemoizedStepCostModel instances built while installed.
        self.memo_models: list = []
        #: Highest KV block occupancy seen on exit of an allocator call.
        self.kv_peak = 0.0

    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, cls_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(
                module, cls_name, None
            )
            for name in names:
                label = f"{cls_name}.{name}" if cls_name else name
                if owner is None or name not in vars(owner):
                    self.missing.append(f"{module_name}:{label}")
                    continue
                after = self._sample_kv if layer == "kvcache" else None
                if cls_name is None:
                    self._patch_function(owner, name, label, layer)
                else:
                    self._patch_method(owner, name, label, layer, after)
        self._patch_stages()
        self._hook_memo_models()

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_method(self, cls, name, label, layer, after=None) -> None:
        attr = vars(cls)[name]
        if isinstance(attr, property):
            wrapped = property(self.log.wrap(attr.fget, label, layer, after))
        else:
            wrapped = self.log.wrap(attr, label, layer, after)
        self._set(cls, name, wrapped)

    def _patch_function(self, module, name, label, layer) -> None:
        original = getattr(module, name)
        wrapped = self.log.wrap(original, label, layer)
        holders = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None
            and (mod_name == "repro" or mod_name.startswith("repro."))
        ]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _patch_stages(self) -> None:
        """Wrap ``advance`` on every concrete ``Stage`` subclass."""
        for module_name in STAGE_LAYERS:
            importlib.import_module(module_name)
        from repro.serving.kernel import Stage

        todo, seen = list(Stage.__subclasses__()), set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            layer = STAGE_LAYERS.get(cls.__module__)
            if layer is not None and "advance" in vars(cls):
                self._patch_method(
                    cls, "advance", f"{cls.__name__}.advance", layer
                )

    def _hook_memo_models(self) -> None:
        from repro.serving.costs import MemoizedStepCostModel

        init = vars(MemoizedStepCostModel)["__init__"]
        sink = self.memo_models

        @functools.wraps(init)
        def recording_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            sink.append(model)

        self._set(MemoizedStepCostModel, "__init__", recording_init)

    def _sample_kv(self, kv) -> None:
        frac = kv.used_blocks / kv.n_blocks
        if frac > self.kv_peak:
            self.kv_peak = frac


# ----------------------------------------------------------------------
# Reduction of one op's spans
# ----------------------------------------------------------------------
class OpSpans:
    """The spans one op recorded, reduced to per-layer and per-entry sums."""

    def __init__(self, log: SpanLog, lo: int, hi: int) -> None:
        # Slices of an ``array`` are copies, so no view pins the log's
        # buffers (a pinned ``array`` cannot grow).
        entry = np.frombuffer(log.entry[lo:hi], dtype=np.int32)
        parent = np.frombuffer(log.parent[lo:hi], dtype=np.int32) - lo
        dur = (
            np.frombuffer(log.end[lo:hi], dtype=np.float64)
            - np.frombuffer(log.start[lo:hi], dtype=np.float64)
        )
        n_entries = len(log.entries)
        inside = parent >= 0
        child = np.bincount(
            parent[inside], weights=dur[inside], minlength=hi - lo
        )
        self_time = dur - child
        layer_ids = {name: i for i, name in enumerate(LAYERS)}
        entry_layer = np.array(
            [layer_ids[layer] for layer in log.entry_layer], dtype=np.int64
        )
        span_layer = entry_layer[entry] if len(entry) else entry
        self.wall_s = float(dur[parent < 0].sum())
        self.calls = dict(zip(
            log.entries,
            np.bincount(entry, minlength=n_entries).tolist(),
        ))
        self.total_s = dict(zip(
            log.entries,
            np.bincount(entry, weights=dur, minlength=n_entries).tolist(),
        ))
        per_layer = np.bincount(
            span_layer, weights=self_time, minlength=len(LAYERS)
        )
        self.self_s = dict(zip(LAYERS, per_layer.tolist()))
        layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
        self.layer_calls = dict(zip(LAYERS, layer_calls.tolist()))
        parent_layer = np.where(
            inside, span_layer[np.where(inside, parent, 0)], -1
        )
        # Outermost time of a layer: spans whose parent is another layer
        # (a codec calling a codec counts once).
        outer = parent_layer != span_layer
        self._outer_s = np.bincount(
            entry[outer], weights=dur[outer], minlength=n_entries
        )
        # Direct time: spans called straight from the benchmark's own
        # code, not from inside another layer.
        direct = parent_layer == layer_ids["bench"]
        self._direct_s = np.bincount(
            entry[direct], weights=dur[direct], minlength=n_entries
        )
        self._entries = log.entries

    def _sum(self, per_entry, names) -> float:
        return float(sum(
            per_entry[self._entries.index(n)]
            for n in names if n in self._entries
        ))

    def outer_s(self, *names: str) -> float:
        """Time in the named entry points, excluding same-layer nesting."""
        return self._sum(self._outer_s, names)

    def direct_s(self, *names: str) -> float:
        """Time in the named entry points called by the benchmark itself."""
        return self._sum(self._direct_s, names)

    def count(self, *names: str) -> int:
        return int(sum(self.calls.get(n, 0) for n in names))
