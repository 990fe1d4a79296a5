"""The benchmark's three workloads: inputs, one op, output checks.

Every workload has the same shape:

* ``setup()`` imports what it needs and builds the engine (or the codec
  inputs' classes) — the work ``setup_s`` times;
* ``inputs(ctx, seed)`` generates one op's inputs from the seed, untimed
  (the program only ever receives generated inputs), and
  ``describe(inputs)`` says what they are;
* ``run(ctx, inputs)`` is the timed op: one library call sequence;
* ``check(inputs, out)`` returns the list of failed output checks;
* ``digest(out)`` hashes the outputs a perf change must leave unchanged;
* ``counters(out)`` returns deterministic work counts of the output, and
  ``phases(out)`` the op's per-phase seconds (codec workload only).

All ``repro`` imports happen inside ``setup`` so that a fresh process
can time them.
"""

from __future__ import annotations

import hashlib
import math
import time
import zlib

import numpy as np

MODEL = "llama3.1-8b"
GPU = "rtx4090"
BACKEND = "zipserv"
#: The memory-plan utilisation the committed serving scenarios build with.
GPU_MEM_UTIL = 0.9
MAX_NUM_SEQS = 16
MAX_BATCHED_TOKENS = 8192
COST_BUCKET = 64


def _derive(seed: int, *salt: str) -> int:
    """A per-purpose seed, so one workload seed drives independent streams."""
    return zlib.crc32(":".join((str(seed),) + salt).encode()) % (2**31)


def _serving_setup(config_factory):
    from repro.gpu.specs import get_gpu
    from repro.serving.backends import get_backend
    from repro.serving.engine import InferenceEngine
    from repro.serving.models import get_model
    from repro.serving.scheduler import SchedulerLimits

    engine = InferenceEngine(
        get_model(MODEL), get_gpu(GPU), get_backend(BACKEND),
        gpu_mem_util=GPU_MEM_UTIL,
    )
    limits = SchedulerLimits(
        max_num_seqs=MAX_NUM_SEQS, max_batched_tokens=MAX_BATCHED_TOKENS
    )
    config = config_factory(limits)
    engine.resolve_codecs(config)
    return {"engine": engine, "config": config}


def _serve(ctx, requests):
    return ctx["engine"].serve(requests, config=ctx["config"])


def _serving_checks(requests, result) -> list[str]:
    failures = []
    offered = len(requests)
    if result.n_requests + result.n_unfinished + result.n_rejected != offered:
        failures.append(
            f"conservation: {result.n_requests} finished +"
            f" {result.n_unfinished} unfinished + {result.n_rejected}"
            f" rejected != {offered} offered"
        )
    if result.n_requests != offered:
        failures.append(f"{offered - result.n_requests} requests unfinished")
    bad = [
        t.request_id for t in result.timings
        if t.finish_s is None
        or not t.arrival_s <= t.first_token_s <= t.finish_s
    ]
    if bad:
        failures.append(
            f"{len(bad)} timings break arrival <= first token <= finish"
            f" (first: request {bad[0]})"
        )
    expected_tokens = sum(r.max_new_tokens for r in requests)
    if result.tokens_generated != expected_tokens:
        failures.append(
            f"tokens generated {result.tokens_generated} !="
            f" {expected_tokens} requested"
        )
    return failures


def _serving_digest(result) -> str:
    h = hashlib.sha256()
    h.update(repr((
        result.makespan_s, result.tokens_generated, result.n_steps,
        result.n_preemptions,
    )).encode())
    for t in sorted(result.timings, key=lambda t: t.request_id):
        h.update(repr((
            t.request_id, t.arrival_s, t.first_token_s, t.finish_s,
            t.n_tokens,
        )).encode())
    return h.hexdigest()[:16]


def _serving_counters(result) -> dict:
    counters = {
        "finished": result.n_requests,
        "tokens": result.tokens_generated,
        "steps": result.n_steps,
        "preemptions": result.n_preemptions,
    }
    stats = result.prefix_cache
    if stats is not None:
        counters.update(
            cache_lookups=stats.n_lookups, cache_hits=stats.n_hits,
            cache_hit_tokens=stats.hit_tokens,
            cache_offered_tokens=stats.offered_prefix_tokens,
            cache_demotions=stats.n_demotions,
            cache_evictions=stats.n_evictions,
        )
    transfers = n_transfers(result)
    if transfers:
        counters["transfers"] = transfers
    if result.telemetry is not None:
        counters["telemetry_events"] = len(result.telemetry.events)
    return counters


def n_transfers(result) -> int:
    """KV hand-offs over every link of the run (fleet replicas included)."""
    stats = [result.transfer] + [r.transfer for r in result.replicas]
    return sum(s.n_transfers for s in stats if s is not None)


class ColocatedChat:
    """One colocated chunked-prefill replica under the ``chat`` profile."""

    name = "colocated_chat"
    #: Offered open-loop rate: the replica drains it without a growing
    #: backlog (makespan stays within ~5% of the arrival span).
    RATE_RPS = 6.0
    #: Requests per op (a fixed count, so seeds differ only in content).
    N_REQUESTS = 6000
    expect_layers = ("engine", "scheduler", "kvcache", "serve", "costs",
                     "kernel")
    idle_layers = ("router", "fleet", "disagg", "prefixcache", "telemetry",
                   "tcatbe", "functional", "codecs", "calibrate")

    def setup(self):
        from repro.serving.openloop import open_loop_arrivals
        from repro.serving.profiles import get_profile
        from repro.serving.serve import ServingConfig

        ctx = _serving_setup(lambda limits: ServingConfig(
            prefill_mode="chunked", cost_bucket=COST_BUCKET, limits=limits,
        ))
        ctx["arrivals"] = open_loop_arrivals
        ctx["profile"] = get_profile("chat")
        return ctx

    def inputs(self, ctx, seed: int):
        # 10% slack over the expected span makes N arrivals certain.
        duration = 1.1 * self.N_REQUESTS / self.RATE_RPS
        stamps = ctx["arrivals"](
            self.RATE_RPS, duration, seed=_derive(seed, "arrivals")
        )[: self.N_REQUESTS]
        return ctx["profile"].trace(stamps, seed=_derive(seed, "chat"))

    def describe(self, requests) -> str:
        return (
            f"{len(requests)} chat requests, open-loop Poisson at"
            f" {self.RATE_RPS} rps over {requests[-1].arrival_s:.1f} s"
        )

    run = staticmethod(_serve)

    def check(self, requests, result) -> list[str]:
        return _serving_checks(requests, result)

    digest = staticmethod(_serving_digest)
    counters = staticmethod(_serving_counters)

    def phases(self, result) -> dict:
        return {}


class FleetSessions:
    """Four chunked-disagg cells behind session-affinity routing."""

    name = "fleet_sessions"
    N_CELLS = 4
    #: New sessions per second: the fleet keeps up (makespan within ~1%
    #: of the arrival span); 2/s already builds a backlog.
    SESSION_RATE = 1.0
    N_SESSIONS = 600
    #: Requests (turns) per op: the first N by arrival of the session
    #: trace, so seeds differ only in content, not in size.
    N_REQUESTS = 1600
    LINK_GB_PER_S = 0.125
    expect_layers = ("engine", "scheduler", "kvcache", "serve", "costs",
                     "kernel", "disagg", "router", "fleet", "prefixcache",
                     "telemetry")
    idle_layers = ("tcatbe", "functional", "codecs", "calibrate")

    def setup(self):
        from repro.serving.fleet import FleetConfig
        from repro.serving.prefixcache import PrefixCacheConfig
        from repro.serving.serve import DisaggConfig, ServingConfig
        from repro.serving.telemetry import TelemetryConfig
        from repro.serving.trace import session_trace

        def config(limits):
            cell = ServingConfig(
                mode="disaggregated", prefill_mode="chunked",
                cost_bucket=COST_BUCKET, limits=limits,
                disagg=DisaggConfig(
                    prefill_mode="chunked",
                    link_gb_per_s=self.LINK_GB_PER_S,
                    transfer_codec="kvcomp",
                ),
            )
            return ServingConfig(
                mode="fleet", prefill_mode="chunked",
                cost_bucket=COST_BUCKET, limits=limits,
                fleet=FleetConfig(
                    n_replicas=self.N_CELLS, routing="session_affinity",
                    instance=cell,
                ),
                prefix_cache=PrefixCacheConfig(hot_frac=0.5, codec="kvcomp"),
                telemetry=TelemetryConfig(),
            )

        ctx = _serving_setup(config)
        ctx["session_trace"] = session_trace
        return ctx

    def inputs(self, ctx, seed: int):
        requests = ctx["session_trace"](
            self.N_SESSIONS, self.SESSION_RATE, seed=_derive(seed, "sessions")
        )
        return requests[: self.N_REQUESTS]

    def describe(self, requests) -> str:
        sessions = len({r.session_id for r in requests})
        return (
            f"{len(requests)} turns of {sessions} sessions over"
            f" {requests[-1].arrival_s:.1f} s, {self.N_CELLS} disagg cells,"
            f" {self.LINK_GB_PER_S} GB/s kvcomp link"
        )

    run = staticmethod(_serve)

    def check(self, requests, result) -> list[str]:
        failures = _serving_checks(requests, result)
        recorder = result.telemetry
        if recorder is None:
            return failures + ["telemetry recording is off"]
        finished = {t.request_id for t in result.timings if t.finish_s}
        attributed = set(recorder.attributions)
        if attributed != finished:
            failures.append(
                f"{len(finished - attributed)} finished requests"
                f" unattributed, {len(attributed - finished)} extra"
            )
        off = [
            a.request_id for a in recorder.attributions.values()
            if not math.isclose(a.total_s, a.e2e_s, rel_tol=1e-9,
                                abs_tol=1e-9)
        ]
        if off:
            failures.append(
                f"{len(off)} attributions do not sum to e2e"
                f" (first: request {off[0]})"
            )
        return failures

    digest = staticmethod(_serving_digest)
    counters = staticmethod(_serving_counters)

    def phases(self, result) -> dict:
        return {}


class CodecOffline:
    """TCA-TBE compress, decompress and fused ZipGEMM, then calibration."""

    name = "codec_offline"
    #: Per layer kind: one weight sample for the codec round trip ...
    SAMPLE_SHAPE = (1024, 1024)
    #: ... and its first rows for the fused GEMM (whose per-tile Python
    #: loop is ~30x slower per element than the codec).
    GEMM_ROWS = 64
    #: Decode-like activation width.
    GEMM_N = 16
    expect_layers = ("tcatbe", "functional", "codecs", "calibrate")
    idle_layers = (
        "engine", "scheduler", "kvcache", "serve", "costs", "kernel",
        "disagg", "router", "fleet", "prefixcache", "telemetry",
    )

    def setup(self):
        from repro import compression, tcatbe
        from repro.kernels import functional
        from repro.serving.models import get_model
        from repro.serving.weights import layer_sigma, materialize_layer

        model = get_model(MODEL)
        kinds = {}
        for layer in model.linear_layers():
            kinds.setdefault(layer.kind, layer_sigma(
                layer.kind, layer.m, layer.k
            ))
        return {
            "tcatbe": tcatbe, "functional": functional,
            "compression": compression, "materialize": materialize_layer,
            "kinds": kinds,
            "classes": compression.tensor_classes_for_model(model),
        }

    def inputs(self, ctx, seed: int):
        rows, cols = self.SAMPLE_SHAPE
        layers = []
        for kind, sigma in ctx["kinds"].items():
            weights = ctx["materialize"](
                rows, cols, sigma=sigma, seed=_derive(seed, kind)
            )
            rng = np.random.default_rng(_derive(seed, kind, "x"))
            x = rng.normal(0.0, 1.0, (cols, self.GEMM_N)).astype(np.float32)
            gemm_weights = np.ascontiguousarray(weights[: self.GEMM_ROWS])
            layers.append((kind, weights, gemm_weights, x))
        return {"layers": layers, "seed": _derive(seed, "calibrate")}

    def describe(self, inputs) -> str:
        rows, cols = self.SAMPLE_SHAPE
        return (
            f"{len(inputs['layers'])} layer kinds of {MODEL}: {rows}x{cols}"
            f" BF16 samples, ZipGEMM {self.GEMM_ROWS}x{cols}x{self.GEMM_N},"
            " then calibrate() over every registered codec"
        )

    def run(self, ctx, inputs):
        tcatbe, functional = ctx["tcatbe"], ctx["functional"]
        clock = time.perf_counter
        out = {}
        t0 = clock()
        out["matrices"] = [
            (tcatbe.compress(w), tcatbe.compress(wg))
            for _, w, wg, _ in inputs["layers"]
        ]
        t1 = clock()
        out["decoded"] = [
            (tcatbe.decompress(m), tcatbe.decompress(mg))
            for m, mg in out["matrices"]
        ]
        t2 = clock()
        out["gemm"] = [
            functional.zipgemm_execute(mg, x)
            for (_, mg), (_, _, _, x) in zip(
                out["matrices"], inputs["layers"]
            )
        ]
        t3 = clock()
        out["profile"] = ctx["compression"].calibrate(
            classes=ctx["classes"], seed=inputs["seed"]
        )
        t4 = clock()
        out["phase_s"] = {
            "compress": t1 - t0, "decompress": t2 - t1,
            "zipgemm": t3 - t2, "calibrate": t4 - t3,
        }
        return out

    def check(self, inputs, out) -> list[str]:
        from repro.kernels.functional import dense_gemm_tiled

        failures = []
        for (kind, w, wg, x), (d, dg), y in zip(
            inputs["layers"], out["decoded"], out["gemm"]
        ):
            if not (np.array_equal(d, w) and np.array_equal(dg, wg)):
                failures.append(f"{kind}: decompress is not bit-exact")
            if not np.array_equal(y, dense_gemm_tiled(wg, x)):
                failures.append(f"{kind}: zipgemm != dense_gemm_tiled")
        records = out["profile"].records
        if not records or any(r.compressed_bytes <= 0 for r in records):
            failures.append("calibration produced empty or zero-size records")
        return failures

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for pair in out["matrices"]:
            for m in pair:
                for buf in (m.bitmaps, m.high, m.low):
                    h.update(buf.tobytes())
        for y in out["gemm"]:
            h.update(y.tobytes())
        for r in out["profile"].records:
            h.update(repr(sorted(r.to_dict().items())).encode())
        return h.hexdigest()[:16]

    def counters(self, out) -> dict:
        return {
            "bytes_in": dense_bytes(out),
            "bytes_out": compressed_bytes(out),
            "tiles": sum(m.n_tiles for pair in out["matrices"] for m in pair),
            "flops": gemm_flops(out),
            "bytes_moved": gemm_bytes_moved(out),
            "calibration_records": len(out["profile"].records),
        }

    def phases(self, out) -> dict:
        return out["phase_s"]


def dense_bytes(out) -> int:
    """Dense BF16 bytes through compress (computed from tensor sizes)."""
    return sum(2 * m.n_elements for pair in out["matrices"] for m in pair)


def compressed_bytes(out) -> int:
    """Compressed bytes out of compress (computed by ``size_report()``)."""
    return sum(
        m.size_report().total_nbytes
        for pair in out["matrices"] for m in pair
    )


def gemm_flops(out) -> int:
    """2*M*K*N over the fused GEMMs (computed, not counted)."""
    return sum(
        2 * mg.shape[0] * mg.shape[1] * y.shape[1]
        for (_, mg), y in zip(out["matrices"], out["gemm"])
    )


def gemm_bytes_moved(out) -> int:
    """Compressed weights + activations in + output out, from sizes."""
    return sum(
        mg.size_report().total_nbytes + 4 * mg.shape[1] * y.shape[1]
        + y.nbytes
        for (_, mg), y in zip(out["matrices"], out["gemm"])
    )


WORKLOADS = {
    w.name: w for w in (ColocatedChat(), FleetSessions(), CodecOffline())
}
