"""Microbenchmarks of the event-driven serving loop.

Times the simulator itself (not the modelled GPU): a 500-request Poisson
trace replayed through :class:`~repro.serving.serve.ServingCore` with and
without context-bucketed cost memoization.  Bucketing makes consecutive
decode steps of a stable batch price identically, which both caches the
step math and lets the loop fast-forward whole windows of identical steps —
the sim-side speedup that makes long-trace studies cheap.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q``

The module doubles as a command-line harness over the named scenarios in
:data:`SCENARIOS` (the same registry ``tools/bench_regression.py``
gates)::

    PYTHONPATH=src python benchmarks/bench_serving.py large_trace_colocated
    PYTHONPATH=src python benchmarks/bench_serving.py colocated_memoized --profile

``--profile`` wraps the scenario in ``cProfile`` and prints the top
cumulative-time functions — how the simulator's hot loop is observed
before and after an optimisation.  Each run also reports sim-throughput
(kernel events per wall second, simulated seconds per wall second) and,
when the scenario's cost model memoizes, its per-kind cache statistics.

``--trace out.json`` re-runs the same scenario under ambient telemetry
(:func:`repro.serving.telemetry.recording`), exports the run as Chrome
trace JSON, and prints the latency phase-share table next to the cache
statistics.  Telemetry stays off (and zero-cost) unless the flag is
given; ``tools/trace_report.py`` is the richer consumer of the same
hook.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time

from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.costs import EngineCostModel
from repro.serving.disagg import DisaggregatedCore
from repro.serving.engine import InferenceEngine
from repro.serving.kvcache import KVCacheSpec
from repro.serving.memory_plan import plan_memory
from repro.serving.models import get_model
from repro.serving.scheduler import SchedulerLimits
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)
from repro.serving import telemetry
from repro.serving.trace import (
    multi_tenant_trace,
    poisson_trace,
    session_trace,
)

N_REQUESTS = 500
RATE_RPS = 20.0
SEED = 42
#: One interactive replica's worth of concurrency; small enough that the
#: trace backs up and the loop spends its time in steady decode.
LIMITS = SchedulerLimits(max_num_seqs=16, max_batched_tokens=8192)
CTX_BUCKET = 64

_MODEL = get_model("llama3.1-8b")
_GPU = get_gpu("rtx4090")
_BACKEND = get_backend("zipserv")
_PLAN = plan_memory(_MODEL, _GPU, _BACKEND.weight_scheme, 1, 0.9)
_KV_SPEC = KVCacheSpec.for_model(_MODEL)


#: The serving core of the most recent scenario run — how the CLI
#: harness reaches the cost model for cache statistics after the
#: scenario function has returned only a result.
_LAST_CORE = None


def _record(core):
    global _LAST_CORE
    _LAST_CORE = core
    return core


def _serve_once(cost_bucket: int):
    core = _record(ServingCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND),
        _KV_SPEC,
        _PLAN.kv_bytes,
        ServingConfig(prefill_mode="chunked", cost_bucket=cost_bucket,
                      limits=LIMITS),
    ))
    return core.serve(poisson_trace(N_REQUESTS, RATE_RPS, seed=SEED))


def _best_wall(cost_bucket: int, reps: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        result = _serve_once(cost_bucket)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_serve_500_exact_costs(benchmark):
    result = benchmark(_serve_once, 0)
    assert result.n_requests == N_REQUESTS


def test_serve_500_memoized_costs(benchmark):
    result = benchmark(_serve_once, CTX_BUCKET)
    assert result.n_requests == N_REQUESTS


def test_memoization_speedup_at_least_2x():
    """Acceptance: bucketed memoization halves sim wall-time (or better)."""
    exact_wall, exact = _best_wall(0)
    memo_wall, memo = _best_wall(CTX_BUCKET)
    speedup = exact_wall / memo_wall
    # Same work was simulated either way.
    assert memo.n_requests == exact.n_requests == N_REQUESTS
    assert memo.tokens_generated == exact.tokens_generated
    # Bucketing rounds contexts up, so the clock drifts only slightly high.
    assert exact.makespan_s <= memo.makespan_s <= exact.makespan_s * 1.03
    assert speedup >= 2.0, (
        f"memoized serve only {speedup:.2f}x faster"
        f" ({exact_wall:.3f}s -> {memo_wall:.3f}s)"
    )


def test_memoized_metrics_stay_close():
    """The approximation knob must not distort serving metrics."""
    exact = _serve_once(0)
    memo = _serve_once(CTX_BUCKET)
    assert memo.metrics.latency.p95_s <= exact.metrics.latency.p95_s * 1.05
    assert memo.metrics.ttft.p95_s <= exact.metrics.ttft.p95_s * 1.10
    assert abs(memo.throughput_tok_s / exact.throughput_tok_s - 1.0) < 0.03


# ----------------------------------------------------------------------
# Disaggregated prefill/decode on the multi-tenant trace
# ----------------------------------------------------------------------
#: Starved interconnect so the KV-transfer stage is the bottleneck the
#: compressed codec relieves (the SplitZip scenario).
DISAGG_LINK_GB_PER_S = 0.125
DISAGG_SEED = 7


def _serve_mode(mode: str, codec: str = "none"):
    if mode == "colocated":
        config = ServingConfig(prefill_mode="chunked")
        core = ServingCore(
            EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
            _PLAN.kv_bytes, config,
        )
    else:
        config = ServingConfig(
            prefill_mode="chunked", mode="disaggregated",
            disagg=DisaggConfig(link_gb_per_s=DISAGG_LINK_GB_PER_S,
                                transfer_codec=codec),
        )
        core = DisaggregatedCore(
            EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
            _PLAN.kv_bytes, config,
        )
    return _record(core).serve(multi_tenant_trace(seed=DISAGG_SEED))


def test_serve_disaggregated_compressed(benchmark):
    result = benchmark(_serve_mode, "disaggregated", "kvcomp")
    assert result.mode == "disaggregated"


def test_disagg_compressed_kv_beats_raw_on_constrained_link():
    """Acceptance: the SplitZip effect is visible end to end.

    On a bandwidth-constrained link, Vector-TBE-compressed KV transfer
    must move fewer bytes (by exactly the codec ratio), queue less, and
    finish the trace sooner than raw BF16 transfer; both must serve the
    whole trace.
    """
    raw = _serve_mode("disaggregated", "none")
    comp = _serve_mode("disaggregated", "kvcomp")
    n = len(multi_tenant_trace(seed=DISAGG_SEED))
    assert raw.n_requests == comp.n_requests == n
    assert raw.tokens_generated == comp.tokens_generated
    ratio = comp.transfer.compression_ratio
    assert ratio > 1.3
    assert abs(raw.transfer.total_bytes / comp.transfer.total_bytes
               - ratio) < 1e-9
    assert comp.transfer.queue.p95_s < raw.transfer.queue.p95_s
    assert comp.metrics.latency.p95_s < raw.metrics.latency.p95_s
    assert comp.makespan_s < raw.makespan_s


# ----------------------------------------------------------------------
# Decode→prefill backpressure on a deliberately small decode pool
# ----------------------------------------------------------------------
#: Shrink the decode pool's KV to this fraction of the plan so admission
#: pressure is real; the watermark then has something to bound.
BP_KV_SCALE = 0.04
BP_WATERMARK = 0.3
#: Decode-side token growth pushes occupancy slightly past the
#: admission-time bound; the boundedness assertion carries this margin.
BP_GROWTH_MARGIN = 0.12


def _serve_backpressure(enabled: bool):
    backpressure = (
        BackpressureConfig(min_free_kv_frac=BP_WATERMARK)
        if enabled else None
    )
    # The pool runs DisaggConfig.prefill_mode (default "group"); the
    # colocated-only ServingConfig.prefill_mode is deliberately left
    # alone so this scenario reads as what it is.
    config = ServingConfig(
        mode="disaggregated",
        disagg=DisaggConfig(backpressure=backpressure),
    )
    core = DisaggregatedCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
        _PLAN.kv_bytes * BP_KV_SCALE, config,
    )
    return _record(core).serve(multi_tenant_trace(seed=DISAGG_SEED))


def test_backpressure_bounds_decode_occupancy():
    """Acceptance: the watermark bounds decode KV; the baseline overshoots.

    On a decode pool squeezed to a twenty-fifth of the engine's KV, the
    feedback-free pipeline saturates decode occupancy and pays a
    preemption storm; with ``min_free_kv_frac=0.3`` the prefill pool
    stalls admission instead, peak occupancy stays near ``1 - 0.3``
    (plus in-flight decode growth), no preemption fires, and every
    request is still served — conservation under active backpressure.
    """
    baseline = _serve_backpressure(False)
    gated = _serve_backpressure(True)
    n = len(multi_tenant_trace(seed=DISAGG_SEED))
    assert baseline.n_requests == gated.n_requests == n
    assert baseline.tokens_generated == gated.tokens_generated
    assert gated.transfer.n_transfers == n
    # The feedback-free baseline overshoots the watermark's bound.
    assert baseline.pool("decode").peak_kv_frac > 1.0 - BP_WATERMARK
    assert baseline.n_preemptions > 0
    # Backpressure engages and bounds the peak.
    assert gated.pool("prefill").stall_s > 0.0
    assert gated.pool("decode").peak_kv_frac <= (
        1.0 - BP_WATERMARK + BP_GROWTH_MARGIN
    )
    assert gated.n_preemptions == 0


# ----------------------------------------------------------------------
# Multi-turn sessions through the compressed prefix cache
# ----------------------------------------------------------------------
#: Enough concurrent sessions that the carve thrashes a little (the
#: interesting regime), at a rate that backs the replica up like the
#: colocated scenarios do.
SESSION_N_SESSIONS = 150
SESSION_RATE_RPS = 6.0
SESSION_SEED = 3


def _session_requests():
    return session_trace(
        SESSION_N_SESSIONS, SESSION_RATE_RPS, seed=SESSION_SEED
    )


def _serve_sessions(cache: bool = True):
    """Session trace through the colocated core, prefix cache on/off."""
    config = ServingConfig(
        prefill_mode="chunked", cost_bucket=CTX_BUCKET, limits=LIMITS,
        prefix_cache=(
            PrefixCacheConfig(hot_frac=0.5, codec="kvcomp")
            if cache else None
        ),
    )
    core = _record(ServingCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
        _PLAN.kv_bytes, config,
    ))
    return core.serve(_session_requests())


def test_prefix_cache_speeds_session_trace():
    """Acceptance: skipping cached prefill beats recomputing it.

    Same session trace, same engine: with the prefix cache the run must
    hit (turns share their history), generate the identical output
    work, and finish no later than the cache-off run; without the cache
    the result must carry no cache stats at all (the off-path is the
    bit-compat baseline, not a zeroed cache).
    """
    off = _serve_sessions(cache=False)
    on = _serve_sessions(cache=True)
    assert off.prefix_cache is None
    stats = on.prefix_cache
    assert stats is not None and stats.n_hits > 0
    assert stats.hit_tokens <= stats.offered_prefix_tokens
    assert on.n_requests == off.n_requests == len(_session_requests())
    assert on.tokens_generated == off.tokens_generated
    assert on.makespan_s <= off.makespan_s


# ----------------------------------------------------------------------
# Auto codec selection (measured calibration + policy layer)
# ----------------------------------------------------------------------
_CALIBRATION_PROFILE = None


def _calibration_profile():
    """Measured ratio profile for the benchmark model (lazy, cached —
    the calibration run itself prices every registered codec)."""
    global _CALIBRATION_PROFILE
    if _CALIBRATION_PROFILE is None:
        from repro.compression import calibrate, tensor_classes_for_model

        _CALIBRATION_PROFILE = calibrate(
            classes=tensor_classes_for_model(_MODEL), seed=0
        )
    return _CALIBRATION_PROFILE


def _serve_auto(policy: str = "best_ratio"):
    """Disaggregated starved-link trace under policy-selected codecs."""
    engine = InferenceEngine(_MODEL, _GPU, _BACKEND, gpu_mem_util=0.9)
    config = ServingConfig(
        prefill_mode="chunked", mode="disaggregated",
        disagg=DisaggConfig(link_gb_per_s=DISAGG_LINK_GB_PER_S),
        weight_codec="auto", kv_codec="auto", transfer_codec="auto",
        codec_policy=policy, calibration=_calibration_profile(),
    )
    return engine.serve(multi_tenant_trace(seed=DISAGG_SEED), config=config)


def _serve_kvcomp_everywhere():
    """The fixed single-codec stack the auto policy has to beat."""
    engine = InferenceEngine(_MODEL, _GPU, _BACKEND, gpu_mem_util=0.9)
    config = ServingConfig(
        prefill_mode="chunked", mode="disaggregated",
        disagg=DisaggConfig(link_gb_per_s=DISAGG_LINK_GB_PER_S),
        weight_codec="kvcomp", kv_codec="kvcomp", transfer_codec="kvcomp",
    )
    return engine.serve(multi_tenant_trace(seed=DISAGG_SEED), config=config)


def test_auto_codecs_beat_fixed_kvcomp_stack():
    """Acceptance: measured best_ratio auto-selection strictly beats the
    kvcomp-everywhere configuration on makespan and SLO goodput, while
    serving the identical workload."""
    fixed = _serve_kvcomp_everywhere()
    auto = _serve_auto("best_ratio")
    n = len(multi_tenant_trace(seed=DISAGG_SEED))
    assert fixed.n_requests == auto.n_requests == n
    assert fixed.tokens_generated == auto.tokens_generated
    assert auto.makespan_s < fixed.makespan_s
    assert auto.metrics.goodput_rps > fixed.metrics.goodput_rps
    # The win comes from measured selection: more bytes cut on the wire
    # than the fixed Vector-TBE stack manages.
    assert auto.transfer.compression_ratio > fixed.transfer.compression_ratio


def test_colocated_mode_unchanged_by_disagg_surface():
    """``mode="colocated"`` stays bit-compatible with the plain core.

    The routed side goes through ``InferenceEngine.serve`` so the mode
    dispatch itself is under test, not just ``ServingCore``; the engine
    is built with the benchmark's memory-plan parameters so both sides
    price and bound KV identically.
    """
    plain = ServingCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC, _PLAN.kv_bytes,
        ServingConfig(prefill_mode="chunked"),
    ).serve(multi_tenant_trace(seed=DISAGG_SEED))
    engine = InferenceEngine(_MODEL, _GPU, _BACKEND, gpu_mem_util=0.9)
    routed = engine.serve(
        multi_tenant_trace(seed=DISAGG_SEED),
        config=ServingConfig(prefill_mode="chunked", mode="colocated"),
    )
    assert routed.makespan_s == plain.makespan_s
    assert routed.timings == plain.timings
    assert routed.mode == "colocated" and routed.transfer is None


# ----------------------------------------------------------------------
# Large traces: raw simulator speed (the sim-throughput scenarios)
# ----------------------------------------------------------------------
#: The colocated large trace doubles as the roadmap's 100k-request scale
#: check: it must finish inside the regression gate's wall budget.
LARGE_N_COLOCATED = 100_000
LARGE_N_DISAGG = 20_000


def _serve_large_colocated():
    """100k-request colocated trace under bucketed costs."""
    core = _record(ServingCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC, _PLAN.kv_bytes,
        ServingConfig(prefill_mode="chunked", cost_bucket=CTX_BUCKET,
                      limits=LIMITS),
    ))
    return core.serve(poisson_trace(LARGE_N_COLOCATED, RATE_RPS, seed=SEED))


def _serve_large_disagg():
    """20k-request disaggregated trace under bucketed costs."""
    config = ServingConfig(
        prefill_mode="chunked", mode="disaggregated",
        cost_bucket=CTX_BUCKET, limits=LIMITS, disagg=DisaggConfig(),
    )
    core = _record(DisaggregatedCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
        _PLAN.kv_bytes, config,
    ))
    return core.serve(poisson_trace(LARGE_N_DISAGG, RATE_RPS, seed=SEED))


# ----------------------------------------------------------------------
# Fleet scenarios: router + N replicas on one kernel
# ----------------------------------------------------------------------
#: The fleet trace offers N_FLEET_REPLICAS × the single-replica rate, so
#: each replica sees the same load as the colocated scenarios.
N_FLEET_REPLICAS = 4
FLEET_RATE_RPS = N_FLEET_REPLICAS * RATE_RPS
LARGE_N_FLEET = 100_000


def _fleet_core():
    from repro.serving.fleet import FleetConfig, FleetCore

    config = ServingConfig(
        mode="fleet", prefill_mode="chunked", cost_bucket=CTX_BUCKET,
        limits=LIMITS,
        fleet=FleetConfig(
            n_replicas=N_FLEET_REPLICAS, routing="least_kv_occupancy",
        ),
    )
    return _record(FleetCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
        _PLAN.kv_bytes, config,
    ))


def _serve_fleet():
    """500-request trace routed across a 4-replica colocated fleet."""
    return _fleet_core().serve(
        poisson_trace(N_REQUESTS, FLEET_RATE_RPS, seed=SEED)
    )


def _serve_large_fleet():
    """100k-request fleet trace: the scale-out sim-throughput gate.

    The kernel re-polls only stages that advanced, were notified or
    were woken, so an idle replica costs nothing per iteration.  The
    router must notify exactly the replicas it delivers into
    (:meth:`~repro.serving.kernel.Stage.notify`); a router that
    invalidates the whole fleet per arrival, or a kernel that re-polls
    idle stages every iteration, is back on the O(stages) re-poll path
    and this scenario blows its events/s and wall budgets.
    """
    return _fleet_core().serve(
        poisson_trace(LARGE_N_FLEET, FLEET_RATE_RPS, seed=SEED)
    )


def _serve_fleet_disagg_sessions():
    """Session trace through a fleet of chunked disagg cells.

    The observability acceptance scenario: session affinity keeps each
    tenant's turns on one replica's prefix cache, every request's KV
    crosses a transfer link (flow arrows in the exported trace), and
    the per-replica pools land on their own tracks.  CI validates the
    Chrome trace this scenario exports via ``tools/trace_report.py``.
    """
    from repro.serving.fleet import FleetConfig, FleetCore

    instance = ServingConfig(
        mode="disaggregated", prefill_mode="chunked",
        cost_bucket=CTX_BUCKET, limits=LIMITS,
        disagg=DisaggConfig(prefill_mode="chunked"),
    )
    config = ServingConfig(
        mode="fleet", prefill_mode="chunked", cost_bucket=CTX_BUCKET,
        limits=LIMITS,
        fleet=FleetConfig(
            n_replicas=2, routing="session_affinity", instance=instance,
        ),
        prefix_cache=PrefixCacheConfig(hot_frac=0.5, codec="kvcomp"),
    )
    core = _record(FleetCore(
        EngineCostModel(_MODEL, _GPU, _BACKEND), _KV_SPEC,
        _PLAN.kv_bytes, config,
    ))
    return core.serve(_session_requests())


# ----------------------------------------------------------------------
# The scenario registry (shared with tools/bench_regression.py)
# ----------------------------------------------------------------------
#: Deterministic serving scenarios: name -> zero-arg runner returning a
#: ContinuousResult.  ``tools/bench_regression.py`` gates every entry.
SCENARIOS = {
    "colocated_exact": lambda: _serve_once(0),
    "colocated_memoized": lambda: _serve_once(CTX_BUCKET),
    "disagg_raw": lambda: _serve_mode("disaggregated", "none"),
    "disagg_kvcomp": lambda: _serve_mode("disaggregated", "kvcomp"),
    "disagg_backpressure": lambda: _serve_backpressure(True),
    "auto_codec": lambda: _serve_auto("best_ratio"),
    "sessions_prefix_cache": lambda: _serve_sessions(True),
    "large_trace_colocated": _serve_large_colocated,
    "large_trace_disagg": _serve_large_disagg,
    "fleet_router": _serve_fleet,
    "large_trace_fleet": _serve_large_fleet,
    "fleet_disagg_sessions": _serve_fleet_disagg_sessions,
}


def _print_cache_info() -> None:
    """Per-kind cache statistics of the last scenario's cost model."""
    costs = getattr(_LAST_CORE, "costs", None)
    info_fn = getattr(costs, "cache_info", None)
    if info_fn is None:
        return
    print("  step-cost cache:")
    for kind, stats in info_fn().items():
        total = stats["hits"] + stats["misses"]
        rate = stats["hits"] / total if total else 0.0
        print(
            f"    {kind:8s} hits={stats['hits']:>9,d}"
            f" misses={stats['misses']:>6,d}"
            f" size={stats['size']:>6,d} hit-rate={rate:6.1%}"
        )


def _print_phase_shares(recorder) -> None:
    """Latency attribution of the traced run, next to the cache stats."""
    if recorder is None:
        return
    shares = recorder.phase_shares()
    cells = " ".join(
        f"{phase}={share:.1%}"
        for phase, share in shares.items() if share > 0.0
    )
    print(
        f"  phase shares ({len(recorder.attributions):,d} requests):"
        f" {cells}"
    )


def _print_prefix_cache_info(result) -> None:
    """Prefix-cache hit rates of the scenario result (if cache was on)."""
    stats = getattr(result, "prefix_cache", None)
    if stats is None:
        return
    print(
        f"  prefix cache: token hit-rate={stats.token_hit_rate:6.1%}"
        f" request hit-rate={stats.request_hit_rate:6.1%}"
        f" hits={stats.n_hits:,d}/{stats.n_lookups:,d}"
        f" demotions={stats.n_demotions:,d}"
        f" evictions={stats.n_evictions:,d}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run one serving scenario and report sim-throughput"
    )
    parser.add_argument(
        "scenario", nargs="?", default="colocated_memoized",
        choices=sorted(SCENARIOS),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top cumulative functions",
    )
    parser.add_argument(
        "--top", type=int, default=20,
        help="how many profile rows to print (default 20)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record telemetry and export the run as Chrome trace JSON",
    )
    args = parser.parse_args(argv)
    runner = SCENARIOS[args.scenario]

    profiler = cProfile.Profile() if args.profile else None
    recorder = None
    start = time.perf_counter()
    if args.trace is not None:
        with telemetry.recording() as handle:
            if profiler is not None:
                result = profiler.runcall(runner)
            else:
                result = runner()
        recorder = handle.recorder
    elif profiler is not None:
        result = profiler.runcall(runner)
    else:
        result = runner()
    wall = time.perf_counter() - start

    print(f"{args.scenario}: {result.n_requests} requests")
    print(
        f"  makespan={result.makespan_s:.3f}s"
        f" throughput={result.throughput_tok_s:.1f} tok/s"
        f" steps={result.n_steps:,d}"
    )
    print(
        f"  wall={wall:.3f}s"
        f" events/s={result.n_steps / wall:,.0f}"
        f" sim-s/wall-s={result.makespan_s / wall:,.1f}"
    )
    _print_cache_info()
    _print_phase_shares(recorder)
    _print_prefix_cache_info(result)
    if recorder is not None:
        recorder.write_chrome_trace(args.trace)
        print(f"  wrote Chrome trace to {args.trace}")
    if profiler is not None:
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
