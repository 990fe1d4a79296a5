"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload colocated_chat --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics of ``BENCHMARK.json``.  Every op is bracketed by a fixed
reference loop, and ``wall_norm`` is the op's wall time in units of the
reference loop's time around it, so a host that runs slower for a while
slows both alike.  ``--trace 1`` then wraps every layer's
entry points (``layers.py``), runs traced ops and prints the per-layer
metrics instead.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people: inputs, output digest,
work counters, context rates and, when traced, the self-time table.

Load model: one process, one thread, one call into the library at a
time (a closed loop with one caller).  The simulated traffic inside a
serving call is open-loop Poisson, generated from the seed before the
timed call, so no generator can run late.
"""

from __future__ import annotations

import time

#: Process start, for the set-up probe: its ``setup_s`` covers every
#: import (numpy included) plus the workload's set-up.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Where the traced run writes its spans (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"
#: Fresh processes timed for ``setup_s`` (their median is reported).
SETUP_REPS = 5
#: Timed ops per run at the least, however long they take.
MIN_OPS = 3
#: Traced ops per traced run (their call counts must agree exactly).
TRACED_OPS = 3
#: Engine builds timed under tracing for ``engine.build_s``.
BUILD_REPS = 5


class Op:
    """One timed call sequence into the library and what its checks found.

    Only the checked summary is kept (digest, counters, phase times), so
    a run's memory does not grow with the number of ops.
    """

    def __init__(self, workload, ctx, seed: int, log=None):
        inputs = workload.inputs(ctx, seed)
        self.describe = workload.describe(inputs)
        self.failures: list[str] = []
        self.digest = None
        self.counters: dict = {}
        self.phase_s: dict = {}
        gc.collect()
        ref_before = reference_s()
        out = None
        start = time.perf_counter()
        run = workload.run
        if log is not None:
            run = log.wrap(run, "bench.op", "bench")
        try:
            out = run(ctx, inputs)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{workload.name} op raised")
        self.wall_s = time.perf_counter() - start
        #: The host's speed around this op: the mean of the reference
        #: loop's time just before and just after it.
        self.ref_s = (ref_before + reference_s()) / 2
        self.wall_norm = self.wall_s / self.ref_s
        if out is not None:
            self.failures += workload.check(inputs, out)
            self.digest = workload.digest(out)
            self.counters = workload.counters(out)
            self.phase_s = workload.phases(out)


def run_ops(make_op, seconds: float, min_ops: int) -> list[Op]:
    """``make_op()`` back to back until ``seconds`` have passed
    (``min_ops`` at least); stops early at an op that produced nothing."""
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        ops.append(make_op())
        if ops[-1].digest is None:
            break
    return ops


def consistency_failures(ops: list[Op]) -> list[str]:
    """Every op of one seed must reproduce the first op's outputs."""
    done = [op for op in ops if op.digest is not None]
    return [
        f"op {i} output differs from op 0 on the same inputs"
        f" (digest {op.digest} vs {done[0].digest})"
        for i, op in enumerate(done[1:], 1)
        if (op.digest, op.counters) != (done[0].digest, done[0].counters)
    ]


# ----------------------------------------------------------------------
# Set-up, memory and host context
# ----------------------------------------------------------------------
def setup_samples(workload_name: str) -> list[float]:
    """``setup_s`` of fresh processes: imports plus the workload set-up."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", workload_name],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe of {workload_name}"
                             f" exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def reference_s() -> float:
    """Time of a fixed pure-Python loop made of what the simulator's
    bookkeeping is made of: object allocation, attribute reads, dict
    updates and heap pushes and pops.  It calls nothing in ``src/``, so
    a change to the program cannot move it; only the host's speed does.
    The collector is off inside it, so the program's heap cannot either.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, float] = {}
        heap: list = []
        items = []
        acc = 0
        for i in range(60_000):
            item = _Item(i & 4095, i * 0.5)
            items.append(item)
            table[item.key] = table.get(item.key, 0.0) + item.value
            heapq.heappush(heap, (item.value * 1.000001 % 97.0, i))
            if len(heap) > 256:
                acc += heapq.heappop(heap)[1] & 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def context_rates(ops: list[Op], wall: float) -> dict:
    """Throughputs users quote, from the untraced ops (printed only)."""
    counters = ops[0].counters
    if "finished" in counters:
        return {"sim_req_per_s": (counters["finished"] / wall, "req/s")}
    phase = {
        name: statistics.median(op.phase_s[name] for op in ops)
        for name in ops[0].phase_s
    }
    mb = counters["bytes_in"] / 1e6
    return {
        "encode_mb_s": (mb / phase["compress"], "MB/s"),
        "decode_mb_s": (mb / phase["decompress"], "MB/s"),
        "zipgemm_mflop_s": (
            counters["flops"] / 1e6 / phase["zipgemm"], "MFLOP/s"
        ),
        "calibrate_s": (phase["calibrate"], "s"),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(workload, ctx, seed: int, untraced_norm: float):
    """Wrap the layers, run traced ops; returns (values, ops, failures)."""
    from layers import LAYERS, Instrumentation, OpSpans, SpanLog

    log = SpanLog()
    inst = Instrumentation(log)
    inst.install()
    for entry in inst.missing:
        print(f"  warning: entry point {entry} not found; not traced")
    spans: list = []

    def traced_op():
        inst.memo_models.clear()
        inst.kv_peak = 0.0
        lo = len(log)
        op = Op(workload, ctx, seed, log)
        op.kv_peak = inst.kv_peak
        op.memo_info = [m.cache_info() for m in inst.memo_models]
        spans.append(OpSpans(log, lo, len(log)))
        return op

    try:
        builds = []
        if "engine" in workload.expect_layers:
            for _ in range(BUILD_REPS):
                lo = len(log)
                workload.setup()
                builds.append(OpSpans(log, lo, len(log)).total_s[
                    "InferenceEngine.__init__"
                ])
        ops = run_ops(traced_op, 0.0, TRACED_OPS)
    finally:
        inst.restore()

    failures = [f for op in ops for f in op.failures]
    failures += consistency_failures(ops)
    if any(s.calls != spans[0].calls for s in spans[1:]):
        failures.append("entry-point call counts differ between traced ops")
    if ops[-1].digest is None:
        return None, ops, failures
    last = spans[-1]
    unreached = [
        layer for layer in workload.expect_layers
        if last.layer_calls[layer] == 0
    ]
    if unreached:
        raise SystemExit(
            f"perfbench: {workload.name} must reach layers {unreached},"
            " but their wrapped entry points recorded zero calls"
        )
    woke = [layer for layer in workload.idle_layers if last.layer_calls[layer]]
    print("  idle layers (predicted zero calls): " + (
        f"PREDICTION FAILED for {woke}" if woke
        else f"ok ({', '.join(workload.idle_layers)})"
    ))
    traced_norm = statistics.median(op.wall_norm for op in ops)
    overhead = traced_norm / untraced_norm - 1.0
    print(f"  self time by layer (traced op {last.wall_s:.3f} s,"
          f" tracing overhead {overhead:+.1%}):")
    for layer in LAYERS:
        if last.layer_calls[layer]:
            print(
                f"    {layer:12s} {last.self_s[layer]:8.4f} s"
                f" {last.self_s[layer] / last.wall_s:6.1%}"
                f" {last.layer_calls[layer]:>10,d} calls"
            )
    calls = {name: n for name, n in last.calls.items() if n}
    print(f"  entry-point calls = {json.dumps(calls, sort_keys=True)}")
    path = OUT_DIR / f"{workload.name}-seed{seed}-spans.npz"
    log.write(path)
    print(f"  spans: {len(log):,d} written to {path.relative_to(ROOT)}")
    build_s = statistics.median(builds) if builds else 0.0
    values = layer_values(spans, ops[-1], build_s, overhead)
    return values, ops, failures


def layer_values(spans, op, build_s: float, overhead: float) -> dict:
    """Per-layer metric values: self and layer times are medians over the
    traced ops; counts come from the last op (they repeat exactly)."""
    last, counters = spans[-1], op.counters

    def median(fn):
        return statistics.median(fn(s) for s in spans)

    def self_s(layer):
        return median(lambda s: s.self_s[layer])

    hits = sum(k["hits"] for info in op.memo_info for k in info.values())
    misses = sum(k["misses"] for info in op.memo_info for k in info.values())
    offered = counters.get("cache_offered_tokens", 0)
    values = {
        "engine.build_s": build_s,
        "scheduler.plan_steps": last.count(
            "ContinuousBatchScheduler.plan_step"
        ),
        "scheduler.admits": last.count("ContinuousBatchScheduler.admit"),
        "scheduler.preemptions": last.count(
            "ContinuousBatchScheduler.preempt"
        ),
        "kvcache.ops": last.count(
            "PagedKVCache.allocate", "PagedKVCache.append_token",
            "PagedKVCache.append_decode", "PagedKVCache.free",
        ),
        "kvcache.peak_util": op.kv_peak,
        "serve.windows": last.count("run_decode_window"),
        "costs.hits": hits,
        "costs.misses": misses,
        "costs.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "kernel.advances": sum(
            n for name, n in last.calls.items() if name.endswith(".advance")
        ),
        "disagg.transfers": counters.get("transfers", 0),
        "router.selects": sum(
            n for name, n in last.calls.items() if name.endswith(".select")
        ),
        "prefixcache.lookups": last.count("PrefixCache.lookup"),
        "prefixcache.stores": last.count("PrefixCache.store"),
        "prefixcache.token_hit_rate": (
            counters["cache_hit_tokens"] / offered if offered else 0.0
        ),
        "telemetry.events": counters.get("telemetry_events", 0),
        "codecs.encode_s": median(lambda s: s.outer_s(
            "HuffmanCodec.encode", "RansCodec.encode",
            "BF16LosslessCodec.compress",
        )),
        "trace.overhead_frac": overhead,
    }
    for layer in ("scheduler", "kvcache", "serve", "costs", "kernel",
                  "disagg", "router", "fleet", "prefixcache", "telemetry",
                  "calibrate"):
        values[f"{layer}.self_s"] = self_s(layer)

    # The codec path: times of the calls the benchmark makes itself (not
    # calibrate()'s internal ones), so they match the byte counts, which
    # are computed from tensor sizes and size_report(), not measured.
    compress_s = median(lambda s: s.direct_s("compress"))
    decompress_s = median(lambda s: s.direct_s("decompress"))
    zipgemm_s = median(lambda s: s.direct_s("zipgemm_execute"))
    bytes_in = counters.get("bytes_in", 0)
    bytes_out = counters.get("bytes_out", 0)
    flops = counters.get("flops", 0)
    values.update({
        "tcatbe.compress_s": compress_s,
        "tcatbe.decompress_s": decompress_s,
        "tcatbe.ratio": bytes_in / bytes_out if bytes_out else 0.0,
        "tcatbe.bytes_in": bytes_in,
        "tcatbe.bytes_out": bytes_out,
        "tcatbe.encode_mb_s": (
            bytes_in / 1e6 / compress_s if compress_s else 0.0
        ),
        "tcatbe.decode_mb_s": (
            bytes_in / 1e6 / decompress_s if decompress_s else 0.0
        ),
        "functional.zipgemm_s": zipgemm_s,
        "functional.flops": flops,
        "functional.bytes_moved": counters.get("bytes_moved", 0),
        "functional.zipgemm_mflop_s": (
            flops / 1e6 / zipgemm_s if zipgemm_s else 0.0
        ),
    })
    return values


# ----------------------------------------------------------------------
def metric_block(values: dict, specs: list[dict]) -> dict:
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.setup_probe].setup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")

    setup = setup_samples(workload.name)
    ctx = workload.setup()
    warm = Op(workload, ctx, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    ops = [warm] + run_ops(
        lambda: Op(workload, ctx, args.seed), budget, MIN_OPS
    )
    failures = [f for op in ops for f in op.failures]
    failures += consistency_failures(ops)
    timed = ops[1:]
    walls = [op.wall_s for op in timed]
    wall = statistics.median(walls)
    norms = [op.wall_norm for op in timed]
    wall_norm = statistics.median(norms)
    print(f"  inputs: {warm.describe}")
    print(f"  setup_s = {statistics.median(setup):.4f} s (median of"
          f" {len(setup)} fresh processes, min {min(setup):.4f},"
          f" max {max(setup):.4f})")
    print(f"  wall_norm = {wall_norm:.4f} x (median of {len(norms)} ops after"
          f" one warm-up op, min {min(norms):.4f}, max {max(norms):.4f})")
    print(f"  wall_s = {wall:.4f} s (median op, min {min(walls):.4f},"
          f" max {max(walls):.4f}; context)")
    refs = [op.ref_s for op in timed]
    print(f"  reference loop = {statistics.median(refs) * 1e3:.2f} ms"
          f" (median, min {min(refs) * 1e3:.2f}, max {max(refs) * 1e3:.2f};"
          " host context)")
    if warm.digest is not None:
        for name, (value, unit) in context_rates(timed, wall).items():
            print(f"  {name} = {value:.4f} {unit} (median op, context)")
    print(f"  digest = {warm.digest} (simulated outputs or compressed bytes)")
    print(f"  counters = {json.dumps(warm.counters, sort_keys=True)}")

    if args.trace:
        values, traced, traced_failures = traced_run(
            workload, ctx, args.seed, wall_norm
        )
        ops += traced
        failures += traced_failures
        metric_specs = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_norm": wall_norm,
            "peak_rss_mb": peak_rss_mb(),
        }
        metric_specs = spec["end_to_end"]
    print(f"  peak_rss_mb = {peak_rss_mb():.1f} MB")
    failed = sum(1 for op in ops if op.failures)
    if failures and not failed:
        failed = 1  # outputs that differ between ops fail the run
    print(f"  error_rate = {failed}/{len(ops)} ops")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metric_block(values, metric_specs) if values else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
