#!/usr/bin/env python
"""Serving-benchmark regression gate.

Replays the deterministic serving scenarios registered in
``benchmarks/bench_serving.py`` (``SCENARIOS`` — the module doubles as a
library), writes the measured numbers to
``benchmarks/BENCH_serving.json`` and fails against the checked-in
baseline (``benchmarks/BENCH_serving_baseline.json``) on either kind of
regression:

* **accuracy** — simulated makespan or token throughput drifting more
  than ``TOLERANCE`` (10%).  These are simulator outputs,
  bit-deterministic for a given code state, so any drift is a real
  behaviour change (a cost-model edit, a scheduler reordering, a codec
  ratio shift), never CI noise.
* **sim-throughput** — kernel events per wall second
  (``events_per_s``) dropping more than ``SIM_THROUGHPUT_TOLERANCE``
  (50%) below the baseline.  Unlike the accuracy metrics this one is
  wall-clock dependent: the committed baseline captures the machine it
  was blessed on, and the wide tolerance absorbs host noise while still
  catching the order-of-change a simulator-core regression produces (an
  accidental O(n) re-poll, a de-vectorized hot loop).

Each scenario must also finish inside ``WALL_BUDGET_S`` — the
large-trace scenarios (100k requests colocated, 20k disaggregated)
exist precisely to keep raw simulator speed from regressing below what
roadmap-scale studies need.

The serving mode additionally gates **telemetry overhead**: after the
baseline compare, the 20k-request disaggregated trace is replayed once
more under ambient telemetry
(:func:`repro.serving.telemetry.recording`), and its events/s — over the
replay *plus* the first read of every recorder view, since the recorder
builds its events, metrics and attributions on that read — must stay
within ``SIM_THROUGHPUT_TOLERANCE`` of the telemetry-off value measured
moments earlier in the same process: recording every span, transfer
and attribution may cost tens of percent, never the order-of-change of
a hot-loop slip.  Telemetry *off* needs no gate of its own: with no
recorder the instrumentation short-circuits to ``None`` checks, and
the bit-identical baseline metrics above already pin that path.

``wall_s`` and ``sim_s_per_wall_s`` (simulated seconds advanced per
wall second) are recorded in the per-run report for humans but not
gated directly and not committed in the baseline.

``--mode capacity`` gates the open-loop capacity surface instead: it
re-measures every workload profile × serving configuration knee via
``benchmarks/bench_capacity.py`` and fails when any knee drops more
than ``KNEE_TOLERANCE`` (10%) below the committed
``benchmarks/BENCH_capacity_baseline.json``.  Knees are simulated and
seeded, so — like the accuracy metrics — any drop is a real capacity
regression, never CI noise.  Capacity rows are additionally
speed-gated like the serving scenarios: each profile × config row's
``events_per_s`` (kernel events across the whole sweep for that row
per wall second) must stay within ``SIM_THROUGHPUT_TOLERANCE`` of the
baseline, and each row must finish inside ``WALL_BUDGET_S``.

``--mode fleet`` applies the identical gate to the scale-out surface
(``benchmarks/bench_fleet.py`` /
``benchmarks/BENCH_fleet_baseline.json``): per-profile knees for a
single replica vs a 4-replica fleet under round-robin and
least-KV-occupancy routing.

Usage::

    python tools/bench_regression.py                  # gate against baseline
    python tools/bench_regression.py --update-baseline  # re-bless the numbers
    python tools/bench_regression.py --mode capacity  # gate the knees
    python tools/bench_regression.py --mode fleet     # gate fleet scale-out

CI runs all three gates in the tests job (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_serving  # noqa: E402

#: Allowed relative regression of the simulated (accuracy) metrics.
TOLERANCE = 0.10

#: Allowed relative regression of events/s before the gate fails.  Wide
#: enough for host noise — shared CI runners have been measured
#: drifting ±40% on multi-second windows — while still catching a
#: simulator-core slip, which costs 2-10x (an accidental O(stages)
#: re-poll, a de-vectorized hot loop), not tens of percent.
SIM_THROUGHPUT_TOLERANCE = 0.50

#: Hard wall-clock ceiling per scenario (seconds).  The 100k-request
#: colocated trace runs in well under a quarter of this on the blessing
#: machine; hitting the ceiling means the simulator lost its speed, not
#: that the host had a bad moment.
WALL_BUDGET_S = 120.0

#: Allowed relative drop of any capacity knee (``--mode capacity``).
KNEE_TOLERANCE = 0.10

#: Deterministic serving scenarios, shared with the bench harness CLI.
SCENARIOS = bench_serving.SCENARIOS

DEFAULT_BASELINE = ROOT / "benchmarks" / "BENCH_serving_baseline.json"
#: Per-run artifact lives next to the baseline, not in the repo root
#: (both paths are gitignored; only the baseline is committed).
DEFAULT_OUTPUT = ROOT / "benchmarks" / "BENCH_serving.json"

CAPACITY_BASELINE = ROOT / "benchmarks" / "BENCH_capacity_baseline.json"
CAPACITY_OUTPUT = ROOT / "benchmarks" / "BENCH_capacity.json"

FLEET_BASELINE = ROOT / "benchmarks" / "BENCH_fleet_baseline.json"
FLEET_OUTPUT = ROOT / "benchmarks" / "BENCH_fleet.json"


def measure() -> dict:
    """Run every scenario; returns {name: {metric: value}}."""
    out = {}
    for name, runner in SCENARIOS.items():
        start = time.perf_counter()
        result = runner()
        wall = time.perf_counter() - start
        events_per_s = result.n_steps / wall
        out[name] = {
            "makespan_s": result.makespan_s,
            "throughput_tok_s": result.throughput_tok_s,
            "n_steps": result.n_steps,
            "events_per_s": round(events_per_s, 1),
            "sim_s_per_wall_s": round(result.makespan_s / wall, 1),
            "wall_s": round(wall, 3),
        }
        print(
            f"  {name:22s} makespan={result.makespan_s:9.3f}s"
            f" tput={result.throughput_tok_s:9.1f} tok/s"
            f" events/s={events_per_s:9,.0f}"
            f" wall={wall:6.3f}s"
        )
    return out


def check_telemetry_overhead(measured: dict) -> list[str]:
    """Replay the 20k disagg trace recording; gate the events/s ratio.

    Compares against the telemetry-off ``large_trace_disagg`` row just
    measured in this process (same host, same cache warmth), so the
    check is a genuine overhead ratio, not a cross-machine number.  The
    gated time includes the first read of every recorder view (events,
    metrics, attributions): the recorder folds them from its log then,
    so timing the replay alone would miss that work.
    """
    from repro.serving import telemetry

    base_eps = measured["large_trace_disagg"]["events_per_s"]
    start = time.perf_counter()
    with telemetry.recording() as handle:
        result = bench_serving.SCENARIOS["large_trace_disagg"]()
    serve_wall = time.perf_counter() - start
    recorder = handle.recorder
    n_attr = 0
    if recorder is not None:
        list(recorder.events)
        metrics = recorder.metrics
        metrics.gauges, metrics.counters, metrics.histograms
        n_attr = len(recorder.attributions)
    wall = time.perf_counter() - start
    serve_eps = result.n_steps / serve_wall
    eps = result.n_steps / wall
    print(
        f"  telemetry overhead: {serve_eps:,.0f} events/s recording"
        f" ({serve_eps / base_eps - 1:+.1%}), {eps:,.0f} with the first"
        f" read ({eps / base_eps - 1:+.1%}) vs {base_eps:,.0f} off"
        f" ({n_attr:,d} requests attributed)"
    )
    failures = []
    if recorder is None or n_attr != result.n_requests:
        failures.append(
            "telemetry run attributed"
            f" {n_attr:,d}/{result.n_requests:,d} requests"
        )
    if eps < base_eps * (1 - SIM_THROUGHPUT_TOLERANCE):
        failures.append(
            f"telemetry overhead: {eps:,.0f} events/s recording and"
            f" reading vs {base_eps:,.0f} telemetry-off"
            f" ({eps / base_eps - 1:.1%}, tolerance"
            f" {SIM_THROUGHPUT_TOLERANCE:.0%})"
        )
    return failures


def compare(measured: dict, baseline: dict) -> list[str]:
    """Regressions beyond tolerance, as human-readable failure lines."""
    failures = [
        f"{name}: scenario has no baseline entry — run"
        " --update-baseline and commit it"
        for name in measured if name not in baseline
    ]
    for name, row in measured.items():
        if row["wall_s"] > WALL_BUDGET_S:
            failures.append(
                f"{name}: wall {row['wall_s']:.1f}s over the"
                f" {WALL_BUDGET_S:.0f}s budget"
            )
    for name, base in baseline.items():
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        # Makespan regresses by going up, throughput by going down.
        if got["makespan_s"] > base["makespan_s"] * (1 + TOLERANCE):
            failures.append(
                f"{name}: makespan {got['makespan_s']:.3f}s vs baseline"
                f" {base['makespan_s']:.3f}s"
                f" (+{got['makespan_s'] / base['makespan_s'] - 1:.1%})"
            )
        if got["throughput_tok_s"] < base["throughput_tok_s"] * (
            1 - TOLERANCE
        ):
            failures.append(
                f"{name}: throughput {got['throughput_tok_s']:.1f} vs"
                f" baseline {base['throughput_tok_s']:.1f} tok/s"
                f" ({got['throughput_tok_s'] / base['throughput_tok_s'] - 1:.1%})"
            )
        # Sim-throughput: wall-clock, gated wide (see module docstring).
        # Older baselines predate the key — skip the gate until re-blessed.
        base_eps = base.get("events_per_s")
        if base_eps and got["events_per_s"] < base_eps * (
            1 - SIM_THROUGHPUT_TOLERANCE
        ):
            failures.append(
                f"{name}: sim-throughput {got['events_per_s']:,.0f}"
                f" events/s vs baseline {base_eps:,.0f}"
                f" ({got['events_per_s'] / base_eps - 1:.1%})"
            )
    return failures


def measure_capacity() -> dict:
    """Re-measure every profile × config knee (no curves — gate only)."""
    import bench_capacity

    return bench_capacity.measure_capacity(quick=False, curves=False)


def compare_capacity(
    measured: dict, baseline: dict, bench_name: str = "bench_capacity.py"
) -> list[str]:
    """Knee drops beyond KNEE_TOLERANCE, as failure lines.

    Knees may *rise* freely (that is the point of the work); only drops
    gate.  A profile × config pair present in the baseline but missing
    from the run — or vice versa — fails loudly rather than silently
    shrinking coverage.  Rows are also speed-gated: wall budget per
    row, and ``events_per_s`` within ``SIM_THROUGHPUT_TOLERANCE`` of
    the baseline (skipped for baselines that predate the key).
    """
    failures = []
    got_profiles = measured["profiles"]
    base_profiles = baseline["profiles"]
    for profile, configs in got_profiles.items():
        for config, got_row in configs.items():
            if base_profiles.get(profile, {}).get(config) is None:
                failures.append(
                    f"{profile}/{config}: no baseline entry — run"
                    f" {bench_name} --update-baseline and commit it"
                )
            if got_row.get("wall_s", 0.0) > WALL_BUDGET_S:
                failures.append(
                    f"{profile}/{config}: wall {got_row['wall_s']:.1f}s"
                    f" over the {WALL_BUDGET_S:.0f}s budget"
                )
    for profile, configs in base_profiles.items():
        for config, base_row in configs.items():
            got_row = got_profiles.get(profile, {}).get(config)
            if got_row is None:
                failures.append(
                    f"{profile}/{config}: missing from this run"
                )
                continue
            got_knee = got_row["knee_rps"]
            base_knee = base_row["knee_rps"]
            if got_knee < base_knee * (1 - KNEE_TOLERANCE):
                failures.append(
                    f"{profile}/{config}: knee {got_knee:.3f} rps vs"
                    f" baseline {base_knee:.3f} rps"
                    f" ({got_knee / base_knee - 1:.1%})"
                )
            base_eps = base_row.get("events_per_s")
            if base_eps and got_row.get("events_per_s", 0.0) < base_eps * (
                1 - SIM_THROUGHPUT_TOLERANCE
            ):
                failures.append(
                    f"{profile}/{config}: sim-throughput"
                    f" {got_row['events_per_s']:,.0f} events/s vs"
                    f" baseline {base_eps:,.0f}"
                    f" ({got_row['events_per_s'] / base_eps - 1:.1%})"
                )
    return failures


def _run_capacity_mode(args) -> int:
    """Shared driver for the surface gates (capacity and fleet modes)."""
    import bench_capacity

    if args.mode == "fleet":
        import bench_fleet

        print("running fleet capacity scenarios...")
        measured = bench_fleet.measure_fleet(quick=False, curves=False)
        bench_name = "bench_fleet.py"
    else:
        print("running open-loop capacity scenarios...")
        measured = measure_capacity()
        bench_name = "bench_capacity.py"
    args.output.write_text(json.dumps(measured, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.update_baseline:
        args.baseline.write_text(
            json.dumps(bench_capacity._strip_wall(measured), indent=2)
            + "\n"
        )
        print(f"updated baseline {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"FAIL: no baseline at {args.baseline}; run with"
            " --update-baseline and commit it", file=sys.stderr,
        )
        return 1

    failures = compare_capacity(
        measured, json.loads(args.baseline.read_text()), bench_name
    )
    if failures:
        print(
            f"FAIL: {args.mode} surface regressed"
            f" (knee > {KNEE_TOLERANCE:.0%} drop, sim-throughput"
            f" > {SIM_THROUGHPUT_TOLERANCE:.0%} drop, or wall budget):",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"ok: all {args.mode} knees within {KNEE_TOLERANCE:.0%} and"
        f" sim-throughput within {SIM_THROUGHPUT_TOLERANCE:.0%} of the"
        " baseline"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("serving", "capacity", "fleet"),
        default="serving",
        help="serving: scenario makespans/throughput;"
        " capacity: open-loop knees per profile x config;"
        " fleet: scale-out knees per routing policy",
    )
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-bless the current numbers as the baseline",
    )
    args = parser.parse_args(argv)

    if args.baseline is None:
        args.baseline = {
            "capacity": CAPACITY_BASELINE,
            "fleet": FLEET_BASELINE,
        }.get(args.mode, DEFAULT_BASELINE)
    if args.output is None:
        args.output = {
            "capacity": CAPACITY_OUTPUT,
            "fleet": FLEET_OUTPUT,
        }.get(args.mode, DEFAULT_OUTPUT)

    if args.mode in ("capacity", "fleet"):
        return _run_capacity_mode(args)

    print("running serving benchmark scenarios...")
    measured = measure()
    args.output.write_text(json.dumps(measured, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.update_baseline:
        # Strip the purely informational wall-clock columns; the
        # committed baseline carries only gated metrics (events_per_s
        # stays — it is the sim-throughput gate's reference point, and
        # machine-dependence is inherent to gating speed at all).
        blessed = {
            name: {
                k: v for k, v in row.items()
                if k not in ("wall_s", "sim_s_per_wall_s")
            }
            for name, row in measured.items()
        }
        args.baseline.write_text(json.dumps(blessed, indent=2) + "\n")
        print(f"updated baseline {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"FAIL: no baseline at {args.baseline}; run with"
            " --update-baseline and commit it", file=sys.stderr,
        )
        return 1

    baseline = json.loads(args.baseline.read_text())
    failures = compare(measured, baseline)
    failures += check_telemetry_overhead(measured)
    if failures:
        print(
            "FAIL: serving benchmark regressed"
            f" (accuracy >{TOLERANCE:.0%}, sim-throughput"
            f" >{SIM_THROUGHPUT_TOLERANCE:.0%}, or wall budget):",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"ok: all scenarios within {TOLERANCE:.0%} accuracy and"
        f" {SIM_THROUGHPUT_TOLERANCE:.0%} sim-throughput of the baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
