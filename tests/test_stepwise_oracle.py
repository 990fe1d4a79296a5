"""Differential oracle: fast-forward windows against the stepwise loop.

With bucketed costs (``cost_bucket > 0``) an engine fast-forwards a
stable decode batch through a window of ``k`` identically priced steps
in one iteration (:func:`repro.serving.serve.run_decode_window`).  The
window adds the clock and ``busy_s`` one ``step_s`` at a time and takes
exactly the steps that start before its next event and no later than
the kernel's deadline, so a windowed run must equal the same run with
every window cut to a single step (``serve.decode_window_len`` patched
to return 1): every request timing, the makespan, step and preemption
counts, peak batch, pools, replicas, transfer and prefix-cache stats,
scale events and latency attributions.  Telemetry events and gauges are
left out: a window records one ``decode`` span and one engine sample
where the stepwise loop records one per step.

The configs are every bucketed serving golden case and a seeded sweep
over colocated chunked prefill, disaggregated cells (group and chunked
prefill, one or two replicas per pool, shared and per-replica links)
and colocated and disaggregated fleets (every routing policy, with and
without an autoscaler and an admission cap), each crossed with a
scheduling policy, a KV budget, a deadline and a chat or session trace
(sessions with a prefix cache wherever the topology takes one).

Two exclusions remain, both owned by ROADMAP.md item 1 (plumbing-
invariant simulation):

* the backpressure configs — the gated prefill pool reads decode-pool
  state at the instant it is woken, which a window has already moved
  to the window's end;
* the pool-wide ``peak_kv_frac`` of a decode pool with more than one
  replica — a sum over the replicas sampled whenever one of them steps,
  so replicas at different clocks give different sums.  Every other
  field of those runs is compared.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from functools import partial
from unittest import mock

import pytest

from repro.serving import serve
from repro.serving.disagg import DisaggregatedCore
from repro.serving.fleet import FleetConfig, FleetCore
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.serve import (
    LINK_TOPOLOGIES,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)

# The golden suite's engine, configs, trace generator, limits and link.
from test_serving_goldens import (
    _ADMISSION_CAP,
    _AUTOSCALER,
    BUCKETED_CASES,
    CONFIGS,
    LIMITS,
    LINK,
    TEL,
    _engine,
    _trace,
    mask_pool_peaks,
    serve_case,
)

#: Golden configs whose prefill pool a backpressure watermark gates.
BACKPRESSURE = tuple(
    name for name, (config_of, *_) in CONFIGS.items()
    if config_of(64).disagg.backpressure is not None
)
GOLDEN_CASES = [
    case for case in BUCKETED_CASES
    if case.split("@")[0] not in BACKPRESSURE
]

BUCKET = 64
POLICIES = ("fcfs", "priority_aging", "sjf")
KV_FRACS = (0.04, 0.06, 1.0)
DEADLINES = (None, 10.0)
ROUTINGS = (
    "round_robin", "least_outstanding", "least_kv_occupancy",
    "session_affinity",
)
CACHE = PrefixCacheConfig(hot_frac=0.3, codec="kvcomp")
N_REQUESTS = 120
RATE = 10.0
#: Sweep configs: every topology at least once, factors drawn per config.
N_SWEEP = 64
SEED = 24


def _disagg_cell(policy, prefill_mode="chunked", prefill_replicas=1,
                 decode_replicas=1, link_topology="shared", cache=None):
    return ServingConfig(
        mode="disaggregated", prefill_mode="chunked", policy=policy,
        limits=LIMITS, cost_bucket=BUCKET, prefix_cache=cache,
        disagg=DisaggConfig(
            prefill_mode=prefill_mode, prefill_replicas=prefill_replicas,
            decode_replicas=decode_replicas, link_topology=link_topology,
            **LINK,
        ),
    )


def _colocated(policy, cache):
    return ServingConfig(
        prefill_mode="chunked", policy=policy, limits=LIMITS,
        cost_bucket=BUCKET, prefix_cache=cache,
    )


def _disagg(mode, n_prefill, n_decode, link):
    def config(policy, cache):
        # Group prefill has no scheduler to skip cached tokens with.
        return _disagg_cell(
            policy, mode, n_prefill, n_decode, link,
            cache if mode == "chunked" else None,
        )
    return config


def _fleet(cell, routing, autoscale, cap):
    def config(policy, cache):
        return ServingConfig(
            mode="fleet", prefill_mode="chunked", policy=policy,
            limits=LIMITS, cost_bucket=BUCKET, prefix_cache=cache,
            fleet=FleetConfig(
                n_replicas=3 if cell == "colocated" else 2,
                routing=routing,
                instance=_disagg_cell(policy) if cell == "disagg" else None,
                autoscaler=_AUTOSCALER if autoscale else None,
                router=_ADMISSION_CAP if cap else None,
            ),
        )
    return config


def _topologies():
    """``(name, config over (policy, cache))`` for every swept topology."""
    yield "colocated", _colocated
    for spec in itertools.product(
        ("group", "chunked"), (1, 2), (1, 2), LINK_TOPOLOGIES,
    ):
        mode, n_prefill, n_decode, link = spec
        yield f"disagg_{mode}_p{n_prefill}d{n_decode}_{link}", _disagg(*spec)
    for spec in itertools.product(
        ("colocated", "disagg"), ROUTINGS, (False, True), (False, True),
    ):
        cell, routing, autoscale, cap = spec
        name = (
            f"fleet_{cell}_{routing}" + ("_autoscaled" if autoscale else "")
            + ("_capped" if cap else "")
        )
        yield name, _fleet(*spec)


def _sweep() -> dict:
    """name -> (config, trace factory, KV fraction, deadline)."""
    rng = random.Random(SEED)
    topologies = list(_topologies())
    sweep = {}
    for i in range(N_SWEEP):
        topology, config_of = topologies[i % len(topologies)]
        policy = rng.choice(POLICIES)
        kv_frac = rng.choice(KV_FRACS)
        deadline = rng.choice(DEADLINES)
        sessions = rng.random() < 0.5
        seed = rng.randrange(1000)
        config = replace(
            config_of(policy, CACHE if sessions else None), telemetry=TEL,
        )
        trace = partial(
            _trace, "chat_sessions" if sessions else "chat", N_REQUESTS,
            RATE, seed=seed,
        )
        name = (
            f"{topology}-{policy}-kv{kv_frac}-dl{deadline}-"
            f"{'sessions' if sessions else 'chat'}-s{seed}"
        )
        sweep[name] = (config, trace, kv_frac, deadline)
    return sweep


SWEEP = _sweep()


def _serve(case: str):
    if case in SWEEP:
        config, trace, kv_frac, deadline = SWEEP[case]
        engine = _engine()
        core_cls = {
            "colocated": ServingCore,
            "disaggregated": DisaggregatedCore,
            "fleet": FleetCore,
        }[config.mode]
        core = core_cls(
            engine.costs, engine.kv_spec, kv_frac * engine.plan.kv_bytes,
            config,
        )
        return core.serve(trace(), deadline_s=deadline)
    return serve_case(case)[1]


def outputs(result) -> dict:
    """Every simulated output the stepwise loop must reproduce."""
    out = {
        "counts": (
            result.makespan_s, result.tokens_generated, result.n_steps,
            result.n_preemptions, result.n_unfinished, result.n_rejected,
            result.peak_running,
        ),
        "timings": sorted(result.timings, key=lambda t: t.request_id),
        "pools": mask_pool_peaks(result.pools),
        "transfer": result.transfer,
        "replicas": tuple(
            replace(r, pools=mask_pool_peaks(r.pools))
            for r in result.replicas
        ),
        "prefix_cache": result.prefix_cache,
        "scale_events": result.scale_events,
    }
    if result.telemetry is not None:
        out["attributions"] = sorted(result.telemetry.attributions.items())
    return out


def _stepwise(*args, **kwargs) -> int:
    return 1


@pytest.mark.parametrize("case", GOLDEN_CASES + list(SWEEP))
def test_windows_equal_the_stepwise_loop(case):
    windows = []
    real = serve.run_decode_window

    def counted(*args, **kwargs):
        windows.append(1)
        return real(*args, **kwargs)

    with mock.patch.object(serve, "run_decode_window", counted):
        windowed = outputs(_serve(case))
    with mock.patch.object(serve, "decode_window_len", _stepwise):
        stepped = outputs(_serve(case))
    for key in stepped:
        assert windowed[key] == stepped[key], key
    # Every swept config opens windows (colocated group prefill, in the
    # goldens, never does).
    if case in SWEEP:
        assert windows


def test_sweep_covers_every_topology_and_factor():
    names = list(SWEEP)
    for topology, _ in _topologies():
        assert any(n.startswith(f"{topology}-") for n in names), topology
    for factor in (
        *(f"-{p}-" for p in POLICIES), *(f"-kv{k}-" for k in KV_FRACS),
        *(f"-dl{d}-" for d in DEADLINES), "-sessions-", "-chat-",
    ):
        assert any(factor in n for n in names), factor

