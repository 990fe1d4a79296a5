"""Output goldens for the serving simulator across its configuration space.

The kernel goldens (``tests/data/kernel_goldens.json``) pin ten requests
under a toy cost model at exact cost: they never open a fast-forward
window.  These tests pin every simulated output of a real-cost run —
makespan, token and step counts, preemptions, unfinished and rejected
requests, peak batch, every request timing, pool, link, replica,
prefix-cache and autoscaler accounting and, with telemetry on, the event
stream, the gauge timelines and the attributions — as one sha256 per
config in ``tests/data/serving_goldens.json``.  Beside them,
``tests/data/cost_cache_goldens.json`` pins the cost layer's work on
every bucketed case: the ``cache_info()`` (hits, misses and live entries
per step kind) of each memoized cost model the run priced through, and
``tests/data/telemetry_goldens.json`` pins the recorder's other views on
every telemetry-on case: its counters, histograms, phase shares and
Chrome-trace export.

Every config runs on llama3.1-8b / rtx4090 / zipserv with
``SchedulerLimits(16, 2048)``, once with exact costs (``cost_bucket=0``,
one step per event) and once bucketed (``cost_bucket=64``, where decode
phases fast-forward through multi-segment windows).  The matrix spans
colocated group and chunked prefill under two policies, KV-starved
preemption storms, a prefix cache on a session trace, a deadline cut,
disaggregated pools on a starved compressed link with and without
backpressure, and four fleets (one autoscaled behind an admission cap).

Regenerate all three files (only for an intentional behaviour change) with::

    PYTHONPATH=src python tests/test_serving_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.disagg import DisaggregatedCore
from repro.serving.engine import InferenceEngine
from repro.serving.fleet import AutoscalerConfig, FleetConfig, FleetCore
from repro.serving.models import get_model
from repro.serving.openloop import open_loop_arrivals
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.profiles import get_profile
from repro.serving.router import RouterConfig
from repro.serving.scheduler import SchedulerLimits
from repro.serving.serve import (
    BackpressureConfig,
    DisaggConfig,
    ServingConfig,
    ServingCore,
)
from repro.serving.telemetry import TelemetryConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "serving_goldens.json"
COST_CACHE_PATH = Path(__file__).parent / "data" / "cost_cache_goldens.json"
TELEMETRY_PATH = Path(__file__).parent / "data" / "telemetry_goldens.json"

LIMITS = SchedulerLimits(max_num_seqs=16, max_batched_tokens=2048)
BUCKETS = (0, 64)
#: The starved compressed link of the SplitZip scenarios.
LINK = {"link_gb_per_s": 0.125, "transfer_codec": "kvcomp"}
TEL = TelemetryConfig()


@lru_cache(maxsize=None)
def _engine() -> InferenceEngine:
    return InferenceEngine(
        get_model("llama3.1-8b"), get_gpu("rtx4090"), get_backend("zipserv")
    )


def _trace(profile: str, n: int, rate: float, seed: int):
    """``n`` requests of a registered profile at open-loop ``rate``."""
    stamps = open_loop_arrivals(rate, 2.0 * n / rate, seed=seed)[:n]
    return get_profile(profile).trace(stamps, seed=seed)


def _chat(n: int = 160, rate: float = 6.0):
    return _trace("chat", n, rate, seed=1)


def _busy_chat():
    return _chat(200, 8.0)


def _sessions(n: int = 160, rate: float = 4.0):
    return _trace("chat_sessions", n, rate, seed=2)


def _colocated(bucket, prefill_mode, policy="fcfs", **kw):
    return ServingConfig(
        prefill_mode=prefill_mode, policy=policy, limits=LIMITS,
        cost_bucket=bucket, **kw,
    )


def _disagg(bucket, prefill_mode, backpressure=None, telemetry=None,
            **disagg_kw):
    return ServingConfig(
        mode="disaggregated", prefill_mode="chunked", limits=LIMITS,
        cost_bucket=bucket, telemetry=telemetry,
        disagg=DisaggConfig(
            prefill_mode=prefill_mode, backpressure=backpressure,
            **LINK, **disagg_kw,
        ),
    )


def _fleet(bucket, n_replicas, routing, instance=None, autoscaler=None,
           router=None, **kw):
    return ServingConfig(
        mode="fleet", prefill_mode="chunked", limits=LIMITS,
        cost_bucket=bucket,
        fleet=FleetConfig(
            n_replicas=n_replicas, routing=routing, instance=instance,
            autoscaler=autoscaler, router=router,
        ),
        **kw,
    )


_BACKPRESSURE = BackpressureConfig(min_free_kv_frac=0.2, max_link_queue=4)
#: Scales up twice and down once on the busy trace, at both buckets.
_AUTOSCALER = AutoscalerConfig(
    min_replicas=1, interval_s=1.0, warmup_s=0.5, kv_high_frac=0.3,
    kv_low_frac=0.1,
)
#: Rejects a few requests of the busy trace at the front door.
_ADMISSION_CAP = RouterConfig(max_outstanding_per_replica=8)

#: name -> (config factory over the cost bucket, trace factory,
#: fraction of the planned KV bytes, deadline).
CONFIGS = {
    "colocated_group_fcfs": (
        lambda b: _colocated(b, "group"), _chat, 1.0, None),
    "colocated_group_aging": (
        lambda b: _colocated(b, "group", "priority_aging"), _chat, 1.0, None),
    "colocated_chunked_fcfs": (
        lambda b: _colocated(b, "chunked"), _chat, 1.0, None),
    "colocated_chunked_aging": (
        lambda b: _colocated(b, "chunked", "priority_aging"), _chat, 1.0,
        None),
    "colocated_group_kv6": (
        lambda b: _colocated(b, "group"), _busy_chat, 0.06, None),
    "colocated_chunked_kv6": (
        lambda b: _colocated(b, "chunked"), _busy_chat, 0.06, None),
    "colocated_group_kv6_telemetry": (
        lambda b: _colocated(b, "group", telemetry=TEL), _busy_chat, 0.06,
        None),
    "colocated_chunked_cache_telemetry": (
        lambda b: _colocated(
            b, "chunked", telemetry=TEL,
            prefix_cache=PrefixCacheConfig(hot_frac=0.3, codec="kvcomp"),
        ),
        _sessions, 1.0, None),
    "colocated_chunked_deadline": (
        lambda b: _colocated(b, "chunked"), lambda: _chat(200, 9.0), 1.0,
        12.0),
    "disagg_group": (
        lambda b: _disagg(b, "group"), _chat, 1.0, None),
    "disagg_chunked": (
        lambda b: _disagg(b, "chunked"), _chat, 1.0, None),
    "disagg_group_backpressure_kv5": (
        lambda b: _disagg(
            b, "group", _BACKPRESSURE, TEL,
            decode_replicas=2, link_topology="per_replica",
        ),
        _chat, 0.05, None),
    "disagg_chunked_backpressure_kv5": (
        lambda b: _disagg(
            b, "chunked", _BACKPRESSURE, TEL,
            decode_replicas=2, link_topology="per_replica",
        ),
        _chat, 0.05, None),
    "disagg_chunked_backpressure_kv5_deadline": (
        lambda b: _disagg(
            b, "chunked", _BACKPRESSURE, TEL,
            decode_replicas=2, link_topology="per_replica",
        ),
        _chat, 0.05, 15.0),
    "disagg_chunked_kv6": (
        lambda b: _disagg(b, "chunked"), _busy_chat, 0.06, None),
    "fleet_colocated_least_kv": (
        lambda b: _fleet(b, 3, "least_kv_occupancy"),
        lambda: _chat(200, 12.0), 1.0, None),
    "fleet_disagg_affinity_cache_telemetry": (
        lambda b: _fleet(
            b, 2, "session_affinity", _disagg(b, "chunked"),
            prefix_cache=PrefixCacheConfig(hot_frac=0.5, codec="kvcomp"),
            telemetry=TEL,
        ),
        _sessions, 1.0, None),
    "fleet_disagg_kv_starved": (
        lambda b: _fleet(b, 2, "least_kv_occupancy", _disagg(b, "chunked")),
        _busy_chat, 0.06, None),
    "fleet_autoscale_admission_cap_telemetry": (
        lambda b: _fleet(
            b, 3, "least_outstanding", autoscaler=_AUTOSCALER,
            router=_ADMISSION_CAP, telemetry=TEL,
        ),
        _busy_chat, 0.06, None),
}

CASES = [f"{name}@{bucket}" for name in CONFIGS for bucket in BUCKETS]
#: The cases that price through a memoized cost model.
BUCKETED_CASES = [case for case in CASES if not case.endswith("@0")]
#: The cases that record telemetry.
TELEMETRY_CASES = [
    f"{name}@{bucket}" for name, (config_of, *_) in CONFIGS.items()
    if config_of(0).telemetry is not None for bucket in BUCKETS
]


def serve_case(case: str):
    """Serve one golden case; returns ``(core, ContinuousResult)``."""
    name, bucket = case.split("@")
    config_of, trace_of, kv_frac, deadline = CONFIGS[name]
    config = config_of(int(bucket))
    engine = _engine()
    core_cls = {
        "colocated": ServingCore,
        "disaggregated": DisaggregatedCore,
        "fleet": FleetCore,
    }[config.mode]
    core = core_cls(
        engine.costs, engine.kv_spec, kv_frac * engine.plan.kv_bytes, config
    )
    return core, core.serve(trace_of(), deadline_s=deadline)


def run_case(case: str):
    """Serve one golden case; returns the ``ContinuousResult``."""
    return serve_case(case)[1]


def cost_cache_info(core) -> list:
    """``cache_info()`` of every memoized cost model ``core`` priced with
    (a fleet keeps one per cost bucket, shared by its cells)."""
    models = (
        core._memoized.values() if isinstance(core, FleetCore)
        else [core.costs]
    )
    return [model.cache_info() for model in models]


def digest(result) -> str:
    """sha256 over every simulated output of one run (reprs round-trip
    floats exactly, so equal digests mean bit-identical outputs)."""
    h = hashlib.sha256()
    h.update(repr((
        result.makespan_s, result.tokens_generated, result.n_steps,
        result.n_preemptions, result.n_unfinished, result.n_rejected,
        result.peak_running,
    )).encode())
    for timing in sorted(result.timings, key=lambda t: t.request_id):
        h.update(repr(timing).encode())
    for part in (result.pools, result.transfer, result.replicas,
                 result.prefix_cache, result.scale_events):
        h.update(repr(part).encode())
    rec = result.telemetry
    if rec is not None:
        for event in rec.events:
            h.update(repr(event).encode())
        h.update(repr(list(rec.metrics.gauges.items())).encode())
        h.update(repr(sorted(rec.attributions.items())).encode())
    return h.hexdigest()


def mask_pool_peaks(pools):
    """``pools`` with a multi-replica decode pool's ``peak_kv_frac``
    blanked: a sum over the replicas sampled whenever one of them steps,
    so it depends on how far each replica's clock has moved, which the
    windows and the decomposed runs do not hold fixed (ROADMAP.md
    item 1)."""
    return tuple(
        replace(p, peak_kv_frac=None)
        if p.name.endswith("decode") and p.n_replicas > 1 else p
        for p in pools
    )


def telemetry_digest(recorder) -> str:
    """sha256 over the recorder views the serving digest leaves out: the
    counters, the histograms, the phase shares and the Chrome trace."""
    h = hashlib.sha256()
    h.update(repr(list(recorder.metrics.counters.items())).encode())
    h.update(repr(list(recorder.metrics.histograms.items())).encode())
    h.update(repr(list(recorder.phase_shares().items())).encode())
    h.update(json.dumps(recorder.chrome_trace(), sort_keys=True).encode())
    return h.hexdigest()


def compute_goldens() -> dict:
    return {case: digest(run_case(case)) for case in CASES}


def compute_cost_cache_goldens() -> dict:
    return {
        case: cost_cache_info(serve_case(case)[0])
        for case in BUCKETED_CASES
    }


def compute_telemetry_goldens() -> dict:
    return {
        case: telemetry_digest(run_case(case).telemetry)
        for case in TELEMETRY_CASES
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cost_cache_goldens() -> dict:
    return json.loads(COST_CACHE_PATH.read_text())


@pytest.fixture(scope="module")
def telemetry_goldens() -> dict:
    return json.loads(TELEMETRY_PATH.read_text())


_HINT = (
    "serving outputs drifted from tests/data/serving_goldens.json; if the"
    " behaviour change is intentional, regenerate it (see the module"
    " docstring)"
)


@pytest.mark.parametrize("case", CASES)
def test_serving_outputs_match_golden(goldens, case):
    assert digest(run_case(case)) == goldens[case], _HINT


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case", BUCKETED_CASES)
def test_cost_cache_work_matches_golden(cost_cache_goldens, case):
    # Every pricing query, hit and miss per step kind: a change that
    # keeps the outputs but reprices more (or less) shows up here.
    core, _ = serve_case(case)
    assert cost_cache_info(core) == cost_cache_goldens[case], (
        "cost-cache work drifted from tests/data/cost_cache_goldens.json"
    )


def test_cost_cache_goldens_cover_every_bucketed_case(cost_cache_goldens):
    assert sorted(cost_cache_goldens) == sorted(BUCKETED_CASES)


@pytest.mark.parametrize("case", TELEMETRY_CASES)
def test_telemetry_views_match_golden(telemetry_goldens, case):
    assert telemetry_digest(run_case(case).telemetry) == (
        telemetry_goldens[case]
    ), "telemetry views drifted from tests/data/telemetry_goldens.json"


def test_telemetry_goldens_cover_every_telemetry_case(telemetry_goldens):
    assert sorted(telemetry_goldens) == sorted(TELEMETRY_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(json.dumps(compute_goldens(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    COST_CACHE_PATH.write_text(
        json.dumps(compute_cost_cache_goldens(), indent=1) + "\n"
    )
    print(f"wrote {COST_CACHE_PATH}")
    TELEMETRY_PATH.write_text(
        json.dumps(compute_telemetry_goldens(), indent=1) + "\n"
    )
    print(f"wrote {TELEMETRY_PATH}")
