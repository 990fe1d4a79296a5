"""Differential oracle: inline iteration replay against kernel-driven steps.

``ServingCore``'s engine is the only stage of its kernel and has no
horizon, so its fast-forward window replays the next iteration inline
whenever that iteration's head is a provable no-op
(:func:`repro.serving.serve.run_decode_window`).  The same engine given
a horizon that never caps a window runs one iteration per kernel advance
instead — the path every other engine takes.  The two must agree on
every simulated output: the golden-suite digest covers timings, counts,
the telemetry event stream, the gauges (``kernel/now`` included) and the
attributions.  With telemetry on, the replayed run must also take fewer
kernel advances, or the oracle would compare a path with itself.
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest

from repro.serving import serve
from repro.serving.prefixcache import PrefixCacheConfig
from repro.serving.serve import ServingConfig, ServingCore

# The golden suite's engine, trace generator, limits, telemetry and digest.
from test_serving_goldens import LIMITS, TEL, _engine, _trace, digest

POLICIES = ("fcfs", "priority", "priority_aging", "sjf")
BUCKETS = (16, 64)
KV_FRACS = (1.0, 0.06)
DEADLINES = (None, 9.0)
RATE = 14.0
N_REQUESTS = 240
CACHE = PrefixCacheConfig(hot_frac=0.3, codec="kvcomp")


class _KernelDriven(serve.ColocatedStage):
    """The colocated engine with replay off: a horizon that is never due."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.horizon = lambda: None


def _serve(case, kernel_driven: bool):
    policy, bucket, telemetry, kv_frac, deadline, sessions = case
    config = ServingConfig(
        prefill_mode="chunked", policy=policy, limits=LIMITS,
        cost_bucket=bucket, telemetry=TEL if telemetry else None,
        prefix_cache=CACHE if sessions else None,
    )
    trace = _trace(
        "chat_sessions" if sessions else "chat", N_REQUESTS, RATE, seed=5,
    )
    engine = _engine()
    core = ServingCore(
        engine.costs, engine.kv_spec, kv_frac * engine.plan.kv_bytes, config
    )
    stage = _KernelDriven if kernel_driven else serve.ColocatedStage
    with mock.patch.object(serve, "ColocatedStage", stage):
        return core.serve(trace, deadline_s=deadline)


def _cases():
    """Every policy × bucket × telemetry × KV × deadline; the trace
    alternates between plain chat and cached sessions across the product
    so each factor meets both."""
    for idx in itertools.product(
        range(len(POLICIES)), range(len(BUCKETS)), range(2),
        range(len(KV_FRACS)), range(len(DEADLINES)),
    ):
        p, b, t, k, d = idx
        yield (POLICIES[p], BUCKETS[b], bool(t), KV_FRACS[k], DEADLINES[d],
               sum(idx) % 2 == 1)


CASES = list(_cases())


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{p}-b{b}-{'tel' if t else 'notel'}-kv{k}-dl{d}-"
         f"{'sessions' if s else 'chat'}"
         for p, b, t, k, d, s in CASES],
)
def test_inline_replay_matches_kernel_driven_steps(case):
    replayed = _serve(case, kernel_driven=False)
    stepped = _serve(case, kernel_driven=True)
    assert digest(replayed) == digest(stepped)
    if case[2]:
        advances = [
            r.telemetry.metrics.counters["kernel/advances"]
            for r in (replayed, stepped)
        ]
        assert advances[0] < advances[1]
