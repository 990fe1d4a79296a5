"""Multi-turn sessions end to end: traces, profile, cache, fleet.

Covers the session workload generators (``session_trace`` and the
``chat_sessions`` profile, golden-pinned), the prefix cache wired into
the serving topologies (hit accounting, cache-off bit-compatibility),
session-affinity routing with mixed keyed/unkeyed traffic, and
router-level admission control — including the conservation property
``finished + unfinished + rejected == offered`` under overload.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu.specs import get_gpu
from repro.serving import (
    DisaggConfig,
    FleetConfig,
    FleetCore,
    InferenceEngine,
    PrefixCacheConfig,
    RouterConfig,
    ServingConfig,
    TelemetryConfig,
    get_backend,
    get_model,
    session_trace,
)
from repro.serving.profiles import get_profile, list_profiles
from repro.serving.scheduler import Request

GOLDEN_PATH = Path(__file__).parent / "data" / "profile_goldens.json"
GOLDEN_ARRIVALS = [0.5 * i for i in range(8)]


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(
        get_model("llama3.1-8b"), get_gpu("rtx4090"),
        get_backend("zipserv"), gpu_mem_util=0.9,
    )


def _fields(trace):
    return [
        (r.request_id, r.arrival_s, r.prompt_len, r.max_new_tokens,
         r.session_id, r.prefix_tokens)
        for r in trace
    ]


class TestSessionTrace:
    def test_deterministic_per_seed(self):
        a = _fields(session_trace(8, 2.0, seed=7))
        b = _fields(session_trace(8, 2.0, seed=7))
        assert a == b
        assert a != _fields(session_trace(8, 2.0, seed=8))

    def test_validation(self):
        with pytest.raises(ConfigError):
            session_trace(0, 1.0)
        with pytest.raises(ConfigError):
            session_trace(4, 0.0)
        with pytest.raises(ConfigError):
            session_trace(4, 1.0, mean_turns=0.5)
        with pytest.raises(ConfigError):
            session_trace(4, 1.0, think_time_s=-1.0)

    def test_first_turns_share_only_the_system_prompt(self):
        trace = session_trace(6, 1.0, system_prompt_len=128, seed=1)
        firsts = {}
        for req in trace:
            firsts.setdefault(req.session_id, req)
        for req in firsts.values():
            assert req.prefix_tokens == 0
            assert req.prompt_len >= 128

    def test_prefix_is_exactly_the_previous_context(self):
        trace = session_trace(5, 1.0, seed=3)
        by_session: dict[int, list[Request]] = {}
        for req in trace:
            by_session.setdefault(req.session_id, []).append(req)
        for turns in by_session.values():
            turns.sort(key=lambda r: r.arrival_s)
            context = 0
            for req in turns:
                assert req.prefix_tokens == context
                assert req.prompt_len > context  # history + a new turn
                context = req.prompt_len + req.max_new_tokens

    def test_sorted_and_renumbered(self):
        trace = session_trace(6, 3.0, seed=2)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        assert trace[0].arrival_s == 0.0  # start_at anchor

    def test_max_turns_caps_sessions(self):
        trace = session_trace(16, 4.0, mean_turns=8.0, max_turns=3,
                              seed=4)
        counts: dict[int, int] = {}
        for req in trace:
            counts[req.session_id] = counts.get(req.session_id, 0) + 1
        assert max(counts.values()) <= 3

    def test_zero_think_time_stacks_turns(self):
        trace = session_trace(3, 1.0, think_time_s=0.0, seed=5)
        by_session: dict[int, list[float]] = {}
        for req in trace:
            by_session.setdefault(req.session_id, []).append(req.arrival_s)
        for stamps in by_session.values():
            assert len(set(stamps)) == 1


class TestChatSessionsProfile:
    def test_registered(self):
        assert "chat_sessions" in list_profiles()

    def test_matches_golden(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        trace = get_profile("chat_sessions").trace(GOLDEN_ARRIVALS, seed=0)
        got = [
            {
                "request_id": r.request_id,
                "arrival_s": r.arrival_s,
                "prompt_len": r.prompt_len,
                "max_new_tokens": r.max_new_tokens,
                "tenant": r.tenant,
                "priority": r.priority,
                "session_id": r.session_id,
                "prefix_tokens": r.prefix_tokens,
            }
            for r in trace
        ]
        assert got == goldens["chat_sessions"], (
            "chat_sessions drifted from its committed golden; if"
            " intentional, regenerate tests/data/profile_goldens.json"
            " and re-bless the capacity baselines"
        )

    def test_deterministic_per_seed(self):
        profile = get_profile("chat_sessions")
        arrivals = [0.1 * i for i in range(40)]
        assert _fields(profile.trace(arrivals, seed=9)) == _fields(
            profile.trace(arrivals, seed=9)
        )

    def test_turns_carry_growing_prefixes(self):
        profile = get_profile("chat_sessions")
        arrivals = [0.1 * i for i in range(60)]
        trace = profile.trace(arrivals, seed=2)
        assert any(r.prefix_tokens > 0 for r in trace)
        for req in trace:
            if req.prefix_tokens:
                assert req.prompt_len > req.prefix_tokens


class TestColocatedCache:
    def test_cache_off_reports_no_stats(self, engine):
        trace = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(40)], seed=1
        )
        result = engine.serve(trace, config=ServingConfig())
        assert result.prefix_cache is None

    def test_cache_on_hits_and_conserves(self, engine):
        trace = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(60)], seed=1
        )
        config = ServingConfig(prefix_cache=PrefixCacheConfig())
        result = engine.serve(trace, config=config)
        stats = result.prefix_cache
        assert stats is not None
        assert stats.n_hits + stats.n_misses == stats.n_lookups
        assert stats.hit_tokens <= stats.offered_prefix_tokens
        assert stats.n_hits > 0
        assert result.n_requests == len(trace)
        # Per-request output work is untouched — the cache only skips
        # prefill of tokens whose KV is already resident.
        assert result.tokens_generated == sum(
            r.max_new_tokens for r in trace
        )

    def test_cache_hits_never_slow_the_run(self, engine):
        trace_off = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(60)], seed=1
        )
        trace_on = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(60)], seed=1
        )
        off = engine.serve(trace_off, config=ServingConfig())
        on = engine.serve(
            trace_on,
            config=ServingConfig(prefix_cache=PrefixCacheConfig()),
        )
        assert on.makespan_s <= off.makespan_s

    def test_session_fields_alone_change_nothing_when_cache_off(
        self, engine
    ):
        # The same lengths/arrivals with and without session tagging
        # must produce byte-identical results when no cache is
        # configured — the gate for the bit-compat discipline.
        tagged = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(40)], seed=3
        )
        stripped = [
            Request(
                request_id=r.request_id,
                prompt_len=r.prompt_len,
                max_new_tokens=r.max_new_tokens,
                arrival_s=r.arrival_s,
                tenant=r.tenant,
                priority=r.priority,
            )
            for r in tagged
        ]
        a = engine.serve(tagged, config=ServingConfig())
        b = engine.serve(stripped, config=ServingConfig())
        assert a.makespan_s == b.makespan_s
        assert a.n_steps == b.n_steps
        assert a.timings == b.timings

    @pytest.mark.parametrize("prefill_mode", ["group", "chunked"])
    def test_cold_hits_charge_their_decompress(self, engine, prefill_mode):
        # Cold-tier hits owe a decompress stream: in both colocated
        # prefill modes the clock pays, as ``decompress`` spans, exactly
        # the delay the cache reports (and attribution charges).
        trace = get_profile("chat_sessions").trace(
            [0.15 * i for i in range(80)], seed=2
        )
        config = ServingConfig(
            prefill_mode=prefill_mode,
            prefix_cache=PrefixCacheConfig(
                capacity_frac=0.05, hot_frac=0.3, codec="kvcomp"
            ),
            telemetry=TelemetryConfig(),
        )
        result = engine.serve(trace, config=config)
        cold_s = result.prefix_cache.cold_delay_s
        assert cold_s > 0.0
        charged = sum(
            e.dur_s for e in result.telemetry.events
            if e.kind == "decompress"
        )
        assert charged == pytest.approx(cold_s, rel=1e-9)

    def test_auto_codec_resolves_through_the_policy(self, engine):
        selection = engine.resolve_codecs(
            ServingConfig(prefix_cache=PrefixCacheConfig(codec="auto"))
        )
        spec = selection["prefix"]
        assert spec.codec != "auto"
        assert spec.placement == "prefix"


class TestDisaggCache:
    def test_chunked_prefill_pool_carries_the_cache(self, engine):
        trace = get_profile("chat_sessions").trace(
            [0.25 * i for i in range(50)], seed=2
        )
        config = ServingConfig(
            mode="disaggregated",
            disagg=DisaggConfig(prefill_mode="chunked"),
            prefix_cache=PrefixCacheConfig(),
        )
        result = engine.serve(trace, config=config)
        stats = result.prefix_cache
        assert stats is not None and stats.n_lookups > 0
        assert result.n_requests == len(trace)

    def test_group_prefill_rejects_a_cache(self, engine):
        trace = get_profile("chat_sessions").trace([0.0, 0.5], seed=0)
        config = ServingConfig(
            mode="disaggregated",
            prefix_cache=PrefixCacheConfig(),
        )
        # The same cell inside a fleet must raise too, not run cache-less.
        fleet = ServingConfig(
            mode="fleet", fleet=FleetConfig(instances=(config, config)),
        )
        for config in (config, fleet):
            with pytest.raises(ConfigError, match="chunked"):
                engine.serve(trace, config=config)


class TestSessionAffinity:
    def _mixed_trace(self):
        keyed = get_profile("chat_sessions").trace(
            [0.2 * i for i in range(40)], seed=5
        )
        unkeyed = [
            Request(
                request_id=1000 + i,
                prompt_len=64,
                max_new_tokens=16,
                arrival_s=0.2 * i + 0.1,
            )
            for i in range(40)
        ]
        return sorted(
            keyed + unkeyed, key=lambda r: (r.arrival_s, r.request_id)
        )

    def test_sessions_stick_and_unkeyed_spread(self, engine):
        trace = self._mixed_trace()
        config = ServingConfig(
            mode="fleet",
            fleet=FleetConfig(n_replicas=4, routing="session_affinity"),
        )
        core = FleetCore(
            engine.costs, engine.kv_spec, engine.plan.kv_bytes, config
        )
        core.serve(trace)
        assignments = core.last_router.assignments
        by_session: dict[int, set[int]] = {}
        unkeyed_replicas = set()
        for req in trace:
            replica = assignments[req.request_id]
            if req.session_id is not None:
                by_session.setdefault(req.session_id, set()).add(replica)
            else:
                unkeyed_replicas.add(replica)
        # Every session's turns landed on exactly one replica…
        assert all(len(v) == 1 for v in by_session.values())
        # …while the unkeyed stream round-robins across the fleet
        # instead of convoying onto one hashed "default" replica.
        assert len(unkeyed_replicas) == 4

    def test_affinity_beats_round_robin_on_hit_rate(self, engine):
        results = {}
        for routing in ("round_robin", "session_affinity"):
            trace = get_profile("chat_sessions").trace(
                [0.1 * i for i in range(120)], seed=6
            )
            config = ServingConfig(
                mode="fleet",
                fleet=FleetConfig(n_replicas=4, routing=routing),
                prefix_cache=PrefixCacheConfig(),
            )
            results[routing] = engine.serve(trace, config=config)
        affinity = results["session_affinity"].prefix_cache
        scattered = results["round_robin"].prefix_cache
        assert affinity.token_hit_rate > scattered.token_hit_rate


class TestAdmissionControl:
    def test_router_config_validation(self):
        with pytest.raises(ConfigError):
            RouterConfig(max_outstanding_per_replica=0)
        assert RouterConfig().max_outstanding_per_replica is None

    def test_fleet_config_type_checks_router(self):
        with pytest.raises(ConfigError):
            FleetConfig(router="not-a-config")

    def test_default_rejects_nothing(self, engine):
        trace = get_profile("chat").trace(
            [0.1 * i for i in range(50)], seed=0
        )
        config = ServingConfig(mode="fleet", fleet=FleetConfig(
            n_replicas=2, router=RouterConfig(),
        ))
        result = engine.serve(trace, config=config)
        assert result.n_rejected == 0
        assert result.n_requests == len(trace)

    def test_tight_cap_rejects_and_conserves(self, engine):
        trace = get_profile("chat").trace(
            [0.02 * i for i in range(120)], seed=1
        )
        config = ServingConfig(mode="fleet", fleet=FleetConfig(
            n_replicas=2,
            router=RouterConfig(max_outstanding_per_replica=4),
        ))
        result = engine.serve(trace, config=config)
        assert result.n_rejected > 0
        assert (
            result.n_requests + result.n_unfinished + result.n_rejected
            == len(trace)
        )

    @settings(max_examples=5, deadline=None)
    @given(
        rate=st.floats(10.0, 60.0),
        cap=st.integers(2, 12),
        seed=st.integers(0, 3),
    )
    def test_conservation_under_overload(self, engine, rate, cap, seed):
        # Overloaded fleet, prefix cache on, deadline cutting the run,
        # admission control rejecting — every offered request must still
        # be accounted for exactly once.
        arrivals = [i / rate for i in range(80)]
        trace = get_profile("chat_sessions").trace(arrivals, seed=seed)
        config = ServingConfig(
            mode="fleet",
            fleet=FleetConfig(
                n_replicas=2, routing="session_affinity",
                router=RouterConfig(max_outstanding_per_replica=cap),
            ),
            prefix_cache=PrefixCacheConfig(),
        )
        deadline = arrivals[-1] + 2.0
        result = engine.serve(trace, config=config, deadline_s=deadline)
        assert (
            result.n_requests + result.n_unfinished + result.n_rejected
            == len(trace)
        )
        stats = result.prefix_cache
        assert stats.hit_tokens <= stats.offered_prefix_tokens
        assert stats.n_hits + stats.n_misses == stats.n_lookups
