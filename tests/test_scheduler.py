"""Tests for static-batch and continuous-batching schedulers."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.serving.kvcache import KVCacheSpec, PagedKVCache
from repro.serving.scheduler import (
    POLICIES,
    ContinuousBatchScheduler,
    Request,
    RequestState,
    SchedulerLimits,
    StaticBatchScheduler,
)


def make_kv(n_blocks: int = 256) -> PagedKVCache:
    spec = KVCacheSpec(n_layers=1, kv_heads=1, head_dim=8, block_size=16)
    return PagedKVCache(spec, capacity_bytes=n_blocks * spec.bytes_per_block)


def reqs(n: int, prompt: int = 16, out: int = 8) -> list[Request]:
    return [Request(i, prompt, out) for i in range(n)]


class TestRequest:
    def test_context_len(self):
        r = Request(0, 10, 5)
        assert r.context_len == 10
        r.generated = 3
        assert r.context_len == 13
        assert not r.done
        r.generated = 5
        assert r.done

    def test_validation(self):
        with pytest.raises(SchedulingError):
            Request(0, 0, 5)
        with pytest.raises(SchedulingError):
            Request(0, 5, 0)
        # Unchecked, prompt_len=64.5 served silently, a NaN length
        # stranded the valid request queued behind it, an infinite
        # output raised an untyped TypeError, and a NaN arrival stopped
        # the event kernel making progress.
        bad = [
            ("prompt_len", (0, 64.5, 5)),
            ("prompt_len", (0, math.nan, 5)),
            ("prompt_len", (0, True, 5)),
            ("prompt_len", (0, "64", 5)),
            ("max_new_tokens", (0, 64, math.inf)),
            ("max_new_tokens", (0, 64, 2.0)),
            ("arrival_s", (0, 64, 5, math.nan)),
            ("arrival_s", (0, 64, 5, math.inf)),
        ]
        for name, args in bad:
            with pytest.raises(SchedulingError, match=f"^{name} must be"):
                Request(*args)


class TestStaticBatch:
    def test_full_run(self):
        kv = make_kv()
        sched = StaticBatchScheduler(reqs(4, out=3), kv)
        sched.prefill()
        steps = 0
        while not sched.finished:
            active = sched.step()
            steps += 1
            assert len(active) == 4 if steps <= 3 else 0
        assert steps == 3
        assert kv.used_blocks == 0  # everything freed on completion

    def test_prefill_allocates(self):
        kv = make_kv()
        sched = StaticBatchScheduler(reqs(2, prompt=32), kv)
        sched.prefill()
        assert kv.used_blocks == 4

    def test_double_prefill_rejected(self):
        sched = StaticBatchScheduler(reqs(1), make_kv())
        sched.prefill()
        with pytest.raises(SchedulingError):
            sched.prefill()

    def test_step_before_prefill_rejected(self):
        sched = StaticBatchScheduler(reqs(1), make_kv())
        with pytest.raises(SchedulingError):
            sched.step()

    def test_empty_batch_rejected(self):
        with pytest.raises(SchedulingError):
            StaticBatchScheduler([], make_kv())


class TestContinuous:
    def test_admit_all_when_capacity(self):
        sched = ContinuousBatchScheduler(make_kv())
        for r in reqs(3):
            sched.submit(r)
        admitted = sched.admit()
        assert len(admitted) == 3
        assert all(r.state is RequestState.RUNNING for r in admitted)

    def test_fcfs_no_skips(self):
        kv = make_kv(n_blocks=3)
        sched = ContinuousBatchScheduler(kv)
        sched.submit(Request(0, 32, 4))   # needs 2 blocks + headroom
        sched.submit(Request(1, 16, 4))
        admitted = sched.admit()
        # Request 0 takes 2 blocks; request 1 would need 1 + headroom -> the
        # head blocks and nothing behind it may jump the queue.
        assert [r.request_id for r in admitted] == [0]
        assert len(sched.waiting) == 1

    def test_max_num_seqs(self):
        sched = ContinuousBatchScheduler(
            make_kv(), SchedulerLimits(max_num_seqs=2)
        )
        for r in reqs(5):
            sched.submit(r)
        assert len(sched.admit()) == 2

    def test_token_budget(self):
        sched = ContinuousBatchScheduler(
            make_kv(), SchedulerLimits(max_batched_tokens=40)
        )
        for r in reqs(5, prompt=16):
            sched.submit(r)
        assert len(sched.admit()) == 2  # 16 + 16 <= 40 < 48

    def test_step_finishes_and_frees(self):
        kv = make_kv()
        sched = ContinuousBatchScheduler(kv)
        sched.submit(Request(0, 16, 2))
        sched.admit()
        sched.step()
        assert sched.running and not sched.finished
        sched.step()
        assert not sched.running
        assert len(sched.finished) == 1
        assert kv.used_blocks == 0

    def test_admission_resumes_after_free(self):
        kv = make_kv(n_blocks=3)
        sched = ContinuousBatchScheduler(kv)
        sched.submit(Request(0, 32, 1))
        sched.submit(Request(1, 32, 1))
        assert len(sched.admit()) == 1
        sched.step()  # request 0 finishes, blocks return
        assert len(sched.admit()) == 1

    def test_has_work(self):
        sched = ContinuousBatchScheduler(make_kv())
        assert not sched.has_work
        sched.submit(Request(0, 4, 1))
        assert sched.has_work
        sched.admit()
        sched.step()
        assert not sched.has_work

    def test_resubmit_running_rejected(self):
        sched = ContinuousBatchScheduler(make_kv())
        r = Request(0, 4, 2)
        sched.submit(r)
        sched.admit()
        with pytest.raises(SchedulingError):
            sched.submit(r)


class TestPolicies:
    def test_registry(self):
        from repro.errors import UnknownSpecError
        from repro.serving.scheduler import (
            FCFSPolicy, POLICIES, get_policy,
        )

        assert set(POLICIES) == {
            "fcfs", "priority", "priority_aging", "sjf"
        }
        assert isinstance(get_policy("FCFS"), FCFSPolicy)
        passthrough = FCFSPolicy()
        assert get_policy(passthrough) is passthrough
        with pytest.raises(UnknownSpecError):
            get_policy("lifo")

    def test_fcfs_orders_by_arrival(self):
        from repro.serving.scheduler import get_policy

        a = Request(0, 16, 4, arrival_s=2.0)
        b = Request(1, 16, 4, arrival_s=1.0)
        fcfs = get_policy("fcfs")
        assert sorted([a, b], key=fcfs.waiting_key) == [b, a]
        # Newest first for preemption.
        assert sorted([a, b], key=fcfs.victim_key)[0] is a

    def test_priority_orders_then_fcfs(self):
        from repro.serving.scheduler import get_policy

        low = Request(0, 16, 4, arrival_s=0.0, priority=0)
        high_late = Request(1, 16, 4, arrival_s=1.0, priority=5)
        high_early = Request(2, 16, 4, arrival_s=0.5, priority=5)
        policy = get_policy("priority")
        order = sorted([low, high_late, high_early], key=policy.waiting_key)
        assert [r.request_id for r in order] == [2, 1, 0]
        assert sorted([low, high_late], key=policy.victim_key)[0] is low

    def test_sjf_orders_by_remaining_work(self):
        from repro.serving.scheduler import get_policy

        big = Request(0, 512, 512, arrival_s=0.0)
        small = Request(1, 16, 8, arrival_s=5.0)
        sjf = get_policy("sjf")
        assert sorted([big, small], key=sjf.waiting_key)[0] is small
        assert sorted([big, small], key=sjf.victim_key)[0] is big

    def test_aging_matches_priority_at_rate_zero(self):
        from repro.serving.scheduler import AgingPriorityPolicy, get_policy

        low_old = Request(0, 16, 4, arrival_s=0.0, priority=0)
        high_new = Request(1, 16, 4, arrival_s=50.0, priority=1)
        frozen = AgingPriorityPolicy(aging_rate=0.0)
        plain = get_policy("priority")
        pair = [low_old, high_new]
        assert (
            [r.request_id for r in sorted(pair, key=frozen.waiting_key)]
            == [r.request_id for r in sorted(pair, key=plain.waiting_key)]
            == [1, 0]
        )

    def test_aging_lets_waiting_batch_request_overtake(self):
        from repro.serving.scheduler import AgingPriorityPolicy

        policy = AgingPriorityPolicy(aging_rate=0.2)
        batch_old = Request(0, 16, 4, arrival_s=0.0, priority=0)
        chat_new = Request(1, 16, 4, arrival_s=10.0, priority=1)
        # 10 s of waiting at 0.2/s buys 2 effective classes — the batch
        # request now outranks the fresh chat request by one.
        pair = [chat_new, batch_old]
        assert sorted(pair, key=policy.waiting_key)[0] is batch_old
        # ...and is correspondingly harder to evict.
        assert sorted(pair, key=policy.victim_key)[0] is chat_new
        # A chat request arriving before the crossover still wins.
        chat_early = Request(2, 16, 4, arrival_s=4.0, priority=1)
        early = [chat_early, batch_old]
        assert sorted(early, key=policy.waiting_key)[0] is chat_early

    def test_aging_rate_validation(self):
        from repro.errors import SchedulingError
        from repro.serving.scheduler import AgingPriorityPolicy

        with pytest.raises(SchedulingError):
            AgingPriorityPolicy(aging_rate=-0.1)
        # A NaN rate once made every key NaN and silently dropped the
        # priority order.
        for rate in (math.nan, math.inf):
            with pytest.raises(SchedulingError, match="^aging_rate must be"):
                AgingPriorityPolicy(aging_rate=rate)

    def test_priority_admission_order(self):
        sched = ContinuousBatchScheduler(
            make_kv(), SchedulerLimits(max_num_seqs=1), policy="priority"
        )
        sched.submit(Request(0, 16, 4, priority=0))
        sched.submit(Request(1, 16, 4, priority=9))
        admitted = sched.admit()
        assert [r.request_id for r in admitted] == [1]


class TestLimitsValidation:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["max_num_seqs", "max_batched_tokens"])
    def test_below_one_rejected(self, name, value):
        # Unchecked, either limit below 1 serves into a CapacityError
        # that blames the requests for never fitting.
        with pytest.raises(
            ConfigError, match=f"^{name} must be >= 1, got {value}$"
        ):
            SchedulerLimits(**{name: value})


class TestKeySortedQueue:
    """The waiting queue is insorted by ``waiting_key`` and never
    re-sorted: every caller reads the policy's head as ``waiting[0]``."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(POLICIES)), st.data())
    def test_queue_stays_key_sorted(self, policy, data):
        limits = SchedulerLimits(
            max_num_seqs=data.draw(st.integers(1, 4)),
            max_batched_tokens=data.draw(st.integers(1, 64)),
        )
        sched = ContinuousBatchScheduler(
            make_kv(n_blocks=data.draw(st.integers(2, 12))), limits, policy
        )
        key = sched.policy.waiting_key
        ops = data.draw(st.lists(
            st.sampled_from(("submit", "admit", "preempt", "release",
                             "step")),
            max_size=40,
        ))
        for i, op in enumerate(ops):
            if op == "submit":
                sched.submit(Request(
                    i, data.draw(st.integers(1, 64)),
                    data.draw(st.integers(1, 20)),
                    arrival_s=data.draw(st.sampled_from((0.0, 0.5, 1.0))),
                    priority=data.draw(st.integers(0, 2)),
                ))
            elif op == "admit":
                ranked = sorted(sched.waiting, key=key)
                admitted = sched.admit(
                    enforce_token_budget=data.draw(st.booleans()),
                    max_requests=data.draw(st.sampled_from((1, None))),
                )
                # Key-minimal first, then the next: a prefix of the rank.
                assert admitted == ranked[:len(admitted)]
            elif op in ("preempt", "release") and sched.running:
                getattr(sched, op)(data.draw(st.sampled_from(sched.running)))
            elif op == "step" and sched.running:
                plan = sched.plan_step()
                try:
                    victims = sched.ensure_decode_capacity(plan.decode)
                except CapacityError:
                    pass  # the last running request cannot grow
                else:
                    plan.drop(victims)
                    sched.apply_step(plan, clock=float(i))
            assert sched.waiting == sorted(sched.waiting, key=key)


class TestChunkedPlanning:
    def test_plan_prioritises_decode(self):
        sched = ContinuousBatchScheduler(make_kv())
        decoding = Request(0, 16, 8)
        filling = Request(1, 64, 8)
        sched.submit(decoding)
        sched.submit(filling)
        sched.admit(enforce_token_budget=False)
        decoding.prefill_remaining = 0
        plan = sched.plan_step(max_batched_tokens=40)
        assert plan.decode == [decoding]
        assert plan.prefill == [(filling, 39)]
        assert plan.n_batched_tokens == 40
        assert plan.decode_ctx_sum == decoding.context_len

    def test_prefill_spreads_across_steps(self):
        sched = ContinuousBatchScheduler(make_kv())
        req = Request(0, 100, 4)
        sched.submit(req)
        sched.admit(enforce_token_budget=False)
        chunks = []
        while req.prefill_remaining:
            plan = sched.plan_step(max_batched_tokens=32)
            chunks.append(plan.n_prefill_tokens)
            sched.apply_step(plan, clock=float(len(chunks)))
        assert chunks == [32, 32, 32, 4]
        assert req.first_token_s == 4.0  # stamped when prefill completed

    def test_apply_step_rejects_bad_chunk(self):
        from repro.serving.scheduler import StepPlan

        sched = ContinuousBatchScheduler(make_kv())
        req = Request(0, 16, 4)
        sched.submit(req)
        sched.admit()
        with pytest.raises(SchedulingError):
            sched.apply_step(
                StepPlan(prefill=[(req, 999)]), clock=0.0
            )

    def test_budget_not_enforced_for_large_prompt(self):
        # A prompt above max_batched_tokens admits in chunked mode ...
        sched = ContinuousBatchScheduler(
            make_kv(), SchedulerLimits(max_batched_tokens=64)
        )
        sched.submit(Request(0, 256, 4))
        assert len(sched.admit(enforce_token_budget=False)) == 1
        # ... but blocks in group mode (the seed behaviour).
        sched2 = ContinuousBatchScheduler(
            make_kv(), SchedulerLimits(max_batched_tokens=64)
        )
        sched2.submit(Request(1, 256, 4))
        assert sched2.admit() == []


class TestPreemptionMechanics:
    def test_preempt_frees_kv_and_requeues(self):
        kv = make_kv(n_blocks=8)
        sched = ContinuousBatchScheduler(kv)
        req = Request(0, 32, 8)
        sched.submit(req)
        sched.admit()
        assert kv.used_blocks == 2
        sched.preempt(req)
        assert kv.used_blocks == 0
        assert req.state is RequestState.PREEMPTED
        assert req.n_preemptions == 1
        assert sched.waiting == [req] and sched.running == []

    def test_preempted_readmission_reprefills_context(self):
        kv = make_kv(n_blocks=8)
        sched = ContinuousBatchScheduler(kv)
        req = Request(0, 32, 8)
        sched.submit(req)
        sched.admit()
        req.prefill_remaining = 0
        req.generated = 5
        sched.preempt(req)
        readmitted = sched.admit()
        assert readmitted == [req]
        # Recompute: prompt plus the 5 already-generated tokens.
        assert req.prefill_remaining == 37
        assert kv.sequence_length(0) == 37

    def test_preempt_non_running_rejected(self):
        sched = ContinuousBatchScheduler(make_kv())
        with pytest.raises(SchedulingError):
            sched.preempt(Request(0, 16, 4))

    def test_ensure_decode_capacity_preempts_newest_first(self):
        kv = make_kv(n_blocks=4)  # 64 token slots
        sched = ContinuousBatchScheduler(kv)
        old = Request(0, 31, 40, arrival_s=0.0)
        new = Request(1, 31, 40, arrival_s=1.0)
        for r in (old, new):
            sched.submit(r)
        sched.admit()
        # Fill both blocks to the boundary: the next token each needs a
        # new block, but 0 are free.
        for r in (old, new):
            kv.append_token(r.request_id)  # 32 tokens = 2 blocks each
            r.prefill_remaining = 0
        decode = list(sched.running)
        victims = sched.ensure_decode_capacity(decode)
        assert victims == [new]
        assert decode == [old]
        assert sched.n_preemptions == 1

    def test_last_running_request_capacity_error(self):
        from repro.errors import CapacityError

        kv = make_kv(n_blocks=3)
        sched = ContinuousBatchScheduler(kv)
        req = Request(0, 32, 64)
        sched.submit(req)
        sched.admit()
        kv.append_token(req.request_id, 16)  # 48 tokens: all 3 blocks held
        with pytest.raises(CapacityError):
            sched.ensure_decode_capacity([req])


class TestReleaseAndCappedAdmission:
    """Hand-off plumbing the disaggregated kernel stages rely on."""

    def test_release_frees_kv_without_finishing(self):
        kv = make_kv(n_blocks=8)
        sched = ContinuousBatchScheduler(kv)
        req = Request(0, 32, 8)
        sched.submit(req)
        sched.admit()
        assert kv.used_blocks == 2
        sched.release(req)
        assert kv.used_blocks == 0
        assert sched.running == [] and sched.finished == []
        # No recompute debt, no preemption count: this is a hand-off.
        assert req.state is RequestState.WAITING
        assert req.n_preemptions == 0
        # A downstream scheduler can submit it straight away.
        downstream = ContinuousBatchScheduler(make_kv())
        downstream.submit(req)
        assert downstream.waiting == [req]

    def test_release_non_running_rejected(self):
        sched = ContinuousBatchScheduler(make_kv())
        with pytest.raises(SchedulingError):
            sched.release(Request(0, 16, 4))

    def test_admit_max_requests_caps_the_round(self):
        sched = ContinuousBatchScheduler(make_kv())
        for r in reqs(5):
            sched.submit(r)
        first = sched.admit(enforce_token_budget=False, max_requests=1)
        assert [r.request_id for r in first] == [0]
        rest = sched.admit(enforce_token_budget=False)
        assert [r.request_id for r in rest] == [1, 2, 3, 4]


@st.composite
def admission_states(draw):
    """A scheduler mid-run: running requests holding KV, and a queue that
    may hold preempted requests owing their whole context."""
    limits = SchedulerLimits(
        max_num_seqs=draw(st.integers(1, 4)),
        max_batched_tokens=draw(st.integers(1, 64)),
    )
    kv = make_kv(n_blocks=draw(st.integers(1, 8)))
    sched = ContinuousBatchScheduler(
        kv, limits, draw(st.sampled_from(sorted(POLICIES)))
    )

    def request(i):
        req = Request(
            i, draw(st.integers(1, 64)), draw(st.integers(2, 40)),
            arrival_s=draw(st.sampled_from((0.0, 0.5, 1.0))),
            priority=draw(st.integers(0, 2)),
        )
        req.generated = draw(st.integers(0, req.max_new_tokens - 1))
        return req

    n_running = draw(st.integers(0, limits.max_num_seqs))
    n_waiting = draw(st.integers(0, 4))
    for i in range(n_running + n_waiting):
        req = request(i)
        if i < n_running:
            if kv.can_allocate(None, req.context_len):
                kv.allocate(req.request_id, req.context_len)
                req.state = RequestState.RUNNING
                sched.running.append(req)
        elif req.generated and draw(st.booleans()):
            # A preempted head re-prefills prompt + generated tokens.
            req.state = RequestState.PREEMPTED
            req.n_preemptions = 1
            sched._enqueue_waiting(req)
        else:
            req.generated = 0
            sched.submit(req)
    return sched


class TestAdmissionPredicate:
    """``admission_blocked`` is the test ``admit`` stops at: inline
    iteration replay trusts it to prove an admission attempt a no-op."""

    @settings(max_examples=300)
    @given(admission_states())
    def test_blocked_exactly_when_admit_admits_nothing(self, sched):
        expected = sched.admission_blocked()
        admitted = copy.deepcopy(sched).admit(enforce_token_budget=False)
        assert expected == (admitted == [])

    def test_preempted_head_needs_its_whole_context(self):
        # 3 free blocks hold a fresh 32-token prompt (+1 headroom) but
        # not the same request after 20 generated tokens.
        sched = ContinuousBatchScheduler(make_kv(n_blocks=3))
        req = Request(0, 32, 40)
        sched.submit(req)
        assert not sched.admission_blocked()
        sched.admit()
        req.prefill_remaining = 0
        req.generated = 20
        sched.preempt(req)
        assert sched.admission_blocked()
        assert sched.admit(enforce_token_budget=False) == []
