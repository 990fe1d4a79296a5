"""Tests for the end-to-end inference engine."""

import math

import pytest

from repro.errors import CapacityError, ConfigError
from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.engine import InferenceEngine, StepBreakdown
from repro.serving.models import get_model

G4090 = get_gpu("rtx4090")
L40S = get_gpu("l40s")
M8B = get_model("llama3.1-8b")


def engine(backend="zipserv", model=M8B, gpu=G4090, **kw) -> InferenceEngine:
    return InferenceEngine(model, gpu, get_backend(backend), **kw)


class TestStepBreakdown:
    def test_total(self):
        b = StepBreakdown(linear_s=1, attention_s=2, comm_s=3, other_s=4,
                          dispatch_s=5)
        assert b.total_s == 15

    def test_scaled_and_add(self):
        b = StepBreakdown(linear_s=2.0)
        b.add(StepBreakdown(linear_s=1.0, other_s=4.0))
        assert b.linear_s == 3.0
        half = b.scaled(0.5)
        assert half.linear_s == 1.5 and half.other_s == 2.0


class TestComponents:
    def test_linear_time_cached(self):
        eng = engine()
        first = eng.linear_time(32)
        assert eng.linear_time(32) is first

    def test_attention_grows_with_context(self):
        eng = engine()
        assert (eng.attention_time(32, 2048, "decode")
                > eng.attention_time(32, 256, "decode"))

    def test_decode_step_positive_parts(self):
        step = engine().decode_step(32, 512)
        assert step.linear_s > 0
        assert step.attention_s > 0
        assert step.other_s > 0
        assert step.dispatch_s > 0
        assert step.comm_s == 0.0  # single GPU

    def test_prefill_larger_than_decode(self):
        eng = engine()
        assert (eng.prefill_step(32, 512).total_s
                > eng.decode_step(32, 512).total_s)


class TestRuns:
    def test_totals_consistent(self):
        res = engine().run(8, 64, 32)
        assert res.total_s == pytest.approx(res.prefill_s + res.decode_s)
        assert res.throughput_tok_s == pytest.approx(
            8 * 32 / res.total_s
        )
        assert res.latency_s == res.total_s

    def test_zipserv_beats_vllm(self):
        zres = engine("zipserv").run(32, 128, 256)
        vres = engine("vllm").run(32, 128, 256)
        ratio = zres.throughput_tok_s / vres.throughput_tok_s
        assert 1.1 < ratio < 1.4  # paper avg 1.22x

    def test_backend_ordering(self):
        results = {
            name: engine(name).run(32, 128, 128).throughput_tok_s
            for name in ("zipserv", "vllm", "transformers", "dfloat11")
        }
        assert (results["zipserv"] > results["vllm"]
                > results["transformers"] > results["dfloat11"])

    def test_longer_outputs_cost_more(self):
        eng = engine()
        t1 = eng.run(8, 64, 64).total_s
        t2 = eng.run(8, 64, 256).total_s
        assert t2 > 3 * t1

    def test_validation(self):
        with pytest.raises(ConfigError):
            engine().run(0, 64, 64)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_kv_compression_ratio_rejected(self, value):
        with pytest.raises(ConfigError, match=f"got {value}$"):
            engine(kv_compression_ratio=value)


class TestPreemption:
    def test_vllm_preempts_at_long_context(self):
        vres = engine("vllm").run(32, 128, 2048)
        assert vres.n_waves >= 2
        assert vres.effective_batch < 32

    def test_zipserv_fits_where_vllm_preempts(self):
        # Figure 17's point: freed weight memory becomes KV capacity.
        zres = engine("zipserv").run(32, 128, 2048)
        vres = engine("vllm").run(32, 128, 2048)
        assert zres.n_waves == 1
        assert vres.n_waves >= 2
        ratio = zres.throughput_tok_s / vres.throughput_tok_s
        assert ratio > 1.4  # paper: 1.66x at this configuration

    def test_impossible_context_raises(self):
        with pytest.raises(CapacityError):
            engine("vllm").run(1, 128, 200_000)

    def test_preempted_tokens_all_produced(self):
        res = engine("vllm").run(32, 128, 2048)
        # Throughput accounting uses the requested token count.
        assert res.batch_size * res.output_len == 32 * 2048


class TestParallel:
    def test_tp_reduces_per_gpu_weights(self):
        m24 = get_model("mistral-24b")
        eng = engine("zipserv", model=m24, gpu=L40S, tensor_parallel=2)
        assert eng.plan.weight_gib < 17

    def test_tp_has_comm(self):
        m24 = get_model("mistral-24b")
        eng = engine("vllm", model=m24, gpu=L40S, tensor_parallel=2)
        assert eng.decode_step(32, 256).comm_s > 0

    def test_tp_speeds_up_decode(self):
        m24 = get_model("mistral-24b")
        t2 = engine("vllm", model=m24, gpu=L40S, tensor_parallel=2)
        t4 = engine("vllm", model=m24, gpu=L40S, tensor_parallel=4)
        assert (t4.decode_step(32, 256).total_s
                < t2.decode_step(32, 256).total_s)

    def test_dfloat11_rejects_tp(self):
        with pytest.raises(ConfigError):
            engine("dfloat11", model=get_model("llama3.1-70b"), gpu=L40S,
                   tensor_parallel=4)

    def test_dfloat11_pipeline_parallel(self):
        eng = engine("dfloat11", model=get_model("llama3.1-70b"), gpu=L40S,
                     pipeline_parallel=4)
        res = eng.run(4, 64, 16)
        assert res.throughput_tok_s > 0

    def test_70b_on_four_l40s(self):
        m70 = get_model("llama3.1-70b")
        zres = engine("zipserv", model=m70, gpu=L40S,
                      tensor_parallel=4).run(8, 64, 32)
        vres = engine("vllm", model=m70, gpu=L40S,
                      tensor_parallel=4).run(8, 64, 32)
        assert zres.throughput_tok_s > vres.throughput_tok_s


class TestFigure17Numbers:
    def test_step_scale(self):
        # vLLM decode step at BS32 / ctx ~1024 on 4090: paper total ~30 ms.
        step = engine("vllm").decode_step(32, 1024)
        assert 0.020 < step.total_s < 0.040

    def test_linear_dominates(self):
        step = engine("vllm").decode_step(32, 1024)
        assert step.linear_s / step.total_s > 0.6  # paper: 83.6%
