"""Measured calibration + codec-policy subsystem contracts.

Four groups:

* **calibration** — running the real codecs is deterministic under a
  fixed seed, persists through JSON bit-for-bit, and lands within the
  documented drift bound of the analytic estimators for every builtin
  codec x placement;
* **resolution precedence** — explicit ``ratio=`` beats measured beats
  analytic, in ``resolve_spec`` and in every consumer that fronts it
  (cost model, KV spec, transfer link);
* **policies** — feasibility gating, deterministic selection, the three
  shipped objectives and the ``balanced(alpha)`` parser;
* **end-to-end** — ``ServingConfig`` auto slots resolve at config time
  on both topologies, non-auto configs stay bit-compatible, and the
  registry's unknown-name error is a helpful ``ValueError``.
"""

import json
import math

import pytest

from repro.compression import (
    ANALYTIC_DRIFT_BOUND,
    MAX_HOT_PATH_SLOWDOWN,
    BalancedPolicy,
    MeasuredRatioProfile,
    TensorClass,
    calibrate,
    default_candidates,
    default_tensor_classes,
    get_codec,
    get_codec_policy,
    glorot_sigma,
    hot_path_time,
    list_codec_policies,
    list_codecs,
    measured_profile,
    resolve_spec,
    set_measured_profile,
    tensor_classes_for_model,
)
from repro.errors import ConfigError, UnknownSpecError
from repro.gpu.specs import get_gpu
from repro.serving.backends import get_backend
from repro.serving.costs import EngineCostModel
from repro.serving.engine import InferenceEngine
from repro.serving.kvcache import CompressedKVCacheSpec, KVCacheSpec
from repro.serving.models import get_model
from repro.serving.serve import DisaggConfig, ServingConfig
from repro.serving.trace import multi_tenant_trace

MODEL = get_model("llama3.1-8b")
GPU = get_gpu("rtx4090")
BACKEND = get_backend("zipserv")


@pytest.fixture(scope="module")
def profile():
    return calibrate(classes=tensor_classes_for_model(MODEL), seed=0)


class FakeProfile:
    """Minimal duck-typed profile pinning one measured ratio."""

    def __init__(self, ratio, codec=None, placement=None):
        self.fixed = ratio
        self.codec = codec
        self.placement = placement

    def ratio_for(self, codec, placement, cls=None):
        if self.codec is not None and codec != self.codec:
            return None
        if self.placement is not None and placement != self.placement:
            return None
        return self.fixed


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_deterministic_under_fixed_seed(self):
        a = calibrate(seed=11)
        b = calibrate(seed=11)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_samples_not_structure(self):
        a = calibrate(seed=1)
        b = calibrate(seed=2)
        assert a.codecs() == b.codecs()
        assert a.classes() == b.classes()
        assert a.to_dict() != b.to_dict()

    def test_covers_every_codec_and_placement(self, profile):
        assert set(profile.codecs()) == set(list_codecs())
        for codec in list_codecs():
            for placement in ("weight", "kv", "wire"):
                assert profile.ratio_for(codec, placement) is not None

    @pytest.mark.parametrize("placement", ["weight", "kv", "wire"])
    @pytest.mark.parametrize("codec", list_codecs())
    def test_measured_within_documented_bound_of_analytic(
        self, profile, codec, placement
    ):
        """The drift satellite: every builtin codec x placement lands
        within ANALYTIC_DRIFT_BOUND of its analytic estimator."""
        for rec in profile.records:
            if rec.codec != codec or rec.placement != placement:
                continue
            assert abs(rec.analytic_gap) <= ANALYTIC_DRIFT_BOUND, (
                f"{codec}/{placement}/{rec.cls}: measured {rec.ratio:.4f}"
                f" vs analytic {rec.analytic_ratio:.4f}"
            )

    def test_identity_codec_measures_exactly_one(self, profile):
        for rec in profile.records:
            if rec.codec == "none":
                assert rec.ratio == 1.0

    def test_roundtrip_json(self, profile, tmp_path):
        path = profile.save(tmp_path / "profile.json")
        loaded = MeasuredRatioProfile.load(path)
        assert loaded.to_dict() == profile.to_dict()
        assert json.loads(path.read_text())["version"] == 1

    def test_version_gate(self):
        with pytest.raises(ConfigError):
            MeasuredRatioProfile.from_dict({"version": 99, "records": []})

    def test_aggregate_is_element_weighted(self):
        profile = MeasuredRatioProfile()
        from repro.compression import MeasuredRatio

        profile.add(MeasuredRatio("tcatbe", "weight", "weight:a", 0.02,
                                  1000, 1000, 1.4))
        profile.add(MeasuredRatio("tcatbe", "weight", "weight:b", 0.02,
                                  3000, 3000, 1.4))
        # (2*4000) / 4000 = 2.0 — bytes pooled, not ratios averaged.
        assert profile.ratio_for("tcatbe", "weight") == 2.0
        assert profile.ratio_for("tcatbe", "weight", "weight:a") == 2.0
        # Unknown class falls back to the aggregate.
        assert profile.ratio_for("tcatbe", "weight", "weight:zzz") == 2.0

    def test_model_classes_cover_layer_kinds(self):
        names = {c.name for c in tensor_classes_for_model(MODEL)}
        for kind in ("qkv_proj", "o_proj", "gateup_proj", "down_proj",
                     "lm_head"):
            assert f"weight:{kind}" in names
        assert {"kv:block", "wire:kv"} <= names

    def test_tensor_class_validation(self):
        with pytest.raises(ConfigError):
            TensorClass("x", "hbm", 0.02)
        with pytest.raises(ConfigError):
            TensorClass("x", "kv", -1.0)
        with pytest.raises(ConfigError):
            glorot_sigma(0, 4)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_tensor_class_rejects_non_finite_sigma(self, value):
        with pytest.raises(ConfigError, match=f"got {value}$"):
            TensorClass("weight:x", "weight", value, (64, 64))


# ----------------------------------------------------------------------
# Resolution precedence
# ----------------------------------------------------------------------
class TestPrecedence:
    def test_explicit_ratio_beats_measured(self):
        spec = resolve_spec("kvcomp", "kv", ratio=2.5,
                            profile=FakeProfile(1.9))
        assert spec.ratio == 2.5
        assert spec.source == "explicit"

    def test_measured_beats_analytic(self):
        spec = resolve_spec("kvcomp", "kv", profile=FakeProfile(1.9))
        assert spec.ratio == 1.9
        assert spec.source == "measured"

    def test_analytic_without_profile(self):
        spec = resolve_spec("kvcomp", "kv")
        assert spec.source == "analytic"
        assert spec.ratio == get_codec("kvcomp").ratio("kv")

    def test_process_wide_profile_and_context_manager(self):
        try:
            set_measured_profile(FakeProfile(1.7))
            assert resolve_spec("kvcomp", "kv").ratio == 1.7
        finally:
            set_measured_profile(None)
        assert resolve_spec("kvcomp", "kv").source == "analytic"
        with measured_profile(FakeProfile(1.8)):
            assert resolve_spec("kvcomp", "kv").ratio == 1.8
        assert resolve_spec("kvcomp", "kv").source == "analytic"

    def test_profile_miss_falls_back_to_analytic(self):
        spec = resolve_spec(
            "tcatbe", "kv", profile=FakeProfile(1.9, codec="dietgpu")
        )
        assert spec.source == "analytic"

    def test_kv_spec_from_codec_reads_measured(self):
        inner = KVCacheSpec.for_model(MODEL)
        measured = CompressedKVCacheSpec.from_codec(
            inner, "kvcomp", profile=FakeProfile(2.0)
        )
        assert measured.ratio == 2.0
        explicit = CompressedKVCacheSpec.from_codec(
            inner, "kvcomp", ratio=3.0, profile=FakeProfile(2.0)
        )
        assert explicit.ratio == 3.0

    def test_transfer_link_reads_measured_wire_ratio(self):
        from repro.serving.disagg import resolve_transfer_ratio

        config = ServingConfig(
            mode="disaggregated",
            disagg=DisaggConfig(transfer_codec="kvcomp"),
            calibration=FakeProfile(1.95),
        )
        assert resolve_transfer_ratio(config) == 1.95
        # Explicit transfer_ratio still wins over the profile.
        config = ServingConfig(
            mode="disaggregated",
            disagg=DisaggConfig(transfer_codec="kvcomp",
                                transfer_ratio=1.25),
            calibration=FakeProfile(1.95),
        )
        assert resolve_transfer_ratio(config) == 1.25

    def test_transfer_auto_requires_engine_resolution(self):
        from repro.serving.disagg import resolve_transfer_ratio

        config = ServingConfig(
            mode="disaggregated", transfer_codec="auto",
        )
        with pytest.raises(ConfigError):
            resolve_transfer_ratio(config)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestPolicies:
    def test_registry_names(self):
        assert set(list_codec_policies()) == {
            "best_ratio", "best_throughput", "balanced",
        }

    def test_balanced_alpha_parsing(self):
        assert get_codec_policy("balanced(0.25)").alpha == 0.25
        assert get_codec_policy("balanced").alpha == 0.5
        assert isinstance(get_codec_policy("BALANCED(1)"), BalancedPolicy)
        with pytest.raises(ConfigError):
            get_codec_policy("balanced(1.5)")

    def test_unknown_policy_lists_names(self):
        with pytest.raises(UnknownSpecError) as exc:
            get_codec_policy("fastest")
        assert "best_ratio" in str(exc.value)

    def test_instance_passthrough(self):
        policy = BalancedPolicy(alpha=0.3)
        assert get_codec_policy(policy) is policy

    def test_lossy_codecs_excluded_by_default(self):
        assert "zipquant" not in default_candidates()
        assert set(default_candidates()) == {
            n for n in list_codecs() if get_codec(n).lossless
        }

    def test_feasibility_gate_rejects_decoupled_weights(self, profile):
        """Decompress-per-use baselines exceed the hot-path slowdown cap
        on the weight placement, whatever their ratio."""
        t_none = hot_path_time("none", "weight", 1.0, GPU)
        for name in ("dfloat11", "dietgpu", "nvcomp"):
            ratio = profile.ratio_for(name, "weight")
            assert hot_path_time(name, "weight", ratio, GPU) > (
                MAX_HOT_PATH_SLOWDOWN * t_none
            )
        for policy in ("best_ratio", "balanced", "best_throughput"):
            spec = get_codec_policy(policy).select(
                "weight", GPU, profile=profile
            )
            assert get_codec(spec.codec).linear_mode != "decoupled"

    def test_best_ratio_maximises_measured_ratio(self, profile):
        spec = get_codec_policy("best_ratio").select(
            "wire", GPU, profile=profile
        )
        best = max(
            default_candidates(),
            key=lambda n: profile.ratio_for(n, "wire"),
        )
        assert spec.codec == get_codec(best).name
        assert spec.source == "measured"

    def test_best_throughput_minimises_time_proxy(self, profile):
        spec = get_codec_policy("best_throughput").select(
            "kv", GPU, profile=profile
        )
        times = {
            n: hot_path_time(
                n, "kv", profile.ratio_for(n, "kv"), GPU
            )
            for n in default_candidates()
        }
        assert times[spec.codec] == min(times.values())

    def test_balanced_interpolates(self, profile):
        ratio_pick = get_codec_policy("balanced(1)").select(
            "kv", GPU, profile=profile
        )
        tput_pick = get_codec_policy("balanced(0)").select(
            "kv", GPU, profile=profile
        )
        assert ratio_pick.codec == get_codec_policy("best_ratio").select(
            "kv", GPU, profile=profile
        ).codec
        assert tput_pick.codec == get_codec_policy(
            "best_throughput"
        ).select("kv", GPU, profile=profile).codec

    def test_selection_deterministic(self, profile):
        picks = {
            get_codec_policy("balanced").select(
                "kv", GPU, profile=profile
            ).codec
            for _ in range(5)
        }
        assert len(picks) == 1

    def test_identity_fallback_when_everything_gated(self):
        policy = get_codec_policy("best_ratio")
        spec = policy.select(
            "weight", GPU, candidates=["dfloat11", "dietgpu"]
        )
        assert spec.codec == "none"

    def test_select_for_classes(self, profile):
        classes = [
            c for c in tensor_classes_for_model(MODEL)
            if c.placement == "weight"
        ]
        picks = get_codec_policy("best_ratio").select_for_classes(
            classes, GPU, profile=profile
        )
        assert set(picks) == {c.name for c in classes}
        for spec in picks.values():
            assert spec.placement == "weight"
            assert spec.source == "measured"


# ----------------------------------------------------------------------
# Cost model: per-layer resolved specs
# ----------------------------------------------------------------------
class TestPerLayerSpecs:
    def test_mapping_accepted_and_priced_per_layer(self):
        costs = EngineCostModel(
            MODEL, GPU, BACKEND,
            weight_codec={
                "qkv_proj": "tcatbe", "o_proj": "tcatbe",
                "gateup_proj": "none", "down_proj": "tcatbe",
                "lm_head": "none",
            },
        )
        assert set(costs.layer_specs) == {
            "qkv_proj", "o_proj", "gateup_proj", "down_proj", "lm_head"
        }
        assert costs.layer_specs["gateup_proj"].identity
        assert not costs.layer_specs["qkv_proj"].identity
        ratios = costs.layer_ratios()
        assert ratios["lm_head"] == 1.0 and ratios["down_proj"] > 1.0

    def test_default_key_fills_missing_kinds(self):
        costs = EngineCostModel(
            MODEL, GPU, BACKEND,
            weight_codec={"lm_head": "none", "default": "tcatbe"},
        )
        assert costs.layer_specs["qkv_proj"].codec == "tcatbe"
        assert costs.layer_specs["lm_head"].identity

    def test_missing_kind_without_default_raises(self):
        with pytest.raises(ConfigError) as exc:
            EngineCostModel(
                MODEL, GPU, BACKEND, weight_codec={"qkv_proj": "tcatbe"}
            )
        assert "o_proj" in str(exc.value)

    def test_uniform_mapping_prices_close_to_scalar(self):
        """Per-layer specs at analytic ratios stay within a whisker of
        the scalar analytic path (same codec, same sigmas; only the
        ratio plumbing differs)."""
        scalar = EngineCostModel(MODEL, GPU, BACKEND)
        mapped = EngineCostModel(
            MODEL, GPU, BACKEND, weight_codec={"default": "tcatbe"}
        )
        a = scalar.linear_time(16)[0]
        b = mapped.linear_time(16)[0]
        assert abs(a / b - 1.0) < 1e-3

    def test_calibration_changes_weight_pricing(self, profile):
        analytic = EngineCostModel(MODEL, GPU, BACKEND)
        measured = EngineCostModel(
            MODEL, GPU, BACKEND, calibration=profile
        )
        assert measured.layer_specs is not None
        for spec in measured.layer_specs.values():
            assert spec.source == "measured"
        # Measured ratios differ from analytic, so pricing moves (just
        # slightly — the drift bound caps how far).
        assert analytic.linear_time(16)[0] != measured.linear_time(16)[0]

    def test_calibration_feeds_kv_spec(self, profile):
        costs = EngineCostModel(
            MODEL, GPU, BACKEND, kv_codec="kvcomp", calibration=profile
        )
        assert costs.kv_spec_c.source == "measured"
        assert costs.kv_ratio == profile.ratio_for("kvcomp", "kv")

    def test_explicit_kv_ratio_still_wins(self, profile):
        costs = EngineCostModel(
            MODEL, GPU, BACKEND, kv_codec="kvcomp",
            kv_compression_ratio=1.4, calibration=profile,
        )
        assert costs.kv_ratio == 1.4
        assert costs.kv_spec_c.source == "explicit"


# ----------------------------------------------------------------------
# End to end: auto slots + bit-compatibility
# ----------------------------------------------------------------------
class TestAutoServing:
    @pytest.fixture(scope="class")
    def engine(self):
        return InferenceEngine(MODEL, GPU, BACKEND, gpu_mem_util=0.9)

    def test_auto_slots_validate_policy_at_config_time(self):
        with pytest.raises(UnknownSpecError):
            ServingConfig(weight_codec="auto", codec_policy="fastest")
        config = ServingConfig(
            weight_codec="auto", kv_codec="auto", transfer_codec="auto"
        )
        assert config.auto_slots == ("weight", "kv", "transfer")
        assert ServingConfig().auto_slots == ()

    def test_resolve_codecs_inspection(self, engine, profile):
        config = ServingConfig(
            weight_codec="auto", kv_codec="auto", transfer_codec="auto",
            codec_policy="best_ratio", calibration=profile,
        )
        sel = engine.resolve_codecs(config)
        assert sel["policy"] == "best_ratio"
        assert set(sel["weight"]) == {
            "qkv_proj", "o_proj", "gateup_proj", "down_proj", "lm_head"
        }
        assert sel["kv"].placement == "kv"
        assert sel["transfer"].placement == "wire"
        for spec in sel["weight"].values():
            assert get_codec(spec.codec).linear_mode != "decoupled"

    def test_auto_serves_both_topologies(self, engine, profile):
        for mode in ("colocated", "disaggregated"):
            trace = multi_tenant_trace(seed=7)
            config = ServingConfig(
                prefill_mode="chunked", mode=mode,
                disagg=DisaggConfig(link_gb_per_s=0.5),
                weight_codec="auto", kv_codec="auto",
                transfer_codec="auto",
                codec_policy="balanced", calibration=profile,
            )
            result = engine.serve(trace, config=config)
            assert result.n_requests == len(trace)

    def test_auto_selection_matches_manual_config(self, engine, profile):
        """Serving with auto slots equals serving the explicitly named
        selection — resolution really happens at config time."""
        auto = ServingConfig(
            prefill_mode="chunked", mode="disaggregated",
            disagg=DisaggConfig(link_gb_per_s=0.125),
            kv_codec="auto", transfer_codec="auto",
            codec_policy="best_ratio", calibration=profile,
        )
        sel = engine.resolve_codecs(auto)
        manual = ServingConfig(
            prefill_mode="chunked", mode="disaggregated",
            disagg=DisaggConfig(link_gb_per_s=0.125),
            kv_codec=sel["kv"].codec,
            transfer_codec=sel["transfer"].codec,
            calibration=profile,
        )
        trace = lambda: multi_tenant_trace(seed=7)  # noqa: E731
        a = engine.serve(trace(), config=auto)
        b = engine.serve(trace(), config=manual)
        assert a.makespan_s == b.makespan_s
        assert a.timings == b.timings

    def test_non_auto_configs_bit_compatible(self, engine):
        """No auto slot, no calibration: the new plumbing is inert."""
        trace = lambda: multi_tenant_trace(seed=7)  # noqa: E731
        plain = engine.serve(
            trace(), config=ServingConfig(prefill_mode="chunked")
        )
        again = engine.serve(
            trace(), config=ServingConfig(prefill_mode="chunked")
        )
        assert plain.makespan_s == again.makespan_s
        assert plain.timings == again.timings


class TestUnknownCodecError:
    """Satellite: get_codec misses are helpful ValueErrors."""

    def test_lists_names_and_nearest_match(self):
        with pytest.raises(UnknownSpecError) as exc:
            get_codec("kvcom")
        message = str(exc.value)
        assert "vector_tbe" in message or "kvcomp" in message
        assert "did you mean" in message
        assert exc.value.suggestion == "kvcomp"

    def test_is_value_error(self):
        with pytest.raises(ValueError):
            get_codec("zstd")
        with pytest.raises(ConfigError):
            get_codec("zstd")

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(UnknownSpecError) as exc:
            get_codec("qqqqqqqq")
        assert exc.value.suggestion is None
        assert "known codec" in str(exc.value)
