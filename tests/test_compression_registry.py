"""One bit-exactness contract for every registered codec.

This file replaces the per-codec round-trip one-offs that used to live in
``test_bf16_codecs.py`` / ``test_vector_tbe.py`` / ``test_tcatbe_roundtrip``
with a single parametrized matrix: every codec in the registry, crossed
with the edge shapes that historically caught bugs (empty input, 1x1,
non-tile-multiple dims, all-outlier exponent spreads, IEEE special
values).  Format-specific container checks stay in the per-format files;
the *round-trip contract* lives here.
"""

import math

import numpy as np
import pytest

from repro.bf16 import gaussian_bf16_matrix
from repro.compression import (
    PLACEMENTS,
    Codec,
    CompressionSpec,
    get_codec,
    list_codecs,
    resolve_spec,
)
from repro.errors import CodecError, ConfigError, UnknownSpecError

ALL = list_codecs()
LOSSLESS = [name for name in ALL if get_codec(name).lossless]
LOSSY = [name for name in ALL if not get_codec(name).lossless]


def _edge_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    gauss = gaussian_bf16_matrix(64, 96, sigma=0.02, seed=1)
    return {
        "empty": np.zeros((0,), dtype=np.uint16),
        "empty_2d": np.zeros((0, 8), dtype=np.uint16),
        "one_element": gaussian_bf16_matrix(1, 1, sigma=0.02, seed=2),
        "non_tile_multiple": gaussian_bf16_matrix(5, 7, sigma=0.02, seed=3),
        "vector_1d": gauss.ravel()[:130],
        "gaussian_tile": gauss,
        # Random bit patterns spread exponents over the full range, so
        # almost every element misses the 7-wide window (fallback path).
        "random_bits": rng.integers(0, 2**16, (3, 65)).astype(np.uint16),
        # Adversarial all-outlier: exponents alternate 0 and 255 — zero
        # in-window coverage for any window.
        "all_outlier": np.where(
            np.arange(192) % 2 == 0, 0x0000, 0x7F80
        ).astype(np.uint16).reshape(3, 64),
        "special_values": np.array(
            [[0x0000, 0x8000, 0x7F80, 0xFF80],
             [0x7FC0, 0x0001, 0x7F7F, 0xFF7F]],
            dtype=np.uint16,
        ),
    }


CASES = _edge_cases()


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", LOSSLESS)
class TestLosslessRoundTrip:
    def test_bit_exact(self, name, case):
        codec = get_codec(name)
        data = CASES[case]
        enc = codec.encode(data)
        out = codec.decode(enc)
        assert out.dtype == np.uint16
        assert out.shape == data.shape
        assert np.array_equal(out, data)

    def test_accounting(self, name, case):
        codec = get_codec(name)
        data = CASES[case]
        enc = codec.encode(data)
        assert enc.codec == codec.name
        assert enc.n_elements == data.size
        if data.size == 0:
            assert enc.nbytes == 0 and enc.blob is None
        else:
            assert enc.nbytes > 0


@pytest.mark.parametrize("name", ALL)
def test_encode_many_equals_one_at_a_time(name):
    """A batch (ragged sizes, an empty and a 1-element array among them)
    encodes every array exactly as encoding it alone does."""
    codec = get_codec(name)
    batch = [
        CASES["gaussian_tile"], CASES["empty"], CASES["one_element"],
        CASES["vector_1d"], CASES["empty_2d"], CASES["non_tile_multiple"],
        gaussian_bf16_matrix(40, 200, sigma=0.05, seed=4),
    ]
    many = codec.encode_many(batch)
    single = [codec.encode(data) for data in batch]
    assert [e.nbytes for e in many] == [e.nbytes for e in single]
    for data, got, want in zip(batch, many, single):
        assert got.shape == want.shape == data.shape
        assert (got.blob is None) == (data.size == 0)
        assert np.array_equal(codec.decode(got), codec.decode(want))


@pytest.mark.parametrize("name", LOSSY)
class TestLossyProjection:
    """Lossy codecs must be projections: re-encoding their own output is
    the identity (the lossless stage adds zero further error)."""

    @pytest.mark.parametrize(
        "case", ["one_element", "non_tile_multiple", "gaussian_tile"]
    )
    def test_fixed_point(self, name, case):
        codec = get_codec(name)
        data = CASES[case]
        once = codec.decode(codec.encode(data))
        twice = codec.decode(codec.encode(once))
        assert once.shape == data.shape
        assert np.array_equal(twice, once)

    def test_empty(self, name):
        codec = get_codec(name)
        enc = codec.encode(CASES["empty"])
        assert codec.decode(enc).shape == (0,)


class TestRegistry:
    def test_expected_codecs_registered(self):
        assert {"none", "tcatbe", "vector_tbe", "dfloat11", "dietgpu",
                "nvcomp", "zipquant"} <= set(ALL)

    def test_aliases(self):
        assert get_codec("kvcomp") is get_codec("vector_tbe")
        assert get_codec("dense") is get_codec("none")
        assert get_codec("raw") is get_codec("none")
        assert get_codec("TCATBE") is get_codec("tcatbe")

    def test_unknown_codec(self):
        with pytest.raises(UnknownSpecError):
            get_codec("zstd")

    def test_encoder_returning_too_few_results_rejected(self):
        broken = Codec(name="broken", encode_fn=lambda arrays: [])
        with pytest.raises(CodecError, match="encoded 0 of 1"):
            broken.encode(np.ones(3, dtype=np.uint16))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(CodecError):
            get_codec("tcatbe").encode(np.zeros((4, 4), dtype=np.float32))

    def test_codec_blob_mismatch_rejected(self):
        enc = get_codec("none").encode(CASES["gaussian_tile"])
        with pytest.raises(CodecError):
            get_codec("tcatbe").decode(enc)

    def test_decoupled_codec_needs_baseline(self):
        with pytest.raises(ConfigError):
            Codec(name="broken", linear_mode="decoupled")


class TestSpecResolution:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("name", ALL)
    def test_every_codec_resolves_in_every_placement(self, name, placement):
        spec = resolve_spec(name, placement)
        assert spec.ratio >= 1.0
        assert spec.placement == placement
        assert spec.resolve() is get_codec(name)

    def test_explicit_ratio_wins(self):
        spec = resolve_spec("vector_tbe", "kv", ratio=2.0)
        assert spec.ratio == 2.0

    def test_identity_spec(self):
        assert resolve_spec("none", "wire").identity
        assert not resolve_spec("tcatbe", "weight").identity

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            CompressionSpec(codec="none", placement="kv", ratio=0.5,
                            sigma=0.05)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_ratio_rejected(self, value):
        with pytest.raises(ConfigError, match=f"got {value}$"):
            resolve_spec("tcatbe", "weight", ratio=value)

    def test_bad_placement_rejected(self):
        with pytest.raises(ConfigError):
            resolve_spec("none", "hbm")

    def test_weights_price_differently_from_activations(self):
        codec = get_codec("tcatbe")
        # Outlier-derated activations compress slightly worse.
        assert codec.ratio("kv") < codec.ratio("weight")
        assert codec.ratio("wire") == codec.ratio("kv")


class TestServingConfigSlots:
    """The acceptance criterion: every registered codec is valid in every
    ``ServingConfig`` slot, and leaving slots at their defaults stays
    bit-compatible with the pre-registry stack."""

    def test_any_codec_in_any_slot(self):
        from repro.serving.serve import DisaggConfig, ServingConfig

        for name in ALL:
            config = ServingConfig(
                mode="disaggregated",
                disagg=DisaggConfig(link_gb_per_s=1.0),
                weight_codec=name,
                kv_codec=name,
                transfer_codec=name,
            )
            assert config.resolved_transfer_codec == name

    def test_unknown_slot_codec_rejected(self):
        from repro.serving.serve import ServingConfig

        with pytest.raises(UnknownSpecError):
            ServingConfig(weight_codec="zstd")
        with pytest.raises(UnknownSpecError):
            ServingConfig(kv_codec="zstd")
        with pytest.raises(UnknownSpecError):
            ServingConfig(transfer_codec="zstd")

    def test_explicit_backend_codec_matches_default_bitwise(self):
        from repro.gpu.specs import get_gpu
        from repro.serving.backends import get_backend
        from repro.serving.engine import InferenceEngine
        from repro.serving.serve import ServingConfig
        from repro.serving.trace import multi_tenant_trace

        engine = InferenceEngine(
            get_model_cached(), get_gpu("rtx4090"), get_backend("zipserv"),
        )
        default = engine.serve(
            multi_tenant_trace(seed=7),
            config=ServingConfig(prefill_mode="chunked"),
        )
        explicit = engine.serve(
            multi_tenant_trace(seed=7),
            config=ServingConfig(
                prefill_mode="chunked", weight_codec="tcatbe",
                kv_codec="none",
            ),
        )
        # Same floats, not merely close: the explicit slots resolve to
        # exactly what the backend defaults resolved to.
        assert explicit.makespan_s == default.makespan_s
        assert explicit.timings == default.timings

    def test_weight_slot_keeps_engine_kv_compression(self):
        from repro.gpu.specs import get_gpu
        from repro.serving.backends import get_backend
        from repro.serving.engine import InferenceEngine
        from repro.serving.serve import ServingConfig
        from repro.serving.trace import multi_tenant_trace

        engine = InferenceEngine(
            get_model_cached(), get_gpu("rtx4090"), get_backend("zipserv"),
            kv_compression_ratio=1.4,
        )
        default = engine.serve(
            multi_tenant_trace(seed=7),
            config=ServingConfig(prefill_mode="chunked"),
        )
        # Setting only the weight slot (to the backend's own codec) must
        # not silently drop the engine's construction-time KV ratio.
        with_weight = engine.serve(
            multi_tenant_trace(seed=7),
            config=ServingConfig(
                prefill_mode="chunked", weight_codec="tcatbe",
            ),
        )
        assert with_weight.makespan_s == default.makespan_s
        assert with_weight.timings == default.timings


def get_model_cached():
    from repro.serving.models import get_model

    return get_model("llama3.1-8b")


class TestLayerEstimatorFacade:
    """serving.weights.estimate_layer_compression accepts any registry
    codec, and its historical names keep their exact values."""

    def test_any_registered_codec(self):
        from repro.serving.weights import estimate_layer_compression

        for name in ALL:
            comp = estimate_layer_compression(4096, 4096, 0.016, name)
            assert comp.ratio >= 1.0

    def test_matches_registry_math(self):
        from repro.serving.weights import estimate_layer_compression

        comp = estimate_layer_compression(4096, 4096, 0.016, "tcatbe")
        assert comp.ratio == get_codec("tcatbe").ratio("weight", 0.016)

    def test_kvcomp_ratio_single_sourced(self):
        from repro.extensions.kvcomp import kv_compression_ratio

        assert kv_compression_ratio(0.05) == get_codec("kvcomp").ratio(
            "kv", 0.05
        )
