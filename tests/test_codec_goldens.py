"""Byte-level goldens for the encoders whose output is stored or measured.

Round-trip tests pass for any encoder that its own decoder inverts, so an
encoder change that moved its bytes would slip through them while silently
shifting every stored container and every calibrated ratio.  These tests pin
the sha256 of each buffer the encoders emit — TCA-TBE ``compress``, Vector-TBE
``compress_vector`` and interleaved ``RansCodec.encode`` — to the committed
``tests/data/codec_goldens.json``, together with the sha256 of whole
``calibrate()`` profiles, whose byte counts come from every registered
codec's encoder, and of the analytic layer: the Appendix-A exponent pmf and
every registered codec's ``ratio(placement, sigma)`` over a sigma sweep and
every zoo model's layer sigmas.  The analytic group is what keeps the
in-repo ``erf`` (:mod:`repro.analysis.theory`) bit-identical on hosts
without scipy.

Regenerate (only for an intentional format change) with::

    PYTHONPATH=src python tests/test_codec_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.theory import exponent_pmf_gaussian
from repro.bf16 import gaussian_bf16_matrix, gaussian_bf16_sample
from repro.codecs.rans import RansCodec
from repro.compression import (
    PLACEMENTS,
    calibrate,
    get_codec,
    list_codecs,
    tensor_classes_for_model,
)
from repro.serving.models import MODELS, get_model
from repro.serving.weights import layer_sigma
from repro.tcatbe import compress
from repro.tcatbe.vector import compress_vector

GOLDEN_PATH = Path(__file__).parent / "data" / "codec_goldens.json"

MATRIX_BUFFERS = ("bitmaps", "high", "low", "high_starts", "low_starts")
RANS_FIELDS = ("payload", "states", "word_offsets")


def _sha(buf: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(buf).tobytes()).hexdigest()


def _random_bits(rows: int, cols: int, seed: int) -> np.ndarray:
    """Arbitrary BF16 bit patterns: exponents all over the window and out."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**16, (rows, cols)).astype(np.uint16)


def _skewed_bytes(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.geometric(0.5, size=n).clip(1, 30) + 110).astype(np.uint8)


def _matrix_cases() -> dict:
    cases = {
        f"gaussian_{m}x{k}": gaussian_bf16_matrix(m, k, sigma=0.02, seed=m + k)
        for m, k in ((64, 64), (100, 70), (130, 200), (1024, 1024))
    }
    cases["random_bits_96x80"] = _random_bits(96, 80, seed=5)
    return cases


def _vector_cases() -> dict:
    return {
        f"length_{n}": gaussian_bf16_sample(n, sigma=0.02, seed=n)
        for n in (1, 63, 64, 65, 4097)
    }


def _rans_cases() -> dict:
    cases = {
        f"n_{n}": (RansCodec(), _skewed_bytes(n, seed=n))
        for n in (1, 31, 33, 1000, 50_000)
    }
    cases["streams_32"] = (RansCodec(num_streams=32), _skewed_bytes(10_000, 2))
    cases["streams_64_n_10"] = (RansCodec(num_streams=64), _skewed_bytes(10, 3))
    cases["prob_bits_10"] = (RansCodec(prob_bits=10), _skewed_bytes(5000, 4))
    return cases


def _calibration_cases() -> dict:
    """Keyword arguments of each pinned ``calibrate()`` run."""
    return {
        "llama3.1-8b": {
            "classes": tensor_classes_for_model(get_model("llama3.1-8b")),
            "seed": 0,
        },
        "default_classes": {"seed": 0},
    }


def _analytic_cases() -> dict:
    """Sigma sets whose exponent pmf and analytic ratios are pinned."""
    cases = {"geomspace_1e-4_10_512": np.geomspace(1e-4, 10, 512).tolist()}
    for name, model in MODELS.items():
        cases[f"model_{name}"] = sorted({
            layer_sigma(layer.kind, layer.m, layer.k)
            for layer in model.linear_layers()
        })
    return cases


def _matrix_digests(weights: np.ndarray) -> dict:
    matrix = compress(weights)
    return {name: _sha(getattr(matrix, name)) for name in MATRIX_BUFFERS}


def _vector_digests(values: np.ndarray) -> dict:
    blob = compress_vector(values)
    return {name: _sha(getattr(blob, name)) for name in MATRIX_BUFFERS}


def _rans_digests(codec: RansCodec, data: np.ndarray) -> dict:
    stream = codec.encode(data)
    return {
        "payload": _sha(stream.payload),
        "states": _sha(stream.meta["states"]),
        "word_offsets": _sha(stream.meta["word_offsets"]),
    }


def _calibration_digests(kwargs: dict) -> dict:
    profile = calibrate(**kwargs)
    text = json.dumps(profile.to_dict(), sort_keys=True)
    return {"profile": hashlib.sha256(text.encode()).hexdigest()}


def _analytic_digests(sigmas: list) -> dict:
    pmf = hashlib.sha256()
    ratios = hashlib.sha256()
    for sigma in sigmas:
        pmf.update(exponent_pmf_gaussian(sigma).tobytes())
        for name in list_codecs():
            codec = get_codec(name)
            for placement in PLACEMENTS:
                line = f"{name} {placement} {sigma!r} "
                line += f"{codec.ratio(placement, sigma)!r}\n"
                ratios.update(line.encode())
    return {"pmf": pmf.hexdigest(), "ratios": ratios.hexdigest()}


def compute_goldens() -> dict:
    """Digests of every golden case, keyed group -> case -> buffer."""
    return {
        "compress": {
            name: _matrix_digests(w) for name, w in _matrix_cases().items()
        },
        "compress_vector": {
            name: _vector_digests(v) for name, v in _vector_cases().items()
        },
        "rans_encode": {
            name: _rans_digests(*case) for name, case in _rans_cases().items()
        },
        "calibration": {
            name: _calibration_digests(kwargs)
            for name, kwargs in _calibration_cases().items()
        },
        "analytic": {
            name: _analytic_digests(sigmas)
            for name, sigmas in _analytic_cases().items()
        },
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


_HINT = (
    "encoder bytes drifted from tests/data/codec_goldens.json; if the format"
    " change is intentional, regenerate it (see the module docstring)"
)


@pytest.mark.parametrize("name", sorted(_matrix_cases()))
def test_compress_buffers(goldens, name):
    assert _matrix_digests(_matrix_cases()[name]) == \
        goldens["compress"][name], _HINT


@pytest.mark.parametrize("name", sorted(_vector_cases()))
def test_compress_vector_buffers(goldens, name):
    assert _vector_digests(_vector_cases()[name]) == \
        goldens["compress_vector"][name], _HINT


@pytest.mark.parametrize("name", sorted(_rans_cases()))
def test_rans_encode_buffers(goldens, name):
    assert _rans_digests(*_rans_cases()[name]) == \
        goldens["rans_encode"][name], _HINT


@pytest.mark.parametrize("name", sorted(_calibration_cases()))
def test_calibration_profiles(goldens, name):
    assert _calibration_digests(_calibration_cases()[name]) == \
        goldens["calibration"][name], _HINT


@pytest.mark.parametrize("name", sorted(_analytic_cases()))
def test_analytic_pmf_and_ratios(goldens, name):
    assert _analytic_digests(_analytic_cases()[name]) == \
        goldens["analytic"][name], (
            "the Appendix-A pmf or an analytic codec ratio drifted from"
            " tests/data/codec_goldens.json; every serving price and"
            " calibration reference reads these bits"
        )


def test_goldens_cover_every_case(goldens):
    assert {g: sorted(c) for g, c in goldens.items()} == {
        "compress": sorted(_matrix_cases()),
        "compress_vector": sorted(_vector_cases()),
        "rans_encode": sorted(_rans_cases()),
        "calibration": sorted(_calibration_cases()),
        "analytic": sorted(_analytic_cases()),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN_PATH.write_text(json.dumps(compute_goldens(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
