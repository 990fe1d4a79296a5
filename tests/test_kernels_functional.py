"""Bit-exactness tests for the functional fused GEMM executors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bf16 import bf16_to_f32, gaussian_bf16_matrix
from repro.errors import ShapeError
from repro.kernels.functional import (
    dense_gemm_reference,
    dense_gemm_tiled,
    zipgemm_execute,
)
from repro.tcatbe import compress, decode_tile_warp, decode_tiles, tile_base_coords


def _random_bits(rows, cols, seed):
    """BF16 bit patterns over every exponent, minus NaN/Inf."""
    bits = np.random.default_rng(seed).integers(
        0, 2**16, (rows, cols)
    ).astype(np.uint16)
    bits[((bits >> 7) & 0xFF) == 255] = 0
    return bits


def per_tile_reference(matrix, x):
    """The paper's per-warp order: one FragTile MMA per step, canonical
    tile order, fragments from the literal per-lane decoder."""
    mp, kp = matrix.padded_shape
    xp = np.zeros((kp, x.shape[1]), dtype=np.float32)
    xp[: x.shape[0]] = x
    acc = np.zeros((mp, x.shape[1]), dtype=np.float32)
    for t, (row0, col0) in enumerate(tile_base_coords(mp, kp)):
        frag = bf16_to_f32(decode_tile_warp(matrix, t).values).reshape(8, 8)
        acc[row0:row0 + 8] += frag @ xp[col0:col0 + 8]
    return acc[: matrix.shape[0]]


class TestBitExactness:
    @pytest.mark.parametrize(
        "shape,n", [((64, 64), 1), ((64, 128), 8), ((100, 70), 5),
                    ((130, 200), 3), ((1, 1), 2)]
    )
    def test_fused_equals_dense_tiled(self, shape, n, rng):
        w = gaussian_bf16_matrix(*shape, sigma=0.02, seed=shape[0] + n)
        x = rng.normal(0, 1, (shape[1], n)).astype(np.float32)
        matrix = compress(w)
        fused = zipgemm_execute(matrix, x)
        dense = dense_gemm_tiled(w, x)
        assert np.array_equal(fused, dense)  # exact, not approx

    def test_close_to_library_gemm(self, rng):
        w = gaussian_bf16_matrix(96, 96, sigma=0.02, seed=61)
        x = rng.normal(0, 1, (96, 4)).astype(np.float32)
        fused = zipgemm_execute(compress(w), x)
        ref = dense_gemm_reference(w, x)
        assert np.allclose(fused, ref, rtol=1e-4, atol=1e-6)

    def test_random_bit_patterns_still_exact(self, rng):
        bits = rng.integers(0, 2**16, (64, 64)).astype(np.uint16)
        # Remove NaN/Inf exponents so float compare semantics stay simple.
        exp = ((bits >> 7) & 0xFF)
        bits[exp == 255] = 0
        x = rng.normal(0, 1, (64, 2)).astype(np.float32)
        with np.errstate(over="ignore"):  # huge exponents overflow to inf
            fused = zipgemm_execute(compress(bits), x)
            dense = dense_gemm_tiled(bits, x)
        assert np.array_equal(fused, dense)

    def test_output_shape_unpadded(self, rng):
        w = gaussian_bf16_matrix(65, 70, sigma=0.02, seed=62)
        x = rng.normal(0, 1, (70, 3)).astype(np.float32)
        out = zipgemm_execute(compress(w), x)
        assert out.shape == (65, 3)

    @settings(max_examples=10)
    @given(st.integers(1, 90), st.integers(1, 90), st.integers(1, 6))
    def test_property_fused_equals_dense(self, m, k, n):
        w = gaussian_bf16_matrix(m, k, sigma=0.02, seed=m * 91 + k)
        x = np.random.default_rng(n).normal(0, 1, (k, n)).astype(np.float32)
        assert np.array_equal(
            zipgemm_execute(compress(w), x), dense_gemm_tiled(w, x)
        )


@pytest.mark.parametrize(
    "weights,n",
    [
        (gaussian_bf16_matrix(64, 64, sigma=0.02, seed=1), 1),
        (gaussian_bf16_matrix(100, 70, sigma=0.02, seed=2), 5),
        (gaussian_bf16_matrix(130, 200, sigma=0.02, seed=3), 3),
        (gaussian_bf16_matrix(1, 1, sigma=0.02, seed=4), 2),
        (_random_bits(72, 136, seed=5), 4),
    ],
    ids=["64x64", "100x70", "130x200", "1x1", "random_bits"],
)
def test_schedule_equals_per_tile_reference(weights, n, rng):
    """The batched split-K schedule against the per-warp tile order."""
    matrix = compress(weights)
    x = rng.normal(0, 1, (weights.shape[1], n)).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # random-bit infs
        fused = zipgemm_execute(matrix, x)
        ref = per_tile_reference(matrix, x)
    assert np.array_equal(fused, ref, equal_nan=True)


_SUBSET_MATRICES = {
    "gaussian": compress(gaussian_bf16_matrix(100, 130, sigma=0.02, seed=17)),
    "random_bits": compress(_random_bits(70, 64, seed=18)),
}


@settings(max_examples=30)
@given(st.sampled_from(sorted(_SUBSET_MATRICES)), st.data())
def test_decode_tiles_matches_warp_reference(name, data):
    matrix = _SUBSET_MATRICES[name]
    ids = data.draw(
        st.lists(st.integers(0, matrix.n_tiles - 1), max_size=40)
    )
    want = [decode_tile_warp(matrix, t).values for t in ids]
    assert np.array_equal(
        decode_tiles(matrix, ids),
        np.array(want, dtype=np.uint16).reshape(len(ids), 64),
    )


class TestValidation:
    def test_k_mismatch(self, rng):
        w = gaussian_bf16_matrix(64, 64, seed=63)
        x = rng.normal(0, 1, (65, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, x)
        with pytest.raises(ShapeError):
            zipgemm_execute(compress(w), x)

    def test_dtype_checks(self, rng):
        w = gaussian_bf16_matrix(64, 64, seed=64)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w.astype(np.int32), np.zeros((64, 2), np.float32))
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, np.zeros((64, 2), np.float64))

    def test_activations_must_be_2d(self):
        w = gaussian_bf16_matrix(64, 64, seed=65)
        with pytest.raises(ShapeError):
            dense_gemm_tiled(w, np.zeros(64, np.float32))
