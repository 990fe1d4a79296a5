"""Tests for the Appendix-A theory module."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import theory
from repro.analysis.theory import (
    U_STAR,
    erf,
    exponent_pmf_gaussian,
    gaussian_exponent_entropy,
    mode_exponent,
    pmf_is_unimodal,
    top_k_is_contiguous,
    window_coverage_gaussian,
)
from repro.bf16 import gaussian_bf16_sample
from repro.compression import resolve_spec
from repro.tcatbe.analysis import exponent_histogram, select_window

#: Inputs on and around every branch point of Cephes ``erf``: the sign of
#: zero, |x| = 1 (T/U vs erfc), 8 (P/Q vs R/S), sqrt(MAXLOG) ~ 26.64 (erfc
#: underflow), 27 (the vectorised cut), infinities, NaN, the largest double.
ERF_EDGE_INPUTS = np.array([
    0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    8.0, np.nextafter(8.0, 0.0), 26.6, math.sqrt(theory._MAXLOG),
    np.nextafter(math.sqrt(theory._MAXLOG), 27.0), 27.0, np.inf,
    np.finfo(np.float64).max, np.finfo(np.float64).tiny, 5e-324,
])
ERF_EDGE_INPUTS = np.concatenate([ERF_EDGE_INPUTS, -ERF_EDGE_INPUTS, [np.nan]])


def _erf_sweep(n_per_kind: int, seed: int) -> np.ndarray:
    """Random inputs of every kind ``erf`` meets, plus the branch points."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=n_per_kind)
    kinds = [
        rng.normal(size=n_per_kind) * rng.choice([0.3, 1.0, 4.0], n_per_kind),
        rng.uniform(-30.0, 30.0, n_per_kind),
        # Log-uniform magnitudes over the whole normal double range.
        sign * 10.0 ** rng.uniform(-308.0, 308.0, n_per_kind),
        # Subnormals: random mantissa bits with a zero exponent field.
        sign * rng.integers(1, 2**52, n_per_kind, dtype=np.uint64)
        .view(np.float64),
    ]
    return np.concatenate(kinds + [ERF_EDGE_INPUTS])


def _same_bits(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Elementwise: same float64 bits, or both NaN."""
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (got.view(np.uint64) == want.view(np.uint64))


class TestPmf:
    def test_normalised(self):
        for sigma in (0.005, 0.02, 0.1):
            assert exponent_pmf_gaussian(sigma).sum() == pytest.approx(1.0)

    def test_sigma_validation(self):
        for sigma in (0.0, -0.02, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"got {sigma!r}"):
                exponent_pmf_gaussian(sigma)

    @pytest.mark.parametrize("codec,placement", [
        ("tcatbe", "weight"),    # window coverage
        ("kvcomp", "kv"),        # window coverage, activation-derated
        ("dfloat11", "weight"),  # exponent entropy (all byte-plane baselines)
    ])
    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_analytic_ratios_reject_non_finite_sigma(
        self, codec, placement, sigma
    ):
        # A non-finite sigma must fail, not price a plausible-looking ratio.
        with pytest.raises(ValueError, match="sigma must be positive"):
            resolve_spec(codec, placement, sigma=sigma)

    def test_no_floating_point_warnings(self):
        sigmas = [1e-300, 1e-40, 1e-4, 0.02, 10.0, 1e40, 1e300,
                  np.finfo(np.float64).max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pmfs = [exponent_pmf_gaussian(sigma) for sigma in sigmas]
            erf(ERF_EDGE_INPUTS)
        assert all(pmf.sum() == pytest.approx(1.0) for pmf in pmfs)
        # Extreme scales put all the mass in the zero/subnormal bin or the
        # inf/NaN bin.
        assert pmfs[0][0] == 1.0 and pmfs[-2][255] == 1.0

    def test_mode_tracks_u_star(self):
        # Theorem A.1: peak near 2^x = u0 * sigma * sqrt(2).
        sigma = 0.02
        peak_magnitude = U_STAR * sigma * math.sqrt(2.0)
        expected_exp = 127 + math.floor(math.log2(peak_magnitude))
        assert abs(mode_exponent(sigma) - expected_exp) <= 1

    def test_matches_sampled_histogram(self):
        sigma = 0.02
        pmf = exponent_pmf_gaussian(sigma)
        sample = gaussian_bf16_sample(500_000, sigma, seed=5)
        hist = exponent_histogram(sample) / 500_000
        # Compare the bulk of the distribution bin by bin.
        top = np.argsort(-pmf)[:5]
        assert np.allclose(pmf[top], hist[top], atol=0.01)

    @given(st.floats(0.001, 0.2))
    def test_unimodal_for_all_sigma(self, sigma):
        assert pmf_is_unimodal(exponent_pmf_gaussian(sigma))

    @given(st.floats(0.001, 0.2))
    def test_top7_contiguous_for_all_sigma(self, sigma):
        assert top_k_is_contiguous(exponent_pmf_gaussian(sigma), 7)

    def test_unimodality_detector_catches_bimodal(self):
        bimodal = np.zeros(256)
        bimodal[100] = 0.4
        bimodal[101] = 0.1
        bimodal[102] = 0.4
        bimodal[99] = 0.1
        assert not pmf_is_unimodal(bimodal)

    def test_contiguity_detector_negative(self):
        pmf = np.zeros(256)
        pmf[100] = 0.5
        pmf[110] = 0.5
        assert not top_k_is_contiguous(pmf, 2)


class TestCoverageAndEntropy:
    def test_coverage_band(self):
        # §3.1: ~97.1% average 7-window coverage.
        for sigma in (0.01, 0.02, 0.04):
            assert 0.955 < window_coverage_gaussian(sigma) < 0.99

    def test_coverage_scale_invariant(self):
        # The pmf shape shifts but does not change with sigma.
        covers = [window_coverage_gaussian(s) for s in (0.005, 0.02, 0.08)]
        assert max(covers) - min(covers) < 0.02

    def test_entropy_band(self):
        # Paper: 2.57-2.74 bits on real models; Gaussian sits near 2.55.
        for sigma in (0.01, 0.02, 0.04):
            assert 2.4 < gaussian_exponent_entropy(sigma) < 2.8

    def test_analytic_vs_sampled_coverage(self):
        sigma = 0.015
        sampled = select_window(
            exponent_histogram(gaussian_bf16_sample(300_000, sigma, seed=9))
        ).coverage
        assert window_coverage_gaussian(sigma) == pytest.approx(
            sampled, abs=0.005
        )


class TestErf:
    """The in-repo Cephes ``erf`` behind the pmf."""

    def test_known_values(self):
        assert erf(0.5) == pytest.approx(0.5204998778130465, rel=1e-15)
        assert erf(2.0) == pytest.approx(0.9953222650189527, rel=1e-15)
        assert erf(10.0) == 1.0
        assert erf(-np.inf) == -1.0

    def test_odd_symmetry_and_signed_zero(self):
        x = _erf_sweep(2000, seed=1)
        assert _same_bits(erf(-x), -erf(x)).all()
        assert np.signbit(erf(-0.0)) and not np.signbit(erf(0.0))
        assert np.isnan(erf(np.nan))

    def test_pmf_runs_erfc_on_a_handful_of_edges(self, monkeypatch):
        # The pmf's cost budget: exp and P/Q or R/S only on the edges in
        # (1, 27), at most five of them since edges double.
        calls = []
        tail = theory._erfc_above_one
        monkeypatch.setattr(theory, "_erfc_above_one",
                            lambda a: calls.append(a) or tail(a))
        for sigma in (1e-4, 0.0039, 0.02, 10.0):
            calls.clear()
            exponent_pmf_gaussian(sigma)
            assert 1 <= len(calls) <= 5 and all(1 < a < 27 for a in calls)

    def test_erf_matches_scipy_bit_for_bit(self):
        special = pytest.importorskip("scipy.special")
        x = _erf_sweep(260_000, seed=2026)
        got, want = erf(x), special.erf(x)
        same = _same_bits(got, want)
        assert same.all(), (
            f"{(~same).sum()} of {x.size} differ, first at x ="
            f" {x[~same][:5].tolist()}"
        )
