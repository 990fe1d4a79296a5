"""Appendix A: why BF16 exponents of LLM weights are skewed and contiguous.

For weights ``w ~ N(0, sigma^2)``, the probability that a weight uses raw
exponent field ``E`` (actual exponent ``x = E - 127``) is the Gaussian mass
of the magnitude interval ``[2^x, 2^(x+1))``::

    P(X = x) = erf(2^(x+1) / (sigma sqrt(2))) - erf(2^x / (sigma sqrt(2)))

Appendix A proves this pmf is unimodal (single interior maximum at
``u0 = sqrt(ln 2 / 3)``), and that unimodality implies the top-K most
probable exponents always form a numerically contiguous run — the structural
property ("exponent contiguity") that lets TCA-TBE replace a codebook with
``base + code`` arithmetic.  This module evaluates the closed forms so tests
and experiments can check the claims numerically.

**The error function is an in-repo port.**  The pmf is the only ``erf`` the
package needs, yet it sits on every engine build (codec ratios are priced
from it) and every ``calibrate()`` call.  Importing ``scipy.special`` for
it cost every process ~0.3 s and ~18 MB (2-vCPU x86-64 host), and scipy
is not a declared dependency.  :func:`erf` ports the algorithm
``scipy.special.erf`` runs, Cephes ``ndtr.c``: the same rational
approximations, the same Horner order, the same branch points and
``math.exp`` — the C library's ``exp``, which Cephes calls too — rather
than ``np.exp``, whose SIMD loops may round differently in the last
place.  Every step is then one correctly rounded IEEE operation in the
same order, so the port returns scipy's bits (a scipy built to fuse the
Horner steps into FMA instructions would round differently).
``tests/test_theory.py`` checks that parity where scipy is installed; the
contract every host checks is the ``analytic`` group of
``tests/data/codec_goldens.json``, pinned from the scipy-backed pmf: the
pmf bytes and every registered codec's analytic ratio.
"""

from __future__ import annotations

import math

import numpy as np

from ..bf16.dtype import EXPONENT_BIAS

#: Location of the continuous maximiser from Theorem A.1: u0 = sqrt(ln2 / 3),
#: where u = 2^x / (sigma sqrt(2)).
U_STAR = math.sqrt(math.log(2.0) / 3.0)

# Cephes ``ndtr.c`` coefficients, highest degree first.  erf(x) is
# x T(x^2) / U(x^2) for |x| <= 1; otherwise 1 - erfc(|x|), with erfc(x) =
# exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8 on.  U, Q
# and S are monic; their leading 1 is implicit, as in Cephes.
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
#: Cephes MAXLOG, ln(2^1024): erfc(x) is 0 once -x^2 < -MAXLOG.
_MAXLOG = 7.09782712893383996843e2

#: The 255 edges 2^-126 ... 2^128 of the exponent bins: bin E (1..254)
#: holds magnitudes in [edge E-1, edge E), bin 0 everything below edge 0.
_BIN_EDGES = np.exp2(
    np.arange(1 - EXPONENT_BIAS, 256 - EXPONENT_BIAS, dtype=np.float64)
)


def _polevl(x, coef):
    """Cephes ``polevl``: Horner's rule, highest degree first.

    Takes a float or an array (updated in place after the first step).
    """
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: ``polevl`` with an implicit leading 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erfc_above_one(a: float) -> float:
    """Cephes ``erfc`` for one float ``a > 1``."""
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        return z * _polevl(a, _P) / _p1evl(a, _Q)
    return z * _polevl(a, _R) / _p1evl(a, _S)


def erf(x) -> np.ndarray:
    """Elementwise error function, bit-identical to ``scipy.special.erf``.

    A port of Cephes ``ndtr.c`` (see the module docstring).  ``|x| <= 1``
    runs the T/U rational vectorised; ``1 < |x| < 27`` — past 27, x^2
    exceeds MAXLOG and erfc underflows, so erf is 1 — runs ``erfc`` one
    float at a time, because only ``math.exp`` matches Cephes' ``exp``.
    NaN stays NaN, ``erf(-x) = -erf(x)`` (exact in IEEE arithmetic, and the
    sign of -0.0 is kept), and no input raises a floating-point warning.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x.ravel())
    # 1.0 wherever |x| > 1 until the tail below overwrites it; NaN stays
    # NaN, since it compares false on both sides of 1.
    y = np.minimum(a, 1.0)
    small = a <= 1.0
    s = a[small]
    z = s * s
    y[small] = s * _polevl(z, _T) / _p1evl(z, _U)
    tail = np.flatnonzero((a > 1.0) & (a < 27.0))
    if tail.size:
        y[tail] = [1.0 - _erfc_above_one(v) for v in a[tail].tolist()]
    return np.copysign(y.reshape(x.shape), x)


def exponent_pmf_gaussian(sigma: float) -> np.ndarray:
    """Pmf over the 256 raw exponent-field values for N(0, sigma^2) weights.

    Bin 0 aggregates zero and subnormal magnitudes (|w| < 2^-126); bin 255
    (inf/NaN) receives the negligible tail mass above 2^128.  One
    :func:`erf` call over the bin edges gives P(|w| < edge); each bin is the
    difference of its two edges.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    with np.errstate(over="ignore"):  # sigma < ~1e-270: edges reach inf
        cdf = erf(_BIN_EDGES / (sigma * math.sqrt(2.0)))
    pmf = np.zeros(256, dtype=np.float64)
    pmf[0] = cdf[0]
    np.subtract(cdf[1:], cdf[:-1], out=pmf[1:255])
    pmf[255] = max(0.0, 1.0 - pmf.sum())
    return pmf


def pmf_is_unimodal(pmf: np.ndarray, tol: float = 1e-15) -> bool:
    """Check that a pmf rises to a single peak then falls (Theorem A.1)."""
    pmf = np.asarray(pmf, dtype=np.float64)
    support = np.flatnonzero(pmf > tol)
    if support.size <= 2:
        return True
    values = pmf[support[0]: support[-1] + 1]
    diffs = np.diff(values)
    signs = np.sign(np.where(np.abs(diffs) <= tol, 0.0, diffs))
    signs = signs[signs != 0]
    # Once the sequence starts decreasing it must never increase again.
    decreasing = False
    for s in signs:
        if s < 0:
            decreasing = True
        elif decreasing:
            return False
    return True


def top_k_is_contiguous(pmf: np.ndarray, k: int) -> bool:
    """Check Theorem A.2: the k most probable values form a contiguous run."""
    pmf = np.asarray(pmf, dtype=np.float64)
    top = np.sort(np.argsort(-pmf, kind="stable")[:k])
    return bool(top[-1] - top[0] == k - 1)


def window_coverage_gaussian(sigma: float, k: int = 7) -> float:
    """Coverage of the best k-wide contiguous exponent window (analytic).

    §3.1 measures ~97.1% average coverage for k = 7 on real checkpoints;
    the Gaussian model predicts essentially the same value for any sigma in
    the LLM range because the pmf shape is scale-invariant up to a shift.
    """
    pmf = exponent_pmf_gaussian(sigma)
    window_sums = np.convolve(pmf, np.ones(k), "valid")
    return float(window_sums[1:].max())


def gaussian_exponent_entropy(sigma: float) -> float:
    """Entropy (bits) of the exponent pmf (paper: 2.57-2.74 for real LLMs)."""
    pmf = exponent_pmf_gaussian(sigma)
    p = pmf[pmf > 0]
    return float(-(p * np.log2(p)).sum())


def mode_exponent(sigma: float) -> int:
    """Raw exponent field value at the pmf mode.

    The continuous analysis puts the peak near ``2^x ≈ u0 sigma sqrt(2)``;
    this returns the exact discrete argmax.
    """
    return int(np.argmax(exponent_pmf_gaussian(sigma)))
