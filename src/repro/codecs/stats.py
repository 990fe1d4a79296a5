"""Symbol statistics shared by the compressibility analysis and perf model."""

from __future__ import annotations

import numpy as np

from .base import as_u8


def byte_entropy(data: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of a byte stream.

    §3.1 reports 2.57–2.74 bits for the exponent plane of contemporary LLMs.
    """
    data = as_u8(data)
    if data.size == 0:
        return 0.0
    counts = np.bincount(data, minlength=256).astype(np.float64)
    p = counts[counts > 0] / data.size
    return float(-(p * np.log2(p)).sum())


def top_k_coverage(freqs: np.ndarray, k: int) -> float:
    """Fraction of symbols covered by the k most frequent values."""
    freqs = np.asarray(freqs, dtype=np.int64)
    total = freqs.sum()
    if total == 0:
        return 0.0
    return float(np.sort(freqs)[::-1][:k].sum() / total)


def code_length_stats(lengths: np.ndarray) -> dict[str, float]:
    """Mean/max/std of per-symbol code lengths (the divergence driver).

    Variable-length codes force warp lanes to wait for the slowest symbol;
    the ratio mean/max is a first-order bound on SIMT efficiency (§3.2).
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.size == 0:
        return {"mean": 0.0, "max": 0.0, "std": 0.0, "min": 0.0}
    return {
        "mean": float(lengths.mean()),
        "max": float(lengths.max()),
        "std": float(lengths.std()),
        "min": float(lengths.min()),
    }
