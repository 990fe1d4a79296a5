"""Measured codec calibration: run the real codecs, persist the ratios.

The registry's analytic estimators (:mod:`repro.compression.builtin`)
price every codec from a Gaussian model of the tensor — fast, but blind
to what ZipNN observes in practice: real compressibility varies per
model and per tensor class, and container overheads (tile offsets,
vector headers, frequency tables) bite differently at different shapes.
This module replaces assumption with measurement:

* a :class:`TensorClass` names one population of tensors — a weight
  matrix class at its layer's Glorot sigma (``weights by layer
  fan-in/out``), or a KV/wire block at activation scale;
* :func:`calibrate` samples each class once, runs every candidate
  codec's **bit-exact encoder** over the same bits — one batched
  :meth:`~repro.compression.spec.Codec.encode_many` call per codec —
  and records the measured ratio next to the analytic estimate;
* the result is a persistable :class:`MeasuredRatioProfile` that
  :func:`~repro.compression.spec.resolve_spec` consults *between* the
  explicit ``ratio=`` override and the analytic estimator — measured
  wins over analytic, explicit wins over both (install one process-wide
  with :func:`~repro.compression.spec.set_measured_profile` or pass it
  as ``profile=`` / ``ServingConfig(calibration=...)``).

Calibration is deterministic: the same ``seed`` and classes produce the
same profile bit-for-bit (per-class sample seeds are derived with
``zlib.crc32``, never Python's randomised ``hash``), which is what lets
tests pin the measured-vs-analytic drift and lets a committed profile
stay meaningful.  The measured/analytic gap itself is bounded by
:data:`ANALYTIC_DRIFT_BOUND` (tested per builtin codec x placement in
``tests/test_calibration_policy.py``).
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..bf16 import gaussian_bf16_matrix
from ..errors import ConfigError
from .spec import (
    ACTIVATION_SIGMA,
    PLACEMENTS,
    get_codec,
    list_codecs,
)

#: Documented bound on |measured / analytic - 1| for every builtin codec
#: in every placement at the default calibration classes.  The analytic
#: estimators are first-order Gaussian models; the measured side adds
#: real container overheads, integer-codeword losses (Huffman-coded
#: exponent planes at ~1-2%) and the quant combo's entropy-coding slack
#: (~5%, the worst observed), so the gap is real but stays within this
#: band (enforced per codec x placement in
#: ``tests/test_calibration_policy.py``).
ANALYTIC_DRIFT_BOUND = 0.10

#: Default sample geometry: multiples of the 64x64 TCA-TBE tile so tile
#: container overheads amortise the way they do on real layers, yet
#: small enough that a full-registry calibration runs in seconds.
DEFAULT_SAMPLE_SHAPE = (128, 256)

PROFILE_FORMAT_VERSION = 1


def glorot_sigma(m: int, k: int) -> float:
    """Glorot-style weight sigma for an ``(m, k)`` layer:
    ``sqrt(2 / (fan_in + fan_out))`` (Appendix A's per-layer scale)."""
    if m <= 0 or k <= 0:
        raise ConfigError(f"layer dims must be positive, got {m}x{k}")
    return math.sqrt(2.0 / (m + k))


@dataclass(frozen=True)
class TensorClass:
    """One population of tensors to calibrate a codec against.

    ``name`` keys the measured record (convention:
    ``"<placement>:<what>"``, e.g. ``"weight:qkv_proj"``); ``sigma`` is
    the population's Gaussian scale; ``shape`` the sample drawn per
    calibration run.
    """

    name: str
    placement: str
    sigma: float
    shape: tuple[int, int] = DEFAULT_SAMPLE_SHAPE

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"placement must be one of {PLACEMENTS},"
                f" got {self.placement!r}"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(
                f"sigma must be positive and finite, got {self.sigma}"
            )
        if min(self.shape) <= 0:
            raise ConfigError(f"sample shape must be positive: {self.shape}")

    def sample_seed(self, seed: int) -> int:
        """Deterministic per-class sample seed (no randomised hash())."""
        return (seed * 1000003 + zlib.crc32(self.name.encode())) % (2**31)


def default_tensor_classes() -> list[TensorClass]:
    """Model-agnostic calibration classes: one generic weight class per
    typical Glorot scale, plus the KV-block and wire-stream classes at
    activation scale (KV and wire carry the same bits; they are separate
    classes because the registry prices the placements separately)."""
    return [
        TensorClass("weight:generic", "weight", 0.02),
        TensorClass("kv:block", "kv", ACTIVATION_SIGMA),
        TensorClass("wire:kv", "wire", ACTIVATION_SIGMA),
        TensorClass("prefix:block", "prefix", ACTIVATION_SIGMA),
    ]


def tensor_classes_for_model(model, sample_shape=DEFAULT_SAMPLE_SHAPE):
    """Per-layer-class calibration classes for one model.

    ``model`` is duck-typed (anything with ``linear_layers()`` yielding
    objects with ``kind``/``m``/``k`` — :class:`repro.serving.models
    .ModelSpec` in practice; this module sits below the serving layer).
    Each linear-layer *kind* becomes one weight class at its own Glorot
    sigma — the per-tensor-class granularity ZipNN shows matters — and
    the KV/wire classes ride along at activation scale.
    """
    classes = []
    seen = set()
    for layer in model.linear_layers():
        if layer.kind in seen:
            continue
        seen.add(layer.kind)
        classes.append(TensorClass(
            name=f"weight:{layer.kind}",
            placement="weight",
            sigma=glorot_sigma(layer.m, layer.k),
            shape=sample_shape,
        ))
    classes.append(TensorClass("kv:block", "kv", ACTIVATION_SIGMA,
                               sample_shape))
    classes.append(TensorClass("wire:kv", "wire", ACTIVATION_SIGMA,
                               sample_shape))
    classes.append(TensorClass("prefix:block", "prefix", ACTIVATION_SIGMA,
                               sample_shape))
    return classes


@dataclass(frozen=True)
class MeasuredRatio:
    """One calibration record: a codec run over one tensor class."""

    codec: str
    placement: str
    cls: str
    sigma: float
    n_elements: int
    compressed_bytes: int
    analytic_ratio: float

    @property
    def raw_bytes(self) -> int:
        """Uncompressed BF16 footprint of the sample."""
        return 2 * self.n_elements

    @property
    def ratio(self) -> float:
        """Measured compression ratio (original / compressed bytes),
        floored at 1.0 to keep the stack's ``ratio >= 1`` invariant
        (a codec whose container inflates a tiny sample must not imply
        negative capacity)."""
        if self.n_elements == 0:
            return 1.0
        return max(1.0, self.raw_bytes / max(self.compressed_bytes, 1))

    @property
    def analytic_gap(self) -> float:
        """Relative measured-vs-analytic gap: ``measured/analytic - 1``."""
        return self.ratio / self.analytic_ratio - 1.0

    def to_dict(self) -> dict:
        return {
            "codec": self.codec,
            "placement": self.placement,
            "cls": self.cls,
            "sigma": self.sigma,
            "n_elements": self.n_elements,
            "compressed_bytes": self.compressed_bytes,
            "analytic_ratio": self.analytic_ratio,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MeasuredRatio":
        return cls(**d)


class MeasuredRatioProfile:
    """A persistable set of measured codec ratios, keyed by
    (codec, placement, tensor class).

    This is the object the registry's resolution consults
    (:func:`~repro.compression.spec.resolve_spec` calls
    :meth:`ratio_for`); it round-trips through JSON (:meth:`save` /
    :meth:`load`) so a calibration run on one machine can be committed
    and replayed anywhere.
    """

    def __init__(self, records=(), seed: int = 0):
        self.seed = seed
        self._records: dict[tuple[str, str, str], MeasuredRatio] = {}
        for rec in records:
            self.add(rec)

    # ------------------------------------------------------------------
    def add(self, rec: MeasuredRatio) -> None:
        self._records[(rec.codec, rec.placement, rec.cls)] = rec

    @property
    def records(self) -> list[MeasuredRatio]:
        """All records, in deterministic key order."""
        return [self._records[k] for k in sorted(self._records)]

    def __len__(self) -> int:
        return len(self._records)

    def ratio_for(
        self, codec: str, placement: str, cls: str | None = None
    ) -> float | None:
        """Measured ratio for a codec x placement (x optional class).

        With ``cls`` given, only that class's record answers (falling
        back to the placement aggregate when the class was never
        calibrated).  The placement aggregate is the element-weighted
        ratio — total raw bytes over total compressed bytes across the
        placement's classes — i.e. exactly what a heterogeneous tensor
        population would measure end to end.
        """
        name = get_codec(codec).name
        if cls is not None:
            rec = self._records.get((name, placement, cls))
            if rec is not None:
                return rec.ratio
        rows = [
            r for (c, p, _), r in self._records.items()
            if c == name and p == placement
        ]
        if not rows:
            return None
        raw = sum(r.raw_bytes for r in rows)
        compressed = sum(r.compressed_bytes for r in rows)
        return max(1.0, raw / max(compressed, 1))

    def classes(self, placement: str | None = None) -> list[str]:
        """Calibrated class names (optionally for one placement)."""
        return sorted({
            c for (_, p, c) in self._records
            if placement is None or p == placement
        })

    def codecs(self) -> list[str]:
        """Calibrated codec names, sorted."""
        return sorted({c for (c, _, _) in self._records})

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": PROFILE_FORMAT_VERSION,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MeasuredRatioProfile":
        version = d.get("version")
        if version != PROFILE_FORMAT_VERSION:
            raise ConfigError(
                f"unsupported calibration profile version {version!r}"
                f" (this build reads {PROFILE_FORMAT_VERSION})"
            )
        return cls(
            records=[MeasuredRatio.from_dict(r) for r in d["records"]],
            seed=int(d.get("seed", 0)),
        )

    def save(self, path) -> Path:
        """Write the profile as JSON; returns the path written."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "MeasuredRatioProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def calibrate(
    codecs=None,
    classes=None,
    seed: int = 0,
) -> MeasuredRatioProfile:
    """Run the real codecs over sampled tensors; return the profile.

    Each class is sampled once — one Gaussian BF16 tensor at the class
    sigma, seeded deterministically per class — and every codec encodes
    all the samples in one :meth:`~repro.compression.spec.Codec
    .encode_many` batch (the rANS baselines run the whole batch through
    one interleaved lane loop); each (class, codec) pair's byte count is
    recorded next to the analytic estimate.  Every codec of one class
    sees the *same* bits, so measured ratios are directly comparable,
    and a batch encodes each sample exactly as encoding it alone would.

    ``codecs`` defaults to every registered codec; ``classes`` to
    :func:`default_tensor_classes`.  Determinism contract: same
    arguments, same profile (tested).
    """
    if codecs is None:
        codecs = list_codecs()
    classes = default_tensor_classes() if classes is None else list(classes)
    profile = MeasuredRatioProfile(seed=seed)
    samples = [
        gaussian_bf16_matrix(
            *tcls.shape, sigma=tcls.sigma, seed=tcls.sample_seed(seed)
        )
        for tcls in classes
    ]
    for name in codecs:
        codec = get_codec(name)
        encoded = codec.encode_many(samples)
        for tcls, sample, enc in zip(classes, samples, encoded):
            profile.add(MeasuredRatio(
                codec=codec.name,
                placement=tcls.placement,
                cls=tcls.name,
                sigma=tcls.sigma,
                n_elements=sample.size,
                compressed_bytes=enc.nbytes,
                analytic_ratio=codec.ratio(tcls.placement, tcls.sigma),
            ))
    return profile
