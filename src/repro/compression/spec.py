"""The unified compression registry: codecs as a first-class layer.

ZipServ's thesis is that lossless compression is a *pervasive* property of
the serving stack — weights in HBM, KV blocks in the paged cache, KV bytes
on the disaggregation wire.  Before this module each consumer hardcoded its
codec (a ``("none", "kvcomp")`` tuple here, a lazy extension import there);
now every layer resolves codecs through one registry.

A registered :class:`Codec` bundles the four things a consumer may need:

* a **name** (plus aliases — ``"kvcomp"`` resolves to ``vector_tbe``);
* bit-exact **encode/decode** over BF16 bit patterns (uint16 arrays),
  normalised through :class:`EncodedTensor` so callers never touch
  codec-native blob types;
* an **analytic ratio estimator** per placement — Gaussian weights price
  differently from outlier-tinged activations (KV and wire);
* **kernel-cost hooks** — the decode-ALU cycle factor and streaming
  bandwidth fraction a fused kernel pays to consume the format in place,
  and the linear-layer execution mode (dense cuBLAS, fused stage-aware,
  or decompress-then-GEMM).

:class:`CompressionSpec` is the resolved form consumers carry around: a
codec pinned to a placement with its ratio settled once at config time —
no per-step registry lookups, no import-at-call in hot paths.

Ratio resolution is a three-level precedence (highest first):

1. an **explicit** ``ratio=`` argument — legacy knobs keep their exact
   semantics;
2. a **measured** ratio from a calibration profile
   (:mod:`repro.compression.calibrate` — the real codec run over sampled
   tensors), either passed as ``profile=`` or installed process-wide via
   :func:`set_measured_profile`;
3. the codec's **analytic** estimator at the placement's sigma.

With no profile installed and no explicit ratio, resolution is exactly
the historical analytic path — bit-compatible by construction.

Registry invariants (tested in ``tests/test_compression_registry.py``):

* every lossless codec round-trips bit-exactly on edge shapes (empty,
  1x1, non-tile-multiple, all-outlier input) — empty tensors are
  normalised here so individual codecs never see them;
* lossy codecs (``zipquant``) are projections: a second encode/decode of
  their own output is the identity;
* ``resolve_spec`` accepts every registered codec in every placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import CodecError, ConfigError, UnknownSpecError
from ..kernels.base import WeightCompression

#: Where a codec can be applied in the serving stack.  ``prefix`` is the
#: cold tier of the prefix cache: KV blocks held compressed at rest and
#: decompressed on hit, so it prices like KV (the bits are KV bits) but
#: is selected and calibrated as its own class.
PLACEMENTS = ("weight", "kv", "wire", "prefix")

#: Default activation scale for KV/wire ratio estimation (matches the
#: kvcomp extension's historical default).
ACTIVATION_SIGMA = 0.05

#: Default weight scale for placement-level weight ratio estimation (the
#: cost layer re-estimates per layer from the real fan-in/fan-out).
WEIGHT_SIGMA = 0.02


@dataclass
class EncodedTensor:
    """Codec-agnostic wrapper around one compressed tensor.

    ``blob`` is the codec-native object (``TcaTbeMatrix``, ``VecTbe``,
    ``CompressedBF16``, ...); ``None`` marks the empty-tensor fast path
    the registry handles itself.
    """

    codec: str
    shape: tuple[int, ...]
    blob: object
    nbytes: int

    @property
    def n_elements(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return int(n)

    @property
    def original_nbytes(self) -> int:
        """Uncompressed BF16 footprint."""
        return 2 * self.n_elements

    @property
    def ratio(self) -> float:
        """Measured compression ratio (original / compressed bytes).

        An empty tensor reports 1.0 — the identity, keeping the stack's
        ``ratio >= 1`` invariant rather than a nonsense 0.
        """
        if self.n_elements == 0:
            return 1.0
        return self.original_nbytes / max(self.nbytes, 1)


@dataclass(eq=False)
class Codec:
    """One registered compression scheme (see module docstring).

    ``encode_fn(arrays) -> [(blob, nbytes), ...]`` is batch-shaped: it
    takes a list of non-empty contiguous uint16 arrays and returns one
    pair per array, in order, so a codec can amortise per-call work
    across a batch (the rANS baselines share one interleaved pass).
    ``decode_fn(blob, shape) -> array`` inverts one blob.  The registry
    normalises shape bookkeeping and the empty-tensor case around them.
    ``weight_bits_fn`` / ``kv_bits_fn`` map a Gaussian scale ``sigma`` to
    analytic bits/element (16 / bits = ratio).  ``wire`` pricing reuses
    the KV estimator: the wire carries KV blocks.
    """

    name: str
    lossless: bool = True
    #: Linear-layer execution when used as a weight codec:
    #: ``"cublas"`` (dense), ``"stage_aware"`` (fused decode, ZipGEMM
    #: family) or ``"decoupled"`` (decompress-then-GEMM baseline).
    linear_mode: str = "cublas"
    #: Baseline decompressor name for ``linear_mode="decoupled"``.
    baseline_codec: str | None = None
    #: Multiplier on the calibrated TBE decode cycles/element a fused
    #: streaming kernel pays (0.0 = free, i.e. raw loads).
    decode_cycles_factor: float = 0.0
    #: Streaming efficiency of a fused kernel gathering this format
    #: (fraction of the paged-attention gather's 0.80 DRAM fraction).
    stream_bw_frac: float = 1.0
    aliases: tuple[str, ...] = ()
    encode_fn: Callable | None = None
    decode_fn: Callable | None = None
    weight_bits_fn: Callable[[float], float] | None = None
    kv_bits_fn: Callable[[float], float] | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.linear_mode not in ("cublas", "stage_aware", "decoupled"):
            raise ConfigError(
                f"codec {self.name!r}: unknown linear mode"
                f" {self.linear_mode!r}"
            )
        if self.linear_mode == "decoupled" and not self.baseline_codec:
            raise ConfigError(
                f"codec {self.name!r}: decoupled mode needs baseline_codec"
            )

    # ------------------------------------------------------------------
    # Functional layer
    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> EncodedTensor:
        """Compress a BF16 (uint16) array of any shape."""
        return self.encode_many([data])[0]

    def encode_many(self, arrays) -> list[EncodedTensor]:
        """Compress BF16 (uint16) arrays of any shapes, one result each.

        The non-empty arrays reach ``encode_fn`` as one batch; empty ones
        become ``blob=None`` without it.
        """
        arrays = [np.asarray(data) for data in arrays]
        for array in arrays:
            if array.dtype != np.uint16:
                raise CodecError(
                    f"codec {self.name!r} expects BF16 bit patterns"
                    f" (uint16), got {array.dtype}"
                )
        full = [np.ascontiguousarray(a) for a in arrays if a.size]
        if full and self.encode_fn is None:
            raise CodecError(f"codec {self.name!r} has no encoder")
        encoded = list(self.encode_fn(full)) if full else []
        if len(encoded) != len(full):
            raise CodecError(
                f"codec {self.name!r} encoded {len(encoded)} of"
                f" {len(full)} arrays"
            )
        pairs = iter(encoded)
        out = []
        for array in arrays:
            blob, nbytes = next(pairs) if array.size else (None, 0)
            out.append(EncodedTensor(codec=self.name, shape=tuple(array.shape),
                                     blob=blob, nbytes=int(nbytes)))
        return out

    def decode(self, enc: EncodedTensor) -> np.ndarray:
        """Recover the array (bit-exact when :attr:`lossless`)."""
        if enc.codec != self.name:
            raise CodecError(
                f"blob was produced by {enc.codec!r}, not {self.name!r}"
            )
        if enc.blob is None:
            return np.zeros(enc.shape, dtype=np.uint16)
        if self.decode_fn is None:
            raise CodecError(f"codec {self.name!r} has no decoder")
        out = np.asarray(self.decode_fn(enc.blob, enc.shape))
        if tuple(out.shape) != tuple(enc.shape):
            out = out.reshape(enc.shape)
        return out

    # ------------------------------------------------------------------
    # Analytic layer
    # ------------------------------------------------------------------
    def bits_per_element(self, placement: str, sigma: float) -> float:
        """Analytic storage bits/element at scale ``sigma``."""
        if placement not in PLACEMENTS:
            raise ConfigError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        fn = self.weight_bits_fn if placement == "weight" else self.kv_bits_fn
        if fn is None:
            return 16.0
        return float(fn(sigma))

    def ratio(self, placement: str, sigma: float | None = None) -> float:
        """Analytic compression ratio for one placement."""
        if sigma is None:
            sigma = WEIGHT_SIGMA if placement == "weight" else ACTIVATION_SIGMA
        return 16.0 / self.bits_per_element(placement, sigma)

    def weight_compression(self, sigma: float) -> WeightCompression:
        """Per-layer weight statistics as the kernel models consume them."""
        if self.weight_bits_fn is None:
            return WeightCompression.identity()
        comp = WeightCompression(
            scheme=self.name,
            ratio=16.0 / float(self.weight_bits_fn(sigma)),
            coverage=float(self.extra.get("coverage_fn", _zero)(sigma)),
        )
        return comp

    @property
    def identity(self) -> bool:
        """True for the raw (no-compression) codec."""
        return self.weight_bits_fn is None and self.kv_bits_fn is None


def _zero(_sigma: float) -> float:
    return 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_CODECS: dict[str, Codec] = {}
_ALIASES: dict[str, str] = {}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under its name and aliases (idempotent)."""
    key = codec.name.lower()
    _CODECS[key] = codec
    for alias in codec.aliases:
        _ALIASES[alias.lower()] = key
    return codec


def get_codec(name: str | Codec) -> Codec:
    """Resolve a codec by name or alias (case-insensitive).

    Canonical names win over aliases, so registering a codec under a
    name that happens to be another codec's alias is never silently
    shadowed by the alias table.
    """
    if isinstance(name, Codec):
        return name
    key = str(name).lower()
    if key not in _CODECS:
        key = _ALIASES.get(key, key)
    if key not in _CODECS:
        raise UnknownSpecError(
            "codec", str(name), list(_CODECS) + list(_ALIASES)
        )
    return _CODECS[key]


def list_codecs() -> list[str]:
    """Canonical registered codec names, sorted."""
    return sorted(_CODECS)


# ----------------------------------------------------------------------
# Measured-profile hook (see repro.compression.calibrate)
# ----------------------------------------------------------------------
#: Process-wide calibration profile consulted by :func:`resolve_spec`
#: when no explicit ``ratio``/``profile`` is given.  Duck-typed: anything
#: with ``ratio_for(codec, placement, cls) -> float | None``.
_ACTIVE_PROFILE = None


def set_measured_profile(profile) -> None:
    """Install (or, with ``None``, clear) the process-wide measured
    profile that :func:`resolve_spec` consults between the explicit
    ``ratio=`` override and the analytic estimator."""
    global _ACTIVE_PROFILE
    _ACTIVE_PROFILE = profile


def get_measured_profile():
    """The currently installed process-wide measured profile (or None)."""
    return _ACTIVE_PROFILE


class measured_profile:
    """Context manager scoping a measured profile to a ``with`` block::

        with measured_profile(profile):
            spec = resolve_spec("kvcomp", "kv")   # measured ratio
    """

    def __init__(self, profile):
        self.profile = profile
        self._saved = None

    def __enter__(self):
        self._saved = get_measured_profile()
        set_measured_profile(self.profile)
        return self.profile

    def __exit__(self, *exc):
        set_measured_profile(self._saved)
        return False


# ----------------------------------------------------------------------
# Resolved specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompressionSpec:
    """A codec pinned to a placement, with its ratio settled.

    This is what consumers hold after config-time resolution: the serving
    cores, the KV allocator and the transfer link all read ``ratio`` (and
    the codec's kernel hooks) without ever touching the registry again.
    ``source`` records which precedence level settled the ratio
    (``"explicit"`` / ``"measured"`` / ``"analytic"``) — provenance only,
    excluded from equality.
    """

    codec: str
    placement: str
    ratio: float
    sigma: float
    source: str = field(default="analytic", compare=False)

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"placement must be one of {PLACEMENTS},"
                f" got {self.placement!r}"
            )
        if not (math.isfinite(self.ratio) and self.ratio >= 1.0):
            raise ConfigError(
                "compression ratio must be finite and >= 1, got"
                f" {self.ratio}"
            )

    @property
    def identity(self) -> bool:
        """True when this spec applies no compression."""
        return self.ratio == 1.0 and get_codec(self.codec).identity

    def resolve(self) -> Codec:
        """The codec object behind this spec."""
        return get_codec(self.codec)


def resolve_spec(
    codec: str | Codec | CompressionSpec,
    placement: str,
    sigma: float | None = None,
    ratio: float | None = None,
    cls: str | None = None,
    profile=None,
) -> CompressionSpec:
    """Resolve a codec (by any name form) into a placement-pinned spec.

    Ratio precedence: an explicit ``ratio`` wins over everything — that
    is how legacy knobs (``kv_compression_ratio=1.4``,
    ``DisaggConfig.transfer_ratio``) keep their exact semantics — then a
    **measured** ratio from ``profile`` (or the process-wide profile
    installed with :func:`set_measured_profile`), then the codec's
    analytic estimator.  ``cls`` narrows the measured lookup to one
    tensor class (e.g. ``"weight:qkv_proj"``); without it the profile's
    placement-level aggregate is used.
    """
    if isinstance(codec, CompressionSpec):
        if codec.placement != placement:
            raise ConfigError(
                f"spec is pinned to {codec.placement!r}, wanted"
                f" {placement!r}"
            )
        return codec
    resolved = get_codec(codec)
    if sigma is None:
        sigma = WEIGHT_SIGMA if placement == "weight" else ACTIVATION_SIGMA
    source = "explicit"
    if ratio is None:
        prof = profile if profile is not None else _ACTIVE_PROFILE
        if prof is not None:
            ratio = prof.ratio_for(resolved.name, placement, cls)
            source = "measured"
    if ratio is None:
        ratio = resolved.ratio(placement, sigma)
        source = "analytic"
    return CompressionSpec(
        codec=resolved.name, placement=placement,
        ratio=float(ratio), sigma=float(sigma), source=source,
    )
