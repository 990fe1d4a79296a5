"""Built-in registry entries: every codec the stack ships with.

Each entry wraps an existing bit-exact implementation — TCA-TBE tiles
(:mod:`repro.tcatbe`), Vector-TBE streams (:mod:`repro.tcatbe.vector`),
the split-plane entropy baselines (:mod:`repro.codecs.bf16_split`) and
the lossy-then-lossless quant combo (:mod:`repro.extensions.quant_combo`)
— and pins down the analytic ratio math that used to be duplicated across
``serving/weights.py`` and ``extensions/kvcomp.py``:

* **weights** are Gaussian: window coverage (TBE family) or exponent
  entropy (byte-plane baselines) at the layer's Glorot sigma;
* **KV / wire** are activations: the same math derated by a mild outlier
  share (:data:`ACTIVATION_OUTLIER_FRACTION`), which is why KV ratios
  land a touch below weight ratios.

The floats produced here are *identical* to the pre-registry formulas —
``extensions.kvcomp.kv_compression_ratio`` and
``serving.weights.estimate_layer_compression`` now delegate to these
entries, so serving results stay bit-compatible.
"""

from __future__ import annotations

import numpy as np

from ..analysis.calibration import BASELINE_DECODE_BW_FRAC
from ..analysis.theory import (
    gaussian_exponent_entropy,
    window_coverage_gaussian,
)
from ..codecs.bf16_split import BF16_CODECS
from ..tcatbe import compress as tcatbe_compress
from ..tcatbe import decompress as tcatbe_decompress
from ..tcatbe.analysis import average_bits
from ..tcatbe.vector import compress_vector, decompress_vector
from .spec import Codec, register_codec

#: TCA-TBE per-element container overhead in bits: per 64x64 BlockTile the
#: format adds an 8 B offset entry plus ~16 B of alignment padding across
#: the two value segments (see tcatbe.format), i.e. ~24 B / 4096 elements.
TCATBE_OVERHEAD_BITS = 24.0 * 8.0 / 4096.0

#: Baseline container overhead in bits/element: chunk offsets, frequency
#: tables and stream states amortised over a large layer.
BASELINE_OVERHEAD_BITS = 0.06

#: Activations are spikier than weights; a mild outlier share on top of
#: the Gaussian bulk lowers coverage slightly relative to weights.
ACTIVATION_OUTLIER_FRACTION = 0.02

#: Relative ALU cost of the fused entropy-decode + dequant path (the
#: zipquant kernel decodes and rescales, slightly more work than TBE).
ZIPQUANT_CYCLES_FACTOR = 1.2

#: Effective bits/weight of entropy-coded row-wise INT8 (measured on
#: Gaussian layers; see extensions.quant_combo).
ZIPQUANT_BITS_PER_WEIGHT = 7.4


# ----------------------------------------------------------------------
# Analytic estimators (bits per element)
# ----------------------------------------------------------------------
def _tbe_weight_bits(sigma: float) -> float:
    coverage = window_coverage_gaussian(sigma, k=7)
    return average_bits(3, coverage) + TCATBE_OVERHEAD_BITS


def _tbe_kv_bits(sigma: float) -> float:
    coverage = window_coverage_gaussian(sigma, k=7)
    coverage *= 1.0 - ACTIVATION_OUTLIER_FRACTION
    return average_bits(3, coverage) + TCATBE_OVERHEAD_BITS


def _entropy_bits(sigma: float) -> float:
    return 8.0 + gaussian_exponent_entropy(sigma) + BASELINE_OVERHEAD_BITS


# ----------------------------------------------------------------------
# Encode / decode wrappers.  Encoders are batch-shaped (a list of
# non-empty uint16 arrays in, one (blob, nbytes) per array out); decoders
# take one blob.  The registry handles shape bookkeeping and the empty case.
# ----------------------------------------------------------------------
def _as_matrix(array: np.ndarray) -> np.ndarray:
    return array if array.ndim == 2 else array.reshape(1, -1)


def _tcatbe_encode(arrays):
    blobs = [tcatbe_compress(_as_matrix(array)) for array in arrays]
    return [(blob, blob.compressed_nbytes) for blob in blobs]


def _tcatbe_decode(blob, shape):
    return tcatbe_decompress(blob).reshape(shape)


def _vector_encode(arrays):
    blobs = [compress_vector(array.ravel()) for array in arrays]
    return [(blob, blob.compressed_nbytes) for blob in blobs]


def _vector_decode(blob, shape):
    return decompress_vector(blob).reshape(shape)


def _raw_encode(arrays):
    return [(array.copy(), array.nbytes) for array in arrays]


def _raw_decode(blob, shape):
    return np.asarray(blob).reshape(shape)


def _bf16_split(name: str):
    codec = BF16_CODECS[name]

    def encode(arrays):
        blobs = codec.compress_many(arrays)
        return [(blob, blob.compressed_nbytes) for blob in blobs]

    def decode(blob, shape):
        return codec.decompress(blob).reshape(shape)

    return encode, decode


def _zipquant_encode(arrays):
    # Local import: extensions sit above serving in the layer diagram, so
    # the registry must not pull them in at import time.  This runs once
    # per batch of tensors on the offline path, never in a serving loop.
    from ..extensions.quant_combo import (
        compress_quantized_many,
        quantize_int8,
    )

    blobs = compress_quantized_many(
        [quantize_int8(_as_matrix(array)) for array in arrays]
    )
    return [(blob, blob.compressed_nbytes) for blob in blobs]


def _zipquant_decode(blob, shape):
    from ..extensions.quant_combo import decompress_quantized, dequantize_int8

    return dequantize_int8(decompress_quantized(blob)).reshape(shape)


# ----------------------------------------------------------------------
# The registry entries
# ----------------------------------------------------------------------
NONE = register_codec(Codec(
    name="none",
    aliases=("raw", "dense"),
    linear_mode="cublas",
    encode_fn=_raw_encode,
    decode_fn=_raw_decode,
))

TCATBE = register_codec(Codec(
    name="tcatbe",
    aliases=("tca-tbe", "zipserv"),
    linear_mode="stage_aware",
    decode_cycles_factor=1.0,
    encode_fn=_tcatbe_encode,
    decode_fn=_tcatbe_decode,
    weight_bits_fn=_tbe_weight_bits,
    kv_bits_fn=_tbe_kv_bits,
    extra={"coverage_fn": lambda sigma: window_coverage_gaussian(sigma, k=7)},
))

VECTOR_TBE = register_codec(Codec(
    name="vector_tbe",
    aliases=("kvcomp", "vector-tbe", "vectbe"),
    linear_mode="stage_aware",
    decode_cycles_factor=1.0,
    encode_fn=_vector_encode,
    decode_fn=_vector_decode,
    # Same TBE codeword math as the tile format; the 1-D container's
    # 16 B/vector header amortises to ~nothing on KV-block sizes.
    weight_bits_fn=_tbe_weight_bits,
    kv_bits_fn=_tbe_kv_bits,
    extra={"coverage_fn": lambda sigma: window_coverage_gaussian(sigma, k=7)},
))

_BASELINES = {}
for _name in ("dfloat11", "dietgpu", "nvcomp"):
    _enc, _dec = _bf16_split(_name)
    _BASELINES[_name] = register_codec(Codec(
        name=_name,
        linear_mode="decoupled",
        baseline_codec=_name,
        # Entropy decode is serial/table-driven: a fused streaming
        # consumer pays it as a bandwidth derate (the same calibrated
        # fractions the standalone decompressor models use), with the
        # baseline TBE cycle cost on top.
        decode_cycles_factor=1.0,
        stream_bw_frac=BASELINE_DECODE_BW_FRAC[_name],
        encode_fn=_enc,
        decode_fn=_dec,
        weight_bits_fn=_entropy_bits,
        kv_bits_fn=_entropy_bits,
    ))

ZIPQUANT = register_codec(Codec(
    name="zipquant",
    aliases=("quant_combo",),
    lossless=False,
    linear_mode="stage_aware",
    decode_cycles_factor=ZIPQUANT_CYCLES_FACTOR,
    encode_fn=_zipquant_encode,
    decode_fn=_zipquant_decode,
    weight_bits_fn=lambda sigma: ZIPQUANT_BITS_PER_WEIGHT,
    kv_bits_fn=lambda sigma: ZIPQUANT_BITS_PER_WEIGHT,
))
