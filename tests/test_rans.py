"""Tests for the interleaved rANS codec (DietGPU-style)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.base import EncodedStream, as_u8
from repro.codecs.rans import (
    _SHIFT16,
    PROB_SCALE,
    STATE_LOW,
    RansCodec,
    _auto_streams,
    normalize_freqs,
)
from repro.errors import CodecError
from repro.utils import ceil_div


def skewed_bytes(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.geometric(0.5, size=n).clip(1, 30) + 110).astype(np.uint8)


class TestNormalize:
    def test_sums_to_scale(self, rng):
        freqs = rng.integers(0, 1000, 256)
        scaled = normalize_freqs(freqs)
        assert scaled.sum() == PROB_SCALE

    def test_present_symbols_nonzero(self, rng):
        freqs = rng.integers(0, 3, 256)
        scaled = normalize_freqs(freqs)
        assert np.all((scaled > 0) == (freqs > 0))

    def test_empty(self):
        assert normalize_freqs(np.zeros(256, dtype=np.int64)).sum() == 0

    def test_extreme_skew(self):
        freqs = np.zeros(256, dtype=np.int64)
        freqs[0] = 10**9
        freqs[1] = 1
        scaled = normalize_freqs(freqs)
        assert scaled.sum() == PROB_SCALE
        assert scaled[1] >= 1

    def test_bad_shape(self):
        with pytest.raises(CodecError):
            normalize_freqs(np.zeros(10, dtype=np.int64))


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000, 16_384, 50_000])
    def test_sizes(self, n):
        data = skewed_bytes(n, seed=n)
        codec = RansCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_uniform(self, rng):
        data = rng.integers(0, 256, 8192).astype(np.uint8)
        codec = RansCodec()
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_single_distinct_symbol(self):
        data = np.full(5000, 200, dtype=np.uint8)
        codec = RansCodec()
        stream = codec.encode(data)
        assert np.array_equal(codec.decode(stream), data)
        # Entropy ~0: payload should be tiny.
        assert stream.payload.nbytes < 200

    def test_fixed_stream_count(self):
        codec = RansCodec(num_streams=32)
        data = skewed_bytes(10_000, seed=2)
        stream = codec.encode(data)
        assert stream.meta["num_streams"] == 32
        assert np.array_equal(codec.decode(stream), data)

    def test_more_streams_than_symbols(self):
        codec = RansCodec(num_streams=64)
        data = skewed_bytes(10, seed=3)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_near_entropy_on_skewed(self):
        data = skewed_bytes(100_000, seed=7)
        stream = RansCodec().encode(data)
        counts = np.bincount(data, minlength=256)
        p = counts[counts > 0] / data.size
        entropy_bytes = float(-(p * np.log2(p)).sum()) * data.size / 8.0
        assert stream.payload.nbytes <= entropy_bytes * 1.10 + 4 * \
            stream.meta["num_streams"]

    def test_corrupt_payload_detected(self):
        codec = RansCodec(num_streams=32)
        data = skewed_bytes(20_000, seed=8)
        stream = codec.encode(data)
        stream.payload[: stream.payload.nbytes // 2] = 0
        try:
            decoded = codec.decode(stream)
        except CodecError:
            return
        assert not np.array_equal(decoded, data)

    def test_non_u8_rejected(self):
        with pytest.raises(CodecError):
            RansCodec().encode(np.zeros(4, dtype=np.float32))

    @given(st.binary(min_size=0, max_size=2000))
    def test_roundtrip_property(self, raw):
        data = np.frombuffer(raw, dtype=np.uint8).copy()
        codec = RansCodec(num_streams=32)
        assert np.array_equal(codec.decode(codec.encode(data)), data)


class TestParameters:
    @pytest.mark.parametrize("num_streams", [0, -1])
    def test_num_streams_below_one_rejected(self, num_streams):
        with pytest.raises(CodecError, match="num_streams"):
            RansCodec(num_streams=num_streams)

    @pytest.mark.parametrize("prob_bits", [0, 17])
    def test_prob_bits_outside_range_rejected(self, prob_bits):
        with pytest.raises(CodecError, match="prob_bits"):
            RansCodec(prob_bits=prob_bits)

    @pytest.mark.parametrize("prob_bits, data", [
        (1, np.array([7, 9, 9, 7, 9], dtype=np.uint8)),
        (16, skewed_bytes(5000, seed=4)),
    ])
    def test_prob_bits_range_ends_round_trip(self, prob_bits, data):
        codec = RansCodec(num_streams=1, prob_bits=prob_bits)
        assert np.array_equal(codec.decode(codec.encode(data)), data)


def reference_encode(self, data: np.ndarray) -> EncodedStream:
    """The single-array encoder as it stood before ``encode_many``,
    kept verbatim as the reference a batch must reproduce."""
    data = as_u8(data)
    n = data.size
    k = self.num_streams or _auto_streams(n)
    prob_scale = 1 << self.prob_bits
    if n == 0:
        return EncodedStream(
            codec=self.name,
            payload=np.zeros(0, dtype=np.uint8),
            n_symbols=0,
            header_nbytes=0,
            meta={"num_streams": k},
        )
    freqs = normalize_freqs(np.bincount(data, minlength=256), prob_scale)

    # Per-symbol tables, plus symbol 256 for the padding lanes of the
    # ragged last step: f=1, P-f=0 and cum=0 leave the state as it is,
    # and x_max=2^63 never renormalises, so no lane needs a mask.
    f_sym = np.append(freqs, 1).astype(np.uint64)
    cum_sym = np.append(np.cumsum(freqs) - freqs, 0).astype(np.uint64)
    x_max_sym = f_sym * (
        (STATE_LOW >> np.uint64(self.prob_bits)) << _SHIFT16
    )
    x_max_sym[256] = np.uint64(1) << np.uint64(63)
    p_minus_f_sym = np.uint64(prob_scale) - f_sym
    p_minus_f_sym[256] = 0

    # Lay out symbols as (steps, streams): symbol i is stream i % k's
    # symbol at step i // k.
    steps = ceil_div(n, k)
    sym = np.full(steps * k, 256, dtype=np.int64)
    sym[:n] = data
    sym = sym.reshape(steps, k)
    f, cum = f_sym[sym], cum_sym[sym]
    x_max, p_minus_f = x_max_sym[sym], p_minus_f_sym[sym]

    x = np.full(k, STATE_LOW, dtype=np.uint64)
    q = np.empty(k, dtype=np.uint64)
    renorm = np.empty((steps, k), dtype=bool)
    low_words = np.empty((steps, k), dtype=np.uint16)
    # Encode in reverse symbol order so the decoder runs forward.  The
    # update x' = (x // f) * P + x % f + cum is written as
    # x + (x // f) * (P - f) + cum, which a padding lane turns into x.
    rows = zip(
        renorm[::-1], low_words[::-1], x_max[::-1], f[::-1],
        p_minus_f[::-1], cum[::-1],
    )
    for flags, words, x_max_s, f_s, p_minus_f_s, cum_s in rows:
        np.greater_equal(x, x_max_s, out=flags)
        words[...] = x  # truncating copy: the low 16 bits
        np.right_shift(x, _SHIFT16, out=x, where=flags)
        np.floor_divide(x, f_s, out=q)
        np.multiply(q, p_minus_f_s, out=q)
        x += q
        x += cum_s

    # Stream j's payload in decode order is the reverse of its emission
    # order: its renormalisation words by ascending step.
    payload_words = low_words.T[renorm.T]
    counts = renorm.sum(axis=0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])

    header_nbytes = 512 + 8 * k + 16  # freq table + per-stream state/offset
    return EncodedStream(
        codec=self.name,
        payload=payload_words.view(np.uint8),
        n_symbols=n,
        header_nbytes=header_nbytes,
        meta={
            "num_streams": k,
            "freqs": freqs,
            "states": x,
            "word_offsets": offsets,
            "prob_bits": self.prob_bits,
        },
    )


#: Lengths around the lane and step edges of the auto lane count.
EDGE_LENGTHS = (0, 1, 31, 33, 511, 512, 513, 4097, 10_000)


@st.composite
def byte_arrays(draw) -> np.ndarray:
    n = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["skewed", "uniform", "single"]))
    if kind == "single":
        return np.full(n, rng.integers(0, 256), dtype=np.uint8)
    if kind == "uniform":
        return rng.integers(0, 256, n).astype(np.uint8)
    return (rng.geometric(0.3, n).clip(1, 60) + 90).astype(np.uint8)


def assert_same_stream(got: EncodedStream, want: EncodedStream) -> None:
    assert got.codec == want.codec
    assert got.n_symbols == want.n_symbols
    assert got.header_nbytes == want.header_nbytes
    assert got.payload.dtype == want.payload.dtype
    assert np.array_equal(got.payload, want.payload)
    assert got.meta.keys() == want.meta.keys()
    for key, value in want.meta.items():
        if isinstance(value, np.ndarray):
            assert got.meta[key].dtype == value.dtype, key
            assert np.array_equal(got.meta[key], value), key
        else:
            assert got.meta[key] == value, key


class TestEncodeMany:
    """A batch encodes each array exactly as the one-array encoder did."""

    @settings(max_examples=30, deadline=None)
    @given(
        arrays=st.lists(byte_arrays(), min_size=1, max_size=6),
        num_streams=st.sampled_from([None, 1, 32, 64]),
        prob_bits=st.sampled_from([10, 12]),
    )
    def test_batch_equals_reference(self, arrays, num_streams, prob_bits):
        codec = RansCodec(num_streams=num_streams, prob_bits=prob_bits)
        streams = codec.encode_many(arrays)
        assert len(streams) == len(arrays)
        for data, got in zip(arrays, streams):
            assert_same_stream(got, reference_encode(codec, data))
            assert np.array_equal(codec.decode(got), data)

    def test_ragged_batch_mixes_lane_counts(self):
        arrays = [skewed_bytes(n, seed=n) for n in (40_000, 33, 0, 513)]
        codec = RansCodec()
        streams = codec.encode_many(arrays)
        assert [s.meta["num_streams"] for s in streams] == [96, 32, 32, 32]
        for data, got in zip(arrays, streams):
            assert_same_stream(got, reference_encode(codec, data))

    def test_empty_batch(self):
        assert RansCodec().encode_many([]) == []
