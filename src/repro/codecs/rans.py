"""Interleaved range-ANS codec (DietGPU / nvCOMP-style).

DietGPU decodes floating-point tensors with a GPU-native rANS coder: the
symbol stream is split across many independent ANS states that renormalise in
16-bit words, one state per GPU lane.  This module implements the same
construction with the lane dimension vectorised in numpy:

* frequencies normalised to a 2^12 probability scale;
* ``num_streams`` interleaved encoders, symbol ``i`` belonging to stream
  ``i % num_streams``;
* 32-bit states, 16-bit renormalisation (at most one word in or out per
  symbol, which is what makes the lane loop vectorisable).

Round-trips are bit-exact.  The codec's GPU *cost* (table gathers, scattered
payload reads) is modelled separately in :mod:`repro.kernels.decompress`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from .base import EncodedStream, as_u8, register_byte_codec
from ..utils import ceil_div, round_up

#: Probability resolution: frequencies are scaled to sum to 2^PROB_BITS.
PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS

#: Lower bound of the ANS state interval [2^16, 2^32).
STATE_LOW = np.uint64(1) << np.uint64(16)

#: Bits per renormalisation word.
_SHIFT16 = np.uint64(16)


def normalize_freqs(freqs: np.ndarray, prob_scale: int = PROB_SCALE) -> np.ndarray:
    """Scale raw counts so they sum to ``prob_scale``, keeping present >= 1."""
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.shape != (256,):
        raise CodecError(f"freqs must have shape (256,), got {freqs.shape}")
    total = int(freqs.sum())
    if total == 0:
        return np.zeros(256, dtype=np.int64)
    scaled = np.floor(freqs * (prob_scale / total) + 0.5).astype(np.int64)
    scaled[(freqs > 0) & (scaled == 0)] = 1
    diff = prob_scale - int(scaled.sum())
    while diff != 0:
        if diff > 0:
            idx = int(np.argmax(scaled))
            scaled[idx] += 1
            diff -= 1
        else:
            adjustable = np.where(scaled > 1, scaled, -1)
            idx = int(np.argmax(adjustable))
            if adjustable[idx] <= 1:
                raise CodecError("cannot normalise frequency table")
            scaled[idx] -= 1
            diff += 1
    return scaled


def _auto_streams(n: int) -> int:
    """Pick a lane count: multiples of a warp, ~512 symbols per lane."""
    if n == 0:
        return 32
    return min(4096, max(32, round_up(ceil_div(n, 512), 32)))


@dataclass
class RansCodec:
    """Interleaved rANS byte codec."""

    num_streams: int | None = None
    prob_bits: int = PROB_BITS
    name: str = "rans"

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array into interleaved rANS streams."""
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

    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Decode interleaved rANS streams; bit-exact inverse of encode."""
        n = stream.n_symbols
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        k = stream.meta["num_streams"]
        prob_bits = stream.meta["prob_bits"]
        prob_scale = 1 << prob_bits
        freqs = stream.meta["freqs"].astype(np.uint64)
        cum = np.concatenate([[0], np.cumsum(freqs)])[:256].astype(np.uint64)
        slot_to_sym = np.repeat(
            np.arange(256, dtype=np.uint8), freqs.astype(np.int64)
        )
        if slot_to_sym.size != prob_scale:
            raise CodecError("corrupt rANS frequency table")

        words = stream.payload.view(np.uint16)
        offsets = stream.meta["word_offsets"]
        cursor = offsets[:-1].astype(np.int64).copy()
        limit = offsets[1:].astype(np.int64)
        x = stream.meta["states"].astype(np.uint64).copy()

        steps = ceil_div(n, k)
        out = np.zeros((k, steps), dtype=np.uint8)
        mask = np.uint64(prob_scale - 1)
        pbits = np.uint64(prob_bits)
        shift16 = np.uint64(16)
        for step in range(steps):
            active = (np.arange(k) + step * k) < n
            slot = x & mask
            syms = slot_to_sym[slot.astype(np.int64)]
            f = freqs[syms]
            x_new = f * (x >> pbits) + slot - cum[syms]
            x = np.where(active, x_new, x)
            out[active, step] = syms[active]
            renorm = active & (x < STATE_LOW)
            if renorm.any():
                idx = np.flatnonzero(renorm)
                take = cursor[idx]
                if (take >= limit[idx]).any():
                    raise CodecError("corrupt rANS stream: payload underrun")
                x[idx] = (x[idx] << shift16) | words[take].astype(np.uint64)
                cursor[idx] += 1
        return out.T.reshape(-1)[:n].copy()


register_byte_codec(RansCodec())
