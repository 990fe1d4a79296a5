"""Interleaved range-ANS codec (DietGPU / nvCOMP-style).

DietGPU decodes floating-point tensors with a GPU-native rANS coder: the
symbol stream is split across many independent ANS states that renormalise in
16-bit words, one state per GPU lane.  This module implements the same
construction with the lane dimension vectorised in numpy:

* frequencies normalised to a 2^12 probability scale;
* ``num_streams`` interleaved encoders, symbol ``i`` belonging to stream
  ``i % num_streams``;
* 32-bit states, 16-bit renormalisation (at most one word in or out per
  symbol, which is what makes the lane loop vectorisable);
* batched lanes: :meth:`RansCodec.encode_many` runs the lanes of several
  arrays, each with its own table and lane count, through one step loop;
  ``encode`` is a batch of one, and no stream depends on its batch.

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

#: Encoder steps whose table rows are gathered at once, which bounds the
#: gathered tables at 32 bytes x lanes x this.
_BLOCK_STEPS = 64


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
    """Interleaved rANS byte codec: ``num_streams`` lanes (``None``: auto)
    at a ``2^prob_bits`` probability scale, both checked at construction."""

    num_streams: int | None = None
    prob_bits: int = PROB_BITS
    name: str = "rans"

    def __post_init__(self) -> None:
        if self.num_streams is not None and self.num_streams < 1:
            raise CodecError(
                f"num_streams must be None or >= 1, got {self.num_streams}"
            )
        # x_max = f * ((2^16 >> prob_bits) << 16) is 0 above 16 bits.
        if not 1 <= self.prob_bits <= 16:
            raise CodecError(
                f"prob_bits must be in [1, 16], got {self.prob_bits}"
            )

    def encode(self, data: np.ndarray) -> EncodedStream:
        """Encode a uint8 array into interleaved rANS streams."""
        return self.encode_many([data])[0]

    def encode_many(self, arrays) -> list[EncodedStream]:
        """Encode uint8 arrays into interleaved rANS streams in one pass.

        The lanes of every array sit side by side and one reverse step
        loop runs over all of them, so the per-step numpy call overhead is
        paid once per batch instead of once per array.  Each array keeps
        its own frequency table, lane count and stream layout; an array
        with fewer steps than the longest pads its lanes with the no-op
        symbol 256.  Every lane therefore runs the same uint64 operations
        in the same order as in a batch of one, and each stream equals
        ``encode(array)`` bit for bit.
        """
        datas = [as_u8(a) for a in arrays]
        full = [d for d in datas if d.size]
        encoded = iter(self._encode_lanes(full) if full else ())
        return [
            next(encoded) if d.size else EncodedStream(
                codec=self.name,
                payload=np.zeros(0, dtype=np.uint8),
                n_symbols=0,
                header_nbytes=0,
                meta={"num_streams": self.num_streams or _auto_streams(0)},
            )
            for d in datas
        ]

    def _encode_lanes(self, full: list[np.ndarray]) -> list[EncodedStream]:
        """The interleaved pass of :meth:`encode_many` (non-empty arrays)."""
        prob_scale = 1 << self.prob_bits
        lanes = [self.num_streams or _auto_streams(d.size) for d in full]
        steps = [ceil_div(d.size, k) for d, k in zip(full, lanes)]
        first_lane = np.cumsum([0] + lanes)
        freqs = np.stack([
            normalize_freqs(np.bincount(d, minlength=256), prob_scale)
            for d in full
        ])

        # Per-array symbol tables, 257 entries each, stacked: array i's
        # symbol s is entry 257 * i + s.  Entry 256 is the padding symbol of
        # ragged steps: f=1, P-f=0 and cum=0 leave the state as it is,
        # and x_max=2^63 never renormalises, so no lane needs a mask.
        f_sym = np.ones((len(full), 257), dtype=np.uint64)
        f_sym[:, :256] = freqs
        cum_sym = np.zeros((len(full), 257), dtype=np.uint64)
        cum_sym[:, :256] = np.cumsum(freqs, axis=1) - freqs
        x_max_sym = f_sym * (
            (STATE_LOW >> np.uint64(self.prob_bits)) << _SHIFT16
        )
        x_max_sym[:, 256] = np.uint64(1) << np.uint64(63)
        p_minus_f_sym = np.uint64(prob_scale) - f_sym
        p_minus_f_sym[:, 256] = 0
        tables = [
            t.ravel() for t in (x_max_sym, f_sym, p_minus_f_sym, cum_sym)
        ]

        # Lay out table indices as (steps, lanes): symbol i of an array
        # with k lanes is its lane i % k's symbol at step i // k.
        sym = np.full((max(steps), sum(lanes)), 256, dtype=np.intp)
        for i, (d, k, s) in enumerate(zip(full, lanes, steps)):
            block = np.full(s * k, 256, dtype=np.intp)
            block[:d.size] = d
            lo, hi = first_lane[i], first_lane[i + 1]
            sym[:s, lo:hi] = block.reshape(s, k) + 257 * i

        x = np.full(sum(lanes), STATE_LOW, dtype=np.uint64)
        q = np.empty_like(x)
        renorm = np.empty(sym.shape, dtype=bool)
        low_words = np.empty(sym.shape, dtype=np.uint16)
        # Encode in reverse symbol order so the decoder runs forward.  The
        # update x' = (x // f) * P + x % f + cum is written as
        # x + (x // f) * (P - f) + cum, which a padding lane turns into x.
        # Table rows are gathered per block of steps, so they never exist
        # for the whole batch at once.
        for hi in range(len(sym), 0, -_BLOCK_STEPS):
            lo = max(hi - _BLOCK_STEPS, 0)
            rows = zip(
                renorm[lo:hi][::-1], low_words[lo:hi][::-1],
                *(table[sym[lo:hi][::-1]] for table in tables),
            )
            for flags, words, x_max_s, f_s, p_minus_f_s, cum_s in rows:
                np.greater_equal(x, x_max_s, out=flags)
                words[...] = x  # truncating copy: the low 16 bits
                np.right_shift(x, _SHIFT16, out=x, where=flags)
                np.floor_divide(x, f_s, out=q)
                np.multiply(q, p_minus_f_s, out=q)
                x += q
                x += cum_s

        # A lane's payload in decode order is the reverse of its emission
        # order: its renormalisation words by ascending step.  Lanes are
        # contiguous per array, so each array's payload is one slice.
        payload_words = low_words.T[renorm.T]
        counts = renorm.sum(axis=0, dtype=np.int64)
        first_word = np.concatenate([[0], np.cumsum(counts)])
        streams = []
        for i, d in enumerate(full):
            lo, hi = first_lane[i], first_lane[i + 1]
            words = payload_words[first_word[lo]:first_word[hi]]
            streams.append(EncodedStream(
                codec=self.name,
                payload=words.view(np.uint8),
                n_symbols=d.size,
                # freq table + per-stream state/offset
                header_nbytes=512 + 8 * lanes[i] + 16,
                meta={
                    "num_streams": lanes[i],
                    "freqs": freqs[i],
                    "states": x[lo:hi],
                    "word_offsets": np.concatenate(
                        [[0], np.cumsum(counts[lo:hi])]
                    ),
                    "prob_bits": self.prob_bits,
                },
            ))
        return streams

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
