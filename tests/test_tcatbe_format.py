"""Tests for TCA-TBE container integrity and size accounting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bf16 import gaussian_bf16_matrix
from repro.errors import FormatError
from repro.kernels.functional import zipgemm_execute
from repro.tcatbe import compress, decompress, decompress_tile
from repro.tcatbe.format import (
    HEADER_NBYTES,
    OFFSET_ENTRY_NBYTES,
    SEGMENT_ALIGN,
    TcaTbeMatrix,
)


@pytest.fixture
def matrix():
    return compress(gaussian_bf16_matrix(128, 128, sigma=0.02, seed=21))


def _corrupt(matrix, corruption):
    """``matrix`` with one field broken, and the first tile it breaks."""
    if corruption == "high_starts":
        starts = matrix.high_starts.copy()
        starts[1] += 1
        return replace(matrix, high_starts=starts), 0
    buffer = "high" if corruption == "high_truncated" else "low"
    values = getattr(matrix, buffer)[:-1]
    # Every tile whose segment now ends past the buffer is bad.
    ends = getattr(matrix, f"{buffer}_starts")[1:]
    first_bad = int(np.flatnonzero(ends > values.size)[0])
    return replace(matrix, **{buffer: values}), first_bad


class TestSizeAccounting:
    def test_bitmap_bytes(self, matrix):
        report = matrix.size_report()
        assert report.bitmaps_nbytes == matrix.n_tiles * 24

    def test_value_buffers(self, matrix):
        report = matrix.size_report()
        assert report.high_nbytes == matrix.n_high
        assert report.low_nbytes == 2 * matrix.n_low

    def test_offsets_and_header(self, matrix):
        report = matrix.size_report()
        assert report.offsets_nbytes == matrix.n_blocks * OFFSET_ENTRY_NBYTES
        assert report.header_nbytes == HEADER_NBYTES

    def test_padding_bounded(self, matrix):
        report = matrix.size_report()
        # Per BlockTile at most (align-1) bytes of padding per segment.
        assert report.padding_nbytes <= matrix.n_blocks * 2 * (SEGMENT_ALIGN - 1)

    def test_total_is_sum(self, matrix):
        report = matrix.size_report()
        assert report.total_nbytes == (
            report.bitmaps_nbytes + report.high_nbytes + report.low_nbytes
            + report.padding_nbytes + report.offsets_nbytes
            + report.header_nbytes
        )
        assert matrix.compressed_nbytes == report.total_nbytes

    def test_ratio_definition(self, matrix):
        assert matrix.ratio == pytest.approx(
            matrix.original_nbytes / matrix.compressed_nbytes
        )
        assert matrix.original_nbytes == 2 * 128 * 128

    def test_counts(self, matrix):
        assert matrix.n_tiles == (128 // 8) ** 2
        assert matrix.n_blocks == 4
        assert matrix.n_padded_elements == 128 * 128


class TestValidation:
    def test_clean_matrix_validates(self, matrix):
        matrix.validate()

    def test_tampered_bitmap_detected(self, matrix):
        bad = TcaTbeMatrix(
            shape=matrix.shape, base_exp=matrix.base_exp,
            window_size=matrix.window_size,
            bitmaps=matrix.bitmaps.copy(), high=matrix.high, low=matrix.low,
            high_starts=matrix.high_starts, low_starts=matrix.low_starts,
        )
        # Set an indicator bit at a currently-fallback position: the bitmap
        # popcount no longer matches the stored offsets.
        indicator = int(
            bad.bitmaps[0, 0] | bad.bitmaps[0, 1] | bad.bitmaps[0, 2]
        )
        free_bit = next(p for p in range(64) if not (indicator >> p) & 1)
        bad.bitmaps[0, 0] |= np.uint64(1 << free_bit)
        with pytest.raises(FormatError):
            bad.validate()

    def test_tampered_offsets_detected(self, matrix):
        bad_starts = matrix.high_starts.copy()
        bad_starts[1] += 1
        bad = TcaTbeMatrix(
            shape=matrix.shape, base_exp=matrix.base_exp,
            window_size=matrix.window_size,
            bitmaps=matrix.bitmaps, high=matrix.high, low=matrix.low,
            high_starts=bad_starts, low_starts=matrix.low_starts,
        )
        with pytest.raises(FormatError):
            bad.validate()

    def test_truncated_high_buffer_detected(self, matrix):
        bad = TcaTbeMatrix(
            shape=matrix.shape, base_exp=matrix.base_exp,
            window_size=matrix.window_size,
            bitmaps=matrix.bitmaps, high=matrix.high[:-1], low=matrix.low,
            high_starts=matrix.high_starts, low_starts=matrix.low_starts,
        )
        with pytest.raises(FormatError):
            bad.validate()

    def test_decompress_checks_consistency(self, matrix):
        bad = TcaTbeMatrix(
            shape=matrix.shape, base_exp=matrix.base_exp,
            window_size=matrix.window_size,
            bitmaps=matrix.bitmaps.copy(), high=matrix.high, low=matrix.low,
            high_starts=matrix.high_starts, low_starts=matrix.low_starts,
        )
        bad.bitmaps[:, 0] = ~np.uint64(0)
        with pytest.raises(FormatError):
            decompress(bad)

    @pytest.mark.parametrize("decode", ["decompress_tile", "zipgemm_execute"])
    @pytest.mark.parametrize(
        "corruption", ["high_starts", "high_truncated", "low_truncated"]
    )
    def test_tile_decoders_raise_format_error(self, matrix, decode, corruption):
        bad, first_bad = _corrupt(matrix, corruption)
        with pytest.raises(FormatError, match=rf"^tile {first_bad}:"):
            if decode == "decompress_tile":
                for t in range(bad.n_tiles):
                    decompress_tile(bad, t)
            else:
                zipgemm_execute(bad, np.ones((bad.shape[1], 2), np.float32))

    def test_constructor_field_validation(self, matrix):
        with pytest.raises(FormatError):
            TcaTbeMatrix(
                shape=(8, 8), base_exp=255, window_size=7,
                bitmaps=matrix.bitmaps, high=matrix.high, low=matrix.low,
                high_starts=matrix.high_starts, low_starts=matrix.low_starts,
            )
        with pytest.raises(FormatError):
            TcaTbeMatrix(
                shape=(8, 8), base_exp=100, window_size=7,
                bitmaps=matrix.bitmaps.astype(np.int64), high=matrix.high,
                low=matrix.low, high_starts=matrix.high_starts,
                low_starts=matrix.low_starts,
            )
