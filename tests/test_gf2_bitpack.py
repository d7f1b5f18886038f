"""Unit and differential tests for packing GF(2) rows into ``uint64`` lanes.

Packing must round-trip bit for bit across lane-boundary widths and the
degenerate zero-row and zero-width shapes, from boolean and ``uint8`` rows
alike; the byte view of packed lanes and the byte-fold syndrome kernels of
the ``packed`` backend must equal the same quantities computed on the
unpacked bits.
"""

import numpy as np
import pytest

import repro.gf2.bitpack as bitpack
from repro.exceptions import DimensionError
from repro.gf2 import pack_rows, popcount_u64, unpack_rows
from repro.gf2.bitpack import byte_fold_table, fold_bytes, num_lanes

# Widths straddling the uint64 lane boundaries.
LANE_EDGE_WIDTHS = [1, 2, 7, 63, 64, 65, 127, 128, 129, 136]


class TestPacking:
    @pytest.mark.parametrize("num_cols", LANE_EDGE_WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pack_unpack_round_trip(self, num_cols, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(5, num_cols)).astype(np.uint8)
        packed = pack_rows(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, (num_cols + 63) // 64)
        assert np.array_equal(unpack_rows(packed, num_cols), bits)

    def test_bit_positions_are_lsb_first(self):
        bits = np.zeros((1, 70), dtype=np.uint8)
        bits[0, 0] = 1
        bits[0, 65] = 1
        packed = pack_rows(bits)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 2  # bit 65 → lane 1, bit 1

    def test_zero_width_matrix(self):
        packed = pack_rows(np.zeros((3, 0), dtype=np.uint8))
        assert packed.shape == (3, 0)
        assert unpack_rows(packed, 0).shape == (3, 0)

    @pytest.mark.parametrize("num_cols", [0, 1, 64, 100, 136])
    def test_zero_rows(self, num_cols):
        packed = pack_rows(np.zeros((0, num_cols), dtype=np.uint8))
        assert packed.shape == (0, (num_cols + 63) // 64)
        unpacked = unpack_rows(packed, num_cols)
        assert unpacked.shape == (0, num_cols)
        assert unpacked.dtype == np.uint8

    def test_pack_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            pack_rows(np.zeros(4, dtype=np.uint8))

    def test_unpack_rejects_lane_mismatch(self):
        with pytest.raises(DimensionError):
            unpack_rows(np.zeros((2, 2), dtype=np.uint64), 64)


class TestPopcount:
    def test_matches_python_popcount(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 2**63, size=100, dtype=np.uint64)
        expected = np.array([bin(int(v)).count("1") for v in values])
        assert np.array_equal(popcount_u64(values), expected)

    def test_table_fallback_matches(self, monkeypatch):
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        expected = np.array([bin(int(v)).count("1") for v in values])
        assert np.array_equal(bitpack.popcount_u64(values), expected)

    def test_fallback_handles_all_ones(self, monkeypatch):
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        assert bitpack.popcount_u64(np.array([2**64 - 1], dtype=np.uint64))[0] == 64


class TestByteViews:
    """Lanes, bytes and boolean masks share one LSB-first layout."""

    @pytest.mark.parametrize("num_cols", LANE_EDGE_WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanes_and_bytes_round_trip(self, num_cols, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(5, num_cols)).astype(np.uint8)
        num_bytes = (num_cols + 7) // 8
        for rows in (bits, bits.astype(bool)):
            as_bytes = pack_rows(rows).view(np.uint8)
            assert np.array_equal(
                as_bytes[:, :num_bytes], np.packbits(bits, axis=1, bitorder="little")
            )
            assert not as_bytes[:, num_bytes:].any()
            assert np.array_equal(unpack_rows(pack_rows(rows), num_cols), bits)

    @pytest.mark.parametrize("num_cols", LANE_EDGE_WIDTHS)
    def test_zero_rows_view_as_zero_rows(self, num_cols):
        lanes = pack_rows(np.zeros((0, num_cols), dtype=bool))
        assert lanes.shape == (0, num_lanes(num_cols))
        assert unpack_rows(lanes, num_cols).shape == (0, num_cols)

    @pytest.mark.parametrize("num_cols", LANE_EDGE_WIDTHS)
    def test_bool_rows_pack_like_uint8_rows(self, num_cols):
        rng = np.random.default_rng(num_cols)
        mask = rng.random((7, num_cols)) < 0.5
        assert np.array_equal(pack_rows(mask), pack_rows(mask.astype(np.uint8)))

    def test_views_reject_wrong_shapes(self):
        with pytest.raises(DimensionError):
            pack_rows(np.zeros(4, dtype=bool))


class TestBatchedSyndromes:
    """The byte-fold kernels against ``H @ word`` on the unpacked bits."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("codeword_length", [7, 22, 64, 72, 136])
    def test_matches_reference_formula(self, seed, codeword_length):
        rng = np.random.default_rng(seed + codeword_length)
        num_rows = int(rng.integers(2, 9))
        check = rng.integers(0, 2, size=(num_rows, codeword_length)).astype(np.uint8)
        words = rng.integers(0, 2, size=(50, codeword_length)).astype(np.uint8)
        weights = 1 << np.arange(num_rows)
        reference = ((words.astype(np.int64) @ check.T.astype(np.int64)) % 2) @ weights
        table = byte_fold_table(check.T.astype(np.int64) @ weights)
        as_bytes = pack_rows(words).view(np.uint8)[:, : (codeword_length + 7) // 8]
        folded = fold_bytes(table, as_bytes)
        assert np.array_equal(reference, folded)

    def test_empty_batch(self):
        table = byte_fold_table([1, 2, 4] * 3)
        assert fold_bytes(table, np.zeros((0, 2), dtype=np.uint8)).shape == (0,)

    def test_zero_columns(self):
        table = byte_fold_table([])
        assert table.shape == (0, 256)
        folded = fold_bytes(table, np.zeros((3, 0), dtype=np.uint8))
        assert np.array_equal(folded, np.zeros(3))

    def test_rejects_byte_count_mismatch(self):
        with pytest.raises(DimensionError):
            fold_bytes(byte_fold_table([1] * 10), np.zeros((4, 1), dtype=np.uint8))
