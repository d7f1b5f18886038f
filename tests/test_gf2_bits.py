"""Tests of the word format in :mod:`repro.gf2.bits`."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, ValidationError
from repro.gf2.bits import as_bits, bits_to_int, int_to_bits, is_binary

#: Every length up to 130: both sides of each byte edge and of the 64- and
#: 128-bit lane edges.
LENGTHS = range(131)


class TestIntConversions:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_round_trip(self, length):
        rng = np.random.default_rng(length)
        top = (1 << length) - 1
        # Zero, all ones, all but the top bit, the top bit alone, and random.
        values = {0, top, top >> 1, top ^ (top >> 1)}
        for _ in range(4):
            bits = rng.integers(0, 2, size=length)
            values.add(sum(int(b) << i for i, b in enumerate(bits)))
        for value in sorted(values):
            bits = int_to_bits(value, length)
            assert bits.dtype == np.uint8 and bits.shape == (length,)
            assert bits.tolist() == [(value >> i) & 1 for i in range(length)]
            assert bits_to_int(bits) == value

    @pytest.mark.parametrize("length", LENGTHS)
    def test_bits_round_trip(self, length):
        bits = np.random.default_rng(1000 + length).integers(0, 2, size=length)
        assert np.array_equal(int_to_bits(bits_to_int(bits.astype(np.uint8)), length), bits)

    def test_lsb_first(self):
        assert int_to_bits(0b1101, 6).tolist() == [1, 0, 1, 1, 0, 0]
        assert bits_to_int(np.array([0, 1], dtype=np.uint8)) == 2

    def test_numpy_integer_value(self):
        assert int_to_bits(np.int64(5), 4).tolist() == [1, 0, 1, 0]

    def test_result_is_writable(self):
        bits = int_to_bits(3, 4)
        bits[0] = 0
        assert bits.tolist() == [0, 1, 0, 0]


class TestAsBits:
    @pytest.mark.parametrize(
        "value", [[0, 1], [[0, 1, 1]], [0, 1, 1, 0], 1, np.zeros((1, 3), dtype=np.uint8)]
    )
    def test_wrong_shape_raises(self, value):
        with pytest.raises(DimensionError):
            as_bits(value, 3, "word")

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan"), "1"])
    def test_non_binary_value_raises(self, bad):
        with pytest.raises(ValidationError):
            as_bits([0, bad, 1], 3, "word")

    def test_names_the_word_in_errors(self):
        with pytest.raises(ValidationError, match="dataword"):
            as_bits([0, 2], 2, "dataword")
        with pytest.raises(DimensionError, match="codeword must have exactly 3 bits"):
            as_bits([0, 1], 3, "codeword")

    @pytest.mark.parametrize(
        "value",
        [
            [True, False, True],
            np.array([True, False, True]),
            [np.int64(1), np.int8(0), np.uint16(1)],
            np.array([1, 0, 1], dtype=np.int32),
            np.array([1.0, 0.0, 1.0]),
            (1, 0, 1),
        ],
    )
    def test_accepts_bools_and_numpy_integers(self, value):
        bits = as_bits(value, 3, "word")
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 0, 1]

    def test_returns_an_independent_copy(self):
        source = np.array([1, 0, 1], dtype=np.uint8)
        bits = as_bits(source, 3, "word")
        bits[0] = 0
        assert source.tolist() == [1, 0, 1]
        source[1] = 1
        assert bits.tolist() == [0, 0, 1]

    def test_empty_word(self):
        assert as_bits([], 0, "word").shape == (0,)


class TestIsBinary:
    def test_binary_arrays(self):
        assert is_binary(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert is_binary(np.array([True, False]))
        assert is_binary(np.array([0.0, 1.0]))
        assert is_binary(np.zeros(0, dtype=np.int64))

    def test_non_binary_arrays(self):
        assert not is_binary(np.array([0, 2], dtype=np.uint8))
        assert not is_binary(np.array([0, -1]))
        assert not is_binary(np.array([0.0, float("nan")]))
        assert not is_binary(np.array(["0", "1"]))
        assert not is_binary(np.array([0, 1], dtype=object))
