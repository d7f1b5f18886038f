"""Unit tests for SystematicLinearCode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    CodeConstructionError,
    DimensionError,
    ReproError,
    ValidationError,
)
from repro.gf2 import bits_to_int, int_to_bits
from repro.ecc import SystematicLinearCode, example_7_4_code, hamming_code
from repro.ecc.family import family_names, get_family


@pytest.fixture
def code_7_4():
    return example_7_4_code()


def _bits(values):
    return np.array(values, dtype=np.uint8)


def _flip(word, position):
    flipped = word.copy()
    flipped[position] ^= 1
    return flipped


class TestConstruction:
    def test_dimensions(self, code_7_4):
        assert code_7_4.num_data_bits == 4
        assert code_7_4.num_parity_bits == 3
        assert code_7_4.codeword_length == 7

    def test_bit_position_ranges(self, code_7_4):
        assert list(code_7_4.data_bit_positions) == [0, 1, 2, 3]
        assert list(code_7_4.parity_bit_positions) == [4, 5, 6]

    def test_parity_check_matrix_matches_equation_1(self, code_7_4):
        expected = _bits(
            [
                [1, 1, 1, 0, 1, 0, 0],
                [1, 1, 0, 1, 0, 1, 0],
                [1, 0, 1, 1, 0, 0, 1],
            ]
        )
        assert np.array_equal(code_7_4.parity_check_matrix, expected)

    def test_generator_matches_equation_1(self, code_7_4):
        # Equation 1 gives G^T = [I | P^T]; our generator is the n x k matrix
        # G with c = G d, i.e. rows are [I ; P].
        expected_g_transpose = _bits(
            [
                [1, 0, 0, 0, 1, 1, 1],
                [0, 1, 0, 0, 1, 1, 0],
                [0, 0, 1, 0, 1, 0, 1],
                [0, 0, 0, 1, 0, 1, 1],
            ]
        )
        assert np.array_equal(code_7_4.generator_matrix.T, expected_g_transpose)

    def test_matrix_views_are_read_only_uint8(self, code_7_4):
        for view in (
            code_7_4.parity_submatrix,
            code_7_4.parity_check_matrix,
            code_7_4.generator_matrix,
        ):
            assert view.dtype == np.uint8
            with pytest.raises(ValueError):
                view[0, 0] ^= 1
        assert code_7_4.parity_submatrix.shape == (3, 4)
        assert code_7_4.parity_check_matrix.shape == (3, 7)
        assert code_7_4.generator_matrix.shape == (7, 4)

    def test_constructor_takes_any_binary_array_like(self, code_7_4):
        rows = code_7_4.parity_submatrix.tolist()
        assert SystematicLinearCode(rows) == code_7_4
        assert SystematicLinearCode(np.array(rows, dtype=bool)) == code_7_4
        assert SystematicLinearCode(np.array(rows, dtype=np.int64)) == code_7_4

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
    def test_constructor_rejects_non_binary_entries(self, bad):
        with pytest.raises(ValidationError):
            SystematicLinearCode([[1, 1, 0], [1, bad, 1]])
        with pytest.raises(ValidationError):
            SystematicLinearCode.from_parity_check_matrix(
                [[1, 1, 1, 0], [bad, 1, 0, 1]]
            )

    def test_constructor_rejects_one_dimensional_input(self):
        with pytest.raises(DimensionError):
            SystematicLinearCode([1, 1, 0])

    def test_from_parity_columns(self):
        code = SystematicLinearCode.from_parity_columns([0b111, 0b011], 3)
        assert code.num_data_bits == 2
        assert code.column_int(0) == 0b111
        assert code.column_int(1) == 0b011

    def test_from_parity_check_matrix_round_trip(self, code_7_4):
        rebuilt = SystematicLinearCode.from_parity_check_matrix(
            code_7_4.parity_check_matrix
        )
        assert rebuilt == code_7_4

    def test_from_parity_check_matrix_rejects_non_standard_form(self):
        matrix = [[1, 0, 1], [0, 1, 1]]  # trailing block not identity
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_check_matrix(matrix)

    def test_from_parity_check_matrix_rejects_square(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_check_matrix(np.eye(3, dtype=np.uint8))

    def test_empty_parity_submatrix_rejected(self):
        with pytest.raises((CodeConstructionError, DimensionError)):
            SystematicLinearCode(np.zeros((0, 0), dtype=np.uint8))

    def test_repr(self, code_7_4):
        assert "n=7" in repr(code_7_4)
        assert "k=4" in repr(code_7_4)


class TestEncoding:
    def test_encode_is_systematic(self, code_7_4):
        dataword = _bits([1, 0, 1, 1])
        codeword = code_7_4.encode(dataword)
        assert codeword.dtype == np.uint8 and codeword.shape == (7,)
        assert np.array_equal(codeword[0:4], dataword)

    def test_encode_produces_zero_syndrome(self, code_7_4):
        for value in range(16):
            codeword = code_7_4.encode(int_to_bits(value, 4))
            assert code_7_4.syndrome(codeword) == 0

    def test_encode_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.encode([1, 0, 1])

    @pytest.mark.parametrize(
        "dataword", [[2, 0, 1, 1], [0.5, 1, 1, 1], [-1, 0, 0, 0], ["1", 0, 0, 0]]
    )
    def test_encode_rejects_non_binary_values(self, code_7_4, dataword):
        # Reducing mod 2 (or truncating) would encode another dataword.
        with pytest.raises(ValidationError):
            code_7_4.encode(dataword)

    def test_encode_accepts_lists_and_bools(self, code_7_4):
        expected = code_7_4.encode(_bits([1, 0, 1, 1]))
        assert np.array_equal(code_7_4.encode([1, 0, 1, 1]), expected)
        assert np.array_equal(code_7_4.encode([True, False, True, True]), expected)

    def test_parity_of_example_dataword(self, code_7_4):
        # d = 1000 -> p = first column of P = (1,1,1)
        codeword = code_7_4.encode([1, 0, 0, 0])
        assert codeword.tolist() == [1, 0, 0, 0, 1, 1, 1]


class TestSyndromes:
    def test_single_error_syndrome_is_column(self, code_7_4):
        codeword = code_7_4.encode([1, 1, 0, 0])
        for position in range(7):
            syndrome = code_7_4.syndrome(_flip(codeword, position))
            assert syndrome == code_7_4.column_int(position)

    def test_syndrome_of_error_positions(self, code_7_4):
        syndrome = code_7_4.syndrome_of_error_positions([0, 5])
        assert syndrome == code_7_4.column_int(0) ^ code_7_4.column_int(5)

    def test_syndrome_of_error_positions_out_of_range(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.syndrome_of_error_positions([7])

    def test_syndrome_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.syndrome([1, 0, 1])

    def test_syndrome_rejects_non_binary_values(self, code_7_4):
        with pytest.raises(ValidationError):
            code_7_4.syndrome([2, 0, 0, 0, 0, 0, 0])

    def test_syndrome_to_position(self, code_7_4):
        assert code_7_4.syndrome_to_position(0) is None
        assert code_7_4.syndrome_to_position(code_7_4.column_int(3)) == 3
        assert code_7_4.syndrome_to_position(code_7_4.column_int(6)) == 6

    def test_syndrome_to_position_unmatched(self):
        # A shortened code where some syndromes match no column.
        code = SystematicLinearCode.from_parity_columns([0b0111], 4)
        assert code.syndrome_to_position(0b1111) is None

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.uint64])
    def test_syndrome_to_position_accepts_numpy_integers(self, code_7_4, kind):
        # bulk_syndrome_values returns int64 syndromes on both backends.
        assert code_7_4.syndrome_to_position(kind(5)) == 2
        assert code_7_4.syndrome_to_position(kind(0)) is None

    @pytest.mark.parametrize("bad", [5.0, [1, 0, 1], np.array([1, 0, 1])])
    def test_syndrome_to_position_rejects_non_integers(self, code_7_4, bad):
        with pytest.raises(ValidationError):
            code_7_4.syndrome_to_position(bad)


class TestCodeProperties:
    def test_example_code_is_sec(self, code_7_4):
        assert code_7_4.is_single_error_correcting()
        assert code_7_4.minimum_distance() == 3

    def test_duplicate_columns_not_sec(self):
        code = SystematicLinearCode.from_parity_columns([0b011, 0b011], 3)
        assert not code.is_single_error_correcting()
        assert code.minimum_distance() == 2

    def test_zero_column_distance_one(self):
        code = SystematicLinearCode([[0, 1], [0, 1], [0, 1]])
        assert code.minimum_distance() == 1

    def test_codeword_enumeration(self, code_7_4):
        words = code_7_4.codewords()
        assert words.shape == (16, 7) and words.dtype == np.uint8
        for value, word in enumerate(words):
            assert np.array_equal(word, code_7_4.encode(int_to_bits(value, 4)))

    def test_codeword_enumeration_refuses_large_codes(self):
        code = hamming_code(32)
        with pytest.raises(CodeConstructionError):
            code.codewords()

    def test_minimum_distance_of_single_parity_style_code(self):
        # k=1, one weight-2 column: the only nonzero codeword has weight 3.
        code = SystematicLinearCode.from_parity_columns([0b011], 3)
        assert code.minimum_distance() >= 3

    def test_equality_and_hash(self, code_7_4):
        clone = example_7_4_code()
        assert clone == code_7_4
        assert hash(clone) == hash(code_7_4)
        assert code_7_4 != hamming_code(4)


class TestColumnAccessors:
    def test_column_ints_data_then_parity(self, code_7_4):
        assert code_7_4.parity_column_ints == (0b111, 0b011, 0b101, 0b110)
        assert code_7_4.column_ints[4:] == (0b001, 0b010, 0b100)

    def test_column_ints_are_the_columns_of_h(self, code_7_4):
        check = code_7_4.parity_check_matrix
        for position in range(7):
            column = sum(int(bit) << row for row, bit in enumerate(check[:, position]))
            assert column == code_7_4.column_int(position)


class TestEncodeDecodeProperty:
    @given(st.integers(min_value=4, max_value=20), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_encoded_word_has_zero_syndrome(self, num_data_bits, data):
        code = hamming_code(num_data_bits)
        value = data.draw(
            st.integers(min_value=0, max_value=(1 << num_data_bits) - 1)
        )
        dataword = int_to_bits(value, num_data_bits)
        assert code.syndrome(code.encode(dataword)) == 0

    @given(st.integers(min_value=4, max_value=20), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_bit_error_syndromes_are_unique(self, num_data_bits, data):
        code = hamming_code(num_data_bits)
        del data
        syndromes = {code.column_int(j) for j in range(code.codeword_length)}
        assert len(syndromes) == code.codeword_length
        assert 0 not in syndromes


def _matrix_code(columns, num_parity_bits, family, detect_only):
    """A code built from its ``P`` as a list of 0/1 rows, bit ``i`` of each
    int column going to row ``i``."""
    rows = [[(column >> row) & 1 for column in columns] for row in range(num_parity_bits)]
    return SystematicLinearCode(rows, family=family, detect_only=detect_only)


def _mul(matrix, vector):
    return (matrix.astype(np.int64) @ vector.astype(np.int64) % 2).astype(np.uint8)


class TestIntColumnsAgainstMatrix:
    """A code built from int columns against one built from its ``P`` array."""

    @pytest.mark.parametrize(
        "family_name, num_data_bits",
        [
            (name, k)
            for name in family_names()
            # Repetition codes refuse r > 24 parity bits, i.e. k > 8 at 3x.
            for k in ((1, 5, 8) if name == "repetition" else (1, 5, 16, 64, 128))
        ],
    )
    def test_views_words_and_identity_match(self, family_name, num_data_bits):
        rng = np.random.default_rng(num_data_bits)
        member = get_family(family_name).random(num_data_bits, rng=rng)
        self._check(
            member.parity_column_ints, member.num_parity_bits, family_name,
            member.detect_only, rng,
        )

    def test_columns_wider_than_one_lane(self):
        rng = np.random.default_rng(70)
        columns = [int(value) for value in rng.integers(0, 2**62, size=12)]
        columns = [value << 8 | int(rng.integers(0, 256)) for value in columns]
        self._check(columns, 70, "sec-hamming", False, rng)

    @staticmethod
    def _check(columns, r, family_name, detect_only, rng):
        num_data_bits = len(columns)
        from_ints = SystematicLinearCode.from_parity_columns(
            columns, r, family=family_name, detect_only=detect_only
        )
        from_matrix = _matrix_code(columns, r, family_name, detect_only)
        assert from_ints.column_ints == from_matrix.column_ints
        for view in ("parity_submatrix", "parity_check_matrix", "generator_matrix"):
            assert np.array_equal(getattr(from_ints, view), getattr(from_matrix, view))
        assert from_ints == from_matrix
        assert hash(from_ints) == hash(from_matrix)
        assert from_ints.family_name == family_name
        assert from_ints.detect_only == detect_only
        parity = from_matrix.parity_submatrix
        check = from_matrix.parity_check_matrix
        weights = [1 << row for row in range(r)]
        for _ in range(20):
            dataword = rng.integers(0, 2, size=num_data_bits).astype(np.uint8)
            expected = np.concatenate([dataword, _mul(parity, dataword)])
            assert np.array_equal(from_ints.encode(dataword), expected)
            assert np.array_equal(from_matrix.encode(dataword), expected)
            word = rng.integers(0, 2, size=from_ints.codeword_length).astype(np.uint8)
            syndrome = sum(w for w, bit in zip(weights, _mul(check, word)) if bit)
            assert from_ints.syndrome(word) == syndrome
            assert from_matrix.syndrome(word) == syndrome

    @pytest.mark.parametrize(
        "columns, num_parity_bits, error",
        [
            ([], 3, CodeConstructionError),
            ([3, -1], 3, ValidationError),
            ([3, 8], 3, DimensionError),
            ([1 << 70], 64, DimensionError),
        ],
        ids=["empty", "negative", "too-wide", "too-wide-big"],
    )
    def test_exception_types(self, columns, num_parity_bits, error):
        with pytest.raises(ReproError) as raised:
            SystematicLinearCode.from_parity_columns(columns, num_parity_bits)
        assert type(raised.value) is error

    def test_empty_matrix_rejected_on_both_paths(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode(np.zeros((3, 0), dtype=np.uint8))
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_columns([0, 0], 0)


class TestIntWords:
    def test_encode_and_syndrome_ints_match_vectors(self, code_7_4):
        for value in range(16):
            codeword = code_7_4.encode(int_to_bits(value, 4))
            assert code_7_4.encode_int(value) == bits_to_int(codeword)
            for position in range(7):
                flipped = bits_to_int(codeword) ^ (1 << position)
                assert code_7_4.syndrome_int(flipped) == code_7_4.column_int(position)
                assert code_7_4.syndrome(_flip(codeword, position)) == code_7_4.syndrome_int(
                    flipped
                )

    def test_parity_row_ints(self, code_7_4):
        # Rows of P in Equation 1: 1110, 1101, 1011 (data bit 0 = LSB).
        assert code_7_4.parity_row_ints == (0b0111, 0b1011, 0b1101)

    def test_syndrome_to_position_accepts_ints(self, code_7_4):
        assert code_7_4.syndrome_to_position(0) is None
        assert code_7_4.syndrome_to_position(code_7_4.column_int(5)) == 5
