"""Unit tests for SystematicLinearCode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodeConstructionError, DimensionError, ReproError
from repro.gf2 import GF2Matrix, GF2Vector
from repro.ecc import SystematicLinearCode, example_7_4_code, hamming_code
from repro.ecc.family import family_names, get_family


@pytest.fixture
def code_7_4():
    return example_7_4_code()


class TestConstruction:
    def test_dimensions(self, code_7_4):
        assert code_7_4.num_data_bits == 4
        assert code_7_4.num_parity_bits == 3
        assert code_7_4.codeword_length == 7

    def test_bit_position_ranges(self, code_7_4):
        assert list(code_7_4.data_bit_positions) == [0, 1, 2, 3]
        assert list(code_7_4.parity_bit_positions) == [4, 5, 6]

    def test_parity_check_matrix_matches_equation_1(self, code_7_4):
        expected = GF2Matrix(
            [
                [1, 1, 1, 0, 1, 0, 0],
                [1, 1, 0, 1, 0, 1, 0],
                [1, 0, 1, 1, 0, 0, 1],
            ]
        )
        assert code_7_4.parity_check_matrix == expected

    def test_generator_matches_equation_1(self, code_7_4):
        # Equation 1 gives G^T = [I | P^T]; our generator is the n x k matrix
        # G with c = G d, i.e. rows are [I ; P].
        expected_g_transpose = GF2Matrix(
            [
                [1, 0, 0, 0, 1, 1, 1],
                [0, 1, 0, 0, 1, 1, 0],
                [0, 0, 1, 0, 1, 0, 1],
                [0, 0, 0, 1, 0, 1, 1],
            ]
        )
        assert code_7_4.generator_matrix.T == expected_g_transpose

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
        matrix = GF2Matrix([[1, 0, 1], [0, 1, 1]])  # trailing block not identity
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_check_matrix(matrix)

    def test_from_parity_check_matrix_rejects_square(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_check_matrix(GF2Matrix.identity(3))

    def test_empty_parity_submatrix_rejected(self):
        with pytest.raises((CodeConstructionError, DimensionError)):
            SystematicLinearCode(GF2Matrix.zeros(0, 0))

    def test_repr(self, code_7_4):
        assert "n=7" in repr(code_7_4)
        assert "k=4" in repr(code_7_4)


class TestEncoding:
    def test_encode_is_systematic(self, code_7_4):
        dataword = GF2Vector([1, 0, 1, 1])
        codeword = code_7_4.encode(dataword)
        assert codeword[0:4] == dataword

    def test_encode_produces_zero_syndrome(self, code_7_4):
        for value in range(16):
            codeword = code_7_4.encode(GF2Vector.from_int(value, 4))
            assert code_7_4.is_codeword(codeword)

    def test_encode_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.encode(GF2Vector([1, 0, 1]))

    def test_extract_dataword(self, code_7_4):
        dataword = GF2Vector([0, 1, 1, 0])
        assert code_7_4.extract_dataword(code_7_4.encode(dataword)) == dataword

    def test_extract_dataword_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.extract_dataword(GF2Vector([1, 0, 1]))

    def test_parity_of_example_dataword(self, code_7_4):
        # d = 1000 -> p = first column of P = (1,1,1)
        codeword = code_7_4.encode(GF2Vector([1, 0, 0, 0]))
        assert codeword.to_list() == [1, 0, 0, 0, 1, 1, 1]


class TestSyndromes:
    def test_single_error_syndrome_is_column(self, code_7_4):
        codeword = code_7_4.encode(GF2Vector([1, 1, 0, 0]))
        for position in range(7):
            syndrome = code_7_4.syndrome(codeword.flip(position))
            assert syndrome == code_7_4.column(position)

    def test_syndrome_of_error_positions(self, code_7_4):
        syndrome = code_7_4.syndrome_of_error_positions([0, 5])
        expected = code_7_4.column(0) + code_7_4.column(5)
        assert syndrome == expected

    def test_syndrome_of_error_positions_out_of_range(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.syndrome_of_error_positions([7])

    def test_syndrome_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            code_7_4.syndrome(GF2Vector([1, 0, 1]))

    def test_syndrome_to_position(self, code_7_4):
        assert code_7_4.syndrome_to_position(GF2Vector([0, 0, 0])) is None
        assert code_7_4.syndrome_to_position(code_7_4.column(3)) == 3
        assert code_7_4.syndrome_to_position(code_7_4.column(6)) == 6

    def test_syndrome_to_position_unmatched(self):
        # A shortened code where some syndromes match no column.
        code = SystematicLinearCode.from_parity_columns([0b0111], 4)
        unmatched = GF2Vector.from_int(0b1111, 4)
        assert code.syndrome_to_position(unmatched) is None


class TestCodeProperties:
    def test_example_code_is_sec(self, code_7_4):
        assert code_7_4.is_single_error_correcting()
        assert code_7_4.minimum_distance() == 3

    def test_duplicate_columns_not_sec(self):
        code = SystematicLinearCode.from_parity_columns([0b011, 0b011], 3)
        assert not code.is_single_error_correcting()
        assert code.minimum_distance() == 2

    def test_zero_column_distance_one(self):
        code = SystematicLinearCode(GF2Matrix([[0, 1], [0, 1], [0, 1]]))
        assert code.minimum_distance() == 1

    def test_codeword_enumeration(self, code_7_4):
        words = code_7_4.codewords()
        assert len(words) == 16
        assert len({w.to_int() for w in words}) == 16

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

    def test_column_matches_column_int(self, code_7_4):
        for position in range(7):
            assert code_7_4.column(position).to_int() == code_7_4.column_int(position)


class TestEncodeDecodeProperty:
    @given(st.integers(min_value=4, max_value=20), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_encoded_word_has_zero_syndrome(self, num_data_bits, data):
        code = hamming_code(num_data_bits)
        value = data.draw(
            st.integers(min_value=0, max_value=(1 << num_data_bits) - 1)
        )
        dataword = GF2Vector.from_int(value, num_data_bits)
        assert code.is_codeword(code.encode(dataword))

    @given(st.integers(min_value=4, max_value=20), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_bit_error_syndromes_are_unique(self, num_data_bits, data):
        code = hamming_code(num_data_bits)
        del data
        syndromes = {code.column_int(j) for j in range(code.codeword_length)}
        assert len(syndromes) == code.codeword_length
        assert 0 not in syndromes


def _gf2_matrix_code(columns, num_parity_bits, family, detect_only):
    """A code built as ``from_parity_columns`` once built it: one GF2Vector
    per column, stacked into a GF2Matrix ``P``."""
    vectors = [GF2Vector.from_int(column, num_parity_bits) for column in columns]
    return SystematicLinearCode(
        GF2Matrix.from_columns(vectors), family=family, detect_only=detect_only
    )


class TestIntColumnsAgainstGf2Matrix:
    """A code built from int columns against one built from a GF2Matrix."""

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
        from_matrix = _gf2_matrix_code(columns, r, family_name, detect_only)
        assert from_ints.column_ints == from_matrix.column_ints
        assert from_ints.parity_submatrix == from_matrix.parity_submatrix
        assert from_ints.parity_check_matrix == from_matrix.parity_check_matrix
        assert from_ints.generator_matrix == from_matrix.generator_matrix
        assert from_ints == from_matrix
        assert hash(from_ints) == hash(from_matrix)
        assert from_ints.family_name == family_name
        assert from_ints.detect_only == detect_only
        parity = from_matrix.parity_submatrix
        check = from_matrix.parity_check_matrix
        for _ in range(20):
            dataword = GF2Vector(rng.integers(0, 2, size=num_data_bits))
            expected = GF2Vector(list(dataword) + list(parity @ dataword))
            assert from_ints.encode(dataword) == expected
            assert from_matrix.encode(dataword) == expected
            word = GF2Vector(rng.integers(0, 2, size=from_ints.codeword_length))
            assert from_ints.syndrome(word) == check @ word
            assert from_matrix.syndrome(word) == check @ word

    @pytest.mark.parametrize(
        "columns, num_parity_bits",
        [([], 3), ([3, -1], 3), ([3, 8], 3), ([1 << 70], 64)],
        ids=["empty", "negative", "too-wide", "too-wide-big"],
    )
    def test_same_exception_types(self, columns, num_parity_bits):
        with pytest.raises(ReproError) as expected:
            if columns:
                _gf2_matrix_code(columns, num_parity_bits, "sec-hamming", False)
            else:
                # GF2Matrix.from_columns cannot stack zero columns, so an
                # empty P reaches the constructor as a zero-width matrix.
                SystematicLinearCode(GF2Matrix.zeros(num_parity_bits, 0))
        with pytest.raises(ReproError) as actual:
            SystematicLinearCode.from_parity_columns(columns, num_parity_bits)
        assert type(actual.value) is type(expected.value)

    def test_empty_matrix_rejected_on_both_paths(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode(GF2Matrix.zeros(3, 0))
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode.from_parity_columns([0, 0], 0)


class TestIntWords:
    def test_encode_and_syndrome_ints_match_vectors(self, code_7_4):
        for value in range(16):
            codeword = code_7_4.encode(GF2Vector.from_int(value, 4))
            assert code_7_4.encode_int(value) == codeword.to_int()
            for position in range(7):
                flipped = codeword.to_int() ^ (1 << position)
                assert code_7_4.syndrome_int(flipped) == code_7_4.column_int(position)

    def test_parity_row_ints(self, code_7_4):
        # Rows of P in Equation 1: 1110, 1101, 1011 (data bit 0 = LSB).
        assert code_7_4.parity_row_ints == (0b0111, 0b1011, 0b1101)

    def test_syndrome_to_position_accepts_ints(self, code_7_4):
        assert code_7_4.syndrome_to_position(0) is None
        assert code_7_4.syndrome_to_position(code_7_4.column_int(5)) == 5
