"""Unit tests for Hamming code construction and the design space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodeConstructionError
from repro.ecc import (
    example_7_4_code,
    full_length_data_bits,
    hamming_code,
    min_parity_bits,
    random_hamming_code,
)
from repro.ecc.hamming import (
    candidate_parity_columns,
    count_sec_functions,
    is_shortened,
)


class TestDimensionHelpers:
    def test_min_parity_bits_known_values(self):
        # Full-length SEC Hamming codes: k = 2^r - r - 1.
        assert min_parity_bits(1) == 2
        assert min_parity_bits(4) == 3
        assert min_parity_bits(11) == 4
        assert min_parity_bits(26) == 5
        assert min_parity_bits(57) == 6
        assert min_parity_bits(64) == 7
        assert min_parity_bits(120) == 7
        assert min_parity_bits(128) == 8
        assert min_parity_bits(247) == 8

    def test_min_parity_bits_rejects_zero(self):
        with pytest.raises(CodeConstructionError):
            min_parity_bits(0)

    def test_full_length_data_bits(self):
        assert full_length_data_bits(3) == 4
        assert full_length_data_bits(4) == 11
        assert full_length_data_bits(5) == 26
        assert full_length_data_bits(6) == 57
        assert full_length_data_bits(7) == 120
        assert full_length_data_bits(8) == 247

    def test_full_length_rejects_tiny_r(self):
        with pytest.raises(CodeConstructionError):
            full_length_data_bits(1)

    def test_candidate_columns_count(self):
        for r in range(2, 9):
            assert len(candidate_parity_columns(r)) == (1 << r) - r - 1

    def test_candidate_columns_have_weight_at_least_two(self):
        for column in candidate_parity_columns(5):
            assert bin(column).count("1") >= 2


class TestHammingConstruction:
    def test_default_construction_is_sec(self):
        for k in [4, 8, 16, 32, 57, 64]:
            code = hamming_code(k)
            assert code.num_data_bits == k
            assert code.is_single_error_correcting()
            assert code.minimum_distance() == 3

    def test_explicit_parity_bits(self):
        code = hamming_code(4, num_parity_bits=4)
        assert code.num_parity_bits == 4
        assert is_shortened(code)

    def test_full_length_code_not_shortened(self):
        assert not is_shortened(hamming_code(11, num_parity_bits=4))
        assert not is_shortened(hamming_code(4, num_parity_bits=3))

    def test_explicit_columns(self):
        code = hamming_code(2, num_parity_bits=3, columns=[0b110, 0b011])
        assert code.parity_column_ints == (0b110, 0b011)

    def test_explicit_columns_wrong_count(self):
        with pytest.raises(CodeConstructionError):
            hamming_code(3, num_parity_bits=3, columns=[0b110, 0b011])

    def test_explicit_columns_duplicate(self):
        with pytest.raises(CodeConstructionError):
            hamming_code(2, num_parity_bits=3, columns=[0b011, 0b011])

    def test_explicit_columns_weight_one_rejected(self):
        with pytest.raises(CodeConstructionError):
            hamming_code(2, num_parity_bits=3, columns=[0b001, 0b011])

    def test_explicit_columns_out_of_range(self):
        with pytest.raises(CodeConstructionError):
            hamming_code(2, num_parity_bits=3, columns=[0b1100, 0b011])

    def test_too_many_data_bits_for_parity_bits(self):
        with pytest.raises(CodeConstructionError):
            hamming_code(5, num_parity_bits=3)

    def test_example_code_matches_paper(self):
        code = example_7_4_code()
        assert code.num_data_bits == 4
        assert code.parity_column_ints == (0b111, 0b011, 0b101, 0b110)
        assert code.is_single_error_correcting()


class TestRandomCodes:
    def test_random_code_is_sec(self):
        rng = np.random.default_rng(0)
        for k in [4, 11, 16, 32, 64, 128]:
            code = random_hamming_code(k, rng=rng)
            assert code.num_data_bits == k
            assert code.is_single_error_correcting()

    def test_random_code_reproducible_with_seed(self):
        first = random_hamming_code(16, rng=np.random.default_rng(42))
        second = random_hamming_code(16, rng=np.random.default_rng(42))
        assert first == second

    def test_random_codes_differ_across_seeds(self):
        codes = {
            random_hamming_code(16, rng=np.random.default_rng(seed)).parity_column_ints
            for seed in range(8)
        }
        assert len(codes) > 1

    def test_random_code_rejects_impossible_dimensions(self):
        with pytest.raises(CodeConstructionError):
            random_hamming_code(5, num_parity_bits=3)

    def test_random_code_without_explicit_rng(self):
        code = random_hamming_code(8)
        assert code.num_data_bits == 8


class TestDesignSpace:
    def test_count_matches_permutation_formula(self):
        assert count_sec_functions(4, 3) == math.perm(4, 4)
        assert count_sec_functions(4, 4) == math.perm(11, 4)
        assert count_sec_functions(11, 4) == math.perm(11, 11)

    def test_count_zero_when_impossible(self):
        assert count_sec_functions(5, 3) == 0

    def test_count_default_parity_bits(self):
        assert count_sec_functions(4) == math.perm(4, 4)

    def test_design_space_grows_with_shortening_slack(self):
        assert count_sec_functions(4, 4) > count_sec_functions(4, 3)


class TestRandomCodeProperties:
    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_random_codes_always_valid(self, num_data_bits, seed):
        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
        assert code.is_single_error_correcting()
        assert code.num_parity_bits == min_parity_bits(num_data_bits)
        for column in code.parity_column_ints:
            assert bin(column).count("1") >= 2
