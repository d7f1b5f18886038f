"""Unit tests for k-CHARGED test patterns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, ProfileError, ValidationError
from repro.dram import CellType
from repro.core import ChargedPattern, charged_patterns, one_charged_patterns
from repro.core.patterns import pattern_count


class TestChargedPattern:
    def test_basic_properties(self):
        pattern = ChargedPattern(8, [1, 5])
        assert pattern.num_data_bits == 8
        assert pattern.charged_bits == frozenset({1, 5})
        assert pattern.discharged_bits == frozenset({0, 2, 3, 4, 6, 7})
        assert pattern.weight == 2

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ProfileError):
            ChargedPattern(4, [4])
        with pytest.raises(ProfileError):
            ChargedPattern(0, [])

    @pytest.mark.parametrize(
        "num_data_bits, charged_bits",
        [(4, [0.9]), (4, [1.0]), (4, [True]), (4, ["1"]), (4.0, [1]), (True, [0])],
        ids=repr,
    )
    def test_non_integers_are_refused_not_truncated(self, num_data_bits, charged_bits):
        with pytest.raises(ProfileError):
            ChargedPattern(num_data_bits, charged_bits)

    def test_numpy_integers_pass(self):
        assert ChargedPattern(np.int64(4), np.array([0, 2])) == ChargedPattern(4, [0, 2])

    def test_true_cell_dataword_sets_charged_bits_to_one(self):
        pattern = ChargedPattern(4, [2])
        dataword = pattern.dataword(CellType.TRUE_CELL)
        assert dataword.dtype == np.uint8
        assert dataword.tolist() == [0, 0, 1, 0]

    def test_anti_cell_dataword_sets_charged_bits_to_zero(self):
        pattern = ChargedPattern(4, [2])
        assert pattern.dataword(CellType.ANTI_CELL).tolist() == [1, 1, 0, 1]

    def test_from_dataword_round_trip(self):
        pattern = ChargedPattern(6, [0, 3])
        for cell_type in CellType:
            recovered = ChargedPattern.from_dataword(pattern.dataword(cell_type), cell_type)
            assert recovered == pattern
            listed = pattern.dataword(cell_type).tolist()
            assert ChargedPattern.from_dataword(listed, cell_type) == pattern

    @pytest.mark.parametrize("dataword", [[2, 1, 0, 1], [0.5, 1, 0, 1], [-1, 0, 0, 0]])
    def test_from_dataword_rejects_non_binary_values(self, dataword):
        # [2, 1, 0, 1] used to give charged bits [1, 3].
        for cell_type in CellType:
            with pytest.raises(ValidationError):
                ChargedPattern.from_dataword(dataword, cell_type)

    def test_from_dataword_rejects_a_matrix(self):
        with pytest.raises(DimensionError):
            ChargedPattern.from_dataword([[1, 0], [0, 1]])

    def test_equality_and_hash(self):
        assert ChargedPattern(4, [1]) == ChargedPattern(4, (1,))
        assert ChargedPattern(4, [1]) != ChargedPattern(4, [2])
        assert ChargedPattern(4, [1]) != ChargedPattern(5, [1])
        assert hash(ChargedPattern(4, [1])) == hash(ChargedPattern(4, [1]))

    def test_repr_lists_charged_bits(self):
        assert "1,3" in repr(ChargedPattern(4, [3, 1]))

    def test_empty_pattern_allowed(self):
        pattern = ChargedPattern(4, [])
        assert pattern.weight == 0
        assert not pattern.dataword(CellType.TRUE_CELL).any()


class TestPatternGenerators:
    def test_one_charged_count(self):
        patterns = one_charged_patterns(16)
        assert len(patterns) == 16
        assert all(p.weight == 1 for p in patterns)
        assert len({p for p in patterns}) == 16

    def test_two_charged_count(self):
        patterns = list(charged_patterns(8, [2]))
        assert len(patterns) == math.comb(8, 2)
        assert all(p.weight == 2 for p in patterns)

    def test_mixed_weights(self):
        patterns = list(charged_patterns(6, [1, 2]))
        assert len(patterns) == 6 + 15

    def test_pattern_count_matches_generator(self):
        for weights in ([1], [2], [1, 2], [3]):
            generated = len(list(charged_patterns(10, weights)))
            assert pattern_count(10, weights) == generated

    def test_invalid_weight_rejected(self):
        with pytest.raises(ProfileError):
            list(charged_patterns(4, [5]))
        with pytest.raises(ProfileError):
            pattern_count(4, [-1])

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_generated_patterns_have_requested_weight(self, num_bits, weight):
        if weight > num_bits:
            return
        for pattern in charged_patterns(num_bits, [weight]):
            assert pattern.weight == weight
            assert pattern.num_data_bits == num_bits
