"""Tests for the direct-syndrome-readout baseline (Section 4.1)."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, SolverError, ValidationError
from repro.ecc import codes_equivalent, example_7_4_code, hamming_code, random_hamming_code
from repro.core import BeerSolver, charged_patterns, expected_miscorrection_profile
from repro.core.baseline import (
    RankLevelEccInterface,
    reverse_engineer_with_syndromes,
    syndromes_match_code,
)


class TestRankLevelEccInterface:
    def test_single_error_syndrome_is_column(self):
        code = example_7_4_code()
        interface = RankLevelEccInterface(code)
        codeword = interface.encode(np.zeros(4, dtype=np.uint8))
        for position in range(code.codeword_length):
            syndrome = interface.inject_and_report(codeword, [position])
            assert syndrome == code.column_int(position)

    def test_no_errors_zero_syndrome(self):
        code = hamming_code(8)
        interface = RankLevelEccInterface(code)
        codeword = interface.encode(np.ones(8, dtype=np.uint8))
        assert interface.inject_and_report(codeword, []) == 0

    @pytest.mark.parametrize("position", [7, 9, -1, -8])
    def test_error_position_out_of_range_raises(self, position):
        # -1 used to flip bit 6 silently; 9 raised a bare IndexError.
        interface = RankLevelEccInterface(example_7_4_code())
        codeword = interface.encode([0, 1, 1, 0])
        with pytest.raises(DimensionError):
            interface.inject_and_report(codeword, [position])

    def test_inject_leaves_the_codeword_untouched(self):
        interface = RankLevelEccInterface(example_7_4_code())
        codeword = interface.encode([1, 0, 1, 1])
        before = codeword.copy()
        interface.inject_and_report(codeword, [0, 3])
        assert np.array_equal(codeword, before)

    def test_non_binary_words_raise(self):
        interface = RankLevelEccInterface(example_7_4_code())
        with pytest.raises(ValidationError):
            interface.encode([2, 0, 1, 1])
        with pytest.raises(ValidationError):
            interface.inject_and_report([0, 0, 0, 0, 0, 0, 2], [1])

    def test_noise_probability_validation(self):
        with pytest.raises(SolverError):
            RankLevelEccInterface(hamming_code(8), noise_probability=1.5)

    def test_dimensions_exposed(self):
        code = hamming_code(16)
        interface = RankLevelEccInterface(code)
        assert interface.num_data_bits == 16
        assert interface.codeword_length == code.codeword_length


class TestReverseEngineering:
    def test_recovers_exact_code(self):
        for seed in range(4):
            code = random_hamming_code(12, rng=np.random.default_rng(seed))
            interface = RankLevelEccInterface(code)
            recovered = reverse_engineer_with_syndromes(interface)
            assert recovered == code

    def test_recovers_paper_example(self):
        code = example_7_4_code()
        recovered = reverse_engineer_with_syndromes(RankLevelEccInterface(code))
        assert recovered == code

    def test_majority_vote_tolerates_noise(self):
        code = random_hamming_code(8, rng=np.random.default_rng(3))
        interface = RankLevelEccInterface(
            code, noise_probability=0.02, rng=np.random.default_rng(0)
        )
        recovered = reverse_engineer_with_syndromes(interface, trials_per_position=15)
        assert recovered == code

    def test_trials_validation(self):
        interface = RankLevelEccInterface(hamming_code(8))
        with pytest.raises(SolverError):
            reverse_engineer_with_syndromes(interface, trials_per_position=0)

    def test_syndromes_match_code_helper(self):
        code = random_hamming_code(10, rng=np.random.default_rng(7))
        other = random_hamming_code(10, rng=np.random.default_rng(8))
        interface = RankLevelEccInterface(code)
        assert syndromes_match_code(interface, code)
        if not codes_equivalent(code, other):
            assert not syndromes_match_code(interface, other)

    def test_mismatched_length_rejected_by_helper(self):
        interface = RankLevelEccInterface(hamming_code(8))
        assert not syndromes_match_code(interface, hamming_code(16))


class TestBaselineAgreesWithBeer:
    def test_baseline_and_beer_recover_equivalent_functions(self):
        # The baseline needs syndrome access and raw-codeword writes; BEER
        # needs neither.  When both are applicable they must agree.
        code = random_hamming_code(8, rng=np.random.default_rng(11))
        baseline_code = reverse_engineer_with_syndromes(RankLevelEccInterface(code))
        profile = expected_miscorrection_profile(
            code, list(charged_patterns(8, [1, 2]))
        )
        beer_code = BeerSolver(8).solve(profile).code
        assert codes_equivalent(baseline_code, beer_code)
