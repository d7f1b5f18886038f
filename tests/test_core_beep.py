"""Tests for BEEP (bit-exact pre-correction error profiling)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beep_oracle import BeepProfiler as OracleProfiler
from beep_oracle import SimulatedWordUnderTest as OracleWord
from repro.exceptions import AddressError, DimensionError, PatternCraftingError, ValidationError
from repro.dram import CellType
from repro.ecc import get_family, hamming_code, random_hamming_code
from repro.core import BeepProfiler
from repro.core.beep import ChipWordUnderTest, SimulatedWordUnderTest
from repro.dram import ChipGeometry, DataRetentionModel, SimulatedDramChip
from repro.dram.retention import RetentionCalibration


@pytest.fixture
def code_16():
    return random_hamming_code(16, rng=np.random.default_rng(16))


def _bits(values):
    return np.array(values, dtype=np.uint8)


class TestSimulatedWordUnderTest:
    def test_error_free_word_reads_back_written_data(self, code_16):
        word = SimulatedWordUnderTest(code_16, [], rng=np.random.default_rng(0))
        dataword = _bits([1, 0] * 8)
        assert np.array_equal(word.test(dataword), dataword)

    def test_only_charged_error_prone_cells_fail(self, code_16):
        word = SimulatedWordUnderTest(code_16, [0], per_bit_probability=1.0,
                                      rng=np.random.default_rng(0))
        # Bit 0 DISCHARGED: cannot fail, read back clean.
        clean = word.test(_bits([0] * 16))
        assert clean.dtype == np.uint8
        assert clean.tolist() == [0] * 16

    def test_single_error_is_corrected_by_ecc(self, code_16):
        word = SimulatedWordUnderTest(code_16, [3], per_bit_probability=1.0,
                                      rng=np.random.default_rng(0))
        dataword = _bits([1] * 16)
        assert np.array_equal(word.test(dataword), dataword)

    def test_non_binary_dataword_rejected(self, code_16):
        word = SimulatedWordUnderTest(code_16, [0], rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            word.test([2] + [0] * 15)
        with pytest.raises(DimensionError):
            word.test([0] * 15)

    def test_invalid_positions_and_probability_rejected(self, code_16):
        with pytest.raises(DimensionError):
            SimulatedWordUnderTest(code_16, [code_16.codeword_length])
        with pytest.raises(DimensionError):
            SimulatedWordUnderTest(code_16, [0], per_bit_probability=1.5)

    def test_exposes_ground_truth(self, code_16):
        word = SimulatedWordUnderTest(code_16, [5, 2])
        assert word.error_prone_positions == (2, 5)
        assert word.code is code_16


class TestPatternCrafting:
    def test_crafted_pattern_charges_target_data_bit(self, code_16):
        profiler = BeepProfiler(code_16)
        for target in range(code_16.num_data_bits):
            pattern = profiler.craft_pattern(target)
            assert pattern.codeword[target] == 1
            assert pattern.target_bit == target

    def test_crafted_pattern_words_are_bit_arrays(self, code_16):
        pattern = BeepProfiler(code_16).craft_pattern(3, [7])
        assert pattern.dataword.dtype == np.uint8
        assert pattern.dataword.shape == (code_16.num_data_bits,)
        assert np.array_equal(pattern.codeword, code_16.encode(pattern.dataword))

    def test_crafted_pattern_charges_target_parity_bit(self, code_16):
        profiler = BeepProfiler(code_16)
        for target in code_16.parity_bit_positions:
            pattern = profiler.craft_pattern(target)
            assert pattern.codeword[target] == 1

    def test_crafted_patterns_compare_by_value_and_are_unhashable(self, code_16):
        # The generated == compared the word arrays with numpy's == and
        # raised "truth value of an array is ambiguous".
        pattern = BeepProfiler(code_16).craft_pattern(3, [7])
        same = BeepProfiler(code_16).craft_pattern(3, [7])
        assert pattern is not same
        assert (pattern == same) is True
        assert (pattern != same) is False
        assert (pattern == replace(same, target_bit=4)) is False
        assert pattern != replace(same, codeword=same.codeword[:-1])
        assert pattern != replace(same, dataword=same.dataword.tolist())
        assert pattern != "pattern"
        with pytest.raises(TypeError):
            hash(pattern)

    def test_bootstrap_pattern_discharges_neighbours_of_data_target(self, code_16):
        profiler = BeepProfiler(code_16)
        pattern = profiler.craft_pattern(5)
        assert pattern.codeword[4] == 0
        assert pattern.codeword[6] == 0

    def test_miscorrection_armed_pattern_with_known_errors(self, code_16):
        profiler = BeepProfiler(code_16)
        known = [7]
        pattern = profiler.craft_pattern(2, known)
        if pattern.miscorrection_armed:
            # The known error cell must be CHARGED so it can actually fail.
            assert pattern.codeword[7] == 1
            assert pattern.codeword[2] == 1

    def test_invalid_target_rejected(self, code_16):
        with pytest.raises(PatternCraftingError):
            BeepProfiler(code_16).craft_pattern(code_16.codeword_length)

    def test_invalid_configuration_rejected(self, code_16):
        with pytest.raises(PatternCraftingError):
            BeepProfiler(code_16, max_combination_size=0)

    def test_anti_cell_patterns_invert_charge_encoding(self, code_16):
        profiler = BeepProfiler(code_16, cell_type=CellType.ANTI_CELL)
        pattern = profiler.craft_pattern(3)
        # Anti-cells store 0 when CHARGED.
        assert pattern.codeword[3] == 0


class TestInference:
    def test_inference_recovers_double_error_exactly(self, code_16):
        # Deterministic scenario: two error-prone cells that always fail.
        profiler = BeepProfiler(code_16)
        word = SimulatedWordUnderTest(
            code_16, [2, 9], per_bit_probability=1.0, rng=np.random.default_rng(1)
        )
        result = profiler.profile(word, num_passes=2)
        assert set(result.identified_errors) == {2, 9}

    def test_inference_identifies_parity_bit_errors(self, code_16):
        parity_position = code_16.num_data_bits + 1
        word = SimulatedWordUnderTest(
            code_16, [4, parity_position], per_bit_probability=1.0,
            rng=np.random.default_rng(2),
        )
        result = BeepProfiler(code_16).profile(word, num_passes=2)
        assert parity_position in result.identified_errors
        assert 4 in result.identified_errors

    def test_no_errors_identified_for_clean_word(self, code_16):
        word = SimulatedWordUnderTest(code_16, [], rng=np.random.default_rng(3))
        result = BeepProfiler(code_16).profile(word, num_passes=1)
        assert result.identified_errors == ()
        assert result.miscorrections_observed == 0

    def test_identified_errors_are_subset_of_true_errors(self, code_16):
        rng = np.random.default_rng(4)
        for trial in range(5):
            true_errors = sorted(
                rng.choice(code_16.codeword_length, size=3, replace=False).tolist()
            )
            word = SimulatedWordUnderTest(
                code_16, true_errors, per_bit_probability=0.75,
                rng=np.random.default_rng(trial),
            )
            result = BeepProfiler(code_16).profile(word, num_passes=2)
            assert set(result.identified_errors) <= set(true_errors)

    def test_observation_length_validation(self, code_16):
        profiler = BeepProfiler(code_16)
        pattern = profiler.craft_pattern(0)
        with pytest.raises(DimensionError):
            profiler.infer_errors_from_observation(pattern, [0, 1])

    def test_observation_values_validation(self, code_16):
        profiler = BeepProfiler(code_16)
        pattern = profiler.craft_pattern(0)
        observed = pattern.dataword.tolist()
        observed[1] = 2
        with pytest.raises(ValidationError):
            profiler.infer_errors_from_observation(pattern, observed)

    def test_profile_argument_validation(self, code_16):
        profiler = BeepProfiler(code_16)
        word = SimulatedWordUnderTest(code_16, [])
        with pytest.raises(PatternCraftingError):
            profiler.profile(word, num_passes=0)
        with pytest.raises(PatternCraftingError):
            profiler.profile(word, trials_per_pattern=0)

    def test_result_statistics(self, code_16):
        word = SimulatedWordUnderTest(
            code_16, [1, 8], per_bit_probability=1.0, rng=np.random.default_rng(5)
        )
        result = BeepProfiler(code_16).profile(word, num_passes=1)
        assert result.passes_used == 1
        assert result.patterns_tested == code_16.codeword_length
        assert result.identified_set() == frozenset(result.identified_errors)


class TestSuccessRateTrends:
    def success_rate(self, num_data_bits, num_errors, passes, probability, trials=20):
        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(num_data_bits))
        profiler = BeepProfiler(code)
        rng = np.random.default_rng(1234)
        successes = 0
        for trial in range(trials):
            true_errors = sorted(
                rng.choice(code.codeword_length, size=num_errors, replace=False).tolist()
            )
            word = SimulatedWordUnderTest(
                code, true_errors, per_bit_probability=probability,
                rng=np.random.default_rng(trial),
            )
            result = profiler.profile(word, num_passes=passes)
            if set(result.identified_errors) == set(true_errors):
                successes += 1
        return successes / trials

    def test_two_passes_never_hurt(self):
        one_pass = self.success_rate(16, 3, passes=1, probability=1.0)
        two_passes = self.success_rate(16, 3, passes=2, probability=1.0)
        assert two_passes >= one_pass

    def test_deterministic_errors_profile_well_with_two_passes(self):
        rate = self.success_rate(26, 3, passes=2, probability=1.0)
        assert rate >= 0.7

    def test_low_probability_errors_are_harder(self):
        high = self.success_rate(16, 3, passes=1, probability=1.0)
        low = self.success_rate(16, 3, passes=1, probability=0.25)
        assert low <= high


class TestChipWordUnderTest:
    def test_adapter_runs_against_simulated_chip(self):
        code = hamming_code(16)
        chip = SimulatedDramChip(
            code,
            ChipGeometry(2, 2),
            retention_model=DataRetentionModel(RetentionCalibration(1.0, 1e-4, 100.0, 0.5)),
            seed=3,
        )
        word = ChipWordUnderTest(chip, word_index=1, refresh_pause_s=50.0)
        observed = word.test(_bits([1] * 16))
        assert observed.dtype == np.uint8 and observed.shape == (16,)
        with pytest.raises(AddressError):
            word.test([2] * 16)


class TestMatchesArrayOracle:
    """The int-mask profiler against the array/RREF profiler it replaced."""

    @staticmethod
    def _code(family, num_data_bits, seed):
        return get_family(family).random(num_data_bits, rng=np.random.default_rng(seed))

    @given(
        family=st.sampled_from(["sec-hamming", "secded-extended-hamming"]),
        num_data_bits=st.sampled_from([4, 8, 11, 16, 26]),
        cell_type=st.sampled_from([CellType.TRUE_CELL, CellType.ANTI_CELL]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_crafted_patterns_and_inferences_match(
        self, family, num_data_bits, cell_type, seed
    ):
        code = self._code(family, num_data_bits, seed)
        profiler = BeepProfiler(code, cell_type=cell_type)
        oracle = OracleProfiler(code, cell_type=cell_type)
        rng = np.random.default_rng(seed)
        n = code.codeword_length
        for target in range(n):
            known = rng.choice(n, size=int(rng.integers(0, 5)), replace=False).tolist()
            phase = int(rng.integers(0, 2))
            pattern = profiler.craft_pattern(target, known, phase)
            assert pattern == oracle.craft_pattern(target, known, phase)
            observed = rng.integers(0, 2, size=code.num_data_bits).astype(np.uint8)
            assert profiler.infer_errors_from_observation(
                pattern, observed
            ) == oracle.infer_errors_from_observation(pattern, observed)

    @given(
        family=st.sampled_from(["sec-hamming", "secded-extended-hamming"]),
        num_data_bits=st.sampled_from([4, 8, 11, 16, 26]),
        cell_type=st.sampled_from([CellType.TRUE_CELL, CellType.ANTI_CELL]),
        probability=st.sampled_from([1.0, 0.5]),
        passes=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_results_and_random_draws_match(
        self, family, num_data_bits, cell_type, probability, passes, seed
    ):
        code = self._code(family, num_data_bits, seed)
        rng = np.random.default_rng(seed)
        errors = rng.choice(
            code.codeword_length, size=int(rng.integers(1, 6)), replace=False
        ).tolist()
        words = [
            word_type(
                code, errors, per_bit_probability=probability, cell_type=cell_type,
                rng=np.random.default_rng(seed + 1),
            )
            for word_type in (SimulatedWordUnderTest, OracleWord)
        ]
        result = BeepProfiler(code, cell_type=cell_type).profile(words[0], passes)
        expected = OracleProfiler(code, cell_type=cell_type).profile(words[1], passes)
        assert result == expected
        states = [word._rng.bit_generator.state for word in words]
        assert states[0] == states[1]
