"""Unit and integration tests for the EINSim-equivalent simulator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injector_oracle import packed_mask
from repro.exceptions import ChipConfigurationError, DimensionError, ValidationError
from repro.ecc import SyndromeDecoder, example_7_4_code, hamming_code, random_hamming_code
from repro.dram import CellType
from repro.einsim import (
    BootstrapInterval,
    BurstErrorInjector,
    CompositeInjector,
    DataRetentionInjector,
    EinsimSimulator,
    FaultModelInjector,
    FixedErrorCountInjector,
    MixedCellRetentionInjector,
    PerBitBernoulliInjector,
    RowStripeInjector,
    UniformRandomInjector,
    bootstrap_confidence_interval,
    bulk_decode,
    relative_probabilities,
)
from repro.einsim.statistics import empirical_rate


class TestInjectors:
    def test_uniform_injector_rate(self):
        injector = UniformRandomInjector(0.3)
        stored = np.zeros((500, 40), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(0))
        assert mask.shape == stored.shape
        assert mask.mean() == pytest.approx(0.3, abs=0.03)

    def test_uniform_injector_validation(self):
        with pytest.raises(ChipConfigurationError):
            UniformRandomInjector(1.5)

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, "abc", None, [0.5]],
        ids=["true", "false", "numpy-bool", "string", "none", "list"],
    )
    def test_probabilities_must_be_real_numbers(self, value):
        for build in (
            UniformRandomInjector,
            DataRetentionInjector,
            MixedCellRetentionInjector,
            lambda p: FixedErrorCountInjector(1, per_bit_probability=p),
            lambda p: BurstErrorInjector(p, 2),
            lambda p: RowStripeInjector(p),
        ):
            with pytest.raises(ChipConfigurationError, match="real number"):
                build(value)

    def test_numpy_and_integer_probabilities_are_accepted(self):
        for value in (0, 1, np.float64(0.25), np.float32(0.5), np.int64(1)):
            assert UniformRandomInjector(value).bit_error_rate == value

    def test_retention_injector_true_cells_only_flip_ones(self):
        injector = DataRetentionInjector(1.0, CellType.TRUE_CELL)
        stored = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(0))
        assert mask.tolist() == [[True, False, True, False]]

    def test_retention_injector_anti_cells_only_flip_zeros(self):
        injector = DataRetentionInjector(1.0, CellType.ANTI_CELL)
        stored = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(0))
        assert mask.tolist() == [[False, True, False, True]]

    def test_retention_injector_rate(self):
        injector = DataRetentionInjector(0.5)
        stored = np.ones((200, 50), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(1))
        assert mask.mean() == pytest.approx(0.5, abs=0.05)

    def test_fixed_count_injector_exact_count(self):
        injector = FixedErrorCountInjector(3)
        stored = np.zeros((50, 20), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(2))
        assert (mask.sum(axis=1) == 3).all()

    def test_fixed_count_injector_candidate_restriction(self):
        injector = FixedErrorCountInjector(2, candidate_positions=[0, 1, 2])
        stored = np.zeros((20, 10), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(3))
        assert not mask[:, 3:].any()

    def test_fixed_count_injector_per_bit_probability(self):
        injector = FixedErrorCountInjector(4, per_bit_probability=0.0)
        stored = np.zeros((10, 10), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(4))
        assert not mask.any()

    def test_fixed_count_injector_validation(self):
        with pytest.raises(ChipConfigurationError):
            FixedErrorCountInjector(-1)
        with pytest.raises(ChipConfigurationError):
            packed_mask(
                FixedErrorCountInjector(5, candidate_positions=[0, 1]),
                np.zeros((1, 4), dtype=np.uint8),
                np.random.default_rng(0),
            )

    def test_per_bit_injector(self):
        probabilities = [0.0, 1.0, 0.0, 1.0]
        injector = PerBitBernoulliInjector(probabilities)
        stored = np.zeros((10, 4), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(5))
        assert not mask[:, 0].any() and mask[:, 1].all()

    def test_per_bit_injector_validation(self):
        with pytest.raises(ChipConfigurationError):
            PerBitBernoulliInjector([[0.1]])
        with pytest.raises(ChipConfigurationError):
            PerBitBernoulliInjector([0.5, 1.2])
        with pytest.raises(ChipConfigurationError):
            packed_mask(
                PerBitBernoulliInjector([0.5]),
                np.zeros((1, 3), dtype=np.uint8),
                np.random.default_rng(0),
            )


class TestFixedCountVectorisedContract:
    """Seeded regression tests for the vectorised without-replacement draw."""

    def test_exactly_num_errors_candidates_per_word(self):
        # With per_bit_probability == 1 every selected candidate fires, so
        # every word must carry exactly num_errors flips.
        injector = FixedErrorCountInjector(4)
        stored = np.zeros((2000, 24), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(10))
        assert (mask.sum(axis=1) == 4).all()

    def test_candidate_selection_is_uniform(self):
        # Each of the 12 candidate positions must be chosen with probability
        # num_errors / num_candidates = 1/4.
        injector = FixedErrorCountInjector(3, candidate_positions=list(range(12)))
        stored = np.zeros((6000, 16), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(11))
        per_position = mask.mean(axis=0)
        assert not mask[:, 12:].any()
        np.testing.assert_allclose(per_position[:12], 3 / 12, atol=0.02)

    def test_per_bit_probability_thins_selected_candidates(self):
        # Selected candidates fire independently with probability p, so the
        # per-word flip count is Binomial(num_errors, p).
        injector = FixedErrorCountInjector(6, per_bit_probability=0.5)
        stored = np.zeros((4000, 20), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(12))
        counts = mask.sum(axis=1)
        assert counts.max() <= 6
        assert counts.mean() == pytest.approx(3.0, abs=0.1)
        assert counts.var() == pytest.approx(6 * 0.5 * 0.5, abs=0.15)

    def test_all_candidates_selected_when_count_equals_candidates(self):
        injector = FixedErrorCountInjector(3, candidate_positions=[1, 4, 7])
        stored = np.zeros((50, 10), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(13))
        assert mask[:, [1, 4, 7]].all()
        assert mask.sum() == 150

    def test_zero_errors_gives_empty_mask(self):
        injector = FixedErrorCountInjector(0)
        stored = np.zeros((10, 8), dtype=np.uint8)
        assert not packed_mask(injector, stored, np.random.default_rng(14)).any()

    def test_seeded_mask_is_reproducible(self):
        injector = FixedErrorCountInjector(2)
        stored = np.zeros((100, 12), dtype=np.uint8)
        first = packed_mask(injector, stored, np.random.default_rng(15))
        second = packed_mask(injector, stored, np.random.default_rng(15))
        assert np.array_equal(first, second)

    def test_duplicate_candidate_positions_rejected(self):
        # Duplicates would let a non-firing copy overwrite a firing one in
        # the flat mask assignment, breaking the exactly-num_errors contract.
        with pytest.raises(ChipConfigurationError):
            FixedErrorCountInjector(2, candidate_positions=[3, 3, 5])


class TestNewInjectors:
    def test_mixed_cell_retention_default_alternating(self):
        injector = MixedCellRetentionInjector(1.0)
        # Even columns are true-cells (1s flip); odd columns anti (0s flip).
        stored = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(0))
        assert mask.tolist() == [[True, False, False, True]]

    def test_mixed_cell_retention_explicit_columns(self):
        injector = MixedCellRetentionInjector(1.0, anti_cell_columns=[0, 1])
        stored = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(0))
        assert mask.tolist() == [[True, False, False, True]]

    def test_mixed_cell_retention_out_of_range_column(self):
        injector = MixedCellRetentionInjector(0.5, anti_cell_columns=[9])
        with pytest.raises(ChipConfigurationError):
            packed_mask(injector, np.zeros((1, 4), dtype=np.uint8), np.random.default_rng(0))

    def test_burst_injector_is_contiguous(self):
        injector = BurstErrorInjector(1.0, burst_length=3)
        stored = np.zeros((200, 16), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(1))
        for row in mask:
            positions = np.flatnonzero(row)
            assert len(positions) == 3
            assert positions[-1] - positions[0] == 2

    def test_burst_injector_probability_gates_words(self):
        injector = BurstErrorInjector(0.0, burst_length=4)
        stored = np.zeros((50, 16), dtype=np.uint8)
        assert not packed_mask(injector, stored, np.random.default_rng(2)).any()

    def test_burst_longer_than_word_is_clamped(self):
        injector = BurstErrorInjector(1.0, burst_length=100)
        stored = np.zeros((10, 8), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(3))
        assert mask.all()

    def test_burst_validation(self):
        with pytest.raises(ChipConfigurationError):
            BurstErrorInjector(0.5, burst_length=0)

    def test_row_stripe_hits_only_stripe_columns(self):
        injector = RowStripeInjector(1.0, stripe_period=2, stripe_phase=1)
        stored = np.zeros((100, 8), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(4))
        assert mask[:, 1::2].all()
        assert not mask[:, 0::2].any()

    def test_row_stripe_victim_rate(self):
        injector = RowStripeInjector(0.25, stripe_period=1)
        stored = np.zeros((4000, 8), dtype=np.uint8)
        mask = packed_mask(injector, stored, np.random.default_rng(5))
        victim_fraction = mask.any(axis=1).mean()
        assert victim_fraction == pytest.approx(0.25, abs=0.03)

    def test_row_stripe_validation(self):
        with pytest.raises(ChipConfigurationError):
            RowStripeInjector(0.5, stripe_period=0)
        with pytest.raises(ChipConfigurationError):
            RowStripeInjector(0.5, stripe_period=2, stripe_phase=2)

    def test_composite_is_union_of_members(self):
        composite = CompositeInjector(
            [PerBitBernoulliInjector([1, 0, 0, 0]), PerBitBernoulliInjector([0, 0, 0, 1])]
        )
        stored = np.zeros((10, 4), dtype=np.uint8)
        mask = packed_mask(composite, stored, np.random.default_rng(6))
        assert mask[:, 0].all() and mask[:, 3].all()
        assert not mask[:, 1:3].any()

    def test_composite_requires_members(self):
        with pytest.raises(ChipConfigurationError):
            CompositeInjector([])

    def test_fault_model_injector_requires_corrupt(self):
        with pytest.raises(ChipConfigurationError):
            FaultModelInjector(object())


class TestBulkDecode:
    def test_bulk_decode_matches_scalar_decoder(self):
        code = example_7_4_code()
        decoder = SyndromeDecoder(code)
        rng = np.random.default_rng(7)
        received = rng.integers(0, 2, size=(64, 7)).astype(np.uint8)
        bulk = bulk_decode(code, received)
        for row in range(received.shape[0]):
            expected = decoder.decode(received[row]).corrected_codeword
            assert np.array_equal(bulk[row], expected)

    def test_bulk_decode_shape_validation(self):
        with pytest.raises(DimensionError):
            bulk_decode(example_7_4_code(), np.zeros((4, 5), dtype=np.uint8))


class TestSimulator:
    def test_no_errors_no_post_correction_errors(self):
        simulator = EinsimSimulator(hamming_code(16), seed=0)
        result = simulator.simulate([1] * 16, 100, UniformRandomInjector(0.0))
        assert result.post_correction_error_counts.sum() == 0
        assert result.uncorrectable_words == 0
        assert result.miscorrected_words == 0

    def test_results_compare_by_value_and_are_unhashable(self):
        # The generated == compared the count arrays with numpy's == and
        # raised "truth value of an array is ambiguous".
        def run(seed):
            simulator = EinsimSimulator(hamming_code(16), seed=seed)
            return simulator.simulate([1] * 16, 200, FixedErrorCountInjector(2))

        result, same, other = run(4), run(4), run(5)
        assert (result == same) is True
        assert (result != same) is False
        assert result != other
        counts = same.post_correction_error_counts
        assert result != replace(same, post_correction_error_counts=counts[:-1])
        assert result != replace(same, post_correction_error_counts=counts + 1)
        assert result != replace(same, miscorrection_positions=())
        assert result != replace(same, detected_words=same.detected_words + 1)
        assert result.merge(same) == same.merge(result)
        with pytest.raises(TypeError):
            hash(result)

    def test_single_error_words_never_produce_post_correction_errors(self):
        code = hamming_code(16)
        simulator = EinsimSimulator(code, seed=1)
        result = simulator.simulate([1] * 16, 200, FixedErrorCountInjector(1))
        assert result.post_correction_error_counts.sum() == 0
        assert result.uncorrectable_words == 0

    def test_double_errors_are_uncorrectable(self):
        code = hamming_code(16)
        simulator = EinsimSimulator(code, seed=2)
        result = simulator.simulate([0] * 16, 300, FixedErrorCountInjector(2))
        assert result.uncorrectable_words == 300
        # A full-length-ish code miscorrects most double errors.
        assert result.miscorrected_words > 0
        assert result.post_correction_error_counts.sum() > 0

    def test_pre_correction_counts_match_injection_rate(self):
        code = hamming_code(8)
        simulator = EinsimSimulator(code, seed=3)
        result = simulator.simulate([1] * 8, 2000, UniformRandomInjector(0.05))
        per_bit = result.pre_correction_error_probabilities
        assert per_bit.shape == (code.codeword_length,)
        assert per_bit.mean() == pytest.approx(0.05, rel=0.2)

    def test_retention_injector_all_zero_pattern_is_error_free(self):
        # All data bits DISCHARGED (true cells): with an all-zero dataword the
        # parity bits are zero too, so no retention errors can occur at all.
        code = hamming_code(16)
        simulator = EinsimSimulator(code, seed=4)
        result = simulator.simulate(
            [0] * 16, 500, DataRetentionInjector(0.5, CellType.TRUE_CELL)
        )
        assert result.pre_correction_error_counts.sum() == 0
        assert result.post_correction_error_counts.sum() == 0

    def test_miscorrection_positions_reported(self):
        code = example_7_4_code()
        simulator = EinsimSimulator(code, seed=5)
        result = simulator.simulate([0, 0, 0, 0], 2000, UniformRandomInjector(0.2))
        assert result.miscorrected_words > 0
        assert all(0 <= p < 4 for p in result.miscorrection_positions)

    def test_batching_gives_same_totals(self):
        code = hamming_code(8)
        big_batch = EinsimSimulator(code, seed=6).simulate(
            [1] * 8, 1000, UniformRandomInjector(0.02), batch_size=1000
        )
        small_batch = EinsimSimulator(code, seed=6).simulate(
            [1] * 8, 1000, UniformRandomInjector(0.02), batch_size=64
        )
        assert big_batch.num_words == small_batch.num_words == 1000
        # Different RNG consumption order, so compare only coarse statistics.
        assert big_batch.pre_correction_error_counts.sum() == pytest.approx(
            small_batch.pre_correction_error_counts.sum(), rel=0.35
        )

    def test_dataword_validation(self):
        simulator = EinsimSimulator(hamming_code(8))
        with pytest.raises(DimensionError):
            simulator.simulate([1] * 9, 10, UniformRandomInjector(0.1))

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    @pytest.mark.parametrize(
        "dataword", [[2, 2, 2, 2], [3, 1, 1, 1], [0.5, 1, 1, 1], [-1, 0, 0, 0]]
    )
    def test_non_binary_dataword_raises_before_drawing(self, backend, dataword):
        # [2, 2, 2, 2] reduced mod 2 used to simulate the zero word.
        code = example_7_4_code()
        injector = UniformRandomInjector(0.05)
        simulator = EinsimSimulator(code, seed=3, backend=backend)
        with pytest.raises(ValidationError):
            simulator.simulate(dataword, 100, injector)
        after = simulator.simulate([0, 0, 0, 0], 100, injector)
        expected = EinsimSimulator(code, seed=3, backend=backend).simulate(
            [0, 0, 0, 0], 100, injector
        )
        assert np.array_equal(
            after.pre_correction_error_counts, expected.pre_correction_error_counts
        )

    def test_result_dataword_is_a_bit_array(self):
        result = EinsimSimulator(example_7_4_code(), seed=1).simulate(
            [True, False, True, True], 10, UniformRandomInjector(0.1)
        )
        assert result.dataword.dtype == np.uint8
        assert result.dataword.tolist() == [1, 0, 1, 1]

    def test_per_bit_error_probability_wrapper(self):
        simulator = EinsimSimulator(hamming_code(8), seed=7)
        probabilities = simulator.per_bit_error_probability(
            [1] * 8, 100, UniformRandomInjector(0.0)
        )
        assert probabilities.shape == (8,)
        assert (probabilities == 0).all()

    def test_different_ecc_functions_produce_different_profiles(self):
        # The essence of Figure 1: same pre-correction behaviour, different
        # post-correction profiles for different ECC functions.
        rng = np.random.default_rng(8)
        first_code = random_hamming_code(16, rng=rng)
        second_code = random_hamming_code(16, rng=rng)
        injector = UniformRandomInjector(0.05)
        first = EinsimSimulator(first_code, seed=9).simulate([1] * 16, 3000, injector)
        second = EinsimSimulator(second_code, seed=9).simulate([1] * 16, 3000, injector)
        assert not np.array_equal(
            first.post_correction_error_counts, second.post_correction_error_counts
        )


class TestStatistics:
    def test_bootstrap_interval_contains_estimate(self):
        samples = np.random.default_rng(0).normal(10, 1, size=200)
        interval = bootstrap_confidence_interval(samples, rng=np.random.default_rng(1))
        assert isinstance(interval, BootstrapInterval)
        assert interval.lower <= interval.estimate <= interval.upper
        assert interval.contains(interval.estimate)

    def test_bootstrap_interval_narrows_with_more_data(self):
        rng = np.random.default_rng(2)
        small = bootstrap_confidence_interval(rng.normal(0, 1, 20), rng=np.random.default_rng(3))
        large = bootstrap_confidence_interval(rng.normal(0, 1, 2000), rng=np.random.default_rng(4))
        assert (large.upper - large.lower) < (small.upper - small.lower)

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([])
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], num_resamples=0)

    def test_bootstrap_is_deterministic_without_explicit_rng(self):
        # Regression: the default used to be an unseeded generator, which
        # broke the byte-identical campaign-store guarantee.
        samples = list(np.random.default_rng(5).normal(3, 1, size=100))
        first = bootstrap_confidence_interval(samples)
        second = bootstrap_confidence_interval(samples)
        assert first == second

    def test_bootstrap_default_rng_depends_on_the_data(self):
        rng = np.random.default_rng(6)
        first = bootstrap_confidence_interval(rng.normal(0, 1, 50))
        second = bootstrap_confidence_interval(rng.normal(0, 1, 50))
        assert first != second

    def test_bootstrap_explicit_seeded_rng_reproducible(self):
        samples = [1.0, 2.0, 5.0, 9.0, 2.5, 3.5]
        first = bootstrap_confidence_interval(samples, rng=np.random.default_rng(7))
        second = bootstrap_confidence_interval(samples, rng=np.random.default_rng(7))
        assert first == second

    def test_relative_probabilities(self):
        relative = relative_probabilities([1, 1, 2])
        assert relative.sum() == pytest.approx(1.0)
        assert relative[2] == pytest.approx(0.5)

    def test_relative_probabilities_all_zero(self):
        assert (relative_probabilities([0, 0, 0]) == 0).all()

    def test_empirical_rate(self):
        assert empirical_rate(3, 10) == 0.3
        assert empirical_rate(0, 0) == 0.0
        with pytest.raises(ValueError):
            empirical_rate(5, 3)


class TestSimulatorProperties:
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=4, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_post_correction_errors_only_with_uncorrectable_words(self, seed, k):
        code = random_hamming_code(k, rng=np.random.default_rng(seed))
        simulator = EinsimSimulator(code, seed=seed)
        result = simulator.simulate([1] * k, 200, UniformRandomInjector(0.05))
        if result.uncorrectable_words == 0:
            assert result.post_correction_error_counts.sum() == 0


class TestSyndromeLookupCache:
    """Regression tests: the bulk-decode syndrome table is built once per code."""

    def test_bulk_decode_hits_cached_table(self, monkeypatch):
        from repro.ecc.code import SystematicLinearCode

        code = random_hamming_code(16, rng=np.random.default_rng(0))
        builds = []
        original = SystematicLinearCode._build_syndrome_position_table

        def counting_build(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(
            SystematicLinearCode, "_build_syndrome_position_table", counting_build
        )
        words = np.random.default_rng(1).integers(
            0, 2, size=(64, code.codeword_length)
        ).astype(np.uint8)
        first = bulk_decode(code, words)
        second = bulk_decode(code, words)
        third = bulk_decode(code, words, backend="packed")
        assert len(builds) == 1  # built on first use, cached afterwards
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)

    def test_table_identity_is_stable(self):
        code = random_hamming_code(8, rng=np.random.default_rng(2))
        assert code.syndrome_position_table() is code.syndrome_position_table()
        assert code.syndrome_fold_table() is code.syndrome_fold_table()
        assert code.parity_fold_table() is code.parity_fold_table()
        assert code.h_transpose_int64() is code.h_transpose_int64()

    def test_distinct_codes_do_not_share_tables(self):
        first = random_hamming_code(8, rng=np.random.default_rng(3))
        second = random_hamming_code(8, rng=np.random.default_rng(4))
        assert first.syndrome_position_table() is not second.syndrome_position_table()


class TestSimulatorBackends:
    def test_backend_property_and_validation(self):
        code = example_7_4_code()
        assert EinsimSimulator(code).backend == "packed"
        assert EinsimSimulator(code, backend="packed").backend == "packed"
        assert EinsimSimulator(code, backend="auto").backend in ("reference", "packed")
        with pytest.raises(ValueError):
            EinsimSimulator(code, backend="turbo")

    @pytest.mark.parametrize("backend", ["reference", "packed"])
    def test_simulate_rejects_bad_counts_before_drawing(self, backend):
        code = example_7_4_code()
        injector = UniformRandomInjector(0.02)
        simulator = EinsimSimulator(code, seed=5, backend=backend)
        with pytest.raises(ValidationError, match="batch size"):
            simulator.simulate([1, 0, 1, 1], 100, injector, batch_size=0)
        with pytest.raises(ValidationError, match="word count"):
            simulator.simulate([1, 0, 1, 1], -5, injector)
        # Neither rejected call consumed the RNG stream.
        fresh = EinsimSimulator(code, seed=5, backend=backend)
        after = simulator.simulate([1, 0, 1, 1], 200, injector)
        expected = fresh.simulate([1, 0, 1, 1], 200, injector)
        assert np.array_equal(
            after.pre_correction_error_counts, expected.pre_correction_error_counts
        )

    def test_merge_accumulates_counts(self):
        code = example_7_4_code()
        simulator = EinsimSimulator(code, seed=0)
        injector = UniformRandomInjector(0.02)
        first = simulator.simulate([1, 0, 1, 1], 500, injector)
        second = simulator.simulate([1, 0, 1, 1], 300, injector)
        merged = first.merge(second)
        assert merged.num_words == 800
        assert np.array_equal(
            merged.pre_correction_error_counts,
            first.pre_correction_error_counts + second.pre_correction_error_counts,
        )
        assert merged.miscorrected_words == (
            first.miscorrected_words + second.miscorrected_words
        )

    def test_merge_rejects_different_datawords(self):
        code = example_7_4_code()
        simulator = EinsimSimulator(code, seed=0)
        injector = UniformRandomInjector(0.02)
        first = simulator.simulate([1, 0, 1, 1], 100, injector)
        second = simulator.simulate([0, 0, 1, 1], 100, injector)
        with pytest.raises(DimensionError):
            first.merge(second)
