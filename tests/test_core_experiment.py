"""End-to-end tests for the BEER experimental campaign on simulated chips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ChipConfigurationError, ValidationError
from repro.dram import (
    CellType,
    CellTypeLayout,
    ChipGeometry,
    DataRetentionModel,
    SimulatedDramChip,
    TransientFaultModel,
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
)
from repro.dram.retention import RetentionCalibration
from repro.ecc import codes_equivalent, random_hamming_code
from repro.core import BeerExperiment, BeerSolver, ExperimentConfig, expected_miscorrection_profile, charged_patterns
from repro.core.experiment import tally_by_diagonal


#: Retention model that fails frequently at second-scale windows so campaigns
#: on small simulated chips still observe every possible miscorrection.
FAST_RETENTION = DataRetentionModel(RetentionCalibration(1.0, 0.02, 60.0, 0.5))

#: Campaign settings tuned for the small test chips: short windows, several
#: rounds so every pattern samples many different error combinations.
TEST_CONFIG = ExperimentConfig(
    pattern_weights=(1, 2),
    refresh_windows_s=(20.0, 40.0, 60.0),
    rounds_per_window=8,
    threshold=0.0,
    discover_cell_encoding=False,
)


def make_chip(num_data_bits=8, seed=0, vendor=None, **kwargs):
    if vendor is not None:
        return vendor.make_chip(
            num_data_bits=num_data_bits,
            geometry=ChipGeometry(num_rows=32, words_per_row=8),
            seed=seed,
            retention_model=FAST_RETENTION,
            **kwargs,
        )
    code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
    return SimulatedDramChip(
        code,
        ChipGeometry(num_rows=32, words_per_row=8),
        retention_model=FAST_RETENTION,
        seed=seed,
        **kwargs,
    )


class TestCampaignMechanics:
    def test_counts_cover_every_pattern(self):
        chip = make_chip()
        experiment = BeerExperiment(chip, TEST_CONFIG)
        counts = experiment.measure_counts()
        expected_patterns = 8 + 28  # 1-CHARGED + 2-CHARGED for k=8
        assert len(counts.patterns) == expected_patterns
        total_words = sum(counts.words_observed(p) for p in counts.patterns)
        windows = len(TEST_CONFIG.refresh_windows_s)
        assert total_words == chip.num_words * windows * TEST_CONFIG.rounds_per_window

    def test_profile_never_claims_charged_bits(self):
        chip = make_chip(seed=1)
        result = BeerExperiment(chip, TEST_CONFIG).run(solve=False)
        for pattern in result.profile.patterns:
            assert not (result.profile.miscorrections(pattern) & pattern.charged_bits)

    def test_solve_disabled_returns_no_solution(self):
        chip = make_chip(seed=2)
        result = BeerExperiment(chip, TEST_CONFIG).run(solve=False)
        assert result.solution is None
        with pytest.raises(ChipConfigurationError):
            _ = result.recovered_code

    def test_requires_at_least_two_data_bits(self):
        code = random_hamming_code(1, num_parity_bits=3, rng=np.random.default_rng(0))
        chip = SimulatedDramChip(code, ChipGeometry(2, 2))
        with pytest.raises(ChipConfigurationError):
            BeerExperiment(chip)

    def test_all_anti_cell_chip_rejected(self):
        chip = make_chip(cell_layout=CellTypeLayout.uniform(CellType.ANTI_CELL), seed=3)
        experiment = BeerExperiment(chip, TEST_CONFIG)
        cell_types = {row: CellType.ANTI_CELL for row in range(chip.geometry.num_rows)}
        with pytest.raises(ChipConfigurationError):
            experiment.measure_counts(cell_types)


class TestExperimentConfig:
    """A campaign config that measures nothing, or other than it says, is refused."""

    @pytest.mark.parametrize("overrides", [
        # 0 or -3 rounds, or no window, measured no pattern, and run(solve=True)
        # returned every one of 277,200 codes at k = 8.
        dict(rounds_per_window=0),
        dict(rounds_per_window=-3),
        dict(refresh_windows_s=()),
        # True ran one round, and 2.5 would name rounds no campaign runs.
        dict(rounds_per_window=True),
        dict(rounds_per_window=2.5),
        dict(rounds_per_window=2.0),
        dict(rounds_per_window="4"),
        # A threshold of 1.5 or NaN dropped every entry: 0 candidates.
        dict(threshold=1.5),
        dict(threshold=float("nan")),
        dict(threshold=1.0),
        dict(threshold=-0.1),
        dict(threshold=True),
        dict(threshold="0"),
        # No weight died in numpy with an IndexError.
        dict(pattern_weights=()),
        dict(pattern_weights=(1.5,)),
        dict(pattern_weights=(True,)),
        dict(refresh_windows_s=(True,)),
        dict(refresh_windows_s=("30",)),
        dict(refresh_windows_s=(-1.0,)),
        dict(refresh_windows_s=(float("nan"),)),
    ], ids=repr)
    def test_a_config_that_cannot_measure_is_refused(self, overrides):
        with pytest.raises(ValidationError):
            ExperimentConfig(**overrides)

    def test_numpy_numbers_are_accepted(self):
        config = ExperimentConfig(
            pattern_weights=(np.int64(1),),
            refresh_windows_s=(np.float64(20.0), 40),
            rounds_per_window=np.int32(2),
            threshold=np.float64(0.001),
        )
        counts = BeerExperiment(make_chip(seed=5), config).measure_counts()
        assert len(counts.patterns) == 8


class TestDiagonalTally:
    """``tally_by_diagonal`` against one ``np.add.at`` per (round, word)."""

    @staticmethod
    def _reference(mismatch, offset, num_patterns):
        rounds, width, bits = mismatch.shape
        tallies = np.zeros((num_patterns, bits), dtype=np.int64)
        diagonal = np.arange(rounds)[:, np.newaxis] + np.arange(width)
        np.add.at(tallies, (offset + diagonal) % num_patterns, mismatch)
        return tallies

    @settings(max_examples=300, deadline=None)
    @given(
        num_patterns=st.integers(1, 40),
        width=st.integers(1, 60),
        rounds=st.integers(1, 80),
        offset=st.integers(0, 500),
        rounds_per_call=st.integers(1, 80),
        bits=st.integers(1, 5),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_calls_equal_the_per_entry_reference(
        self, num_patterns, width, rounds, offset, rounds_per_call, bits, density, seed
    ):
        # W < P, W > P and count + W - 1 > P all occur.
        mismatch = np.random.default_rng(seed).random((rounds, width, bits)) < density
        tallies = np.zeros((num_patterns, bits), dtype=np.int64)
        for first in range(0, rounds, rounds_per_call):
            tallies += tally_by_diagonal(
                mismatch[first : first + rounds_per_call], offset + first, num_patterns
            )
        assert np.array_equal(tallies, self._reference(mismatch, offset, num_patterns))

    def test_more_than_255_rounds_do_not_wrap(self):
        # Every diagonal past the corner sums 300 ones: more than a uint8 holds.
        mismatch = np.ones((600, 300, 2), dtype=bool)
        tallies = tally_by_diagonal(mismatch, 7, 13)
        assert tallies.dtype == np.int64
        assert np.array_equal(tallies, self._reference(mismatch, 7, 13))
        assert tallies.sum() == 600 * 300 * 2


class TestRowsPerCall:
    """A ``retention_rounds`` call gets only the table rows its rotation uses."""

    @staticmethod
    def _recorded_calls(chip, config):
        calls, retention_rounds = [], chip.retention_rounds

        def recording(words, patterns, assignment, *pause):
            calls.append((patterns.copy(), np.array(assignment)))
            return retention_rounds(words, patterns, assignment, *pause)

        chip.retention_rounds = recording
        counts = BeerExperiment(chip, config).measure_counts()
        return calls, counts

    def test_perfbench_chip_encodes_575_rows_per_window(self):
        chip = VENDOR_A.make_chip(
            num_data_bits=16, geometry=ChipGeometry(64, 8), seed=3,
            retention_model=FAST_RETENTION,
        )
        config = ExperimentConfig(
            refresh_windows_s=(30.0, 45.0, 60.0), rounds_per_window=64,
            discover_cell_encoding=False,
        )
        calls, counts = self._recorded_calls(chip, config)
        patterns = list(charged_patterns(16, [1, 2]))
        table = np.array([pattern.dataword() for pattern in patterns])
        # 64 rounds over 512 words use 64 + 512 - 1 rows, not 32,768 datawords.
        assert [len(rows) for rows, _ in calls] == [575, 575, 575]
        for window, (rows, assignment) in enumerate(calls):
            assert np.array_equal(rows, table[(64 * window + np.arange(575)) % 136])
            assert np.array_equal(assignment, np.arange(64)[:, np.newaxis] + np.arange(512))
        # Round g writes pattern (g + i) % P to word i.
        rotation = (np.arange(192)[:, np.newaxis] + np.arange(512)) % 136
        assert [counts.words_observed(pattern) for pattern in patterns] == (
            np.bincount(rotation.ravel(), minlength=136).tolist()
        )

    def test_a_4096_word_k128_chip_encodes_4099_rows_per_four_rounds(self):
        chip = VENDOR_B.make_chip(
            num_data_bits=128, geometry=ChipGeometry(512, 8), seed=3,
            retention_model=FAST_RETENTION,
        )
        config = ExperimentConfig(
            pattern_weights=(1,), refresh_windows_s=(30.0,), rounds_per_window=8,
            discover_cell_encoding=False,
        )
        calls, counts = self._recorded_calls(chip, config)
        # 2**21 bits per call: four rounds of 4,096 words of 128 bits.
        assert [(len(rows), assignment.shape) for rows, assignment in calls] == [
            (4099, (4, 4096)), (4099, (4, 4096)),
        ]
        assert sum(counts.words_observed(pattern) for pattern in counts.patterns) == 8 * 4096


class TestEndToEndRecovery:
    def test_campaign_recovers_the_on_die_ecc_function(self):
        chip = make_chip(num_data_bits=8, seed=4)
        result = BeerExperiment(chip, TEST_CONFIG).run(solve=True)
        assert result.solution is not None
        assert result.solution.unique
        assert codes_equivalent(result.recovered_code, chip.code)

    def test_measured_profile_matches_analytic_profile(self):
        chip = make_chip(num_data_bits=8, seed=5)
        result = BeerExperiment(chip, TEST_CONFIG).run(solve=False)
        analytic = expected_miscorrection_profile(
            chip.code, list(charged_patterns(8, [1, 2]))
        )
        measured = result.profile
        # Every measured miscorrection must be analytically possible; with
        # enough rounds the measured profile matches the analytic one exactly.
        for pattern in measured.patterns:
            assert measured.miscorrections(pattern) <= analytic.miscorrections(pattern)
        matches = sum(
            1
            for pattern in measured.patterns
            if measured.miscorrections(pattern) == analytic.miscorrections(pattern)
        )
        assert matches >= 0.9 * len(measured.patterns)

    def test_campaign_tolerates_transient_noise_with_threshold(self):
        chip = make_chip(
            num_data_bits=8,
            seed=6,
            transient_faults=TransientFaultModel(probability_per_bit=2e-4),
        )
        # Real miscorrection probabilities sit above ~0.02 per word while the
        # transient-noise artefacts stay below ~0.006, so a 0.01 threshold
        # separates them cleanly (the reproduction of Figure 4's filter).
        noisy_config = ExperimentConfig(
            pattern_weights=(1, 2),
            refresh_windows_s=(30.0, 45.0, 60.0),
            rounds_per_window=16,
            threshold=0.01,
            discover_cell_encoding=False,
        )
        result = BeerExperiment(chip, noisy_config).run(solve=True)
        assert result.solution is not None
        assert any(
            codes_equivalent(candidate, chip.code) for candidate in result.solution.codes
        )

    def test_vendor_c_chip_with_mixed_cell_types(self):
        chip = make_chip(num_data_bits=8, seed=7, vendor=VENDOR_C)
        config = ExperimentConfig(
            pattern_weights=(1, 2),
            refresh_windows_s=(20.0, 40.0, 60.0),
            rounds_per_window=8,
            threshold=0.0,
            discover_cell_encoding=True,
            discovery_pause_s=60.0,
        )
        result = BeerExperiment(chip, config).run(solve=True)
        assert CellType.ANTI_CELL in result.cell_types.values()
        assert result.solution.unique
        assert codes_equivalent(result.recovered_code, chip.code)

    def test_different_vendors_yield_different_profiles(self):
        profiles = {}
        for vendor in (VENDOR_A, VENDOR_B):
            chip = make_chip(num_data_bits=8, seed=8, vendor=vendor)
            result = BeerExperiment(chip, TEST_CONFIG).run(solve=False)
            profiles[vendor.name] = result.profile
        assert profiles["A"] != profiles["B"]

    def test_chips_of_same_vendor_yield_same_recovered_function(self):
        codes = []
        for seed in (10, 11):
            chip = make_chip(num_data_bits=8, seed=seed, vendor=VENDOR_B)
            result = BeerExperiment(chip, TEST_CONFIG).run(solve=True)
            codes.append(result.recovered_code)
        assert codes_equivalent(codes[0], codes[1])


class TestMonteCarloCampaign:
    """The chunked / multiprocessing Monte-Carlo campaign runner."""

    def _campaign(self, **kwargs):
        from repro.core import MonteCarloCampaign

        code = random_hamming_code(16, rng=np.random.default_rng(0))
        return code, MonteCarloCampaign(code, **kwargs)

    def test_validation(self):
        from repro.core import MonteCarloCampaign

        code = random_hamming_code(8, rng=np.random.default_rng(0))
        with pytest.raises(ChipConfigurationError):
            MonteCarloCampaign(code, chunk_size=0)
        with pytest.raises(ChipConfigurationError):
            MonteCarloCampaign(code, processes=0)
        with pytest.raises(ValueError):
            MonteCarloCampaign(code, backend="gpu")
        campaign = MonteCarloCampaign(code)
        from repro.einsim import UniformRandomInjector

        with pytest.raises(ChipConfigurationError):
            campaign.simulate_many([[1] * 8], UniformRandomInjector(0.1), 0)

    def test_chunked_totals(self):
        from repro.einsim import UniformRandomInjector

        code, campaign = self._campaign(chunk_size=700, base_seed=3)
        result = campaign.simulate([1] * 16, UniformRandomInjector(0.01), 2500)
        assert result.num_words == 2500
        assert result.dataword.tolist() == [1] * 16
        assert result.pre_correction_error_counts.sum() > 0

    @pytest.mark.parametrize("dataword", [[3, 1, 1, 1], [0.5, 1, 1, 1], [-1, 0, 0, 0]])
    def test_non_binary_dataword_rejected(self, dataword):
        # [3, 1, 1, 1] used to run as [1, 1, 1, 1].
        from repro.core import MonteCarloCampaign
        from repro.ecc import example_7_4_code
        from repro.einsim import UniformRandomInjector

        campaign = MonteCarloCampaign(example_7_4_code(), chunk_size=100)
        with pytest.raises(ValidationError):
            campaign.simulate(dataword, UniformRandomInjector(0.01), 200)

    def test_processes_do_not_change_results(self):
        from repro.einsim import UniformRandomInjector

        injector = UniformRandomInjector(0.02)
        code, serial = self._campaign(chunk_size=500, processes=1, base_seed=5)
        _, parallel = self._campaign(chunk_size=500, processes=2, base_seed=5)
        first = serial.simulate([1] * 16, injector, 2000)
        second = parallel.simulate([1] * 16, injector, 2000)
        assert first.num_words == second.num_words
        assert np.array_equal(
            first.post_correction_error_counts, second.post_correction_error_counts
        )
        assert np.array_equal(
            first.pre_correction_error_counts, second.pre_correction_error_counts
        )
        assert first.miscorrection_positions == second.miscorrection_positions

    def test_backends_do_not_change_results(self):
        from repro.einsim import DataRetentionInjector

        injector = DataRetentionInjector(0.05)
        code, reference = self._campaign(chunk_size=512, backend="reference", base_seed=9)
        _, packed = self._campaign(chunk_size=512, backend="packed", base_seed=9)
        first = reference.simulate([1] * 16, injector, 3000)
        second = packed.simulate([1] * 16, injector, 3000)
        assert np.array_equal(
            first.post_correction_error_counts, second.post_correction_error_counts
        )
        assert first.uncorrectable_words == second.uncorrectable_words

    def test_simulate_many_matches_individual_runs(self):
        from repro.einsim import UniformRandomInjector

        injector = UniformRandomInjector(0.02)
        code, campaign = self._campaign(chunk_size=400, base_seed=11)
        batch = campaign.simulate_many([[0] * 16, [1] * 16], injector, 900)
        assert len(batch) == 2
        assert batch[0].dataword.tolist() == [0] * 16
        assert batch[1].dataword.tolist() == [1] * 16
        assert all(result.num_words == 900 for result in batch)
        # Batch composition must not change any dataword's result: each entry
        # equals the corresponding standalone simulate() run bit for bit.
        for dataword, batched in zip([[0] * 16, [1] * 16], batch):
            alone = campaign.simulate(dataword, injector, 900)
            assert np.array_equal(
                alone.post_correction_error_counts,
                batched.post_correction_error_counts,
            )
            assert np.array_equal(
                alone.pre_correction_error_counts,
                batched.pre_correction_error_counts,
            )
            assert alone.miscorrected_words == batched.miscorrected_words
            assert alone.uncorrectable_words == batched.uncorrectable_words
            assert alone.miscorrection_positions == batched.miscorrection_positions

    def test_campaign_profile_recovers_code(self):
        from repro.core import MonteCarloCampaign
        from repro.ecc.hamming import min_parity_bits

        code = random_hamming_code(8, rng=np.random.default_rng(21))
        campaign = MonteCarloCampaign(code, chunk_size=1024, backend="packed", base_seed=1)
        patterns = list(charged_patterns(8, [1, 2]))
        profile = campaign.miscorrection_profile(patterns, 0.5, 4000)
        assert profile == expected_miscorrection_profile(code, patterns)
        solution = BeerSolver(8, min_parity_bits(8)).solve(profile)
        assert solution.unique
        assert codes_equivalent(solution.code, code)
