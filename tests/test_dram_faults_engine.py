"""Non-retention fault models flowing through the batched engine path.

Covers the satellite requirements: the stuck-at mask cache must be permanent
across interleaved batch shapes, and transient + stuck-at overlays must be
bit-identical between the ``reference`` and ``packed`` backends, both through
:class:`EinsimSimulator` and through a chip read path.
"""

import numpy as np
import pytest

from repro.dram import ChipGeometry, SimulatedDramChip, StuckAtFaultModel
from repro.dram.faults import TransientFaultModel
from repro.dram.retention import DataRetentionModel, RetentionCalibration
from repro.ecc import hamming_code
from repro.einsim import (
    BACKENDS,
    CompositeInjector,
    EinsimSimulator,
    FaultModelInjector,
)
from repro.exceptions import ChipConfigurationError


BAD_PROBABILITIES = pytest.mark.parametrize(
    "value", [True, "abc", float("nan"), 1.5], ids=["true", "string", "nan", "above-one"]
)


class TestProbabilityChecks:
    """Both models check their probability as the error injectors do."""

    @BAD_PROBABILITIES
    def test_transient_probability(self, value):
        with pytest.raises(ChipConfigurationError):
            TransientFaultModel(value)

    @BAD_PROBABILITIES
    def test_stuck_fraction(self, value):
        with pytest.raises(ChipConfigurationError):
            StuckAtFaultModel(value)

    def test_real_numbers_in_range_are_accepted(self):
        for value in (0, 1, 0.25, np.float64(0.5)):
            assert TransientFaultModel(value).probability_per_bit == value
            assert StuckAtFaultModel(value).stuck_fraction == value


class TestStuckAtMaskCache:
    def test_mask_permanent_across_interleaved_shapes(self):
        model = StuckAtFaultModel(
            stuck_fraction=0.4, stuck_value=1, rng=np.random.default_rng(0)
        )
        shapes = [(8, 16), (3, 16), (8, 16), (3, 16), (8, 16)]
        masks = {}
        for shape in shapes:
            bits = np.zeros(shape, dtype=np.uint8)
            mask = model.corrupt(bits, None) == 1
            if shape in masks:
                assert np.array_equal(masks[shape], mask), (
                    "stuck mask changed after an interleaved batch shape"
                )
            else:
                masks[shape] = mask
        assert not np.array_equal(masks[(8, 16)][:3], masks[(3, 16)])

    def test_seeded_masks_independent_of_shape_order(self):
        first = StuckAtFaultModel(stuck_fraction=0.3, seed=7)
        second = StuckAtFaultModel(stuck_fraction=0.3, seed=7)
        big = np.zeros((8, 16), dtype=np.uint8)
        small = np.zeros((3, 16), dtype=np.uint8)
        # Opposite encounter order must give the same per-shape masks.
        first_big, first_small = first.corrupt(big, None), first.corrupt(small, None)
        second_small, second_big = second.corrupt(small, None), second.corrupt(big, None)
        assert np.array_equal(first_big, second_big)
        assert np.array_equal(first_small, second_small)

    def test_seed_and_rng_are_mutually_exclusive(self):
        with pytest.raises(ChipConfigurationError):
            StuckAtFaultModel(0.1, rng=np.random.default_rng(0), seed=1)


class TestFaultModelsThroughBatchedEngine:
    @pytest.fixture
    def overlay(self):
        return CompositeInjector(
            [
                FaultModelInjector(TransientFaultModel(0.02)),
                FaultModelInjector(StuckAtFaultModel(0.05, stuck_value=1, seed=3)),
            ]
        )

    def test_overlay_differential_equal_across_backends(self, overlay):
        code = hamming_code(16)
        results = {}
        for backend in BACKENDS:
            simulator = EinsimSimulator(code, seed=11, backend=backend)
            results[backend] = simulator.simulate(
                [0] * 16, 2000, overlay, batch_size=512
            )
        reference, packed = results["reference"], results["packed"]
        assert np.array_equal(
            reference.post_correction_error_counts,
            packed.post_correction_error_counts,
        )
        assert np.array_equal(
            reference.pre_correction_error_counts,
            packed.pre_correction_error_counts,
        )
        assert reference.uncorrectable_words == packed.uncorrectable_words
        assert reference.miscorrected_words == packed.miscorrected_words
        assert (
            reference.miscorrection_positions == packed.miscorrection_positions
        )

    def test_overlay_injects_both_mechanisms(self, overlay):
        code = hamming_code(16)
        simulator = EinsimSimulator(code, seed=5, backend="packed")
        result = simulator.simulate([0] * 16, 2000, overlay, batch_size=512)
        # Stuck-at-1 cells over an all-zero codeword plus transient flips
        # must inject noticeably more errors than either mechanism alone.
        assert result.pre_correction_error_counts.sum() > 0
        assert result.uncorrectable_words > 0

    def test_stuck_at_consistent_with_stored_value(self):
        # Stuck-at-0 cells never show errors when the stored bits are 0.
        injector = FaultModelInjector(StuckAtFaultModel(0.5, stuck_value=0, seed=1))
        stored = np.zeros((100, 16), dtype=np.uint8)
        mask = injector.error_mask(stored, np.random.default_rng(0))
        assert not mask.any()
        stored_ones = np.ones((100, 16), dtype=np.uint8)
        mask = injector.error_mask(stored_ones, np.random.default_rng(0))
        assert mask.mean() == pytest.approx(0.5, abs=0.05)


class TestChipLevelFaultsAcrossBackends:
    def test_transient_faults_on_chip_reads_backend_invariant(self):
        observed = {}
        for backend in BACKENDS:
            chip = SimulatedDramChip(
                code=hamming_code(8),
                geometry=ChipGeometry(num_rows=8, words_per_row=4),
                retention_model=DataRetentionModel(
                    RetentionCalibration(1.0, 0.02, 60.0, 0.5)
                ),
                transient_faults=TransientFaultModel(0.01),
                seed=9,
                backend=backend,
            )
            chip.fill([1] * 8)
            chip.pause_refresh(60.0, 80.0)
            observed[backend] = chip.read_all_datawords()
        assert np.array_equal(observed["reference"], observed["packed"])
