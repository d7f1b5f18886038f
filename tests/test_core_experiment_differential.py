"""Differential tests: the vectorised BEER measurement against the per-word path.

``per_word_measure_counts`` is the measurement ``BeerExperiment`` used before
it worked on whole rounds: one ``ChargedPattern.dataword()`` per word, one
dictionary of observations per round and one ``record_observations`` call per
pattern and round.  Two chips built from the same seed are measured, one by
each path, and everything observable must agree exactly: the patterns and
their order, the per-bit counts, the word and DUE tallies, and the final
stored state of every word.
"""

from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.core import BeerExperiment, ExperimentConfig, charged_patterns
from repro.core.layout_re import discover_cell_types
from repro.core.profile import MiscorrectionCounts
from repro.dram import (
    CellType,
    ChipGeometry,
    DataRetentionModel,
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
)
from repro.dram.retention import RetentionCalibration

FAST_RETENTION = DataRetentionModel(RetentionCalibration(1.0, 0.02, 60.0, 0.5))


def per_word_measure_counts(
    chip, config: ExperimentConfig, cell_types: Optional[Dict[int, CellType]] = None
) -> MiscorrectionCounts:
    """The per-word measurement, kept verbatim as the oracle."""
    num_data_bits = chip.num_data_bits
    patterns = list(charged_patterns(num_data_bits, list(config.pattern_weights)))
    counts = MiscorrectionCounts(num_data_bits)
    word_cell_types: List[CellType] = []
    for word_index in range(chip.num_words):
        row = chip.row_of_word(word_index)
        if cell_types is not None and row in cell_types:
            word_cell_types.append(cell_types[row])
        else:
            word_cell_types.append(CellType.TRUE_CELL)
    eligible_words = [
        word_index
        for word_index in range(chip.num_words)
        if word_cell_types[word_index] is CellType.TRUE_CELL
    ]
    assignment_offset = 0
    for window in config.refresh_windows_s:
        for _ in range(config.rounds_per_window):
            assignment = {
                word_index: patterns[(position + assignment_offset) % len(patterns)]
                for position, word_index in enumerate(eligible_words)
            }
            assignment_offset += 1
            indices = sorted(assignment)
            chip.write_datawords(
                indices,
                np.vstack(
                    [
                        assignment[word].dataword(word_cell_types[word])
                        for word in indices
                    ]
                ),
            )
            chip.pause_refresh(window, config.temperature_c)
            observed = chip.read_datawords(indices)
            words_per_pattern: Dict = {}
            errors_per_pattern: Dict = {}
            for row_index, word_index in enumerate(indices):
                pattern = assignment[word_index]
                expected = pattern.dataword(word_cell_types[word_index])
                error_positions = np.flatnonzero(observed[row_index] != expected)
                words_per_pattern[pattern] = words_per_pattern.get(pattern, 0) + 1
                errors_per_pattern.setdefault(pattern, []).extend(
                    int(p) for p in error_positions
                )
            for pattern, words_observed in words_per_pattern.items():
                counts.record_observations(
                    pattern, errors_per_pattern.get(pattern, []), words_observed
                )
    return counts


def assert_identical_campaigns(make_chip, config: ExperimentConfig, discover: bool):
    """Measure two identical chips, one per path, and compare everything."""
    new_chip, old_chip = make_chip(), make_chip()
    experiment = BeerExperiment(new_chip, config)
    new_types = experiment.discover_cell_types() if discover else None
    old_types = (
        discover_cell_types(
            old_chip,
            refresh_pause_s=config.discovery_pause_s,
            temperature_c=config.temperature_c,
        )
        if discover
        else None
    )
    assert new_types == old_types
    new = experiment.measure_counts(new_types)
    old = per_word_measure_counts(old_chip, config, old_types)

    assert new.patterns == old.patterns
    for pattern in old.patterns:
        assert new.counts_for(pattern).tolist() == old.counts_for(pattern).tolist()
        assert new.words_observed(pattern) == old.words_observed(pattern)
        assert new.due_words_observed(pattern) == old.due_words_observed(pattern)
    for word_index in range(old_chip.num_words):
        assert np.array_equal(
            new_chip.inspect_current_codeword(word_index),
            old_chip.inspect_current_codeword(word_index),
        )
    # The rounds produced errors, so the comparison above was not vacuous.
    assert sum(int(old.counts_for(p).sum()) for p in old.patterns) > 0
    return new


def _config(**overrides) -> ExperimentConfig:
    settings = dict(
        pattern_weights=(1, 2),
        refresh_windows_s=(20.0, 40.0, 60.0),
        rounds_per_window=2,
        threshold=0.0,
        discover_cell_encoding=False,
        discovery_pause_s=60.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def _vendor_chip(vendor, num_data_bits, seed, rows=16, words_per_row=8, **kwargs):
    return lambda: vendor.make_chip(
        num_data_bits=num_data_bits,
        geometry=ChipGeometry(num_rows=rows, words_per_row=words_per_row),
        seed=seed,
        retention_model=FAST_RETENTION,
        **kwargs,
    )


@pytest.mark.parametrize("discover", [False, True], ids=["no-discovery", "discovery"])
@pytest.mark.parametrize("num_data_bits", [8, 16])
@pytest.mark.parametrize("vendor", [VENDOR_A, VENDOR_B, VENDOR_C], ids=["A", "B", "C"])
def test_vendor_campaigns_match_the_per_word_path(vendor, num_data_bits, discover):
    assert_identical_campaigns(
        _vendor_chip(vendor, num_data_bits, seed=31 + num_data_bits),
        _config(),
        discover,
    )


@pytest.mark.parametrize("vendor", [VENDOR_A, VENDOR_C], ids=["A", "C"])
def test_transient_faults_draw_the_same_noise(vendor):
    # Every read draws its transient flips from the chip's generator, so the
    # counts only agree if both paths read the same words in the same order.
    assert_identical_campaigns(
        _vendor_chip(vendor, 8, seed=5, transient_fault_probability=2e-3),
        _config(rounds_per_window=3),
        discover=True,
    )


def test_pattern_weights_zero_to_three():
    counts = assert_identical_campaigns(
        _vendor_chip(VENDOR_B, 8, seed=9),
        _config(pattern_weights=(0, 1, 2, 3)),
        discover=False,
    )
    assert len(counts.patterns) == 1 + 8 + 28 + 56


@pytest.mark.parametrize("rounds_per_window", [1, 4, 12])
def test_fewer_eligible_words_than_patterns(rounds_per_window):
    # Vendor C's first 8 rows are true-cells and the next 8 anti-cells, so a
    # 16-row, one-word-per-row chip leaves 8 eligible words for 36 patterns:
    # each round after the first adds one pattern, at the last position, and
    # with 12 rounds per window the rotation wraps around the table.
    counts = assert_identical_campaigns(
        _vendor_chip(VENDOR_C, 8, seed=3, rows=16, words_per_row=1),
        _config(rounds_per_window=rounds_per_window),
        discover=True,
    )
    seen = min(36, 8 + 3 * rounds_per_window - 1)
    assert len(counts.patterns) == seen
