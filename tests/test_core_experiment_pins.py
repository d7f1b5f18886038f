"""Bit-identity pins of BEER measurement on perfbench's ``beer-recovery`` recipe.

Each case runs ``BeerExperiment.run(solve=False)`` on a fresh 64 x 8-word
k=16 chip with cell-type discovery, {1,2}-CHARGED patterns and 64 rounds in
each of the 30/45/60 s windows, then digests four things: the per-bit counts
of every pattern in pattern order, the words observed per pattern, every
word's final ``inspect_current_codeword`` and the chip's generator state.
The digests were taken when every round was its own write, pause and read
call, so a faster measurement must reproduce the per-round path bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.core import BeerExperiment, ExperimentConfig
from repro.dram import VENDOR_A, VENDOR_B, VENDOR_C, ChipGeometry, DataRetentionModel
from repro.dram.retention import RetentionCalibration

FAST_RETENTION = RetentionCalibration(1.0, 0.02, 60.0, 0.5)
CONFIG = ExperimentConfig(
    pattern_weights=(1, 2),
    refresh_windows_s=(30.0, 45.0, 60.0),
    rounds_per_window=64,
    threshold=0.0,
    discover_cell_encoding=True,
    discovery_pause_s=60.0,
)


def _digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()[:16]


def measurement_digests(chip):
    counts = BeerExperiment(chip, CONFIG).run(solve=False).counts
    keys = [
        ",".join(str(bit) for bit in sorted(pattern.charged_bits)).encode() + b":"
        for pattern in counts.patterns
    ]
    return (
        _digest(
            key + np.asarray(counts.counts_for(pattern), dtype="<i8").tobytes()
            for key, pattern in zip(keys, counts.patterns)
        ),
        _digest(
            key + str(counts.words_observed(pattern)).encode() + b";"
            for key, pattern in zip(keys, counts.patterns)
        ),
        _digest(
            chip.inspect_current_codeword(word).tobytes()
            for word in range(chip.num_words)
        ),
        _digest([repr(chip._rng.bit_generator.state).encode()]),
    )


PINS = {
    # (vendor, chip seed, transient-fault probability): (counts, words
    # observed per pattern, final codewords, generator state)
    ("A", 3, 0.0): (
        "ed9ab7fd8b6ddfd7", "228128cc12dab3f2",
        "23fbcad0df7d72a2", "c077b8ecea4fd761",
    ),
    ("B", 3, 0.0): (
        "e2662dd63d71a0fb", "228128cc12dab3f2",
        "0a8b2efaca80f7a5", "c077b8ecea4fd761",
    ),
    ("C", 3, 0.0): (
        "652288c9e85c3680", "72d85b6815b8d53c",
        "b2565773526a6604", "c077b8ecea4fd761",
    ),
    ("C", 5, 2e-3): (
        "a791aa003ab77fef", "72d85b6815b8d53c",
        "3fbf1df634b2caf3", "d8791cb7e70bd678",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda case: "-".join(map(str, case)))
def test_measurement_reproduces_the_per_round_path(case):
    vendor, seed, probability = case
    chip = {"A": VENDOR_A, "B": VENDOR_B, "C": VENDOR_C}[vendor].make_chip(
        num_data_bits=16,
        geometry=ChipGeometry(64, 8),
        seed=seed,
        transient_fault_probability=probability,
        retention_model=DataRetentionModel(FAST_RETENTION),
    )
    assert measurement_digests(chip) == PINS[case]
