"""Data generators for every table and figure in the paper's evaluation.

The generators are deliberately parameterised (code sizes, word counts, trial
counts) so that the benchmark suite can run them at laptop-friendly scales
while examples and ad-hoc studies can crank the parameters up.  Each function
documents which paper artefact it reproduces and what the expected *shape* of
the result is; the bench workloads record the measured outcomes in
``benchmarks/baselines/``.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.gf2.bits import int_to_bits
from repro.ecc import SystematicLinearCode, example_7_4_code, random_hamming_code
from repro.ecc.hamming import min_parity_bits
from repro.dram import ChipGeometry, DataRetentionModel, VENDOR_A, VENDOR_B, VENDOR_C
from repro.dram.retention import FAST_RETENTION
from repro.einsim import (
    EinsimSimulator,
    UniformRandomInjector,
    bootstrap_confidence_interval,
    relative_probabilities,
)
from repro.core import (
    BeerExperiment,
    BeerSolver,
    ExperimentConfig,
    charged_patterns,
    expected_miscorrection_profile,
    one_charged_patterns,
)
from repro.core.beep import BeepProfiler, SimulatedWordUnderTest


# ---------------------------------------------------------------------------
# Figure 1 — per-bit post-correction error probability for different functions
# ---------------------------------------------------------------------------
def figure1_error_probability_data(
    num_data_bits: int = 32,
    num_functions: int = 3,
    bit_error_rate: float = 1e-4,
    num_words: int = 200_000,
    num_bootstrap: int = 200,
    seed: int = 0,
) -> Dict:
    """Reproduce Figure 1: relative per-bit post-correction error probability.

    Uniform-random pre-correction errors at ``bit_error_rate`` are pushed
    through ``num_functions`` different SEC Hamming functions of the same
    (n, k); the paper's point is that the post-correction distributions differ
    between functions even though the pre-correction distribution is flat.
    """
    rng = np.random.default_rng(seed)
    injector = UniformRandomInjector(bit_error_rate)
    dataword = np.ones(num_data_bits, dtype=np.uint8)

    functions = [
        random_hamming_code(num_data_bits, rng=rng) for _ in range(num_functions)
    ]
    per_function = []
    for index, code in enumerate(functions):
        simulator = EinsimSimulator(code, seed=seed + index + 1)
        result = simulator.simulate(dataword, num_words, injector)
        counts = result.post_correction_error_counts.astype(float)
        relative = relative_probabilities(counts)
        intervals = [
            bootstrap_confidence_interval(
                _bernoulli_samples(counts[bit], num_words, rng),
                statistic=np.mean,
                num_resamples=num_bootstrap,
                rng=rng,
            )
            if counts[bit] > 0
            else None
            for bit in range(num_data_bits)
        ]
        per_function.append(
            {
                "function_index": index,
                "parity_columns": list(code.parity_column_ints),
                "relative_error_probability": relative.tolist(),
                "confidence_intervals": intervals,
            }
        )

    pre_correction = np.full(num_data_bits, 1.0 / num_data_bits)
    return {
        "num_data_bits": num_data_bits,
        "bit_error_rate": bit_error_rate,
        "num_words": num_words,
        "pre_correction_relative_probability": pre_correction.tolist(),
        "post_correction": per_function,
    }


def _bernoulli_samples(successes: float, trials: int, rng: np.random.Generator) -> np.ndarray:
    """A compact 0/1 sample vector with the observed success count (for bootstrap)."""
    del rng
    sample_size = min(trials, 2000)
    count = int(round(successes * sample_size / trials))
    samples = np.zeros(sample_size)
    samples[:count] = 1.0
    return samples


# ---------------------------------------------------------------------------
# Table 1 — error patterns / syndromes / outcomes for the Equation 3 codeword
# ---------------------------------------------------------------------------
def table1_outcome_data(
    code: Optional[SystematicLinearCode] = None,
    charged_positions: Sequence[int] = (2, 5, 6),
) -> List[Dict]:
    """Reproduce Table 1: all retention-error patterns of one stored codeword.

    ``charged_positions`` are the CHARGED codeword cells (the paper's
    Equation 3 example charges data bit 2 and parity bits 5 and 6).  For every
    subset of CHARGED cells that may fail, the entry lists the syndrome (as a
    combination of parity-check columns) and the decode outcome.
    """
    ecc = code if code is not None else example_7_4_code()
    rows = []
    for subset_size in range(len(charged_positions) + 1):
        for subset in itertools.combinations(sorted(charged_positions), subset_size):
            syndrome = ecc.syndrome_of_error_positions(subset)
            syndrome_position = ecc.syndrome_to_position(syndrome)
            if not subset:
                outcome = "no error"
            elif len(subset) == 1:
                outcome = "correctable"
            else:
                outcome = "uncorrectable"
            rows.append(
                {
                    "error_positions": list(subset),
                    "syndrome": int_to_bits(syndrome, ecc.num_parity_bits).tolist(),
                    "syndrome_column_combination": [f"H*,{p}" for p in subset],
                    "syndrome_points_to": syndrome_position,
                    "outcome": outcome,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — miscorrection profile of the Equation 1 example code
# ---------------------------------------------------------------------------
def table2_miscorrection_profile_data(
    code: Optional[SystematicLinearCode] = None,
) -> List[Dict]:
    """Reproduce Table 2: possible miscorrections per 1-CHARGED pattern."""
    ecc = code if code is not None else example_7_4_code()
    rows = []
    for pattern in one_charged_patterns(ecc.num_data_bits):
        (charged_bit,) = tuple(pattern.charged_bits)
        from repro.core import miscorrections_possible

        possible = miscorrections_possible(ecc, pattern)
        cells = []
        for bit in range(ecc.num_data_bits):
            if bit == charged_bit:
                cells.append("?")
            elif bit in possible:
                cells.append("1")
            else:
                cells.append("-")
        rows.append(
            {
                "pattern_id": charged_bit,
                "charged_bit": charged_bit,
                "possible_miscorrections": sorted(possible),
                "row_cells": cells,
            }
        )
    return sorted(rows, key=lambda row: -row["pattern_id"])


# ---------------------------------------------------------------------------
# Figure 3 — per-bit error maps per manufacturer
# ---------------------------------------------------------------------------
def figure3_manufacturer_profile_data(
    num_data_bits: int = 16,
    geometry: Optional[ChipGeometry] = None,
    refresh_windows_s: Sequence[float] = (30.0, 45.0, 60.0),
    rounds_per_window: int = 6,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Reproduce Figure 3: 1-CHARGED error maps for one chip per manufacturer.

    Returns, per vendor, a (num_patterns x num_data_bits) matrix of observed
    post-correction error counts plus the ground-truth and recovered parity
    columns.  The expected shape: the three maps differ (different ECC
    functions), vendor A's looks unstructured while B's and C's show regular
    patterns.
    """
    chip_geometry = geometry if geometry is not None else ChipGeometry(32, 8)
    results: Dict[str, Dict] = {}
    for vendor in (VENDOR_A, VENDOR_B, VENDOR_C):
        chip = vendor.make_chip(
            num_data_bits=num_data_bits,
            geometry=chip_geometry,
            seed=seed,
            retention_model=DataRetentionModel(FAST_RETENTION),
        )
        config = ExperimentConfig(
            pattern_weights=(1,),
            refresh_windows_s=tuple(refresh_windows_s),
            rounds_per_window=rounds_per_window,
            threshold=0.0,
            discover_cell_encoding=vendor is VENDOR_C,
            discovery_pause_s=max(refresh_windows_s),
        )
        experiment = BeerExperiment(chip, config)
        cell_types = experiment.discover_cell_types() if config.discover_cell_encoding else {}
        counts = experiment.measure_counts(cell_types if cell_types else None)
        matrix = np.zeros((num_data_bits, num_data_bits), dtype=np.int64)
        for pattern in counts.patterns:
            (charged_bit,) = tuple(pattern.charged_bits)
            matrix[charged_bit] = counts.counts_for(pattern)
        results[vendor.name] = {
            "error_count_matrix": matrix,
            "ground_truth_columns": list(chip.code.parity_column_ints),
            "num_words_per_pattern": {
                str(sorted(p.charged_bits)): counts.words_observed(p) for p in counts.patterns
            },
        }
    return results


# ---------------------------------------------------------------------------
# Figure 4 — threshold filter separating miscorrections from noise
# ---------------------------------------------------------------------------
def figure4_threshold_data(
    num_data_bits: int = 16,
    refresh_windows_s: Sequence[float] = (20.0, 30.0, 40.0, 50.0, 60.0),
    rounds_per_window: int = 4,
    transient_fault_probability: float = 2e-4,
    seed: int = 1,
) -> Dict:
    """Reproduce Figure 4: per-bit miscorrection probability across windows.

    For a vendor-B style chip, every refresh window yields one per-bit
    miscorrection probability estimate (aggregated over all 1-CHARGED
    patterns).  The expected shape: bit positions split into a zero/near-zero
    group and a clearly non-zero group, with a threshold cleanly separating
    the two — which is what makes the threshold filter of Section 5.2 work.
    """
    chip = VENDOR_B.make_chip(
        num_data_bits=num_data_bits,
        geometry=ChipGeometry(32, 8),
        seed=seed,
        retention_model=DataRetentionModel(FAST_RETENTION),
        transient_fault_probability=transient_fault_probability,
    )
    per_window_probabilities = []
    for window in refresh_windows_s:
        config = ExperimentConfig(
            pattern_weights=(1,),
            refresh_windows_s=(window,),
            rounds_per_window=rounds_per_window,
            threshold=0.0,
            discover_cell_encoding=False,
        )
        counts = BeerExperiment(chip, config).measure_counts()
        numerator = np.zeros(num_data_bits)
        denominator = 0
        for pattern in counts.patterns:
            (charged_bit,) = tuple(pattern.charged_bits)
            raw = counts.counts_for(pattern).astype(float)
            raw[charged_bit] = 0.0  # CHARGED-bit errors are ambiguous
            numerator += raw
            denominator += counts.words_observed(pattern)
        per_window_probabilities.append(numerator / max(denominator, 1))

    stacked = np.vstack(per_window_probabilities)
    analytic = expected_miscorrection_profile(
        chip.code, one_charged_patterns(num_data_bits)
    )
    susceptible = set()
    for pattern in analytic.patterns:
        susceptible |= set(analytic.miscorrections(pattern))
    return {
        "refresh_windows_s": list(refresh_windows_s),
        "per_bit_probability_by_window": stacked,
        "per_bit_min": stacked.min(axis=0).tolist(),
        "per_bit_median": np.median(stacked, axis=0).tolist(),
        "per_bit_max": stacked.max(axis=0).tolist(),
        "analytically_susceptible_bits": sorted(susceptible),
        "suggested_threshold": 1e-3,
    }


# ---------------------------------------------------------------------------
# Figure 5 — number of candidate functions per pattern set
# ---------------------------------------------------------------------------
def figure5_uniqueness_data(
    dataword_lengths: Sequence[int] = (4, 6, 8, 11, 16),
    codes_per_length: int = 3,
    pattern_sets: Optional[Dict[str, Tuple[int, ...]]] = None,
    max_solutions: int = 25,
    seed: int = 0,
) -> Dict:
    """Reproduce Figure 5: BEER solution counts for different test-pattern sets.

    For every dataword length and every pattern set (1-, 2-, 3-, and
    {1,2}-CHARGED), random SEC Hamming functions are profiled analytically and
    the BEER solver counts how many candidate functions reproduce the profile.
    Expected shape: the {1,2}-CHARGED set is always unique; single-weight sets
    can be ambiguous for shortened codes; full-length codes (k = 4, 11, ...)
    are unique for every set.
    """
    sets = pattern_sets or {
        "1-CHARGED": (1,),
        "2-CHARGED": (2,),
        "3-CHARGED": (3,),
        "{1,2}-CHARGED": (1, 2),
    }
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[int, Dict[str, float]]] = {name: {} for name in sets}
    for num_data_bits in dataword_lengths:
        codes = [random_hamming_code(num_data_bits, rng=rng) for _ in range(codes_per_length)]
        for set_name, weights in sets.items():
            counts = []
            for code in codes:
                weights_in_range = [w for w in weights if w <= num_data_bits]
                profile = expected_miscorrection_profile(
                    code, list(charged_patterns(num_data_bits, weights_in_range))
                )
                solution = BeerSolver(num_data_bits).solve(
                    profile, max_solutions=max_solutions
                )
                counts.append(solution.num_solutions)
            results[set_name][num_data_bits] = {
                "min": float(np.min(counts)),
                "median": float(np.median(counts)),
                "max": float(np.max(counts)),
            }
    return {
        "dataword_lengths": list(dataword_lengths),
        "codes_per_length": codes_per_length,
        "max_solutions_cap": max_solutions,
        "solution_counts": results,
    }


# ---------------------------------------------------------------------------
# Figure 6 — BEER solver runtime and memory scaling
# ---------------------------------------------------------------------------
def figure6_runtime_data(
    dataword_lengths: Sequence[int] = (4, 8, 16, 32),
    codes_per_length: int = 2,
    pattern_weights: Tuple[int, ...] = (1, 2),
    seed: int = 0,
) -> Dict:
    """Reproduce Figure 6: solver runtime / memory vs dataword length.

    Reports, per dataword length, the time to find the first solution
    ("determine function"), the time for the exhaustive search ("check
    uniqueness"), and the peak additional memory during solving.  Expected
    shape: all three grow with code length, with the uniqueness check
    dominating total runtime — absolute numbers are far below the paper's Z3
    figures because the specialised solver exploits the constraint structure.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for num_data_bits in dataword_lengths:
        determine_times = []
        uniqueness_times = []
        peak_memories = []
        for _ in range(codes_per_length):
            code = random_hamming_code(num_data_bits, rng=rng)
            profile = expected_miscorrection_profile(
                code, list(charged_patterns(num_data_bits, list(pattern_weights)))
            )
            solver = BeerSolver(num_data_bits)

            start = time.perf_counter()
            first = solver.solve(profile, max_solutions=1)
            determine_times.append(time.perf_counter() - start)

            tracemalloc.start()
            start = time.perf_counter()
            exhaustive = solver.solve(profile)
            uniqueness_times.append(time.perf_counter() - start)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_memories.append(peak / (1024.0 * 1024.0))
            assert first.num_solutions >= 1 and exhaustive.num_solutions >= 1
        rows.append(
            {
                "dataword_length": num_data_bits,
                "num_parity_bits": min_parity_bits(num_data_bits),
                "determine_function_seconds": float(np.median(determine_times)),
                "check_uniqueness_seconds": float(np.median(uniqueness_times)),
                "total_seconds": float(
                    np.median(np.array(determine_times) + np.array(uniqueness_times))
                ),
                "peak_memory_mib": float(np.median(peak_memories)),
            }
        )
    return {"pattern_weights": list(pattern_weights), "rows": rows}


# ---------------------------------------------------------------------------
# Figures 8 and 9 — BEEP success rate
# ---------------------------------------------------------------------------
def _beep_success_rate(
    num_data_bits: int,
    num_errors: int,
    num_passes: int,
    per_bit_probability: float,
    codewords: int,
    seed: int,
) -> float:
    code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
    profiler = BeepProfiler(code)
    rng = np.random.default_rng(seed + 1)
    successes = 0
    for trial in range(codewords):
        true_errors = sorted(
            rng.choice(code.codeword_length, size=num_errors, replace=False).tolist()
        )
        word = SimulatedWordUnderTest(
            code,
            true_errors,
            per_bit_probability=per_bit_probability,
            rng=np.random.default_rng(seed + 100 + trial),
        )
        result = profiler.profile(word, num_passes=num_passes)
        if set(result.identified_errors) == set(true_errors):
            successes += 1
    return successes / codewords


def figure8_beep_pass_data(
    codeword_lengths: Sequence[int] = (31, 63, 127),
    error_counts: Sequence[int] = (2, 3, 4, 5),
    passes: Sequence[int] = (1, 2),
    codewords_per_point: int = 20,
    seed: int = 0,
) -> Dict:
    """Reproduce Figure 8: BEEP success rate for 1 vs 2 passes.

    ``codeword_lengths`` are total lengths n (the paper uses 31/63/127/255);
    the corresponding dataword length is n - r.  Expected shape: success rate
    increases with codeword length and with a second pass.
    """
    rows = []
    for codeword_length in codeword_lengths:
        num_data_bits = _data_bits_for_codeword_length(codeword_length)
        for num_errors in error_counts:
            for num_passes in passes:
                rate = _beep_success_rate(
                    num_data_bits,
                    num_errors,
                    num_passes,
                    per_bit_probability=1.0,
                    codewords=codewords_per_point,
                    seed=seed + codeword_length,
                )
                rows.append(
                    {
                        "codeword_length": codeword_length,
                        "dataword_length": num_data_bits,
                        "errors_injected": num_errors,
                        "passes": num_passes,
                        "success_rate": rate,
                    }
                )
    return {"codewords_per_point": codewords_per_point, "rows": rows}


def figure9_beep_probability_data(
    codeword_lengths: Sequence[int] = (31, 63, 127),
    error_counts: Sequence[int] = (2, 3, 4, 5),
    per_bit_probabilities: Sequence[float] = (1.0, 0.75, 0.5, 0.25),
    codewords_per_point: int = 15,
    seed: int = 0,
) -> Dict:
    """Reproduce Figure 9: BEEP success rate vs per-bit error probability.

    Expected shape: success degrades as the per-bit error probability drops,
    and longer codewords are more resilient.
    """
    rows = []
    for codeword_length in codeword_lengths:
        num_data_bits = _data_bits_for_codeword_length(codeword_length)
        for probability in per_bit_probabilities:
            for num_errors in error_counts:
                rate = _beep_success_rate(
                    num_data_bits,
                    num_errors,
                    num_passes=1,
                    per_bit_probability=probability,
                    codewords=codewords_per_point,
                    seed=seed + codeword_length,
                )
                rows.append(
                    {
                        "codeword_length": codeword_length,
                        "dataword_length": num_data_bits,
                        "errors_injected": num_errors,
                        "per_bit_error_probability": probability,
                        "success_rate": rate,
                    }
                )
    return {"codewords_per_point": codewords_per_point, "rows": rows}


def _data_bits_for_codeword_length(codeword_length: int) -> int:
    """Return the dataword length of the SEC code with total length ``n``."""
    num_parity_bits = 2
    while True:
        num_data_bits = codeword_length - num_parity_bits
        if num_data_bits < 1:
            raise ValidationError(f"no SEC code has codeword length {codeword_length}")
        if min_parity_bits(num_data_bits) <= num_parity_bits:
            return num_data_bits
        num_parity_bits += 1
