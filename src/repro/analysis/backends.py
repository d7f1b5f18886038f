"""Reference-vs-packed GF(2) backend comparison data.

Generates the measurements of the ``gf2-backends`` bench workload: wall-clock
time of the two simulation backends on (a) the bulk-decode microbenchmark the
acceptance criteria target — 10k words of a (136, 128) code — and (b)
fig6-style solver-input generation, i.e. measuring the Monte-Carlo
miscorrection profiles that the BEER solver consumes.  Every timed pair is
also checked for bit-exact output equality, so the numbers can never drift
apart from correctness.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.ecc import random_hamming_code
from repro.einsim.engine import BACKENDS, bulk_decode
from repro.core import MonteCarloCampaign, charged_patterns


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bulk_decode_comparison_data(
    num_words: int = 10_000,
    num_data_bits: int = 128,
    repeats: int = 5,
    seed: int = 0,
) -> Dict:
    """Time ``bulk_decode`` on both backends over one batch of random words.

    With the defaults this is exactly the acceptance microbenchmark: 10k words
    of a (136, 128) SEC Hamming code.  Returns per-backend best-of-``repeats``
    seconds, the speedup, and whether the outputs matched bit for bit.
    """
    rng = np.random.default_rng(seed)
    code = random_hamming_code(num_data_bits, rng=rng)
    received = rng.integers(
        0, 2, size=(num_words, code.codeword_length)
    ).astype(np.uint8)
    # Warm the per-code caches so the timing isolates the decode kernels.
    outputs = {
        backend: bulk_decode(code, received, backend) for backend in BACKENDS
    }
    seconds = {
        backend: _best_of(repeats, lambda b=backend: bulk_decode(code, received, b))
        for backend in BACKENDS
    }
    return {
        "codeword_length": code.codeword_length,
        "num_data_bits": code.num_data_bits,
        "num_words": num_words,
        "repeats": repeats,
        "reference_seconds": seconds["reference"],
        "packed_seconds": seconds["packed"],
        "speedup": seconds["reference"] / max(seconds["packed"], 1e-12),
        "outputs_identical": bool(
            np.array_equal(outputs["reference"], outputs["packed"])
        ),
    }


def solver_input_comparison_data(
    dataword_lengths: Sequence[int] = (8, 16, 32),
    words_per_pattern: int = 2_000,
    bit_error_rate: float = 0.5,
    max_patterns: Optional[int] = 60,
    seed: int = 0,
) -> Dict:
    """Time fig6-style solver-input generation on both backends.

    For each dataword length, a Monte-Carlo miscorrection profile (the BEER
    solver's input) is measured through the chunked campaign runner with the
    reference and the packed backend; the two profiles must be identical.
    """
    rows = []
    for num_data_bits in dataword_lengths:
        code = random_hamming_code(
            num_data_bits, rng=np.random.default_rng(seed + num_data_bits)
        )
        patterns = list(charged_patterns(num_data_bits, [1, 2]))
        if max_patterns is not None:
            patterns = patterns[:max_patterns]
        seconds = {}
        profiles = {}
        for backend in BACKENDS:
            campaign = MonteCarloCampaign(
                code, chunk_size=words_per_pattern, backend=backend, base_seed=seed
            )
            start = time.perf_counter()
            profiles[backend] = campaign.miscorrection_profile(
                patterns, bit_error_rate, words_per_pattern
            )
            seconds[backend] = time.perf_counter() - start
        rows.append(
            {
                "dataword_length": num_data_bits,
                "codeword_length": code.codeword_length,
                "num_patterns": len(patterns),
                "words_per_pattern": words_per_pattern,
                "reference_seconds": seconds["reference"],
                "packed_seconds": seconds["packed"],
                "speedup": seconds["reference"] / max(seconds["packed"], 1e-12),
                "profiles_identical": profiles["reference"] == profiles["packed"],
            }
        )
    return {"rows": rows}


def gf2_backend_comparison_data(
    num_words: int = 10_000,
    num_data_bits: int = 128,
    dataword_lengths: Sequence[int] = (8, 16, 32),
    words_per_pattern: int = 2_000,
    repeats: int = 5,
    seed: int = 0,
) -> Dict:
    """Full backend comparison: bulk-decode microbenchmark + solver inputs."""
    return {
        "bulk_decode": bulk_decode_comparison_data(
            num_words=num_words,
            num_data_bits=num_data_bits,
            repeats=repeats,
            seed=seed,
        ),
        "solver_input": solver_input_comparison_data(
            dataword_lengths=dataword_lengths,
            words_per_pattern=words_per_pattern,
            seed=seed,
        ),
    }
