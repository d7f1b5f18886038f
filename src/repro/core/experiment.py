"""End-to-end BEER experimental campaign against a (simulated) DRAM chip.

This module glues the pieces of Section 5 together, treating the chip as a
black box that only supports write / pause-refresh / read:

1. (optionally) discover each row's cell encoding (Section 5.1.1);
2. write every k-CHARGED test pattern to a rotating set of ECC words, sweep
   the refresh window, and record which DISCHARGED data bits exhibit
   post-correction errors (Section 5.1.3);
3. apply the threshold filter to the resulting counts (Section 5.2);
4. run the BEER solver on the miscorrection profile and, if requested, check
   the solution's uniqueness (Section 5.3).
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ChipConfigurationError, ValidationError
from repro.gf2.bits import as_bits, bits_to_int
from repro.dram.cell import CellType
from repro.dram.chip import SimulatedDramChip
from repro.ecc.code import SystematicLinearCode
from repro.einsim.engine import resolve_backend
from repro.einsim.injectors import DataRetentionInjector
from repro.einsim.simulator import SimulationResult, simulate_segments
from repro.obs import TRACER
from repro.predicates import is_integer, is_real
from repro.core.beer import BeerSolution, BeerSolver
from repro.core.layout_re import discover_cell_types
from repro.core.patterns import ChargedPattern, charged_bit_table, charged_patterns
from repro.core.profile import MiscorrectionCounts, MiscorrectionProfile


#: Data bits one ``retention_rounds`` call holds at most; a window's rounds
#: are split at whole rounds.  Perfbench's 512 words of k = 16 run a window's
#: 64 rounds in one call, and a 4,096-word k = 128 chip four rounds per call.
#: The split was tuned when a call with transient faults on drew one
#: ``float64`` per codeword bit at once (18 MB on that chip at this split,
#: 71 MB at ``2**23``).  There (2 vCPUs), four rounds per call measured a
#: third faster than two without transient faults and no slower at
#: p = 2e-3; eight were faster still without faults, but at p = 2e-3 eight
#: or sixteen added 50-85 MB of peak RSS and no speed.  The chip draws those
#: uniforms in blocks of at most ``2**17`` (1 MB), so that memory does not
#: depend on the split; the split has not been retuned since.
_MAX_BITS_PER_CALL = 1 << 21

#: Rounds whose anti-diagonal sums fit ``uint8``: no entry exceeds the
#: number of rounds summed, and ``uint8`` adds run several times faster.
_UINT8_ROUNDS = 255


def tally_by_diagonal(mismatch: np.ndarray, offset: int, num_patterns: int) -> np.ndarray:
    """Sum a rotation's ``(count, W, k)`` bool batch per pattern and bit.

    Entry ``(r, i)`` was written with pattern ``(offset + r + i) %
    num_patterns``, so every entry on the anti-diagonal ``r + i = d`` has
    one pattern: round ``r`` adds its ``W`` rows to the sums of diagonals
    ``r`` to ``r + W - 1``, and diagonal ``d`` is folded into pattern
    ``(offset + d) % num_patterns``.  Returns the ``(num_patterns, k)``
    ``int64`` sums.
    """
    count, width, bits = mismatch.shape
    tallies = np.zeros((num_patterns, bits), dtype=np.int64)
    for first in range(0, count, _UINT8_ROUNDS):
        block = mismatch[first : first + _UINT8_ROUNDS].view(np.uint8)
        sums = np.zeros((len(block) + width - 1, bits), dtype=np.uint8)
        for r, row in enumerate(block):
            sums[r : r + width] += row
        # Fold diagonal d into d % P, then rotate by the block's first pattern.
        whole = len(sums) // num_patterns * num_patterns
        folded = sums[:whole].reshape(-1, num_patterns, bits).sum(axis=0, dtype=np.int64)
        folded[: len(sums) - whole] += sums[whole:]
        tallies += np.roll(folded, (offset + first) % num_patterns, axis=0)
    return tallies


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a BEER campaign (mirroring the paper's experimental sweep)."""

    #: Which k-CHARGED pattern weights to test ({1,2} suffices for shortened codes).
    pattern_weights: Tuple[int, ...] = (1, 2)
    #: Refresh windows (seconds) to sweep; longer windows induce more errors.
    refresh_windows_s: Tuple[float, ...] = (600.0, 1200.0, 1800.0)
    #: Ambient temperature during the refresh pauses.
    temperature_c: float = 80.0
    #: Number of write/pause/read rounds per window; the pattern-to-word
    #: assignment rotates between rounds so each pattern samples fresh cells.
    rounds_per_window: int = 4
    #: Threshold (per-word error probability) separating miscorrections from noise.
    threshold: float = 0.0
    #: Assumed number of parity bits (``None`` = minimum for the dataword length).
    num_parity_bits: Optional[int] = None
    #: Run the cell-type discovery step before the campaign.
    discover_cell_encoding: bool = True
    #: Refresh pause used for the cell-type discovery step.
    discovery_pause_s: float = 1800.0

    def __post_init__(self):
        # A campaign that measures nothing would hand the solver an empty
        # profile, which every code satisfies; a value that would be
        # truncated (2.5 rounds, a True) is never the one that runs.
        rounds = self.rounds_per_window
        if not is_integer(rounds) or rounds < 1:
            raise ValidationError(
                f"rounds_per_window must be a positive integer, got {rounds!r}"
            )
        if not self.refresh_windows_s:
            raise ValidationError("refresh_windows_s must name at least one window")
        for window in self.refresh_windows_s:
            if not is_real(window) or not window >= 0:
                raise ValidationError(
                    f"refresh window {window!r} must be a non-negative number of seconds"
                )
        if not self.pattern_weights:
            raise ValidationError("pattern_weights must name at least one weight")
        for weight in self.pattern_weights:
            if not is_integer(weight):
                raise ValidationError(f"pattern weight {weight!r} must be an integer")
        if not is_real(self.threshold) or not 0 <= self.threshold < 1:
            raise ValidationError(
                f"threshold must be a number in [0, 1), got {self.threshold!r}"
            )


@dataclass
class ExperimentResult:
    """Everything a BEER campaign produces."""

    counts: MiscorrectionCounts
    profile: MiscorrectionProfile
    solution: Optional[BeerSolution]
    cell_types: Dict[int, CellType] = field(default_factory=dict)

    @property
    def recovered_code(self):
        """The uniquely recovered ECC function (raises if not unique)."""
        if self.solution is None:
            raise ChipConfigurationError("the campaign was run with solving disabled")
        return self.solution.code


class BeerExperiment:
    """Runs the BEER methodology against a chip through its public interface."""

    def __init__(self, chip: SimulatedDramChip, config: Optional[ExperimentConfig] = None):
        self._chip = chip
        self._config = config if config is not None else ExperimentConfig()
        if chip.num_data_bits < 2:
            raise ChipConfigurationError("BEER needs at least two data bits per word")

    @property
    def chip(self) -> SimulatedDramChip:
        """The chip under test."""
        return self._chip

    @property
    def config(self) -> ExperimentConfig:
        """The campaign configuration."""
        return self._config

    # -- campaign steps -----------------------------------------------------------
    def discover_cell_types(self) -> Dict[int, CellType]:
        """Step 0: classify each row as true- or anti-cell (Section 5.1.1)."""
        with TRACER.span("beer.discover"):
            return discover_cell_types(
                self._chip,
                refresh_pause_s=self._config.discovery_pause_s,
                temperature_c=self._config.temperature_c,
            )

    def measure_counts(
        self, cell_types: Optional[Dict[int, CellType]] = None
    ) -> MiscorrectionCounts:
        """Steps 1-2: run the pattern/refresh sweep and collect error counts.

        Every round writes one table row per eligible word: in round ``g``
        of the campaign the word at position ``i`` gets pattern
        ``(g + i) % P``, so the assignment rotates by one pattern per round
        and each pattern samples fresh cells.  A window's rounds run as few
        :meth:`~repro.dram.chip.SimulatedDramChip.retention_rounds` calls as
        keep each call within ``2**21`` data bits, split at whole rounds.

        A call of ``count`` rounds from round ``offset`` on, over ``W``
        words, passes only the ``count + W - 1`` table rows its rotation
        uses, ``ext[d] = table[(offset + d) % P]``, with the assignment
        ``r + i``; the chip encodes each of those rows once.  Every ``(r,
        i)`` on the anti-diagonal ``r + i = d`` wrote ``ext[d]``, so the
        answer is compared with a strided ``(count, W, k)`` view of ``ext``
        and the mismatches are tallied by anti-diagonal
        (:func:`tally_by_diagonal`) instead of bit by bit.
        """
        num_data_bits = self._chip.num_data_bits
        patterns = list(charged_patterns(num_data_bits, list(self._config.pattern_weights)))
        # Like the paper's analysis, the campaign profiles the true-cell
        # regions; anti-cell rows would need the mirrored charge translation
        # inside the solver and are simply skipped here.
        words = self._true_cell_words(cell_types)
        if not words.size:
            raise ChipConfigurationError(
                "no true-cell words available for the BEER campaign"
            )
        num_patterns, width = len(patterns), words.size
        # True-cells store 1 in the CHARGED bits.
        table = charged_bit_table(patterns, num_data_bits)
        tallies = np.zeros((num_patterns, num_data_bits), dtype=np.int64)
        rounds_per_window = self._config.rounds_per_window
        rounds_per_call = max(1, _MAX_BITS_PER_CALL // (width * num_data_bits))
        rounds = len(self._config.refresh_windows_s) * rounds_per_window
        with TRACER.span(
            "beer.measure",
            rounds=rounds,
            words_written=rounds * width,
            words_read=rounds * width,
        ):
            offset = 0
            for window in self._config.refresh_windows_s:
                for first in range(0, rounds_per_window, rounds_per_call):
                    count = min(rounds_per_call, rounds_per_window - first)
                    ext = table[(offset + np.arange(count + width - 1)) % num_patterns]
                    observed = self._chip.retention_rounds(
                        words,
                        ext,
                        np.arange(count)[:, np.newaxis] + np.arange(width),
                        window,
                        self._config.temperature_c,
                    )
                    # expected[r, i] = ext[r + i], without a copy.
                    expected = sliding_window_view(ext, width, axis=0).transpose(0, 2, 1)
                    tallies += tally_by_diagonal(observed != expected, offset, num_patterns)
                    offset += count
        # Anti-diagonal d of the rounds x W rectangle of (round, word) pairs
        # holds min(d + 1, rounds + W - 1 - d, rounds, W) words of pattern d % P.
        diagonal = np.arange(rounds + width - 1)
        words_per_diagonal = np.minimum(
            np.minimum(diagonal + 1, diagonal[::-1] + 1), min(rounds, width)
        )
        # Weighted bincounts are float64, exact for these counts.
        words_per_pattern = np.bincount(
            diagonal % num_patterns, words_per_diagonal, minlength=num_patterns
        ).astype(np.int64)
        # The rotation first writes pattern i no later than pattern i + 1, so
        # table order is first-seen order; unwritten patterns stay unregistered.
        return MiscorrectionCounts.from_tallies(
            num_data_bits, patterns, tallies, words_per_pattern
        )

    def run(self, solve: bool = True, max_solutions: Optional[int] = None) -> ExperimentResult:
        """Run the full campaign and (optionally) solve for the ECC function."""
        cell_types: Dict[int, CellType] = {}
        if self._config.discover_cell_encoding:
            cell_types = self.discover_cell_types()
        counts = self.measure_counts(cell_types if cell_types else None)
        with TRACER.span("beer.profile"):
            profile = counts.to_profile(self._config.threshold)
        solution = None
        if solve:
            solver = BeerSolver(self._chip.num_data_bits, self._config.num_parity_bits)
            with TRACER.span("beer.solve") as span:
                solution = solver.solve(profile, max_solutions=max_solutions)
                span.set_attr("nodes", solution.nodes_visited)
                span.set_attr("candidates", solution.num_solutions)
        return ExperimentResult(
            counts=counts, profile=profile, solution=solution, cell_types=cell_types
        )

    # -- helpers --------------------------------------------------------------------
    def _true_cell_words(self, cell_types: Optional[Dict[int, CellType]]) -> np.ndarray:
        """Indices of the words whose row is not known to hold anti-cells."""
        geometry = self._chip.geometry
        eligible_rows = np.ones(geometry.num_rows, dtype=bool)
        for row, cell_type in (cell_types or {}).items():
            if cell_type is not CellType.TRUE_CELL and 0 <= row < geometry.num_rows:
                eligible_rows[row] = False
        return np.flatnonzero(np.repeat(eligible_rows, geometry.words_per_row))


# ---------------------------------------------------------------------------
# Chunked / multiprocessing Monte-Carlo campaign runner
# ---------------------------------------------------------------------------

#: Per-process cache of rebuilt codes so multiprocessing workers do not pay
#: the code-construction cost for every chunk they receive.  Keyed on the
#: full code identity including family tag and decode policy: a detect-only
#: code must never be rebuilt as a correcting one.
_WORKER_CODE_CACHE: Dict[
    Tuple[Tuple[int, ...], int, str, bool], SystematicLinearCode
] = {}


def _worker_code(
    parity_columns: Tuple[int, ...],
    num_parity_bits: int,
    family: str,
    detect_only: bool,
) -> SystematicLinearCode:
    key = (parity_columns, num_parity_bits, family, detect_only)
    if key not in _WORKER_CODE_CACHE:
        _WORKER_CODE_CACHE[key] = SystematicLinearCode.from_parity_columns(
            parity_columns, num_parity_bits, family=family, detect_only=detect_only
        )
    return _WORKER_CODE_CACHE[key]


def _simulate_chunks(task) -> List[SimulationResult]:
    """Simulate a run of campaign chunks (module-level so it pickles cleanly).

    ``task`` is ``(code identity, backend, injector, chunks)``, each chunk a
    ``(dataword bits, words, seed)`` triple.
    """
    identity, backend, injector, chunks = task
    code = _worker_code(*identity)
    segments = [
        (bits, injector, words, np.random.default_rng(seed))
        for bits, words, seed in chunks
    ]
    return simulate_segments(code, segments, backend)


class MonteCarloCampaign:
    """Chunked — and optionally multiprocessing — EINSim campaign runner.

    Splits a large word count into fixed-size chunks, simulates each chunk
    with its own deterministic seed (derived from ``base_seed``, the
    dataword and the chunk index) and merges the per-chunk
    :class:`SimulationResult` objects.  Every chunk is one segment of
    :func:`~repro.einsim.simulator.simulate_segments`: in process, one call
    runs them all; with a pool, each worker runs one contiguous share.  For
    a fixed ``chunk_size`` the result is bit-identical regardless of the
    number of worker processes, and identical across the ``reference`` and
    ``packed`` backends.

    Parameters
    ----------
    code:
        The ECC function under simulation.
    chunk_size:
        Number of ECC words simulated per chunk, each with its own random
        stream.
    processes:
        ``1`` runs every chunk inline; larger values distribute the chunks
        over a :class:`~concurrent.futures.ProcessPoolExecutor`.
    backend:
        ``"packed"`` (the default) runs every chunk through the fused
        pipeline of :mod:`repro.einsim.fused`; ``"reference"`` runs the
        staged uint8 oracle.  ``"auto"`` and ``"fused"`` are aliases of
        ``"packed"``.
    base_seed:
        Root seed for the per-chunk RNG streams.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        chunk_size: int = 65536,
        processes: int = 1,
        backend: str = "packed",
        base_seed: int = 0,
    ):
        if chunk_size < 1:
            raise ChipConfigurationError("chunk size must be at least one word")
        if processes < 1:
            raise ChipConfigurationError("at least one process is required")
        self._code = code
        self._chunk_size = int(chunk_size)
        self._processes = int(processes)
        self._backend = resolve_backend(backend)
        self._base_seed = int(base_seed)

    @property
    def code(self) -> SystematicLinearCode:
        """The code under simulation."""
        return self._code

    @property
    def backend(self) -> str:
        """The GF(2) kernel backend in use."""
        return self._backend

    def simulate(self, dataword, injector, num_words: int) -> SimulationResult:
        """Simulate ``num_words`` ECC words storing ``dataword``, in chunks."""
        results = self.simulate_many([dataword], injector, num_words)
        return results[0]

    def simulate_many(
        self, datawords: Sequence, injector, words_per_dataword: int
    ) -> List[SimulationResult]:
        """Simulate several datawords, ``words_per_dataword`` words each.

        Every (dataword, chunk) pair becomes one segment; with
        ``processes > 1`` each worker simulates one contiguous share of them,
        and the per-dataword results are merged in chunk order.  Chunk RNG streams
        are seeded from (base seed, dataword content, chunk index), so each
        dataword's result is independent of its position in the batch —
        ``simulate_many(ds, ...)[i]`` equals ``simulate(ds[i], ...)``.  The
        flip side: duplicate datawords in one batch receive identical RNG
        streams, not independent samples.
        """
        if words_per_dataword < 1:
            raise ChipConfigurationError("at least one word per dataword is required")
        chunks = []
        boundaries: List[Tuple[int, int]] = []
        for dataword in datawords:
            bits = as_bits(dataword, self._code.num_data_bits, "dataword")
            # LSB-first integer encoding of the dataword, used as seed entropy.
            dataword_value = bits_to_int(bits)
            start = len(chunks)
            for chunk_index, first in enumerate(
                range(0, words_per_dataword, self._chunk_size)
            ):
                words = min(self._chunk_size, words_per_dataword - first)
                # Seeding on (base_seed, dataword content, chunk within that
                # dataword) makes each dataword's result independent of its
                # position in a batch.
                seed = [self._base_seed, dataword_value, chunk_index]
                chunks.append((bits, words, seed))
            boundaries.append((start, len(chunks)))

        identity = (
            tuple(self._code.parity_column_ints),
            self._code.num_parity_bits,
            self._code.family_name,
            self._code.detect_only,
        )
        if self._processes == 1 or len(chunks) <= 1:
            chunk_results = _simulate_chunks(
                (identity, self._backend, injector, chunks)
            )
        else:
            share = -(-len(chunks) // self._processes)
            tasks = [
                (identity, self._backend, injector, chunks[first : first + share])
                for first in range(0, len(chunks), share)
            ]
            with ProcessPoolExecutor(max_workers=self._processes) as pool:
                chunk_results = [
                    result
                    for results in pool.map(_simulate_chunks, tasks)
                    for result in results
                ]

        return [
            functools.reduce(SimulationResult.merge, chunk_results[start:stop])
            for start, stop in boundaries
        ]

    def miscorrection_profile(
        self,
        patterns: Sequence[ChargedPattern],
        bit_error_rate: float,
        words_per_pattern: int,
        cell_type: CellType = CellType.TRUE_CELL,
    ) -> MiscorrectionProfile:
        """Measure a miscorrection profile with chunked data-retention runs.

        Convenience wrapper: simulates every pattern's dataword under a
        data-retention injector, tallies the results into
        :class:`MiscorrectionCounts` and applies the zero-threshold filter,
        exactly like :func:`repro.core.profile.monte_carlo_miscorrection_profile`
        but through the chunked (and optionally parallel) campaign machinery.
        """
        injector = DataRetentionInjector(bit_error_rate, cell_type)
        datawords = [pattern.dataword(cell_type) for pattern in patterns]
        results = self.simulate_many(datawords, injector, words_per_pattern)
        counts = MiscorrectionCounts(self._code.num_data_bits)
        for pattern, result in zip(patterns, results):
            counts.record_tallies(
                pattern,
                result.post_correction_error_counts,
                result.num_words,
                result.detected_words,
            )
        return counts.to_profile()
