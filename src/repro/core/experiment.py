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

from repro.exceptions import ChipConfigurationError
from repro.dram.cell import CellType
from repro.dram.chip import SimulatedDramChip
from repro.ecc.code import SystematicLinearCode
from repro.ecc.hamming import min_parity_bits
from repro.einsim.engine import resolve_backend
from repro.einsim.simulator import EinsimSimulator, SimulationResult
from repro.obs import TRACER
from repro.core.beer import BeerSolution, BeerSolver
from repro.core.layout_re import discover_cell_types
from repro.core.patterns import ChargedPattern, charged_patterns
from repro.core.profile import MiscorrectionCounts, MiscorrectionProfile


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

        Every round writes one table row per eligible word in a single chip
        call: the word at position ``i`` gets pattern ``(i + round) % P``, so
        the assignment rotates by one pattern per round and each pattern
        samples fresh cells.  After the pause, one ``bincount`` over
        ``pattern * k + bit`` tallies every mismatching data bit.
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
        num_patterns = len(patterns)
        table = np.array(
            [pattern.dataword(CellType.TRUE_CELL).to_numpy() for pattern in patterns],
            dtype=np.uint8,
        ).reshape(num_patterns, num_data_bits)
        positions = np.arange(words.size)
        tallies = np.zeros(num_patterns * num_data_bits, dtype=np.int64)
        words_per_pattern = np.zeros(num_patterns, dtype=np.int64)
        schedule = [
            window
            for window in self._config.refresh_windows_s
            for _ in range(self._config.rounds_per_window)
        ]
        words_moved = len(schedule) * words.size
        with TRACER.span(
            "beer.measure",
            rounds=len(schedule),
            words_written=words_moved,
            words_read=words_moved,
        ):
            for offset, window in enumerate(schedule):
                index = (positions + offset) % num_patterns
                expected = table[index]
                self._chip.write_datawords(words, expected)
                self._chip.pause_refresh(window, self._config.temperature_c)
                rows, bits = np.nonzero(self._chip.read_datawords(words) != expected)
                tallies += np.bincount(
                    index[rows] * num_data_bits + bits, minlength=tallies.size
                )
                words_per_pattern += np.bincount(index, minlength=num_patterns)
        # The rotation first writes pattern i no later than pattern i + 1, so
        # table order is first-seen order; unwritten patterns stay unregistered.
        counts = MiscorrectionCounts(num_data_bits)
        for pattern, per_bit, words_observed in zip(
            patterns, tallies.reshape(num_patterns, num_data_bits), words_per_pattern
        ):
            counts.record_tallies(pattern, per_bit, int(words_observed))
        return counts

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
            solver = BeerSolver(
                self._chip.num_data_bits,
                self._config.num_parity_bits
                if self._config.num_parity_bits is not None
                else min_parity_bits(self._chip.num_data_bits),
            )
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
        known = cell_types or {}
        return np.array(
            [
                word_index
                for word_index in range(self._chip.num_words)
                if known.get(self._chip.row_of_word(word_index), CellType.TRUE_CELL)
                is CellType.TRUE_CELL
            ],
            dtype=np.int64,
        )


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


def _run_simulation_chunk(job) -> SimulationResult:
    """Simulate one chunk of ECC words (module-level so it pickles cleanly)."""
    (parity_columns, num_parity_bits, family, detect_only, dataword_bits,
     injector, chunk_words, base_seed, dataword_value, chunk_index, backend) = job
    code = _worker_code(tuple(parity_columns), num_parity_bits, family, detect_only)
    # Seeding on (base_seed, dataword content, chunk within that dataword)
    # makes each dataword's result independent of its position in a batch, so
    # simulate_many(ds)[i] == simulate(ds[i]) for every batch composition.
    simulator = EinsimSimulator(
        code, seed=[base_seed, dataword_value, chunk_index], backend=backend
    )
    return simulator.simulate(np.asarray(dataword_bits, dtype=np.uint8), chunk_words, injector)


#: Inner draw size of the fused chunk runner — must equal the default
#: ``batch_size`` of :meth:`EinsimSimulator.simulate` so the per-chunk RNG
#: streams are consumed in exactly the same blocks as a per-chunk run.
_FUSED_SIM_BATCH = 65536

#: Buffered word count at which the fused chunk runner classifies its
#: accumulated mask batches (one segmented kernel call for many chunks).
_FUSED_FLUSH_WORDS = 1 << 17


def _run_fused_chunks(jobs) -> List[SimulationResult]:
    """Run a packed campaign's chunks with cross-chunk batched classification.

    Each chunk's packed error masks are drawn from that chunk's own RNG
    stream — the same blocks, in the same order, as
    ``EinsimSimulator(backend="packed")`` would draw — but classification is
    deferred: compatible mask batches accumulate until
    :data:`_FUSED_FLUSH_WORDS` words are buffered, then one segmented kernel
    call classifies them all.  Classification is deterministic, so the
    per-chunk results are bit-identical to running every chunk separately
    (and hence to the staged reference oracle).
    """
    from repro.gf2 import GF2Vector
    from repro.einsim.engine import bulk_encode
    from repro.einsim.fused import (
        FusedStats,
        batches_compatible,
        concat_batches,
        get_kernel,
        packed_error_batch,
    )

    if not jobs:
        return []
    parity_columns, num_parity_bits, family, detect_only = jobs[0][:4]
    code = _worker_code(tuple(parity_columns), num_parity_bits, family, detect_only)
    kernel = get_kernel(code)
    stats = [
        FusedStats.zero(code.codeword_length, code.num_data_bits) for _ in jobs
    ]
    datawords: List[np.ndarray] = []
    codeword_cache: Dict[int, np.ndarray] = {}
    pending = []  # [(job_index, PackedErrorBatch)] awaiting one classify call
    pending_words = 0

    def flush() -> None:
        nonlocal pending, pending_words
        if not pending:
            return
        batch = concat_batches([entry for _, entry in pending])
        segments = kernel.classify_segments(
            batch, [entry.num_words for _, entry in pending]
        )
        for (job_index, _), segment in zip(pending, segments):
            stats[job_index] = stats[job_index].merge(segment)
        pending = []
        pending_words = 0

    for job_index, job in enumerate(jobs):
        (_, _, _, _, dataword_bits, injector, chunk_words,
         base_seed, dataword_value, chunk_index, _backend) = job
        bits = np.asarray(dataword_bits, dtype=np.uint8)
        datawords.append(bits)
        codeword = codeword_cache.get(dataword_value)
        if codeword is None:
            codeword = bulk_encode(code, bits.reshape(1, -1), "packed")[0]
            codeword_cache[dataword_value] = codeword
        rng = np.random.default_rng([base_seed, dataword_value, chunk_index])
        remaining = chunk_words
        while remaining > 0:
            draw = min(_FUSED_SIM_BATCH, remaining)
            remaining -= draw
            batch = packed_error_batch(injector, codeword, draw, rng)
            if pending and not batches_compatible(pending[0][1], batch):
                flush()
            pending.append((job_index, batch))
            pending_words += batch.num_words
            if pending_words >= _FUSED_FLUSH_WORDS:
                flush()
    flush()

    return [
        SimulationResult(
            dataword=GF2Vector(datawords[index]),
            num_words=chunk_stats.num_words,
            post_correction_error_counts=chunk_stats.post_correction_error_counts,
            pre_correction_error_counts=chunk_stats.pre_correction_error_counts,
            uncorrectable_words=chunk_stats.uncorrectable_words,
            miscorrected_words=chunk_stats.miscorrected_words,
            miscorrection_positions=chunk_stats.miscorrection_positions,
            detected_words=chunk_stats.detected_words,
        )
        for index, chunk_stats in enumerate(stats)
    ]


class MonteCarloCampaign:
    """Chunked — and optionally multiprocessing — EINSim campaign runner.

    Splits a large word count into fixed-size chunks, simulates each chunk
    with its own deterministic seed (derived from ``base_seed`` and the chunk
    index) and merges the per-chunk :class:`SimulationResult` objects.  For a
    fixed ``chunk_size`` the result is bit-identical regardless of the number
    of worker processes, and identical across the ``reference`` and
    ``packed`` backends (the packed in-process runner additionally batches
    fused classification across chunks — see :func:`_run_fused_chunks`).

    Parameters
    ----------
    code:
        The ECC function under simulation.
    chunk_size:
        Number of ECC words simulated per chunk (also the batch size handed
        to the vectorised kernels).
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

        Every (dataword, chunk) pair becomes one job; jobs are distributed
        over the worker pool (when ``processes > 1``) and the per-dataword
        results are merged in deterministic chunk order.  Chunk RNG streams
        are seeded from (base seed, dataword content, chunk index), so each
        dataword's result is independent of its position in the batch —
        ``simulate_many(ds, ...)[i]`` equals ``simulate(ds[i], ...)``.  The
        flip side: duplicate datawords in one batch receive identical RNG
        streams, not independent samples.
        """
        if words_per_dataword < 1:
            raise ChipConfigurationError("at least one word per dataword is required")
        jobs = []
        boundaries: List[Tuple[int, int]] = []
        parity_columns = tuple(self._code.parity_column_ints)
        num_parity_bits = self._code.num_parity_bits
        family = self._code.family_name
        detect_only = self._code.detect_only
        for dataword in datawords:
            bits = self._dataword_bits(dataword)
            # LSB-first integer encoding of the dataword, used as seed entropy.
            dataword_value = sum(bit << i for i, bit in enumerate(bits))
            start = len(jobs)
            remaining = words_per_dataword
            chunk_index = 0
            while remaining > 0:
                chunk_words = min(self._chunk_size, remaining)
                remaining -= chunk_words
                jobs.append(
                    (parity_columns, num_parity_bits, family, detect_only, bits,
                     injector, chunk_words, self._base_seed, dataword_value,
                     chunk_index, self._backend)
                )
                chunk_index += 1
            boundaries.append((start, len(jobs)))

        if self._processes == 1 or len(jobs) == 1:
            if self._backend != "reference":
                # Same per-chunk RNG streams, but masks from many chunks are
                # classified together in segmented kernel calls.
                chunk_results = _run_fused_chunks(jobs)
            else:
                chunk_results = [_run_simulation_chunk(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=self._processes) as pool:
                chunk_results = list(pool.map(_run_simulation_chunk, jobs))

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
        data-retention injector and records post-correction errors observed
        at DISCHARGED data bits, exactly like
        :func:`repro.core.profile.monte_carlo_miscorrection_profile` but
        through the chunked (and optionally parallel) campaign machinery.
        """
        from repro.einsim.injectors import DataRetentionInjector

        injector = DataRetentionInjector(bit_error_rate, cell_type)
        datawords = [pattern.dataword(cell_type) for pattern in patterns]
        results = self.simulate_many(datawords, injector, words_per_pattern)
        profile = MiscorrectionProfile(self._code.num_data_bits)
        for pattern, result in zip(patterns, results):
            discharged = pattern.discharged_bits
            observed = np.flatnonzero(result.post_correction_error_counts > 0)
            profile.record(
                pattern, [int(b) for b in observed if int(b) in discharged]
            )
        return profile

    def _dataword_bits(self, dataword) -> Tuple[int, ...]:
        from repro.gf2 import GF2Vector

        if isinstance(dataword, GF2Vector):
            return tuple(dataword.to_list())
        bits = np.asarray(dataword, dtype=np.uint8) % 2
        return tuple(int(b) for b in bits)
