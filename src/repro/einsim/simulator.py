"""Vectorised Monte-Carlo simulation of ECC words (the EINSim role).

The simulator takes a code, a dataword (test pattern), an error injector and a
word count; it encodes, injects pre-correction errors, decodes, and reports
per-bit post-correction error statistics plus the miscorrection bookkeeping
that BEER and BEEP need.

Every Monte-Carlo caller in the library runs through one loop,
:func:`simulate_segments`: :class:`EinsimSimulator`, the chunked
:class:`~repro.core.experiment.MonteCarloCampaign` (in process and in its
pool workers) and the profile helpers of :mod:`repro.core.profile`.  A
*segment* is one ``(dataword, injector, num_words, rng)`` run; the runner
draws each segment's errors from its own generator, in order, in blocks of
``batch_size`` words, through the injector's one packed draw
(:func:`repro.einsim.fused.packed_error_batch`).  The ``reference`` backend
densifies each block's errors and classifies them with the staged uint8
encode → inject → decode loop, the oracle; ``packed`` classifies the packed
masks with the fused kernel of :mod:`repro.einsim.fused`, several short
segments per kernel call.

A segment's dataword is a 1-D array of 0s and 1s (:mod:`repro.gf2.bits`);
every segment's word is checked with :func:`~repro.gf2.bits.as_bits` before
the first draw, so a 2 or a wrong length raises instead of being
simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2.bits import as_bits, fields_equal
from repro.ecc.code import SystematicLinearCode
from repro.einsim.engine import bulk_decode_outcomes, bulk_encode, resolve_backend
from repro.einsim.fused import (
    FusedStats,
    PackedErrorBatch,
    batches_compatible,
    concat_batches,
    get_kernel,
    packed_error_batch,
)

#: Words drawn and classified per block unless a caller says otherwise.
DEFAULT_BATCH_SIZE = 65536


@dataclass(eq=False)
class SimulationResult:
    """Aggregate outcome of simulating many ECC words with one test pattern."""

    #: The dataword that was written to every simulated word (0/1 ``uint8``).
    dataword: np.ndarray
    #: Number of ECC words simulated.
    num_words: int
    #: Per-data-bit count of post-correction errors (length ``k``).
    post_correction_error_counts: np.ndarray
    #: Per-codeword-bit count of injected pre-correction errors (length ``n``).
    pre_correction_error_counts: np.ndarray
    #: Number of words whose injected error pattern was uncorrectable.
    uncorrectable_words: int
    #: Number of words in which the decoder flipped a non-erroneous bit.
    miscorrected_words: int
    #: Data-bit positions where a miscorrection was observed at least once.
    miscorrection_positions: Tuple[int, ...]
    #: Number of words the decoder flagged as detected-uncorrectable (DUE):
    #: non-zero syndrome, nothing flipped.  Always 0 for full-length SEC
    #: codes; the load-bearing signal for SEC-DED and detect-only families.
    detected_words: int = 0

    __eq__ = fields_equal
    __hash__ = None

    @property
    def post_correction_error_probabilities(self) -> np.ndarray:
        """Per-data-bit post-correction error probability."""
        return self.post_correction_error_counts / max(self.num_words, 1)

    @property
    def pre_correction_error_probabilities(self) -> np.ndarray:
        """Per-codeword-bit pre-correction error probability."""
        return self.pre_correction_error_counts / max(self.num_words, 1)

    def merge(self, other: "SimulationResult") -> "SimulationResult":
        """Combine two results for the same dataword (used by chunked runs)."""
        if not np.array_equal(self.dataword, other.dataword):
            raise DimensionError("cannot merge results for different datawords")
        return SimulationResult(
            dataword=self.dataword,
            num_words=self.num_words + other.num_words,
            post_correction_error_counts=(
                self.post_correction_error_counts + other.post_correction_error_counts
            ),
            pre_correction_error_counts=(
                self.pre_correction_error_counts + other.pre_correction_error_counts
            ),
            uncorrectable_words=self.uncorrectable_words + other.uncorrectable_words,
            miscorrected_words=self.miscorrected_words + other.miscorrected_words,
            miscorrection_positions=tuple(
                sorted(
                    set(self.miscorrection_positions)
                    | set(other.miscorrection_positions)
                )
            ),
            detected_words=self.detected_words + other.detected_words,
        )


class EinsimSimulator:
    """Monte-Carlo ECC-word simulator for a fixed code.

    Each :meth:`simulate` call is one segment of :func:`simulate_segments`,
    drawn from the simulator's generator.  ``backend`` selects the
    implementation: ``"packed"`` (the default) classifies packed error masks
    with the fused kernel of :mod:`repro.einsim.fused`; ``"reference"`` runs
    the staged uint8 encode → inject → decode loop, the oracle.  ``"auto"``
    and ``"fused"`` are aliases of ``"packed"``.  Both produce bit-identical
    results for the same seed.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        seed: Optional[int] = None,
        backend: str = "packed",
    ):
        self._code = code
        self._rng = np.random.default_rng(seed)
        self._backend = resolve_backend(backend)

    @property
    def code(self) -> SystematicLinearCode:
        """The code under simulation."""
        return self._code

    @property
    def backend(self) -> str:
        """The GF(2) kernel backend in use."""
        return self._backend

    def simulate(
        self,
        dataword,
        num_words: int,
        injector,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> SimulationResult:
        """Simulate ``num_words`` ECC words storing ``dataword`` with ``injector`` errors."""
        segment = (dataword, injector, num_words, self._rng)
        return simulate_segments(self._code, [segment], self._backend, batch_size)[0]

    def per_bit_error_probability(
        self, dataword, num_words: int, injector
    ) -> np.ndarray:
        """Convenience wrapper returning only per-data-bit error probabilities."""
        return self.simulate(dataword, num_words, injector).post_correction_error_probabilities


#: One run of the simulator: ``(dataword, injector, num_words, rng)``.
Segment = Tuple[Any, Any, int, np.random.Generator]


def simulate_segments(
    code: SystematicLinearCode,
    segments: Sequence[Segment],
    backend: str = "packed",
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[SimulationResult]:
    """Simulate every segment in order; return one result per segment.

    Each segment's errors come from its own generator in blocks of
    ``batch_size`` words, drawn segment after segment, so segments may share
    one generator and a segment's result depends only on its generator's
    state when its turn comes.  Every input is checked before the first
    draw.

    Both backends draw each block through
    :func:`~repro.einsim.fused.packed_error_batch`.  ``reference`` densifies
    the block's errors and classifies them with the staged uint8 loop (tile,
    inject, decode, compare).  ``packed`` classifies the packed masks with the
    fused kernel: a block that fills ``batch_size`` is classified on its
    own; shorter blocks (short segments, the tail of a long one) are
    buffered across segments and classified together, one segmented kernel
    call per ``batch_size`` buffered words.  Classification is per segment
    and deterministic, so both backends return bit-identical results
    (``tests/test_differential_fused.py``).
    """
    if batch_size < 1:
        raise ValidationError(f"batch size must be at least 1, got {batch_size}")
    backend = resolve_backend(backend)
    segments = list(segments)
    for _, _, num_words, _ in segments:
        if num_words < 0:
            raise ValidationError(f"word count must be non-negative, got {num_words}")
    num_data_bits = code.num_data_bits
    datawords = np.array(
        [as_bits(segment[0], num_data_bits, "dataword") for segment in segments],
        dtype=np.uint8,
    ).reshape(len(segments), num_data_bits)
    codewords = bulk_encode(code, datawords, backend)
    stats = [FusedStats.zero(code.codeword_length, num_data_bits) for _ in segments]
    kernel = None if backend == "reference" else get_kernel(code)
    # Short packed blocks, (segment index, masks), awaiting one classify call.
    pending: List[Tuple[int, PackedErrorBatch]] = []
    pending_words = 0

    def classify(entries: List[Tuple[int, PackedErrorBatch]]) -> None:
        assert kernel is not None
        batch = concat_batches([masks for _, masks in entries])
        parts = kernel.classify_segments(batch, [masks.num_words for _, masks in entries])
        for (index, _), part in zip(entries, parts):
            stats[index] = stats[index].merge(part)

    def flush() -> None:
        nonlocal pending_words
        if pending:
            classify(pending)
            pending.clear()
            pending_words = 0

    for index, (codeword, (_, injector, num_words, rng)) in enumerate(
        zip(codewords, segments)
    ):
        remaining = num_words
        while remaining > 0:
            words = min(batch_size, remaining)
            remaining -= words
            if kernel is None:
                part = _staged_stats(code, codeword, injector, words, rng)
                stats[index] = stats[index].merge(part)
                continue
            masks = packed_error_batch(injector, codeword, words, rng)
            if words == batch_size:
                classify([(index, masks)])
                continue
            if pending and not batches_compatible(pending[0][1], masks):
                flush()
            pending.append((index, masks))
            pending_words += words
            if pending_words >= batch_size:
                flush()
    flush()
    return [
        SimulationResult(
            dataword=bits,
            num_words=segment_stats.num_words,
            post_correction_error_counts=segment_stats.post_correction_error_counts,
            pre_correction_error_counts=segment_stats.pre_correction_error_counts,
            uncorrectable_words=segment_stats.uncorrectable_words,
            miscorrected_words=segment_stats.miscorrected_words,
            miscorrection_positions=segment_stats.miscorrection_positions,
            detected_words=segment_stats.detected_words,
        )
        for bits, segment_stats in zip(datawords, stats)
    ]


def _staged_stats(
    code: SystematicLinearCode,
    codeword: np.ndarray,
    injector,
    num_words: int,
    rng: np.random.Generator,
) -> FusedStats:
    """One block through the staged uint8 oracle: tile, inject, decode, compare.

    The errors are the packed backend's draw, densified; everything after
    the draw is independent of the fused kernel.
    """
    num_data_bits = code.num_data_bits
    stored = np.tile(codeword, (num_words, 1))
    mask = np.zeros(stored.shape, dtype=bool)
    mask[packed_error_batch(injector, codeword, num_words, rng).coordinates()] = True
    received = np.bitwise_xor(stored, mask.astype(np.uint8))
    corrected, due = bulk_decode_outcomes(code, received, "reference")
    data_errors = corrected[:, :num_data_bits] != stored[:, :num_data_bits]
    # A correcting family handles exactly one raw error; a detect-only
    # family corrects none, so any injected error is uncorrectable.
    correctable_errors = 0 if code.detect_only else 1
    miscorrection_mask = (corrected != received) & ~mask
    observed = np.flatnonzero(miscorrection_mask[:, :num_data_bits].any(axis=0))
    return FusedStats(
        num_words=num_words,
        pre_correction_error_counts=mask.sum(axis=0, dtype=np.int64),
        post_correction_error_counts=data_errors.sum(axis=0, dtype=np.int64),
        uncorrectable_words=int((mask.sum(axis=1) > correctable_errors).sum()),
        miscorrected_words=int(miscorrection_mask.any(axis=1).sum()),
        detected_words=int(due.sum()),
        miscorrection_positions=tuple(int(i) for i in observed),
    )
