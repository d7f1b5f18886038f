"""Vectorised Monte-Carlo simulation of ECC words (the EINSim role).

The simulator takes a code, a dataword (test pattern), an error injector and a
word count; it encodes, injects pre-correction errors, decodes, and reports
per-bit post-correction error statistics plus the miscorrection bookkeeping
that BEER and BEEP need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2 import GF2Vector
from repro.ecc.code import SystematicLinearCode
from repro.einsim.engine import bulk_decode_outcomes, bulk_encode, resolve_backend
from repro.einsim.fused import FusedStats, get_kernel, packed_error_batch, traced_draw


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating many ECC words with one test pattern."""

    #: The dataword that was written to every simulated word.
    dataword: GF2Vector
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
        if self.dataword != other.dataword:
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

    ``backend`` selects the implementation: ``"packed"`` (the default) runs
    each round through the fused pipeline of :mod:`repro.einsim.fused`,
    which classifies packed error masks without materializing codeword
    batches; ``"reference"`` runs the staged uint8 encode → inject → decode
    loop, the oracle.  ``"auto"`` and ``"fused"`` are aliases of
    ``"packed"``.  Both produce bit-identical results for the same seed.
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
        batch_size: int = 65536,
    ) -> SimulationResult:
        """Simulate ``num_words`` ECC words storing ``dataword`` with ``injector`` errors."""
        if batch_size < 1:
            raise ValidationError(f"batch size must be at least 1, got {batch_size}")
        if num_words < 0:
            raise ValidationError(f"word count must be non-negative, got {num_words}")
        data_bits = _as_dataword(dataword, self._code.num_data_bits)
        codeword = bulk_encode(self._code, data_bits.reshape(1, -1), self._backend)[0]
        if self._backend != "reference":
            return self._simulate_fused(
                data_bits, codeword, num_words, injector, batch_size
            )
        codeword_length = self._code.codeword_length
        num_data_bits = self._code.num_data_bits

        post_counts = np.zeros(num_data_bits, dtype=np.int64)
        pre_counts = np.zeros(codeword_length, dtype=np.int64)
        uncorrectable = 0
        miscorrected = 0
        detected = 0
        miscorrection_positions: Set[int] = set()

        remaining = num_words
        while remaining > 0:
            batch = min(batch_size, remaining)
            remaining -= batch
            stored = np.tile(codeword, (batch, 1))
            mask = traced_draw(injector.error_mask, stored, self._rng)
            received = np.bitwise_xor(stored, mask.astype(np.uint8))
            corrected, due = bulk_decode_outcomes(self._code, received, self._backend)
            detected += int(due.sum())

            pre_counts += mask.sum(axis=0)
            data_errors = corrected[:, :num_data_bits] != stored[:, :num_data_bits]
            post_counts += data_errors.sum(axis=0)

            error_counts = mask.sum(axis=1)
            # A correcting family handles exactly one raw error; a detect-only
            # family corrects none, so any injected error is uncorrectable.
            correctable_errors = 0 if self._code.detect_only else 1
            uncorrectable += int((error_counts > correctable_errors).sum())

            flipped = corrected != received
            miscorrection_mask = flipped & ~mask
            miscorrected += int(miscorrection_mask.any(axis=1).sum())
            observed = np.flatnonzero(miscorrection_mask[:, :num_data_bits].any(axis=0))
            miscorrection_positions.update(int(i) for i in observed)

        return SimulationResult(
            dataword=GF2Vector(data_bits),
            num_words=num_words,
            post_correction_error_counts=post_counts,
            pre_correction_error_counts=pre_counts,
            uncorrectable_words=uncorrectable,
            miscorrected_words=miscorrected,
            miscorrection_positions=tuple(sorted(miscorrection_positions)),
            detected_words=detected,
        )

    def _simulate_fused(
        self,
        data_bits: np.ndarray,
        codeword: np.ndarray,
        num_words: int,
        injector,
        batch_size: int,
    ) -> SimulationResult:
        """The fused round: inject packed, classify, never tile codewords.

        Bit-identical to the staged loop for any injector and seed — the
        packed injector protocol calls the same sampler as ``error_mask``,
        and the fused kernel computes the same statistics from the masks
        alone (``tests/test_differential_fused.py``).
        """
        kernel = get_kernel(self._code)
        stats = FusedStats.zero(self._code.codeword_length, self._code.num_data_bits)
        remaining = num_words
        while remaining > 0:
            batch = min(batch_size, remaining)
            remaining -= batch
            masks = packed_error_batch(injector, codeword, batch, self._rng)
            stats = stats.merge(kernel.classify(masks))
        return SimulationResult(
            dataword=GF2Vector(data_bits),
            num_words=num_words,
            post_correction_error_counts=stats.post_correction_error_counts,
            pre_correction_error_counts=stats.pre_correction_error_counts,
            uncorrectable_words=stats.uncorrectable_words,
            miscorrected_words=stats.miscorrected_words,
            miscorrection_positions=stats.miscorrection_positions,
            detected_words=stats.detected_words,
        )

    def per_bit_error_probability(
        self, dataword, num_words: int, injector
    ) -> np.ndarray:
        """Convenience wrapper returning only per-data-bit error probabilities."""
        return self.simulate(dataword, num_words, injector).post_correction_error_probabilities


def _as_dataword(dataword, expected_length: int) -> np.ndarray:
    if isinstance(dataword, GF2Vector):
        bits = dataword.to_numpy()
    else:
        bits = np.asarray(dataword, dtype=np.uint8) % 2
    if bits.ndim != 1 or bits.shape[0] != expected_length:
        raise DimensionError(
            f"dataword must have exactly {expected_length} bits, got shape {bits.shape}"
        )
    return bits.astype(np.uint8)
