"""Pre-correction error injection models.

Every injector produces, for a batch of stored codewords, a boolean error mask
of the same shape; a set bit means the corresponding cell reads back flipped.
The masks respect each model's physical semantics — in particular the
data-retention injector only ever flips CHARGED cells, mirroring the
unidirectional CHARGED → DISCHARGED decay BEER exploits.

Injectors additionally implement the packed protocol consumed by the fused
simulation backend (:mod:`repro.einsim.fused`):
``error_mask_packed(codeword, num_words, rng)`` returns the same logical
masks as ``error_mask`` on a ``num_words``-fold tiling of ``codeword``, in a
packed :class:`~repro.einsim.fused.PackedErrorBatch` representation that
never materializes the tiled codeword batch:

* coordinates (the word and column of every error, words in order) from
  :class:`UniformRandomInjector`, :class:`DataRetentionInjector`,
  :class:`MixedCellRetentionInjector`, :class:`BurstErrorInjector` and
  :class:`FixedErrorCountInjector` over more than
  :data:`~repro.einsim.fused.SUBSET_WIDTH_LIMIT` candidates, so the kernel
  costs O(errors);
* the coordinates of the boolean mask they draw from
  :class:`PerBitBernoulliInjector` and :class:`RowStripeInjector`, and the
  union of its members' coordinates from :class:`CompositeInjector`;
* subset integers from :class:`FixedErrorCountInjector` over a short
  candidate list (the BEEP weak-cell case).

Injectors without the method (e.g. :class:`FaultModelInjector`, whose fault
models need the stored bits) automatically take the generic fallback, which
draws their mask on a tiled codeword and hands over its coordinates.

The two routes stay bit-identical because both call one sampler with the
same arguments, and that sampler draws in O(errors), not O(bits):

* :func:`bernoulli_positions` serves the injectors that flip every eligible
  cell independently (:class:`UniformRandomInjector`,
  :class:`DataRetentionInjector`, :class:`MixedCellRetentionInjector`).  It
  walks the eligible cells in word-major order by geometric gaps, so a
  batch at a raw bit error rate of 1e-3 draws about one number per error.
* :func:`floyd_subsets` serves :class:`FixedErrorCountInjector`: Floyd's
  algorithm picks each word's ``e``-of-``c`` candidate subset with ``e``
  integer draws.

Changing what a sampler draws changes every seeded result, so it bumps
:data:`SAMPLER_VERSION`, which each einsim sweep cell carries in its
content-addressed configuration.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ChipConfigurationError
from repro.dram.cell import CellType
from repro.dram.faults import validate_probability
from repro.einsim.fused import (
    SUBSET_WIDTH_LIMIT,
    PackedErrorBatch,
    draw_packed_errors,
)

#: Version of the random draws behind the injectors.  Two runs with the same
#: seed agree bit for bit only under the same version; einsim sweep cells
#: record it so a stored result is never served for a different stream.
SAMPLER_VERSION = 2


def bernoulli_positions(size: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the successes among ``size`` iid Bernoulli(``p``) trials.

    The gaps between consecutive successes are geometric, so the draw costs
    O(successes) instead of one uniform per trial.  ``p == 0`` (or no trials)
    draws nothing and leaves ``rng`` untouched.
    """
    if size <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    # A block covering the mean plus four standard deviations nearly always
    # finishes in one pass; more than size + 1 gaps can never be needed.
    expected = size * p
    block = min(size + 1, int(expected + 4.0 * math.sqrt(expected)) + 16)
    blocks = []
    last = -1
    while True:
        gaps = rng.geometric(p, size=block)
        # Tiny p makes rng.geometric return INT64_MAX; one gap past the end
        # already ends the walk, and clipping keeps the cumulative sum from
        # overflowing.
        np.minimum(gaps, size + 1, out=gaps)
        positions = last + np.cumsum(gaps)
        if positions[-1] >= size:
            blocks.append(positions[: np.searchsorted(positions, size)])
            break
        blocks.append(positions)
        last = int(positions[-1])
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def floyd_subsets(
    num_words: int, num_candidates: int, num_errors: int, rng: np.random.Generator
) -> np.ndarray:
    """One uniformly random ``num_errors``-subset of ``range(num_candidates)`` per word.

    Floyd's algorithm, vectorised over words: step ``j`` draws one integer
    in ``[0, j]`` per word and keeps it unless that word already holds it,
    in which case it keeps ``j``.  Returns a ``(num_words, num_errors)``
    array of distinct indices per row.  Choosing every candidate draws
    nothing.
    """
    if num_errors == num_candidates:
        return np.broadcast_to(
            np.arange(num_candidates, dtype=np.int64), (num_words, num_candidates)
        )
    chosen = np.empty((num_words, num_errors), dtype=np.int64)
    for slot, j in enumerate(range(num_candidates - num_errors, num_candidates)):
        draw = rng.integers(0, j + 1, size=num_words)
        taken = (chosen[:, :slot] == draw[:, np.newaxis]).any(axis=1)
        chosen[:, slot] = np.where(taken, j, draw)
    return chosen


class _EligibleCellInjector:
    """Flip each eligible cell independently with probability ``bit_error_rate``.

    Subclasses say which cells are eligible through :meth:`_eligible`, which
    maps stored bits to an eligibility mask of the same shape — a whole
    batch in :meth:`error_mask`, one codeword in :meth:`error_mask_packed`.
    Both then hand :func:`bernoulli_positions` the eligible cells of the
    batch in row-major order, so the two routes draw the same flips.
    """

    def __init__(self, bit_error_rate: float):
        validate_probability(bit_error_rate)
        self._bit_error_rate = bit_error_rate

    @property
    def bit_error_rate(self) -> float:
        """Per-eligible-cell flip probability."""
        return self._bit_error_rate

    def _eligible(self, stored: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean mask of injected errors (eligible cells only)."""
        stored = np.asarray(stored_codewords)
        cells = np.flatnonzero(self._eligible(stored))
        mask = np.zeros(stored.shape, dtype=bool)
        hits = bernoulli_positions(cells.size, self._bit_error_rate, rng)
        mask.reshape(-1)[cells[hits]] = True
        return mask

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same sampler call)."""
        columns = np.flatnonzero(self._eligible(codeword))
        hits = bernoulli_positions(num_words * columns.size, self._bit_error_rate, rng)
        rows, slots = np.divmod(hits, max(columns.size, 1))
        return PackedErrorBatch.from_indices(
            rows, columns[slots], num_words, codeword.shape[0]
        )


class UniformRandomInjector(_EligibleCellInjector):
    """Flip every codeword bit independently with probability ``bit_error_rate``.

    This is the model behind the paper's Figure 1 (uniform-random
    pre-correction errors at a given raw BER).
    """

    def _eligible(self, stored: np.ndarray) -> np.ndarray:
        return np.ones(stored.shape, dtype=bool)


class DataRetentionInjector(_EligibleCellInjector):
    """Flip CHARGED cells only, each with probability ``bit_error_rate``.

    CHARGED-ness is derived from the stored bit and the cell type: true-cells
    are CHARGED when storing 1, anti-cells when storing 0 (paper Section 3.2).
    """

    def __init__(self, bit_error_rate: float, cell_type: CellType = CellType.TRUE_CELL):
        super().__init__(bit_error_rate)
        self._cell_type = cell_type

    @property
    def cell_type(self) -> CellType:
        """Cell convention assumed for every cell in the batch."""
        return self._cell_type

    def _eligible(self, stored: np.ndarray) -> np.ndarray:
        charged_value = 1 if self._cell_type is CellType.TRUE_CELL else 0
        return stored == charged_value


class FixedErrorCountInjector:
    """Inject exactly ``num_errors`` errors per codeword at random positions.

    Optionally the candidate positions can be restricted (e.g. to the cells a
    BEEP experiment knows to be error-prone) and each selected candidate can
    fail only with probability ``per_bit_probability`` (paper Figure 9).
    """

    def __init__(
        self,
        num_errors: int,
        candidate_positions: Optional[Sequence[int]] = None,
        per_bit_probability: float = 1.0,
    ):
        if isinstance(num_errors, bool) or not isinstance(num_errors, numbers.Integral):
            raise ChipConfigurationError(
                f"number of errors must be an integer, got {num_errors!r}"
            )
        if num_errors < 0:
            raise ChipConfigurationError("number of errors cannot be negative")
        validate_probability(per_bit_probability)
        self._num_errors = int(num_errors)
        try:
            self._candidate_positions = (
                None
                if candidate_positions is None
                else [operator.index(position) for position in candidate_positions]
            )
        except TypeError:
            raise ChipConfigurationError(
                f"candidate positions must be integers, got {candidate_positions!r}"
            ) from None
        if self._candidate_positions is not None and len(
            set(self._candidate_positions)
        ) != len(self._candidate_positions):
            # The without-replacement draw (and the flat mask assignment in
            # error_mask) both assume distinct positions.
            raise ChipConfigurationError("candidate positions must be distinct")
        self._per_bit_probability = per_bit_probability

    @property
    def num_errors(self) -> int:
        """Number of error-prone cells chosen per codeword."""
        return self._num_errors

    def _candidates(self, codeword_length: int) -> np.ndarray:
        """The candidate positions, checked against ``codeword_length``."""
        if self._candidate_positions is None:
            candidates = np.arange(codeword_length, dtype=np.int64)
        else:
            for position in self._candidate_positions:
                # A negative position would silently wrap to another bit.
                if not 0 <= position < codeword_length:
                    raise ChipConfigurationError(
                        f"candidate position {position} out of range for "
                        f"codeword length {codeword_length}"
                    )
            candidates = np.asarray(self._candidate_positions, dtype=np.int64)
        if self._num_errors > candidates.size:
            raise ChipConfigurationError(
                f"cannot place {self._num_errors} errors among {candidates.size} candidates"
            )
        return candidates

    def _draw(
        self, num_words: int, num_candidates: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per word, the chosen candidate indices and whether each fires."""
        chosen = floyd_subsets(num_words, num_candidates, self._num_errors, rng)
        fires = rng.random((num_words, self._num_errors)) < self._per_bit_probability
        return chosen, fires

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean mask with up to ``num_errors`` flips per word."""
        stored = np.asarray(stored_codewords)
        num_words, codeword_length = stored.shape
        candidates = self._candidates(codeword_length)
        mask = np.zeros((num_words, codeword_length), dtype=bool)
        if self._num_errors == 0 or num_words == 0:
            return mask
        chosen, fires = self._draw(num_words, candidates.size, rng)
        rows = np.repeat(np.arange(num_words), self._num_errors)
        # Positions within a row are distinct, so the flat fancy assignment
        # writes each (word, bit) pair exactly once.
        mask[rows, candidates[chosen].ravel()] = fires.ravel()
        return mask

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same sampler call).

        Small candidate lists (at most
        :data:`~repro.einsim.fused.SUBSET_WIDTH_LIMIT` positions — the BEEP
        weak-cell case) come back in the subset representation, which the
        fused kernel classifies from a single histogram; larger draws come
        back as the coordinates of the fired candidates.
        """
        codeword_length = codeword.shape[0]
        candidates = self._candidates(codeword_length)
        if self._num_errors == 0 or num_words == 0:
            return PackedErrorBatch.from_indices([], [], num_words, codeword_length)
        chosen, fires = self._draw(num_words, candidates.size, rng)
        if candidates.size <= SUBSET_WIDTH_LIMIT:
            # Row sums via matmul: numpy's ``sum(axis=1)`` over an axis this
            # narrow is several times slower than a matrix-vector product.
            if self._num_errors < candidates.size:
                subsets = np.where(fires, np.int64(1) << chosen, 0) @ np.ones(
                    self._num_errors, dtype=np.int64
                )
            else:
                # ``chosen`` is the identity permutation, so the subset is
                # just the fired candidates weighted by powers of two.
                subsets = fires.astype(np.int64) @ (
                    np.int64(1) << np.arange(candidates.size, dtype=np.int64)
                )
            return PackedErrorBatch.from_subset(candidates, subsets, codeword_length)
        fired = np.flatnonzero(fires)
        return PackedErrorBatch.from_indices(
            fired // self._num_errors,
            np.take(candidates[chosen], fired),
            num_words,
            codeword_length,
        )


class PerBitBernoulliInjector:
    """Flip bit ``i`` of every codeword independently with probability ``p[i]``."""

    def __init__(self, probabilities: Sequence[float]):
        probabilities = np.asarray(list(probabilities), dtype=float)
        if probabilities.ndim != 1:
            raise ChipConfigurationError("per-bit probabilities must be one-dimensional")
        if not ((probabilities >= 0) & (probabilities <= 1)).all():
            # Written so that NaN, which compares False both ways, fails too.
            raise ChipConfigurationError("probabilities must lie in [0, 1]")
        self._probabilities = probabilities

    @property
    def probabilities(self) -> np.ndarray:
        """Per-bit flip probabilities."""
        return self._probabilities.copy()

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean mask of injected errors."""
        stored = np.asarray(stored_codewords)
        if stored.shape[1] != self._probabilities.shape[0]:
            raise ChipConfigurationError(
                f"codeword length {stored.shape[1]} does not match "
                f"{self._probabilities.shape[0]} per-bit probabilities"
            )
        return rng.random(stored.shape) < self._probabilities[np.newaxis, :]

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same draws)."""
        if codeword.shape[0] != self._probabilities.shape[0]:
            raise ChipConfigurationError(
                f"codeword length {codeword.shape[0]} does not match "
                f"{self._probabilities.shape[0]} per-bit probabilities"
            )
        mask = (
            rng.random((num_words, codeword.shape[0]))
            < self._probabilities[np.newaxis, :]
        )
        return PackedErrorBatch.from_mask(mask)


class MixedCellRetentionInjector(_EligibleCellInjector):
    """Data-retention errors on a word mixing true- and anti-cell columns.

    Real chips can interleave true- and anti-cell regions (manufacturer C in
    paper Section 5.1.1).  Each column is assigned a cell convention; only
    CHARGED cells under that convention can decay: true-cell columns flip
    stored 1s, anti-cell columns flip stored 0s.

    Parameters
    ----------
    bit_error_rate:
        Per-CHARGED-cell flip probability.
    anti_cell_columns:
        Codeword columns using the anti-cell convention.  ``None`` assigns
        every odd column to anti-cells (an alternating layout).
    """

    def __init__(
        self,
        bit_error_rate: float,
        anti_cell_columns: Optional[Sequence[int]] = None,
    ):
        super().__init__(bit_error_rate)
        self._anti_cell_columns = (
            None if anti_cell_columns is None else tuple(int(c) for c in anti_cell_columns)
        )

    def anti_cell_mask(self, codeword_length: int) -> np.ndarray:
        """Boolean per-column mask; True marks anti-cell columns."""
        anti = np.zeros(codeword_length, dtype=bool)
        if self._anti_cell_columns is None:
            anti[1::2] = True
        else:
            for column in self._anti_cell_columns:
                if not 0 <= column < codeword_length:
                    raise ChipConfigurationError(
                        f"anti-cell column {column} out of range for "
                        f"codeword length {codeword_length}"
                    )
                anti[column] = True
        return anti

    def _eligible(self, stored: np.ndarray) -> np.ndarray:
        anti = self.anti_cell_mask(stored.shape[-1])
        return np.where(anti, stored == 0, stored == 1)


class BurstErrorInjector:
    """Multi-bit burst errors: a contiguous run of flips within a word.

    Models coupling-style failure modes where one event disturbs several
    physically adjacent cells at once (the paper's Section 7.1.5 extension of
    BEEP beyond single-cell retention faults).  Each word independently
    suffers a burst with probability ``burst_probability``; the burst starts
    at a uniformly random position and each cell inside it flips with
    probability ``bit_flip_probability``.
    """

    def __init__(
        self,
        burst_probability: float,
        burst_length: int,
        bit_flip_probability: float = 1.0,
    ):
        validate_probability(burst_probability)
        validate_probability(bit_flip_probability)
        if burst_length < 1:
            raise ChipConfigurationError("burst length must be at least one bit")
        self._burst_probability = burst_probability
        self._burst_length = int(burst_length)
        self._bit_flip_probability = bit_flip_probability

    @property
    def burst_length(self) -> int:
        """Number of contiguous cells disturbed by one burst."""
        return self._burst_length

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean mask of injected errors."""
        stored = np.asarray(stored_codewords)
        num_words, codeword_length = stored.shape
        length = min(self._burst_length, codeword_length)
        mask = np.zeros((num_words, codeword_length), dtype=bool)
        if num_words == 0:
            return mask
        bursty = rng.random(num_words) < self._burst_probability
        starts = rng.integers(0, codeword_length - length + 1, size=num_words)
        fires = rng.random((num_words, length)) < self._bit_flip_probability
        columns = starts[:, np.newaxis] + np.arange(length)[np.newaxis, :]
        rows = np.repeat(np.arange(num_words), length)
        mask[rows, columns.ravel()] = fires.ravel()
        mask[~bursty] = False
        return mask

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same draws).

        Returns the coordinates of the fired cells of every burst.
        """
        codeword_length = codeword.shape[0]
        length = min(self._burst_length, codeword_length)
        if num_words == 0:
            return PackedErrorBatch.from_indices([], [], 0, codeword_length)
        bursty = rng.random(num_words) < self._burst_probability
        starts = rng.integers(0, codeword_length - length + 1, size=num_words)
        fires = rng.random((num_words, length)) < self._bit_flip_probability
        fires &= bursty[:, np.newaxis]
        rows, offsets = np.divmod(np.flatnonzero(fires), length)
        return PackedErrorBatch.from_indices(
            rows, starts[rows] + offsets, num_words, codeword_length
        )


class RowStripeInjector:
    """RowHammer-like disturbance: victim words see flips on a column stripe.

    Aggressor activity disturbs entire rows, and within a disturbed row the
    vulnerable cells follow the physical column topology — modelled here as a
    periodic stripe (e.g. every other column).  Each word is independently a
    victim with probability ``row_probability``; within a victim word, cells
    on the stripe flip with probability ``bit_flip_probability``.
    """

    def __init__(
        self,
        row_probability: float,
        stripe_period: int = 2,
        stripe_phase: int = 0,
        bit_flip_probability: float = 1.0,
    ):
        validate_probability(row_probability)
        validate_probability(bit_flip_probability)
        if stripe_period < 1:
            raise ChipConfigurationError("stripe period must be at least one column")
        if not 0 <= stripe_phase < stripe_period:
            raise ChipConfigurationError(
                f"stripe phase {stripe_phase} must lie in [0, {stripe_period})"
            )
        self._row_probability = row_probability
        self._stripe_period = int(stripe_period)
        self._stripe_phase = int(stripe_phase)
        self._bit_flip_probability = bit_flip_probability

    def stripe_mask(self, codeword_length: int) -> np.ndarray:
        """Boolean per-column mask; True marks columns on the stripe."""
        return np.arange(codeword_length) % self._stripe_period == self._stripe_phase

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean mask of injected errors."""
        stored = np.asarray(stored_codewords)
        num_words, codeword_length = stored.shape
        victims = rng.random(num_words) < self._row_probability
        stripe = self.stripe_mask(codeword_length)
        fires = rng.random(stored.shape) < self._bit_flip_probability
        return victims[:, np.newaxis] & stripe[np.newaxis, :] & fires

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same draws)."""
        codeword_length = codeword.shape[0]
        victims = rng.random(num_words) < self._row_probability
        stripe = self.stripe_mask(codeword_length)
        mask = rng.random((num_words, codeword_length)) < self._bit_flip_probability
        mask &= victims[:, np.newaxis] & stripe[np.newaxis, :]
        return PackedErrorBatch.from_mask(mask)


class FaultModelInjector:
    """Adapt a :mod:`repro.dram.faults` model into a pre-correction injector.

    The chip-level fault models expose ``corrupt(bits, rng)``; the injector
    protocol wants an error *mask*.  The mask is simply the diff between the
    stored bits and their corrupted read-back, so any chip fault model (e.g.
    :class:`~repro.dram.faults.TransientFaultModel` or
    :class:`~repro.dram.faults.StuckAtFaultModel`) plugs straight into the
    batched simulation engine.
    """

    def __init__(self, fault_model):
        if not hasattr(fault_model, "corrupt"):
            raise ChipConfigurationError(
                "fault model must expose a corrupt(bits, rng) method"
            )
        self._fault_model = fault_model

    @property
    def fault_model(self):
        """The wrapped chip-level fault model."""
        return self._fault_model

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the mask of bits the fault model corrupts on read-back."""
        stored = np.asarray(stored_codewords, dtype=np.uint8)
        return self._fault_model.corrupt(stored, rng) != stored


class CompositeInjector:
    """OR-combination of several injectors (overlaid error mechanisms).

    Masks are drawn in member order from the shared RNG stream, so a
    composite is deterministic for a given seed.  A bit is in error if *any*
    member flips it — matching how independent physical mechanisms combine.
    """

    def __init__(self, injectors: Sequence):
        members = list(injectors)
        if not members:
            raise ChipConfigurationError("composite injector needs at least one member")
        self._injectors = members

    @property
    def injectors(self) -> Sequence:
        """The member injectors, in application order."""
        return tuple(self._injectors)

    def error_mask(self, stored_codewords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the union of every member's error mask."""
        stored = np.asarray(stored_codewords)
        mask = np.zeros(stored.shape, dtype=bool)
        for injector in self._injectors:
            mask |= injector.error_mask(stored, rng)
        return mask

    def error_mask_packed(
        self, codeword: np.ndarray, num_words: int, rng: np.random.Generator
    ) -> PackedErrorBatch:
        """Packed-protocol equivalent of :meth:`error_mask` (same draws).

        Members are drawn in application order from the shared RNG stream —
        the same order as :meth:`error_mask` — and the union of their
        coordinates, sorted by word and column, is the composite's.
        """
        num_bits = codeword.shape[0]
        cells = []
        for injector in self._injectors:
            member = draw_packed_errors(injector, codeword, num_words, rng)
            rows, columns = member.coordinates()
            cells.append(rows * num_bits + columns)
        rows, columns = np.divmod(np.unique(np.concatenate(cells)), num_bits)
        return PackedErrorBatch.from_indices(rows, columns, num_words, num_bits)
