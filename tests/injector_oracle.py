"""The dense ``error_mask`` draws, kept as the oracle of the packed draws.

Every injector of :mod:`repro.einsim.injectors` used to implement its error
model twice: this dense draw, a boolean mask over a batch of stored
codewords, and the packed ``error_mask_packed`` draw that both simulation
backends now share.  The functions below are the deleted dense methods,
with ``self`` renamed to ``injector``.  ``tests/test_differential_fused.py``,
``tests/test_einsim_coordinates.py`` and ``tests/test_einsim_samplers.py``
require the packed draw to place the same errors and to leave the generator
in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChipConfigurationError
from repro.einsim.injectors import (
    BurstErrorInjector,
    CompositeInjector,
    FaultModelInjector,
    FixedErrorCountInjector,
    PerBitBernoulliInjector,
    RowStripeInjector,
    _EligibleCellInjector,
    bernoulli_positions,
)


def error_mask(injector, stored_codewords, rng: np.random.Generator) -> np.ndarray:
    """The boolean mask of the errors ``injector`` injects into ``stored_codewords``."""
    for kind, draw in _DRAWS:
        if isinstance(injector, kind):
            return draw(injector, np.asarray(stored_codewords), rng)
    raise TypeError(f"no dense oracle for {type(injector).__name__}")


def _eligible_cells(injector, stored, rng):
    cells = np.flatnonzero(injector._eligible(stored))
    mask = np.zeros(stored.shape, dtype=bool)
    hits = bernoulli_positions(cells.size, injector._bit_error_rate, rng)
    mask.reshape(-1)[cells[hits]] = True
    return mask


def _fixed_error_count(injector, stored, rng):
    num_words, codeword_length = stored.shape
    candidates = injector._candidates(codeword_length)
    mask = np.zeros((num_words, codeword_length), dtype=bool)
    if injector._num_errors == 0 or num_words == 0:
        return mask
    chosen, fires = injector._draw(num_words, candidates.size, rng)
    rows = np.repeat(np.arange(num_words), injector._num_errors)
    # Positions within a row are distinct, so the flat fancy assignment
    # writes each (word, bit) pair exactly once.
    mask[rows, candidates[chosen].ravel()] = fires.ravel()
    return mask


def _per_bit_bernoulli(injector, stored, rng):
    if stored.shape[1] != injector._probabilities.shape[0]:
        raise ChipConfigurationError(
            f"codeword length {stored.shape[1]} does not match "
            f"{injector._probabilities.shape[0]} per-bit probabilities"
        )
    return rng.random(stored.shape) < injector._probabilities[np.newaxis, :]


def _burst(injector, stored, rng):
    num_words, codeword_length = stored.shape
    length = min(injector._burst_length, codeword_length)
    mask = np.zeros((num_words, codeword_length), dtype=bool)
    if num_words == 0:
        return mask
    bursty = rng.random(num_words) < injector._burst_probability
    starts = rng.integers(0, codeword_length - length + 1, size=num_words)
    fires = rng.random((num_words, length)) < injector._bit_flip_probability
    columns = starts[:, np.newaxis] + np.arange(length)[np.newaxis, :]
    rows = np.repeat(np.arange(num_words), length)
    mask[rows, columns.ravel()] = fires.ravel()
    mask[~bursty] = False
    return mask


def _row_stripe(injector, stored, rng):
    num_words, codeword_length = stored.shape
    victims = rng.random(num_words) < injector._row_probability
    stripe = injector.stripe_mask(codeword_length)
    fires = rng.random(stored.shape) < injector._bit_flip_probability
    return victims[:, np.newaxis] & stripe[np.newaxis, :] & fires


def _fault_model(injector, stored, rng):
    stored = np.asarray(stored, dtype=np.uint8)
    return injector.fault_model.corrupt(stored, rng) != stored


def _composite(injector, stored, rng):
    mask = np.zeros(stored.shape, dtype=bool)
    for member in injector.injectors:
        mask |= error_mask(member, stored, rng)
    return mask


_DRAWS = (
    (_EligibleCellInjector, _eligible_cells),
    (FixedErrorCountInjector, _fixed_error_count),
    (PerBitBernoulliInjector, _per_bit_bernoulli),
    (BurstErrorInjector, _burst),
    (RowStripeInjector, _row_stripe),
    (FaultModelInjector, _fault_model),
    (CompositeInjector, _composite),
)


def dense(batch) -> np.ndarray:
    """The boolean ``(num_words, num_bits)`` mask a packed batch describes."""
    mask = np.zeros((batch.num_words, batch.num_bits), dtype=bool)
    mask[batch.coordinates()] = True
    return mask


def packed_mask(injector, stored_codewords, rng: np.random.Generator) -> np.ndarray:
    """The injector's one draw on a batch of identical stored words, densified."""
    stored = np.asarray(stored_codewords)
    assert (stored == stored[:1]).all(), "the draw tiles one codeword"
    return dense(injector.error_mask_packed(stored[0], stored.shape[0], rng))
