"""Non-retention fault models.

BEER's miscorrection profiles must be robust to occasional errors that are not
data-retention related — soft errors from particle strikes, variable-retention
-time cells, voltage fluctuations (paper Section 5.2).  These faults are rare
compared with the deliberately induced retention errors, so BEER removes them
with a simple threshold filter.  The models here let the simulated chip inject
exactly that kind of interference so the filtering path can be exercised.
"""

from __future__ import annotations

import numbers
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ChipConfigurationError


def validate_probability(value: float) -> None:
    """Raise :class:`ChipConfigurationError` unless ``value`` is a real in [0, 1].

    The fault models here and the error injectors of
    :mod:`repro.einsim.injectors` check every probability they take with it.
    """
    # bool passes as numbers.Real (it is an Integral), but True is never a
    # probability anyone meant.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ChipConfigurationError(
            f"probability must be a real number, got {value!r}"
        )
    # The chained comparison is False for NaN, so NaN is rejected as well.
    if not 0.0 <= value <= 1.0:
        raise ChipConfigurationError(f"probability {value} must lie in [0, 1]")


class TransientFaultModel:
    """Rare, random, non-repeatable single-bit flips applied at read time.

    Parameters
    ----------
    probability_per_bit:
        Probability that any individual stored bit is flipped during one read
        operation.  The paper's argument is that this rate is orders of
        magnitude below the induced retention error rate (> 1e-7), so the
        default is tiny but non-zero.
    """

    def __init__(self, probability_per_bit: float = 1e-9):
        validate_probability(probability_per_bit)
        self._probability_per_bit = probability_per_bit

    @property
    def probability_per_bit(self) -> float:
        """Per-bit flip probability per read."""
        return self._probability_per_bit

    def corrupt(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a copy of ``bits`` with transient flips applied."""
        bits = np.asarray(bits, dtype=np.uint8)
        if self._probability_per_bit == 0:
            return bits.copy()
        flips = rng.random(bits.shape) < self._probability_per_bit
        return np.bitwise_xor(bits, flips.astype(np.uint8))


class StuckAtFaultModel:
    """Permanently stuck cells (stuck-at-0 / stuck-at-1).

    Stuck-at faults are not part of the BEER methodology itself but are the
    canonical example of "another error mechanism" that BEEP could be extended
    towards (paper Section 7.1.5); they are used in tests to confirm that such
    faults do *not* masquerade as retention behaviour.
    """

    def __init__(
        self,
        stuck_fraction: float = 0.0,
        stuck_value: int = 0,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        validate_probability(stuck_fraction)
        if stuck_value not in (0, 1):
            raise ChipConfigurationError("stuck value must be 0 or 1")
        if rng is not None and seed is not None:
            raise ChipConfigurationError("pass either rng or seed, not both")
        self._stuck_fraction = stuck_fraction
        self._stuck_value = stuck_value
        # ``seed`` derives each shape's mask independently of the order shapes
        # are encountered (and of process boundaries); ``rng`` keeps the
        # legacy sequential-stream behaviour.
        self._seed = seed
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Keyed by batch shape: stuck cells are permanent, so every shape's
        # mask must survive interleaved calls with other shapes.
        self._mask_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    @property
    def stuck_fraction(self) -> float:
        """Fraction of cells that are permanently stuck."""
        return self._stuck_fraction

    def _mask_for_shape(self, shape: Tuple[int, ...]) -> np.ndarray:
        key = tuple(shape)
        if key not in self._mask_cache:
            if self._seed is not None:
                generator = np.random.default_rng([self._seed, *key])
            else:
                generator = self._rng
            self._mask_cache[key] = generator.random(shape) < self._stuck_fraction
        return self._mask_cache[key]

    def corrupt(self, bits: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return a copy of ``bits`` with stuck cells forced to the stuck value."""
        del rng  # stuck-at faults are permanent; the mask is fixed per model
        bits = np.asarray(bits, dtype=np.uint8).copy()
        if self._stuck_fraction == 0:
            return bits
        mask = self._mask_for_shape(bits.shape)
        bits[mask] = self._stuck_value
        return bits
