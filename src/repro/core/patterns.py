"""k-CHARGED test patterns.

BEER writes *k-CHARGED* patterns: datawords in which exactly ``k`` data bits
are placed in the CHARGED state and every other data bit is DISCHARGED
(Section 4.2.3).  Because data-retention errors only discharge CHARGED cells,
the pattern pins down exactly which pre-correction errors can occur, and any
post-correction error observed in a DISCHARGED data bit is unambiguously a
miscorrection.

A :class:`ChargedPattern` is defined in terms of charge states rather than
data values so that it translates correctly to both true-cell and anti-cell
regions.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, List, Sequence

import numpy as np

from repro.exceptions import ProfileError
from repro.gf2.bits import as_bits
from repro.predicates import is_integer
from repro.dram.cell import CellType


class ChargedPattern:
    """A dataword test pattern expressed as the set of CHARGED data bits.

    The dataword length and every CHARGED bit must be a Python or numpy int;
    a float (even ``1.0``), bool or string raises
    :class:`~repro.exceptions.ProfileError` rather than being truncated.
    """

    __slots__ = ("_num_data_bits", "_charged_bits")

    def __init__(self, num_data_bits: int, charged_bits: Iterable[int]):
        if not is_integer(num_data_bits) or num_data_bits < 1:
            raise ProfileError(
                f"a pattern needs a positive integer dataword length, got {num_data_bits!r}"
            )
        bits = list(charged_bits)
        for bit in bits:
            if not is_integer(bit):
                raise ProfileError(f"charged bit {bit!r} is not an integer")
        charged = frozenset(int(b) for b in bits)
        for bit in sorted(charged):
            if not 0 <= bit < num_data_bits:
                raise ProfileError(
                    f"charged bit {bit} out of range for a {num_data_bits}-bit dataword"
                )
        self._num_data_bits = int(num_data_bits)
        self._charged_bits = charged

    # -- accessors ---------------------------------------------------------
    @property
    def num_data_bits(self) -> int:
        """Dataword length the pattern applies to."""
        return self._num_data_bits

    @property
    def charged_bits(self) -> FrozenSet[int]:
        """Indices of the data bits placed in the CHARGED state."""
        return self._charged_bits

    @property
    def discharged_bits(self) -> FrozenSet[int]:
        """Indices of the data bits placed in the DISCHARGED state."""
        return frozenset(range(self._num_data_bits)) - self._charged_bits

    @property
    def weight(self) -> int:
        """Number of CHARGED data bits (the ``k`` in k-CHARGED)."""
        return len(self._charged_bits)

    # -- conversion to data values ------------------------------------------
    def dataword(self, cell_type: CellType = CellType.TRUE_CELL) -> np.ndarray:
        """Return the 0/1 dataword that realises this charge pattern for ``cell_type``.

        True-cells store 1 when CHARGED, anti-cells store 0 when CHARGED.
        """
        bits = np.zeros(self._num_data_bits, dtype=np.uint8)
        bits[sorted(self._charged_bits)] = 1
        return bits if cell_type is CellType.TRUE_CELL else bits ^ 1

    @classmethod
    def from_dataword(
        cls, dataword, cell_type: CellType = CellType.TRUE_CELL
    ) -> "ChargedPattern":
        """Recover the charge pattern realised by ``dataword`` under ``cell_type``.

        ``dataword`` is a 1-D array-like of 0s and 1s; any other value raises
        :class:`~repro.exceptions.ValidationError`.
        """
        word = as_bits(dataword, np.size(dataword), "dataword")
        charged_value = 1 if cell_type is CellType.TRUE_CELL else 0
        return cls(word.size, np.flatnonzero(word == charged_value).tolist())

    # -- protocol methods ---------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, ChargedPattern):
            return NotImplemented
        return (
            self._num_data_bits == other._num_data_bits
            and self._charged_bits == other._charged_bits
        )

    def __hash__(self) -> int:
        return hash((self._num_data_bits, self._charged_bits))

    def __repr__(self) -> str:
        charged = ",".join(str(b) for b in sorted(self._charged_bits))
        return f"ChargedPattern(k={self._num_data_bits}, charged=[{charged}])"


def charged_bit_table(patterns: Sequence[ChargedPattern], num_data_bits: int) -> np.ndarray:
    """The ``(len(patterns), num_data_bits)`` ``uint8`` table of the CHARGED bits.

    Row ``p`` is 1 exactly at ``patterns[p]``'s CHARGED bits, that is
    ``patterns[p].dataword(CellType.TRUE_CELL)``, set in one scatter.
    """
    table = np.zeros((len(patterns), num_data_bits), dtype=np.uint8)
    table[
        np.repeat(np.arange(len(patterns)), [pattern.weight for pattern in patterns]),
        [bit for pattern in patterns for bit in pattern.charged_bits],
    ] = 1
    return table


def one_charged_patterns(num_data_bits: int) -> List[ChargedPattern]:
    """Return all ``k`` 1-CHARGED patterns for a ``k``-bit dataword."""
    return list(charged_patterns(num_data_bits, [1]))


def charged_patterns(
    num_data_bits: int, weights: Sequence[int]
) -> Iterator[ChargedPattern]:
    """Yield every pattern whose CHARGED-bit count is in ``weights``.

    For example ``weights=[1, 2]`` yields the {1,2}-CHARGED pattern set the
    paper shows is sufficient to uniquely identify shortened codes.
    """
    for weight in weights:
        if weight < 0 or weight > num_data_bits:
            raise ProfileError(
                f"pattern weight {weight} impossible for a {num_data_bits}-bit dataword"
            )
    for weight in weights:
        for combination in itertools.combinations(range(num_data_bits), weight):
            yield ChargedPattern(num_data_bits, combination)


def pattern_count(num_data_bits: int, weights: Sequence[int]) -> int:
    """Return the number of patterns ``charged_patterns`` would yield."""
    import math

    total = 0
    for weight in weights:
        if weight < 0 or weight > num_data_bits:
            raise ProfileError(
                f"pattern weight {weight} impossible for a {num_data_bits}-bit dataword"
            )
        total += math.comb(num_data_bits, weight)
    return total
