"""Pluggable ECC code families.

The paper develops BEER for the SEC Hamming codes reported in real on-die
ECC, but explicitly frames the formulation as applying to *any* systematic
linear block code (Sections 4.2.1 and 7), and the EINSim simulator it builds
on also models repetition and SEC-DED variants.  This module makes the code
family a first-class, pluggable concept:

* :class:`CodeFamily` — what a family must provide: construction (default and
  random member selection), the column design space BEER searches (consumed by
  both the forward-checking solver in :mod:`repro.core.beer` and the CNF encoding
  in :mod:`repro.core.beer_sat`), and decode semantics (correct-then-detect
  vs. detect-only, which drives the ``DETECTED_UNCORRECTABLE`` / DUE path in
  :mod:`repro.ecc.decoder` and :mod:`repro.einsim.engine`).
* a process-wide registry (:func:`register_family`, :func:`get_family`) with
  four built-in families:

  ==========================  =====================================================
  name                        description
  ==========================  =====================================================
  ``sec-hamming``             single-error-correcting Hamming (weight-≥2 columns)
  ``secded-extended-hamming`` Hsiao-style extended Hamming SEC-DED (odd-weight
                              columns of weight ≥ 3; double errors are detected,
                              never miscorrected)
  ``parity-detect``           single overall parity bit; detect-only (every
                              non-zero syndrome is a DUE, nothing is corrected)
  ``repetition``              each data bit stored ``repetitions`` times;
                              ``repetitions >= 3`` corrects single errors by
                              syndrome decoding (per-bit majority for 3×),
                              ``repetitions == 2`` is duplication-and-detect
  ==========================  =====================================================

Every family constructs :class:`~repro.ecc.code.SystematicLinearCode`
instances in standard form ``H = [P | I]`` and tags them with the family name
and decode policy, so downstream layers (decoder, packed engine, simulator,
scenario sweeps, CLI) dispatch without importing this module.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CodeConstructionError
from repro.ecc.code import SystematicLinearCode


@dataclass(frozen=True)
class ColumnConstraints:
    """Declarative design-space predicates on the data columns of ``P``.

    Consumed by the SAT encoders (:mod:`repro.core.beer_sat` via
    :mod:`repro.sat.encoders`) and, through :meth:`CodeFamily.candidate_columns`,
    by the forward-checking solver, so both BEER backends search exactly the
    same space.

    Attributes
    ----------
    min_weight:
        Minimum Hamming weight of every data column.
    odd_weight:
        Require odd column weight (the Hsiao SEC-DED condition: together with
        the weight-1 identity columns this forces minimum distance 4).
    """

    min_weight: int = 2
    odd_weight: bool = False

    def weight_is_legal(self, weight: int) -> bool:
        """Return True if a column of the given Hamming weight is in the space."""
        if weight < self.min_weight:
            return False
        if self.odd_weight and weight % 2 == 0:
            return False
        return True

    def value_is_legal(self, value: int, num_parity_bits: int) -> bool:
        """Return True if the integer-encoded column lies in the design space."""
        if not 0 <= value < (1 << num_parity_bits):
            return False
        return self.weight_is_legal(value.bit_count())


class CodeFamily(abc.ABC):
    """One pluggable family of systematic linear block codes.

    Subclasses own three things: *construction* of member codes,
    *design-space constraints* for BEER, and *decode semantics* (whether the
    decoder corrects or only detects).
    """

    #: Registry key, e.g. ``"sec-hamming"``.
    name: str = ""
    #: One-line human description.
    description: str = ""
    #: Decode semantics: True = syndrome-correct then detect; False = the
    #: decoder never flips a bit and flags every non-zero syndrome as a DUE.
    corrects: bool = True
    #: True when the family has a searchable per-column design space BEER can
    #: enumerate (a fixed structure like repetition has exactly one member per
    #: dimension, so there is nothing to solve for).
    supports_beer: bool = True

    # -- design space -------------------------------------------------------
    @abc.abstractmethod
    def column_constraints(self) -> ColumnConstraints:
        """The predicates every data column of a member's ``P`` satisfies."""

    def min_parity_bits(self, num_data_bits: int) -> int:
        """Smallest ``r`` for which ``k`` legal, distinct columns exist."""
        if num_data_bits < 1:
            raise CodeConstructionError("a code needs at least one data bit")
        num_parity_bits = 1
        while self.num_candidate_columns(num_parity_bits) < num_data_bits:
            num_parity_bits += 1
        return num_parity_bits

    def candidate_columns(self, num_parity_bits: int) -> List[int]:
        """Every legal data-column value for ``r`` parity bits, ascending.

        This is the per-column design space both BEER backends search.
        Raises :class:`CodeConstructionError` for families without one.
        """
        if not self.supports_beer:
            raise CodeConstructionError(
                f"code family {self.name!r} has a fixed structure and no "
                "searchable column design space"
            )
        constraints = self.column_constraints()
        return [
            value
            for value in range(1, 1 << num_parity_bits)
            if constraints.weight_is_legal(value.bit_count())
        ]

    def num_candidate_columns(self, num_parity_bits: int) -> int:
        """Size of the per-column design space for ``r`` parity bits."""
        constraints = self.column_constraints()
        return sum(
            math.comb(num_parity_bits, weight)
            for weight in range(num_parity_bits + 1)
            if constraints.weight_is_legal(weight)
        )

    def design_space_size(self, num_data_bits: int, num_parity_bits: int) -> int:
        """Number of ordered legal column selections (standard-form matrices)."""
        available = self.num_candidate_columns(num_parity_bits)
        if num_data_bits > available:
            return 0
        return math.perm(available, num_data_bits)

    # -- construction -------------------------------------------------------
    def construct(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> SystematicLinearCode:
        """Build the family's deterministic member for the given dimensions.

        ``columns`` optionally fixes the data-column values explicitly (only
        meaningful for families with a searchable design space; the values
        are validated against the family's constraints).
        """
        if num_parity_bits is None:
            num_parity_bits = self.min_parity_bits(num_data_bits)
        available = self.candidate_columns(num_parity_bits)
        if num_data_bits > len(available):
            raise CodeConstructionError(
                f"k={num_data_bits} does not fit in r={num_parity_bits} parity "
                f"bits for family {self.name!r} (maximum is {len(available)})"
            )
        if columns is None:
            chosen = available[:num_data_bits]
        else:
            chosen = [int(c) for c in columns]
            if len(chosen) != num_data_bits:
                raise CodeConstructionError(
                    f"expected {num_data_bits} columns, got {len(chosen)}"
                )
            self._validate_columns(chosen, num_parity_bits)
        return SystematicLinearCode.from_parity_columns(
            chosen, num_parity_bits, family=self.name,
            detect_only=not self.corrects,
        )

    def random(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SystematicLinearCode:
        """Sample a uniformly random member (ordered legal column subset)."""
        if num_parity_bits is None:
            num_parity_bits = self.min_parity_bits(num_data_bits)
        available = self.candidate_columns(num_parity_bits)
        if num_data_bits > len(available):
            raise CodeConstructionError(
                f"k={num_data_bits} does not fit in r={num_parity_bits} parity "
                f"bits for family {self.name!r} (maximum is {len(available)})"
            )
        generator = rng if rng is not None else np.random.default_rng(0)
        indices = generator.permutation(len(available))[:num_data_bits]
        chosen = [available[int(i)] for i in indices]
        return SystematicLinearCode.from_parity_columns(
            chosen, num_parity_bits, family=self.name,
            detect_only=not self.corrects,
        )

    def is_member(self, code: SystematicLinearCode) -> bool:
        """Structural membership test: every data column satisfies the predicates
        and all columns are distinct."""
        constraints = self.column_constraints()
        columns = code.parity_column_ints
        if len(set(columns)) != len(columns):
            return False
        return all(
            constraints.value_is_legal(value, code.num_parity_bits)
            for value in columns
        )

    # -- internals ----------------------------------------------------------
    def _validate_columns(self, columns: Sequence[int], num_parity_bits: int) -> None:
        constraints = self.column_constraints()
        seen = set()
        for column in columns:
            if not constraints.value_is_legal(column, num_parity_bits):
                raise CodeConstructionError(
                    f"column {column} violates the {self.name!r} design space "
                    f"(min weight {constraints.min_weight}"
                    + (", odd weight" if constraints.odd_weight else "")
                    + f") for r={num_parity_bits}"
                )
            if column in seen:
                raise CodeConstructionError(f"column {column} is duplicated")
            seen.add(column)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SecHammingFamily(CodeFamily):
    """SEC Hamming codes: distinct non-zero columns of weight ≥ 2.

    This is the family assumed throughout the paper; full-length codes use
    all ``2**r - r - 1`` legal columns, shortened codes any ordered subset.
    """

    name = "sec-hamming"
    description = (
        "Single-error-correcting Hamming code (distinct weight->=2 columns); "
        "the paper's assumed on-die ECC."
    )
    corrects = True
    supports_beer = True

    def column_constraints(self) -> ColumnConstraints:
        return ColumnConstraints(min_weight=2, odd_weight=False)


class SecDedExtendedHammingFamily(CodeFamily):
    """Hsiao-style extended-Hamming SEC-DED codes.

    Every column of ``H`` has odd weight: the identity block contributes the
    weight-1 columns, so data columns are distinct odd-weight values of
    weight ≥ 3.  Any XOR of up to three odd-weight columns is non-zero
    (1 or 3 odd vectors sum to an odd-weight vector; 2 distinct columns are
    non-equal), so the minimum distance is 4: single errors are corrected and
    every double error produces an even-weight non-zero syndrome that matches
    no column — a detected-uncorrectable error (DUE) instead of a possible
    miscorrection.  This is the standard-form equivalent of appending the
    overall-parity row/column to a Hamming code.
    """

    name = "secded-extended-hamming"
    description = (
        "Hsiao/extended-Hamming SEC-DED (distinct odd-weight->=3 columns); "
        "corrects single errors, detects all double errors as DUEs."
    )
    corrects = True
    supports_beer = True

    def column_constraints(self) -> ColumnConstraints:
        return ColumnConstraints(min_weight=3, odd_weight=True)


class ParityDetectFamily(CodeFamily):
    """A single overall parity bit: error detection with no correction.

    ``P`` is the ``1 × k`` all-ones row, so the codeword is ``[d | parity]``.
    Every odd-weight error flips the parity check; the decoder never corrects
    (with one parity bit every non-zero syndrome is ambiguous) and reports a
    DUE instead.
    """

    name = "parity-detect"
    description = (
        "Single overall parity bit; detect-only (every non-zero syndrome "
        "is a DUE, nothing is ever corrected)."
    )
    corrects = False
    supports_beer = False

    def column_constraints(self) -> ColumnConstraints:
        return ColumnConstraints(min_weight=1, odd_weight=True)

    def min_parity_bits(self, num_data_bits: int) -> int:
        if num_data_bits < 1:
            raise CodeConstructionError("a code needs at least one data bit")
        return 1

    def construct(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> SystematicLinearCode:
        if columns is not None:
            raise CodeConstructionError(
                "parity-detect has a fixed structure; explicit columns are "
                "not supported"
            )
        if num_parity_bits not in (None, 1):
            raise CodeConstructionError(
                "parity-detect uses exactly one parity bit, got "
                f"{num_parity_bits}"
            )
        return SystematicLinearCode.from_parity_columns(
            [1] * num_data_bits, 1, family=self.name, detect_only=True
        )

    def random(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SystematicLinearCode:
        # One member per dimension — "random" selection is deterministic.
        del rng
        return self.construct(num_data_bits, num_parity_bits)

    def is_member(self, code: SystematicLinearCode) -> bool:
        return code.num_parity_bits == 1 and all(
            value == 1 for value in code.parity_column_ints
        )


class RepetitionFamily(CodeFamily):
    """Per-bit repetition: each data bit is stored ``repetitions`` times.

    In standard form ``P`` stacks ``repetitions - 1`` identity blocks, so the
    codeword is the dataword repeated (``c = [d | d | ... | d]``) and
    ``r = k * (repetitions - 1)``.  With ``repetitions >= 3`` every single
    error has a unique non-zero syndrome and syndrome decoding corrects it
    (for 3× this is exactly per-bit majority voting under a single error);
    with ``repetitions == 2`` (duplication) data and parity columns collide,
    so the decoder is detect-only.
    """

    name = "repetition"
    description = (
        "Each data bit stored N times (default 3); N>=3 corrects single "
        "errors, N=2 is duplication-and-detect."
    )
    corrects = True  # resolved per-code: repetitions == 2 members detect only
    supports_beer = False

    def __init__(self, repetitions: int = 3):
        if repetitions < 2:
            raise CodeConstructionError("repetition needs at least 2 copies")
        self.repetitions = int(repetitions)

    def column_constraints(self) -> ColumnConstraints:
        return ColumnConstraints(min_weight=self.repetitions - 1, odd_weight=False)

    def min_parity_bits(self, num_data_bits: int) -> int:
        if num_data_bits < 1:
            raise CodeConstructionError("a code needs at least one data bit")
        return num_data_bits * (self.repetitions - 1)

    def construct(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> SystematicLinearCode:
        if columns is not None:
            raise CodeConstructionError(
                "repetition has a fixed structure; explicit columns are not "
                "supported"
            )
        repetitions = self.repetitions
        if num_parity_bits is not None:
            if num_parity_bits % num_data_bits != 0 or num_parity_bits < num_data_bits:
                raise CodeConstructionError(
                    f"repetition needs r to be a positive multiple of k; got "
                    f"r={num_parity_bits}, k={num_data_bits}"
                )
            repetitions = num_parity_bits // num_data_bits + 1
        copies = repetitions - 1
        if num_data_bits * copies > SystematicLinearCode.MAX_TABLE_PARITY_BITS:
            raise CodeConstructionError(
                f"a {repetitions}x repetition code over k={num_data_bits} data "
                f"bits needs r={num_data_bits * copies} parity bits, beyond the "
                f"table-decode limit of r <= "
                f"{SystematicLinearCode.MAX_TABLE_PARITY_BITS}; use a smaller "
                "dataword"
            )
        column_values = [
            sum(1 << (block * num_data_bits + j) for block in range(copies))
            for j in range(num_data_bits)
        ]
        return SystematicLinearCode.from_parity_columns(
            column_values,
            num_data_bits * copies,
            family=self.name,
            detect_only=repetitions == 2,
        )

    def random(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SystematicLinearCode:
        # One member per dimension — "random" selection is deterministic.
        del rng
        return self.construct(num_data_bits, num_parity_bits)

    def is_member(self, code: SystematicLinearCode) -> bool:
        if code.num_parity_bits % code.num_data_bits != 0:
            return False
        copies = code.num_parity_bits // code.num_data_bits
        expected = [
            sum(1 << (block * code.num_data_bits + j) for block in range(copies))
            for j in range(code.num_data_bits)
        ]
        return list(code.parity_column_ints) == expected


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, CodeFamily] = {}


def register_family(family: CodeFamily) -> CodeFamily:
    """Register a family instance under its ``name`` (must be unique)."""
    if not family.name:
        raise CodeConstructionError("a code family needs a non-empty name")
    if family.name in _REGISTRY:
        raise CodeConstructionError(
            f"code family {family.name!r} is already registered"
        )
    _REGISTRY[family.name] = family
    return family


def get_family(name: str) -> CodeFamily:
    """Look up a registered family by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CodeConstructionError(
            f"unknown code family {name!r}; registered families: "
            f"{family_names()}"
        ) from None


def family_names() -> List[str]:
    """Names of every registered family, in registration order."""
    return list(_REGISTRY)


def all_families() -> List[CodeFamily]:
    """Every registered family, in registration order."""
    return list(_REGISTRY.values())


register_family(SecHammingFamily())
register_family(SecDedExtendedHammingFamily())
register_family(ParityDetectFamily())
register_family(RepetitionFamily())

#: The built-in family names, in registration order (CLI choices use this).
FAMILY_NAMES: Tuple[str, ...] = tuple(family_names())
