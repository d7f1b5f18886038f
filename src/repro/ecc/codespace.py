"""Code equivalence, canonical forms, and design-space enumeration.

Because on-die ECC never exposes its parity bits, two codes that differ only
by a relabelling of the parity bits (equivalently: a permutation of the rows
of the standard-form parity submatrix ``P``) are indistinguishable from
outside the chip — they produce identical miscorrection profiles (paper
Sections 4.2.1 and 5.4).  BEER therefore recovers the ECC function *up to
this equivalence*, and solution counting (Figure 5) must be performed on
equivalence classes.

This module provides:

* :func:`canonical_parity_columns` — a canonical representative of a code's
  equivalence class (its parity rows in sorted order, see
  :func:`parity_rows`), used to de-duplicate and compare solver output;
* :func:`codes_equivalent` — the equivalence test itself;
* :func:`enumerate_sec_codes` — exhaustive enumeration of all SEC codes for
  small dimensions (used by tests and small-scale uniqueness studies);
* :func:`design_space_size` — the size of the full design space.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ecc.code import SystematicLinearCode
from repro.ecc.family import get_family


def parity_rows(columns: Sequence[int], num_parity_bits: int) -> List[int]:
    """Return the rows of ``P`` as integers, column 0 in the most significant bit.

    Row ``i`` collects bit ``i`` of every integer-encoded column, so integer
    order on rows is lexicographic order along the data-column order with
    column 0 compared first and ``1 > 0``.
    """
    rows = [0] * num_parity_bits
    for column in columns:
        for row in range(num_parity_bits):
            rows[row] = (rows[row] << 1) | ((column >> row) & 1)
    return rows


def canonical_parity_columns(
    columns: Sequence[int], num_parity_bits: int
) -> Tuple[int, ...]:
    """Return the canonical representative of a column tuple under row permutations.

    The canonical form is the lexicographically smallest tuple obtained by
    applying any permutation of the parity rows to every column
    simultaneously.  Codes are equivalent iff their canonical forms match.

    Minimising column 0 moves its set bits to the lowest rows, ties are
    broken by column 1, and so on: the minimum is the rows of ``P`` sorted in
    non-increasing lexicographic order (see :func:`parity_rows`), which costs
    ``O(rk log r)`` instead of a search over ``r!`` permutations.  It runs at
    every leaf of :class:`~repro.core.beer.BeerSolver` and in every
    :func:`codes_equivalent` check.
    """
    ordered = sorted(parity_rows(columns, num_parity_bits), reverse=True)
    shifts = range(len(columns) - 1, -1, -1)
    return tuple(
        sum(((row >> shift) & 1) << index for index, row in enumerate(ordered))
        for shift in shifts
    )


def canonical_form(code: SystematicLinearCode) -> Tuple[int, ...]:
    """Return the canonical column tuple for a code."""
    return canonical_parity_columns(code.parity_column_ints, code.num_parity_bits)


def codes_equivalent(first: SystematicLinearCode, second: SystematicLinearCode) -> bool:
    """Return True if two codes differ only by a relabelling of parity bits."""
    if first.num_data_bits != second.num_data_bits:
        return False
    if first.num_parity_bits != second.num_parity_bits:
        return False
    return canonical_form(first) == canonical_form(second)


def deduplicate_equivalent(
    codes: Sequence[SystematicLinearCode],
) -> List[SystematicLinearCode]:
    """Return one representative per equivalence class, preserving order."""
    seen = set()
    unique: List[SystematicLinearCode] = []
    for code in codes:
        key = canonical_form(code)
        if key not in seen:
            seen.add(key)
            unique.append(code)
    return unique


def enumerate_sec_codes(
    num_data_bits: int,
    num_parity_bits: int,
    up_to_equivalence: bool = False,
) -> Iterator[SystematicLinearCode]:
    """Yield every standard-form SEC code with the given dimensions.

    With ``up_to_equivalence=True`` only one representative per
    row-permutation equivalence class is yielded.  The enumeration is
    exponential in ``k`` and intended for the small dimensions used in tests
    and exhaustive validation (e.g. ``k <= 6``).
    """
    available = get_family("sec-hamming").candidate_columns(num_parity_bits)
    seen_canonical = set()
    for arrangement in itertools.permutations(available, num_data_bits):
        if up_to_equivalence:
            key = canonical_parity_columns(arrangement, num_parity_bits)
            if key in seen_canonical:
                continue
            seen_canonical.add(key)
        yield SystematicLinearCode.from_parity_columns(arrangement, num_parity_bits)


def design_space_size(num_data_bits: int, num_parity_bits: Optional[int] = None) -> int:
    """Return the number of distinct standard-form SEC functions (ordered columns).

    ``num_parity_bits`` defaults to the minimum for ``num_data_bits``.
    """
    family = get_family("sec-hamming")
    if num_parity_bits is None:
        num_parity_bits = family.min_parity_bits(num_data_bits)
    return family.design_space_size(num_data_bits, num_parity_bits)
