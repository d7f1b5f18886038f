"""Affine systems over GF(2) on integer bit masks.

BEEP crafts every test pattern by solving a system of a few rows over the
dataword bits (paper Section 7.1): each row is one codeword bit, a GF(2)
linear function of the dataword, held as an int whose bit ``j`` is the
coefficient of data bit ``j``.  A system that small is solved fastest by
eliminating on the ints themselves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.exceptions import DimensionError


def solve_affine(rows: Sequence[int], rhs: Sequence[int]) -> Optional[int]:
    """Solve ``popcount(rows[i] & x) % 2 == rhs[i]`` for every ``i``.

    Returns the solution as an int mask, or ``None`` when the system is
    inconsistent.  Each row's lowest set bit is its pivot and the free
    variables are 0, so the solution is the particular solution a reduced
    row echelon form over columns ``0, 1, ...`` gives.
    """
    if len(rows) != len(rhs):
        raise DimensionError(f"{len(rows)} rows cannot equal {len(rhs)} values")
    # (pivot bit, row, value); every row is zero at every other row's pivot.
    reduced: List[Tuple[int, int, int]] = []
    for row, value in zip(rows, rhs):
        value &= 1
        for pivot, pivot_row, pivot_value in reduced:
            if row & pivot:
                row ^= pivot_row
                value ^= pivot_value
        if not row:
            if value:
                return None
            continue
        pivot = row & -row
        reduced = [
            (bit, other ^ row, other_value ^ value) if other & pivot
            else (bit, other, other_value)
            for bit, other, other_value in reduced
        ]
        reduced.append((pivot, row, value))
    solution = 0
    for pivot, _, value in reduced:
        if value:
            solution |= pivot
    return solution
