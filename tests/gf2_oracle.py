"""Reference GF(2) linear algebra on ``uint8`` arrays, kept as test oracles.

The library solves its systems on integer bit masks
(:func:`repro.gf2.solve_affine`).  The numpy reduced-row-echelon solve it
replaced, and the span-membership test the profile builders replaced, live
on here so differential tests can hold the integer paths to them; the RREF,
rank and null space are kept with them so the oracle's own invariants can be
checked (``tests/test_gf2_linalg.py``, ``tests/test_gf2_linalg_properties.py``).
"""

from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2 import GF2Matrix, GF2Vector


def rref_array(array: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Return the RREF of a ``uint8`` array over GF(2) and its pivot columns."""
    matrix = array.copy()
    num_rows, num_cols = matrix.shape
    pivot_cols: List[int] = []
    pivot_row = 0
    for col in range(num_cols):
        if pivot_row >= num_rows:
            break
        candidates = np.flatnonzero(matrix[pivot_row:, col]) + pivot_row
        if candidates.size == 0:
            continue
        swap = int(candidates[0])
        if swap != pivot_row:
            matrix[[pivot_row, swap], :] = matrix[[swap, pivot_row], :]
        for row in np.flatnonzero(matrix[:, col]):
            if row != pivot_row:
                matrix[row, :] ^= matrix[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
    return matrix, pivot_cols


def gf2_rref(matrix: GF2Matrix) -> Tuple[GF2Matrix, Tuple[int, ...]]:
    """Return ``(rref, pivot_columns)`` for a GF(2) matrix."""
    rref, pivots = rref_array(matrix.to_numpy())
    return GF2Matrix(rref), tuple(pivots)


def gf2_rank(matrix: GF2Matrix) -> int:
    """Rank of a GF(2) matrix."""
    return len(rref_array(matrix.to_numpy())[1])


def gf2_null_space(matrix: GF2Matrix) -> List[GF2Vector]:
    """A basis (possibly empty) of the null space, one vector per free column."""
    rref, pivots = rref_array(matrix.to_numpy())
    basis: List[GF2Vector] = []
    for free in sorted(set(range(matrix.num_cols)) - set(pivots)):
        vector = np.zeros(matrix.num_cols, dtype=np.uint8)
        vector[free] = 1
        for row_index, pivot in enumerate(pivots):
            if rref[row_index, free]:
                vector[pivot] = 1
        basis.append(GF2Vector(vector))
    return basis


def gf2_solve(matrix: GF2Matrix, rhs: GF2Vector) -> GF2Vector:
    """One particular solution of ``matrix @ x = rhs`` (free variables 0).

    Raises :class:`SingularMatrixError` when the system is inconsistent.
    """
    if matrix.num_rows != len(rhs):
        raise DimensionError(
            f"matrix with {matrix.num_rows} rows cannot equal a vector of length {len(rhs)}"
        )
    augmented = np.hstack([matrix.to_numpy(), rhs.to_numpy().reshape(-1, 1)])
    rref, pivots = rref_array(augmented)
    num_cols = matrix.num_cols
    if num_cols in pivots:
        raise SingularMatrixError("linear system is inconsistent over GF(2)")
    solution = np.zeros(num_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = rref[row_index, num_cols]
    return GF2Vector(solution)


def in_span(target: GF2Vector, vectors: Iterable[GF2Vector]) -> bool:
    """True if ``target`` lies in the GF(2) span of ``vectors``."""
    basis: List[int] = []
    for vector in vectors:
        value = vector.to_int()
        for pivot in basis:
            value = min(value, value ^ pivot)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    value = target.to_int()
    for pivot in basis:
        value = min(value, value ^ pivot)
    return value == 0
