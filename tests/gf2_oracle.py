"""Reference GF(2) linear algebra on ``uint8`` arrays, kept as test oracles.

The library solves its systems on integer bit masks
(:func:`repro.gf2.solve_affine`).  The numpy reduced-row-echelon solve it
replaced, and the span-membership test the profile builders replaced, live
on here so differential tests can hold the integer paths to them; the RREF,
rank and null space are kept with them so the oracle's own invariants can be
checked (``tests/test_gf2_linalg.py``, ``tests/test_gf2_linalg_properties.py``).
Matrices and vectors are 0/1 ``uint8`` arrays, the library's word format.
"""

from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2.bits import bits_to_int


def gf2_mul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The GF(2) product ``left @ right`` of 0/1 arrays, as ``uint8``."""
    product = np.asarray(left, dtype=np.int64) @ np.asarray(right, dtype=np.int64)
    return (product % 2).astype(np.uint8)


def gf2_rref(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Return ``(rref, pivot_columns)`` of a 0/1 ``uint8`` matrix over GF(2)."""
    rref = np.array(matrix, dtype=np.uint8)
    num_rows, num_cols = rref.shape
    pivot_cols: List[int] = []
    pivot_row = 0
    for col in range(num_cols):
        if pivot_row >= num_rows:
            break
        candidates = np.flatnonzero(rref[pivot_row:, col]) + pivot_row
        if candidates.size == 0:
            continue
        swap = int(candidates[0])
        if swap != pivot_row:
            rref[[pivot_row, swap], :] = rref[[swap, pivot_row], :]
        for row in np.flatnonzero(rref[:, col]):
            if row != pivot_row:
                rref[row, :] ^= rref[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
    return rref, tuple(pivot_cols)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a GF(2) matrix."""
    return len(gf2_rref(matrix)[1])


def gf2_null_space(matrix: np.ndarray) -> List[np.ndarray]:
    """A basis (possibly empty) of the null space, one vector per free column."""
    rref, pivots = gf2_rref(matrix)
    num_cols = rref.shape[1]
    basis: List[np.ndarray] = []
    for free in sorted(set(range(num_cols)) - set(pivots)):
        vector = np.zeros(num_cols, dtype=np.uint8)
        vector[free] = 1
        for row_index, pivot in enumerate(pivots):
            if rref[row_index, free]:
                vector[pivot] = 1
        basis.append(vector)
    return basis


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One particular solution of ``matrix @ x = rhs`` (free variables 0).

    Raises :class:`SingularMatrixError` when the system is inconsistent.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    rhs = np.asarray(rhs, dtype=np.uint8)
    if matrix.shape[0] != len(rhs):
        raise DimensionError(
            f"matrix with {matrix.shape[0]} rows cannot equal a vector of length {len(rhs)}"
        )
    rref, pivots = gf2_rref(np.hstack([matrix, rhs.reshape(-1, 1)]))
    num_cols = matrix.shape[1]
    if num_cols in pivots:
        raise SingularMatrixError("linear system is inconsistent over GF(2)")
    solution = np.zeros(num_cols, dtype=np.uint8)
    for row_index, col in enumerate(pivots):
        solution[col] = rref[row_index, num_cols]
    return solution


def in_span(target: np.ndarray, vectors: Iterable[np.ndarray]) -> bool:
    """True if the 0/1 vector ``target`` lies in the GF(2) span of ``vectors``."""
    basis: List[int] = []
    for vector in vectors:
        value = bits_to_int(vector)
        for pivot in basis:
            value = min(value, value ^ pivot)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    value = bits_to_int(target)
    for pivot in basis:
        value = min(value, value ^ pivot)
    return value == 0
