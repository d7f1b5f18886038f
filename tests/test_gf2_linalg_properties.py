"""Randomised property tests for GF(2) linear algebra.

Each seeded property runs over 100 random matrices spanning tall, wide,
square, sparse and dense shapes, twice over: once on the numpy RREF oracle
(``tests/gf2_oracle.py``) whose answers the differential tests trust, and
once on :func:`repro.gf2.solve_affine`, the integer-mask solve the library
uses, which is also held to that oracle's particular solution.  Every case
also gets a row inserted that XORs some of its rows, with a right-hand side
that contradicts it, so both check an inconsistent system whatever the
case's rank.  A hypothesis property and a sweep of shapes up to 32 x 136
compare the two on further systems, inconsistent ones included.  Matrices
and vectors are 0/1 ``uint8`` arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import gf2_mul, gf2_null_space, gf2_rank, gf2_rref, gf2_solve
from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2 import bits_to_int, int_to_bits, solve_affine

#: 100 seeded random instances: (seed, rows, cols, density).
CASES = [
    (seed, int(rows), int(cols), density)
    for seed, (rows, cols, density) in enumerate(
        (
            rng_shape
            for rng_shape in (
                (
                    np.random.default_rng(1234 + i).integers(1, 24),
                    np.random.default_rng(5678 + i).integers(1, 90),
                    [0.1, 0.3, 0.5, 0.8][i % 4],
                )
                for i in range(100)
            )
        )
    )
]


def _matrix(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def _bits(rng, size):
    return rng.integers(0, 2, size=size).astype(np.uint8)


def _inconsistent_system(seed, rows, cols, density):
    """The case's matrix with a row inserted that is the XOR of some of its
    rows, and a right-hand side that contradicts that row."""
    matrix = _matrix(seed, rows, cols, density)
    rng = np.random.default_rng(seed + 20_000)
    rhs = _bits(rng, rows)
    subset = rng.random(rows) < 0.5
    dependent = np.bitwise_xor.reduce(matrix[subset], axis=0)
    contradiction = np.bitwise_xor.reduce(rhs[subset]) ^ 1
    at = int(rng.integers(0, rows + 1))
    return (
        np.insert(matrix, at, dependent, axis=0),
        np.insert(rhs, at, contradiction),
    )


def _solve(matrix, rhs):
    """``solve_affine`` on a matrix and vector, answered as a vector or None."""
    solution = solve_affine([bits_to_int(row) for row in matrix], rhs.tolist())
    return None if solution is None else int_to_bits(solution, matrix.shape[1])


def _oracle_solve(matrix, rhs):
    """The RREF oracle's particular solution, or None for an inconsistent system."""
    try:
        return gf2_solve(matrix, rhs)
    except SingularMatrixError:
        return None


def _same(first, second):
    """Two answers of ``_solve``/``_oracle_solve`` agree (None or equal arrays)."""
    if first is None or second is None:
        return first is None and second is None
    return np.array_equal(first, second)


@pytest.mark.parametrize("seed,rows,cols,density", CASES)
class TestLinalgInvariants:
    """The RREF oracle's invariants on every seeded case."""

    def test_rank_is_rref_invariant(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rref, pivots = gf2_rref(matrix)
        # rank(A) == rank(RREF(A)) == number of pivots
        assert gf2_rank(matrix) == gf2_rank(rref) == len(pivots)
        # RREF is idempotent.
        rref_again, pivots_again = gf2_rref(rref)
        assert np.array_equal(rref_again, rref)
        assert pivots_again == pivots

    def test_rank_nullity_theorem(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        assert gf2_rank(matrix) + len(gf2_null_space(matrix)) == cols

    def test_null_space_vectors_are_annihilated(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        for vector in gf2_null_space(matrix):
            assert not gf2_mul(matrix, vector).any()
            assert vector.any()

    def test_solve_round_trips(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 10_000)
        rhs = gf2_mul(matrix, _bits(rng, cols))
        assert np.array_equal(gf2_mul(matrix, gf2_solve(matrix, rhs)), rhs)

    def test_inconsistent_systems_raise(self, seed, rows, cols, density):
        matrix, rhs = _inconsistent_system(seed, rows, cols, density)
        # Appending the rhs as an extra column raises the rank exactly when
        # the system is inconsistent.
        augmented = np.hstack([matrix, rhs.reshape(-1, 1)])
        assert gf2_rank(augmented) == gf2_rank(matrix) + 1
        with pytest.raises(SingularMatrixError):
            gf2_solve(matrix, rhs)


@pytest.mark.parametrize("seed,rows,cols,density", CASES)
class TestSolveInvariants:
    def test_solve_round_trips(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 10_000)
        # Build a consistent system: rhs = A @ x0 for a random x0.
        rhs = gf2_mul(matrix, _bits(rng, cols))
        solution = _solve(matrix, rhs)
        assert np.array_equal(gf2_mul(matrix, solution), rhs)

    def test_inconsistent_systems_are_rejected(self, seed, rows, cols, density):
        matrix, rhs = _inconsistent_system(seed, rows, cols, density)
        assert _oracle_solve(matrix, rhs) is None
        assert _solve(matrix, rhs) is None

    def test_consistent_rhs_matches_rref_oracle(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 10_000)
        rhs = gf2_mul(matrix, _bits(rng, cols))
        assert np.array_equal(_solve(matrix, rhs), gf2_solve(matrix, rhs))

    def test_random_rhs_matches_rref_oracle(self, seed, rows, cols, density):
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 30_000)
        rhs = _bits(rng, rows)
        assert _same(_solve(matrix, rhs), _oracle_solve(matrix, rhs))

    def test_dependent_row_keeps_or_rejects_solution(self, seed, rows, cols, density):
        # Inserting the XOR of some rows anywhere leaves the solution as it is
        # when its rhs is the XOR of theirs, and makes the system inconsistent
        # when that rhs is flipped, whichever case's rank.
        matrix = _matrix(seed, rows, cols, density)
        rng = np.random.default_rng(seed + 40_000)
        rhs = gf2_mul(matrix, _bits(rng, cols))
        row_ints = [bits_to_int(row) for row in matrix]
        values = rhs.tolist()
        solution = solve_affine(row_ints, values)
        assert solution is not None
        dependent, parity = 0, 0
        for index in np.flatnonzero(rng.random(rows) < 0.5):
            dependent ^= row_ints[index]
            parity ^= values[index]
        at = int(rng.integers(0, rows + 1))
        extended = row_ints[:at] + [dependent] + row_ints[at:]
        assert solve_affine(extended, values[:at] + [parity] + values[at:]) == solution
        assert solve_affine(extended, values[:at] + [parity ^ 1] + values[at:]) is None


@st.composite
def systems(draw):
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=70))
    matrix = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    rhs = draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    # Append the XOR of some rows, with its rhs flipped or not: a dependent
    # row that makes the system inconsistent exactly when it is flipped.
    subset = draw(st.lists(st.integers(0, rows - 1), unique=True))
    flip = draw(st.integers(0, 1))
    matrix.append([sum(matrix[i][j] for i in subset) % 2 for j in range(cols)])
    rhs.append((sum(rhs[i] for i in subset) + flip) % 2)
    return np.array(matrix, dtype=np.uint8), np.array(rhs, dtype=np.uint8)


class TestAgainstRrefOracle:
    @given(systems())
    @settings(max_examples=300, deadline=None)
    def test_solution_equals_rref_particular_solution(self, system):
        matrix, rhs = system
        assert _same(_solve(matrix, rhs), _oracle_solve(matrix, rhs))


def _random_matrix(rng, rows, cols, density=0.5):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


# Shapes past the seeded cases' 23 x 89: single rows and columns, the
# 64-bit word edge and the (136, 128) code's width.
DIFFERENTIAL_SHAPES = [
    (1, 1),
    (1, 64),
    (3, 63),
    (5, 65),
    (8, 8),
    (8, 136),
    (16, 16),
    (20, 7),
    (32, 129),
]


class TestDifferentialLinalg:
    """``solve_affine`` against the RREF oracle on wide and degenerate shapes."""

    @pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_solve_matches_reference(self, shape, seed):
        rng = np.random.default_rng(seed * 7919 + shape[0] + shape[1])
        matrix = _random_matrix(rng, *shape)
        rhs = _bits(rng, shape[0])
        assert _same(_solve(matrix, rhs), _oracle_solve(matrix, rhs))

    def test_degenerate_all_zero(self):
        matrix = np.zeros((4, 70), dtype=np.uint8)
        assert _same(_solve(matrix, np.zeros(4, dtype=np.uint8)), np.zeros(70))
        assert _solve(matrix, int_to_bits(0b0100, 4)) is None

    def test_degenerate_identity(self):
        matrix = np.eye(65, dtype=np.uint8)
        rhs = np.ones(65, dtype=np.uint8)
        assert np.array_equal(_solve(matrix, rhs), rhs)
        assert np.array_equal(gf2_solve(matrix, rhs), rhs)

    def test_single_row_and_column(self):
        row = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        one = np.array([1], dtype=np.uint8)
        assert np.array_equal(_solve(row, one), gf2_solve(row, one))
        col = np.array([[1], [0], [1]], dtype=np.uint8)
        assert np.array_equal(_solve(col, np.array([1, 0, 1], dtype=np.uint8)), one)
        assert _solve(col, np.array([1, 1, 1], dtype=np.uint8)) is None


class TestSolveAffine:
    def test_identity(self):
        assert solve_affine([0b001, 0b010, 0b100], [1, 0, 1]) == 0b101

    def test_free_variables_are_zero(self):
        # x0 + x1 = 1, x2 = 1: pivots are bits 0 and 2, x1 is free.
        assert solve_affine([0b011, 0b100], [1, 1]) == 0b101

    def test_inconsistent(self):
        assert solve_affine([0b01, 0b01], [1, 0]) is None

    def test_zero_row(self):
        assert solve_affine([0], [0]) == 0
        assert solve_affine([0], [1]) is None

    def test_empty_system(self):
        assert solve_affine([], []) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            solve_affine([0b1, 0b10], [1])
