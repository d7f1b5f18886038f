"""Unit and property tests for GF(2) linear algebra.

The RREF, rank, null space, solve, span membership and products are the
numpy oracle in ``tests/gf2_oracle.py`` that the differential tests hold the
library's integer paths to, on 0/1 ``uint8`` arrays; the int conversions are
:mod:`repro.gf2.bits`; the affine solve is :func:`repro.gf2.solve_affine`.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import gf2_mul, gf2_null_space, gf2_rank, gf2_rref, gf2_solve, in_span
from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2 import bits_to_int, int_to_bits, solve_affine


def random_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)


def _eye(size):
    return np.eye(size, dtype=np.uint8)


class TestBitHelpers:
    def test_vector_int_round_trip(self):
        vec = int_to_bits(0b1101, 6)
        assert vec.tolist() == [1, 0, 1, 1, 0, 0]
        assert bits_to_int(vec) == 0b1101


class TestRrefAndRank:
    def test_rref_identity(self):
        rref, pivots = gf2_rref(_eye(4))
        assert np.array_equal(rref, _eye(4))
        assert pivots == (0, 1, 2, 3)

    def test_rref_dependent_rows(self):
        matrix = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        rref, pivots = gf2_rref(matrix)
        assert pivots == (0, 1)
        assert not rref[2].any()

    def test_rank_zero_matrix(self):
        assert gf2_rank(np.zeros((3, 5), dtype=np.uint8)) == 0

    def test_rank_full(self):
        assert gf2_rank(_eye(5)) == 5

    def test_rank_bounded_by_dimensions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            matrix = random_matrix(rng, rows, cols)
            assert 0 <= gf2_rank(matrix) <= min(rows, cols)


class TestSolve:
    def test_solve_identity(self):
        rhs = np.array([1, 0, 1], dtype=np.uint8)
        assert np.array_equal(gf2_solve(_eye(3), rhs), rhs)

    def test_solve_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            matrix = random_matrix(rng, rows, cols)
            x_true = rng.integers(0, 2, size=cols)
            rhs = gf2_mul(matrix, x_true)
            solution = gf2_solve(matrix, rhs)
            assert np.array_equal(gf2_mul(matrix, solution), rhs)

    def test_solve_inconsistent_raises(self):
        matrix = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            gf2_solve(matrix, np.array([1, 0], dtype=np.uint8))

    def test_solve_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gf2_solve(_eye(2), np.array([1, 0, 1], dtype=np.uint8))

    def test_solve_affine_spans_all_solutions(self):
        # x0 + x1 = 1, x2 = 1: the particular solution plus the null space
        # vector (x0 = x1 = 1) gives the other solution.
        matrix = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8)
        rhs = np.array([1, 1], dtype=np.uint8)
        particular = int_to_bits(
            solve_affine([bits_to_int(row) for row in matrix], rhs.tolist()), 3
        )
        assert np.array_equal(gf2_mul(matrix, particular), rhs)
        basis = gf2_null_space(matrix)
        assert len(basis) == 1
        assert np.array_equal(gf2_mul(matrix, particular ^ basis[0]), rhs)


class TestNullSpace:
    def test_null_space_dimension(self):
        matrix = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
        basis = gf2_null_space(matrix)
        assert len(basis) == 2
        for vec in basis:
            assert not gf2_mul(matrix, vec).any()

    def test_null_space_of_full_rank_square(self):
        assert gf2_null_space(_eye(4)) == []


class TestSpan:
    def test_in_span_positive_and_negative(self):
        basis = [np.array([1, 0, 1]), np.array([0, 1, 1])]
        assert in_span(np.array([1, 1, 0]), basis)
        assert not in_span(np.array([0, 0, 1]), basis)

    def test_in_span_empty_basis(self):
        assert in_span(np.array([0, 0]), [])
        assert not in_span(np.array([1, 0]), [])


@st.composite
def matrix_and_vector(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    matrix = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    x_vec = draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols))
    return np.array(matrix, dtype=np.uint8), np.array(x_vec, dtype=np.uint8)


class TestProperties:
    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_solve_recovers_consistent_rhs(self, pair):
        matrix, x_vec = pair
        rhs = gf2_mul(matrix, x_vec)
        solution = gf2_solve(matrix, rhs)
        assert np.array_equal(gf2_mul(matrix, solution), rhs)

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_theorem(self, pair):
        matrix, _ = pair
        rank = gf2_rank(matrix)
        nullity = len(gf2_null_space(matrix))
        assert rank + nullity == matrix.shape[1]

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_matrix_vector_product_is_column_combination(self, pair):
        matrix, x_vec = pair
        product = gf2_mul(matrix, x_vec)
        accumulator = np.zeros(matrix.shape[0], dtype=np.uint8)
        for index, bit in enumerate(x_vec):
            if bit:
                accumulator = accumulator ^ matrix[:, index]
        assert np.array_equal(product, accumulator)

    @given(st.lists(st.integers(0, 255), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_in_span_agrees_with_enumerated_span(self, values):
        vectors = [int_to_bits(v, 8) for v in values]
        # Every XOR of a subset of the vectors (the empty subset gives 0).
        enumerated = {
            functools.reduce(operator.xor, subset, 0)
            for size in range(len(values) + 1)
            for subset in itertools.combinations(values, size)
        }
        for target_value in range(0, 256, 17):
            target = int_to_bits(target_value, 8)
            assert in_span(target, vectors) == (target_value in enumerated)
