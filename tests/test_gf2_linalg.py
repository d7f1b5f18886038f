"""Unit and property tests for GF(2) linear algebra.

The RREF, rank, null space, solve and span membership are the numpy oracle
in ``tests/gf2_oracle.py`` that the differential tests hold the library's
integer paths to; the products and int conversions are
:class:`repro.gf2.GF2Matrix` and :class:`repro.gf2.GF2Vector`; the affine
solve is :func:`repro.gf2.solve_affine`.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2_oracle import gf2_null_space, gf2_rank, gf2_rref, gf2_solve, in_span
from repro.exceptions import DimensionError, SingularMatrixError
from repro.gf2 import GF2Matrix, GF2Vector, solve_affine


def random_matrix(rng, rows, cols):
    return GF2Matrix(rng.integers(0, 2, size=(rows, cols)))


class TestBitHelpers:
    def test_vector_int_round_trip(self):
        vec = GF2Vector.from_int(0b1101, 6)
        assert vec.to_list() == [1, 0, 1, 1, 0, 0]
        assert vec.to_int() == 0b1101


class TestRrefAndRank:
    def test_rref_identity(self):
        rref, pivots = gf2_rref(GF2Matrix.identity(4))
        assert rref == GF2Matrix.identity(4)
        assert pivots == (0, 1, 2, 3)

    def test_rref_dependent_rows(self):
        matrix = GF2Matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        rref, pivots = gf2_rref(matrix)
        assert pivots == (0, 1)
        assert rref.row(2).is_zero()

    def test_rank_zero_matrix(self):
        assert gf2_rank(GF2Matrix.zeros(3, 5)) == 0

    def test_rank_full(self):
        assert gf2_rank(GF2Matrix.identity(5)) == 5

    def test_rank_bounded_by_dimensions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            matrix = random_matrix(rng, rows, cols)
            assert 0 <= gf2_rank(matrix) <= min(rows, cols)


class TestSolve:
    def test_solve_identity(self):
        rhs = GF2Vector([1, 0, 1])
        assert gf2_solve(GF2Matrix.identity(3), rhs) == rhs

    def test_solve_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            matrix = random_matrix(rng, rows, cols)
            x_true = GF2Vector(rng.integers(0, 2, size=cols))
            rhs = matrix @ x_true
            solution = gf2_solve(matrix, rhs)
            assert matrix @ solution == rhs

    def test_solve_inconsistent_raises(self):
        matrix = GF2Matrix([[1, 0], [1, 0]])
        rhs = GF2Vector([1, 0])
        with pytest.raises(SingularMatrixError):
            gf2_solve(matrix, rhs)

    def test_solve_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gf2_solve(GF2Matrix.identity(2), GF2Vector([1, 0, 1]))

    def test_solve_affine_spans_all_solutions(self):
        # x0 + x1 = 1, x2 = 1: the particular solution plus the null space
        # vector (x0 = x1 = 1) gives the other solution.
        matrix = GF2Matrix([[1, 1, 0], [0, 0, 1]])
        rhs = GF2Vector([1, 1])
        particular = GF2Vector.from_int(
            solve_affine([row.to_int() for row in matrix.rows()], rhs.to_list()), 3
        )
        assert matrix @ particular == rhs
        basis = gf2_null_space(matrix)
        assert len(basis) == 1
        assert matrix @ (particular + basis[0]) == rhs


class TestNullSpace:
    def test_null_space_dimension(self):
        matrix = GF2Matrix([[1, 0, 1, 1], [0, 1, 1, 0]])
        basis = gf2_null_space(matrix)
        assert len(basis) == 2
        for vec in basis:
            assert (matrix @ vec).is_zero()

    def test_null_space_of_full_rank_square(self):
        assert gf2_null_space(GF2Matrix.identity(4)) == []


class TestSpan:
    def test_in_span_positive_and_negative(self):
        basis = [GF2Vector([1, 0, 1]), GF2Vector([0, 1, 1])]
        assert in_span(GF2Vector([1, 1, 0]), basis)
        assert not in_span(GF2Vector([0, 0, 1]), basis)

    def test_in_span_empty_basis(self):
        assert in_span(GF2Vector([0, 0]), [])
        assert not in_span(GF2Vector([1, 0]), [])


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
    return GF2Matrix(matrix), GF2Vector(x_vec)


class TestProperties:
    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_solve_recovers_consistent_rhs(self, pair):
        matrix, x_vec = pair
        rhs = matrix @ x_vec
        solution = gf2_solve(matrix, rhs)
        assert matrix @ solution == rhs

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_theorem(self, pair):
        matrix, _ = pair
        rank = gf2_rank(matrix)
        nullity = len(gf2_null_space(matrix))
        assert rank + nullity == matrix.num_cols

    @given(matrix_and_vector())
    @settings(max_examples=60, deadline=None)
    def test_matrix_vector_product_is_column_combination(self, pair):
        matrix, x_vec = pair
        product = matrix @ x_vec
        accumulator = GF2Vector.zeros(matrix.num_rows)
        for index, bit in enumerate(x_vec):
            if bit:
                accumulator = accumulator + matrix.column(index)
        assert product == accumulator

    @given(st.lists(st.integers(0, 255), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_in_span_agrees_with_enumerated_span(self, values):
        vectors = [GF2Vector.from_int(v, 8) for v in values]
        # Every XOR of a subset of the vectors (the empty subset gives 0).
        enumerated = {
            functools.reduce(operator.xor, subset, 0)
            for size in range(len(values) + 1)
            for subset in itertools.combinations(values, size)
        }
        for target_value in range(0, 256, 17):
            target = GF2Vector.from_int(target_value, 8)
            assert in_span(target, vectors) == (target_value in enumerated)
