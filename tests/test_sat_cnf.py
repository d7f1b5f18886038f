"""Unit tests for the CNF container."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.sat import CNF, CDCLSolver
from repro.sat.encoders import (
    encode_column_design_space,
    encode_lex_geq,
    encode_not_weight_one,
    encode_xor,
)


class TestCNF:
    def test_variable_allocation(self):
        formula = CNF()
        assert formula.new_variable() == 1
        assert formula.new_variable() == 2
        assert formula.new_variables(3) == [3, 4, 5]
        assert formula.num_variables == 5

    def test_negative_initial_variables_rejected(self):
        with pytest.raises(SolverError):
            CNF(-1)

    def test_negative_allocation_rejected(self):
        with pytest.raises(SolverError):
            CNF().new_variables(-1)

    def test_add_clause_extends_variable_pool(self):
        formula = CNF()
        formula.add_clause([1, -4])
        assert formula.num_variables == 4
        assert formula.clauses == [(1, -4)]

    def test_empty_clause_rejected(self):
        with pytest.raises(SolverError):
            CNF().add_clause([])

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            CNF().add_clause([1, 0])

    def test_add_unit_and_clauses(self):
        formula = CNF()
        formula.add_unit(3)
        formula.add_clauses([[1, 2], [-1, -2]])
        assert formula.num_clauses == 3

    def test_evaluate(self):
        formula = CNF()
        formula.add_clauses([[1, 2], [-1, 2]])
        assert formula.evaluate([False, True])
        assert not formula.evaluate([True, False])

    def test_evaluate_short_assignment_rejected(self):
        formula = CNF()
        formula.add_clause([1, 2, 3])
        with pytest.raises(SolverError):
            formula.evaluate([True])

    def test_copy_is_independent(self):
        formula = CNF()
        formula.add_clause([1, 2])
        duplicate = formula.copy()
        duplicate.add_clause([-1])
        assert formula.num_clauses == 1
        assert duplicate.num_clauses == 2

    def test_repr(self):
        formula = CNF()
        formula.add_clause([1, -2])
        assert "clauses=1" in repr(formula)


def add_to_formula(literals):
    formula = CNF(4)
    formula.add_clause(literals)
    return formula


def add_to_solver(literals):
    solver = CDCLSolver(CNF(4))
    solver.add_clause(literals)
    return solver


ENTRY_POINTS = pytest.mark.parametrize(
    "add", [add_to_formula, add_to_solver], ids=["CNF.add_clause", "CDCLSolver.add_clause"]
)


class TestLiteralTypes:
    """A literal is a Python or numpy int; nothing else is read as one."""

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "literal", [1.7, 2.0, True, np.bool_(True), "2", None], ids=repr
    )
    def test_non_integer_literal_rejected(self, add, literal):
        # 1.7 used to be truncated to 1, "2" parsed and True read as 1.
        with pytest.raises(SolverError, match="not an integer"):
            add([3, literal])

    @ENTRY_POINTS
    def test_non_integer_literal_rejected_in_a_tautology(self, add):
        with pytest.raises(SolverError, match="not an integer"):
            add([1, -1, 2.5])

    @ENTRY_POINTS
    def test_numpy_integer_literal_accepted(self, add):
        add([np.int64(-4), np.int32(2)])

    def test_numpy_integer_literal_stored_as_int(self):
        formula = add_to_formula([np.int64(-4), np.uint8(2)])
        assert formula.clauses == [(-4, 2)]
        assert all(type(literal) is int for literal in formula.clauses[0])


class TestEncoderLiterals:
    """The encoders append unchecked, so each checks its caller's literals once."""

    @pytest.mark.parametrize(
        "encode",
        [
            lambda formula, literals: encode_xor(formula, literals, False),
            encode_not_weight_one,
            lambda formula, literals: encode_column_design_space(formula, literals, 2, False),
            lambda formula, literals: encode_lex_geq(formula, literals[:2], literals[2:]),
        ],
        ids=["xor", "not-weight-one", "design-space", "lex-geq"],
    )
    @pytest.mark.parametrize(
        "literals",
        [[1, 2, 1, 3], [1, 2, -1, 3], [1, 2, 3, 9], [1, 2, 3, 2.0]],
        ids=["repeated", "complementary", "unallocated", "float"],
    )
    def test_unclean_literals_rejected(self, encode, literals):
        formula = CNF(4)
        with pytest.raises(SolverError):
            encode(formula, literals)
        assert formula.num_clauses == 0

    def test_numpy_literals_stored_as_ints(self):
        formula = CNF(4)
        encode_lex_geq(formula, np.array([1, 2]), np.array([3, 4]))
        encode_not_weight_one(formula, np.array([1, 2, 3]))
        assert all(type(literal) is int for clause in formula.clauses for literal in clause)

    def test_empty_non_zero_column_rejected(self):
        with pytest.raises(SolverError):
            encode_column_design_space(CNF(), [], 1, False)
