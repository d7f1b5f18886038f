"""Unit tests for the CNF container."""

import pytest

from repro.exceptions import SolverError
from repro.sat import CNF


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
