"""Unit, integration, and property tests for the CDCL SAT solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.sat import CNF, CDCLSolver, encode_xor, iterate_models
from repro.sat.encoders import (
    encode_column_design_space,
    encode_xor_gate,
    integer_of_bits,
)


def brute_force_satisfiable(formula: CNF) -> bool:
    """Reference check by exhaustive enumeration (small formulas only)."""
    for bits in itertools.product([False, True], repeat=formula.num_variables):
        if formula.evaluate(list(bits)):
            return True
    return False


def projected_models(formula: CNF, variables) -> set:
    """Assignments of ``variables`` that extend to a model, by exhaustive search."""
    return {
        tuple(bits[v - 1] for v in variables)
        for bits in itertools.product([False, True], repeat=formula.num_variables)
        if formula.evaluate(list(bits))
    }


def at_most_one(formula: CNF, literals) -> None:
    """Pairwise at-most-one clauses over ``literals``."""
    for first, second in itertools.combinations(literals, 2):
        formula.add_clause([-first, -second])


def pigeonhole(num_pigeons: int, num_holes: int) -> CNF:
    """The classic pigeonhole principle instance (UNSAT when pigeons > holes)."""
    formula = CNF()
    variables = {
        (pigeon, hole): formula.new_variable()
        for pigeon in range(num_pigeons)
        for hole in range(num_holes)
    }
    for pigeon in range(num_pigeons):
        formula.add_clause([variables[(pigeon, hole)] for hole in range(num_holes)])
    for hole in range(num_holes):
        at_most_one(formula, [variables[(pigeon, hole)] for pigeon in range(num_pigeons)])
    return formula


class TestBasicSolving:
    def test_single_unit(self):
        formula = CNF()
        formula.add_unit(1)
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assert result.value(1) is True

    def test_contradictory_units(self):
        formula = CNF()
        formula.add_unit(1)
        formula.add_unit(-1)
        assert not CDCLSolver(formula).solve().satisfiable

    def test_simple_satisfiable(self):
        formula = CNF()
        formula.add_clauses([[1, 2], [-1, 2], [1, -2]])
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assert formula.evaluate(
            [result.assignment[v] for v in range(1, formula.num_variables + 1)]
        )

    def test_simple_unsatisfiable(self):
        formula = CNF()
        formula.add_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        assert not CDCLSolver(formula).solve().satisfiable

    def test_model_satisfies_formula(self):
        formula = CNF()
        formula.add_clauses([[1, -2, 3], [-1, 2], [2, -3], [-2, -3], [1, 3, -4], [4, 2]])
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assignment = [result.assignment[v] for v in range(1, formula.num_variables + 1)]
        assert formula.evaluate(assignment)

    def test_value_on_unsat_raises(self):
        formula = CNF()
        formula.add_unit(1)
        formula.add_unit(-1)
        result = CDCLSolver(formula).solve()
        with pytest.raises(SolverError):
            result.value(1)

    def test_statistics_reported(self):
        formula = pigeonhole(4, 3)
        result = CDCLSolver(formula).solve()
        assert not result.satisfiable
        assert result.conflicts > 0

    def test_conflict_budget(self):
        formula = pigeonhole(7, 6)
        with pytest.raises(SolverError):
            CDCLSolver(formula, max_conflicts=1).solve()


class TestStructuredInstances:
    def test_pigeonhole_unsat(self):
        for pigeons in range(2, 6):
            assert not CDCLSolver(pigeonhole(pigeons, pigeons - 1)).solve().satisfiable

    def test_pigeonhole_sat_when_holes_sufficient(self):
        result = CDCLSolver(pigeonhole(4, 4)).solve()
        assert result.satisfiable

    def test_graph_coloring(self):
        # A 5-cycle is 3-colourable but not 2-colourable.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

        def coloring_formula(num_colors):
            formula = CNF()
            variables = {
                (node, color): formula.new_variable()
                for node in range(5)
                for color in range(num_colors)
            }
            for node in range(5):
                colors = [variables[(node, c)] for c in range(num_colors)]
                formula.add_clause(colors)
                at_most_one(formula, colors)
            for first, second in edges:
                for color in range(num_colors):
                    formula.add_clause(
                        [-variables[(first, color)], -variables[(second, color)]]
                    )
            return formula

        assert not CDCLSolver(coloring_formula(2)).solve().satisfiable
        assert CDCLSolver(coloring_formula(3)).solve().satisfiable

    def test_xor_chain_sat_and_unsat(self):
        formula = CNF()
        variables = formula.new_variables(6)
        encode_xor(formula, variables, True)
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assert sum(result.assignment[v] for v in variables) % 2 == 1

        # Adding the opposite parity over the same variables makes it UNSAT.
        encode_xor(formula, variables, False)
        assert not CDCLSolver(formula).solve().satisfiable

    def test_gf2_system_via_xor(self):
        # x1 ^ x2 = 1, x2 ^ x3 = 0, x1 ^ x3 = 1  => consistent
        formula = CNF()
        x1, x2, x3 = formula.new_variables(3)
        encode_xor(formula, [x1, x2], True)
        encode_xor(formula, [x2, x3], False)
        encode_xor(formula, [x1, x3], True)
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assert result.assignment[x1] != result.assignment[x2]
        assert result.assignment[x2] == result.assignment[x3]


class TestModelEnumeration:
    def test_enumerate_all_models(self):
        formula = CNF()
        formula.add_clause([1, 2])
        models = list(iterate_models(formula))
        assert len(models) == 3
        assert all(model[1] or model[2] for model in models)

    def test_enumeration_respects_limit(self):
        formula = CNF()
        formula.new_variables(4)
        formula.add_clause([1, -1])
        assert len(list(itertools.islice(iterate_models(formula), 5))) == 5

    def test_enumeration_over_projection(self):
        formula = CNF()
        x1, x2, x3 = formula.new_variables(3)
        formula.add_clause([x1, x2])
        models = list(iterate_models(formula, over_variables=[x1, x2]))
        assert len(models) == 3
        assert all(set(model) == {x1, x2} for model in models)
        del x3

    def test_enumeration_of_unsat_formula_is_empty(self):
        formula = CNF()
        formula.add_unit(1)
        formula.add_unit(-1)
        assert list(iterate_models(formula)) == []


class TestEncoders:
    def test_xor_gate(self):
        formula = CNF()
        a, b, out = formula.new_variables(3)
        encode_xor_gate(formula, a, b, out)
        models = list(iterate_models(formula, over_variables=[a, b, out]))
        assert len(models) == 4
        assert all(model[out] == (model[a] != model[b]) for model in models)

    def test_empty_xor_with_odd_parity_rejected(self):
        with pytest.raises(SolverError):
            encode_xor(CNF(), [], True)

    def test_empty_xor_with_even_parity_is_noop(self):
        formula = CNF()
        encode_xor(formula, [], False)
        assert formula.num_clauses == 0

    def test_bit_helpers(self):
        formula = CNF()
        variables = formula.new_variables(4)
        model = dict(zip(variables, [False, True, False, True]))
        assert integer_of_bits(model, variables) == 0b1010

    def test_integer_of_bits_reads_every_value_little_endian(self):
        variables = [3, 1, 4, 2]  # list order, not variable order, sets bit positions
        for value in range(16):
            model = {
                variable: bool(value >> position & 1)
                for position, variable in enumerate(variables)
            }
            assert integer_of_bits(model, variables) == value

    @pytest.mark.parametrize("parity", [True, False])
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_xor_chain_admits_exactly_its_parity(self, length, parity):
        formula = CNF()
        variables = formula.new_variables(length)
        encode_xor(formula, variables, parity)
        assert formula.num_variables == 2 * length - 1  # one auxiliary per link
        assert formula.num_clauses == 4 * (length - 1) + 1
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=length)
            if (sum(bits) % 2 == 1) == parity
        }
        assert projected_models(formula, variables) == expected

    @pytest.mark.parametrize(
        "min_weight, odd_weight", [(1, False), (2, False), (1, True), (2, True), (3, True)]
    )
    def test_column_design_space_admits_exactly_its_columns(self, min_weight, odd_weight):
        formula = CNF()
        column = formula.new_variables(5)
        encode_column_design_space(formula, column, min_weight, odd_weight)
        expected = {
            bits
            for bits in itertools.product([False, True], repeat=5)
            if sum(bits) >= min_weight and (sum(bits) % 2 == 1 or not odd_weight)
        }
        assert projected_models(formula, column) == expected

    @pytest.mark.parametrize("min_weight, odd_weight", [(3, False), (4, True), (4, False)])
    def test_column_design_space_without_an_encoding_rejected(self, min_weight, odd_weight):
        with pytest.raises(SolverError):
            encode_column_design_space(CNF(4), [1, 2, 3, 4], min_weight, odd_weight)


class TestRandomInstances:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force_on_random_3sat(self, seed):
        rng = np.random.default_rng(seed)
        num_variables = int(rng.integers(3, 9))
        num_clauses = int(rng.integers(1, 4 * num_variables))
        formula = CNF(num_variables)
        for _ in range(num_clauses):
            width = int(rng.integers(1, 4))
            variables = rng.choice(num_variables, size=width, replace=False) + 1
            signs = rng.integers(0, 2, size=width) * 2 - 1
            formula.add_clause(list(variables * signs))
        assert CDCLSolver(formula).solve().satisfiable == brute_force_satisfiable(formula)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_returned_models_always_satisfy(self, seed):
        rng = np.random.default_rng(seed)
        num_variables = int(rng.integers(3, 12))
        formula = CNF(num_variables)
        for _ in range(3 * num_variables):
            width = int(rng.integers(2, 4))
            variables = rng.choice(num_variables, size=width, replace=False) + 1
            signs = rng.integers(0, 2, size=width) * 2 - 1
            formula.add_clause(list(variables * signs))
        result = CDCLSolver(formula).solve()
        if result.satisfiable:
            assignment = [
                result.assignment[v] for v in range(1, formula.num_variables + 1)
            ]
            assert formula.evaluate(assignment)
