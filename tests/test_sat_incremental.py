"""Tests for the incremental CDCL core: persistence, budgets, hygiene.

Covers the three regression bugs fixed alongside the incremental rewrite
(duplicate-literal clauses, the conflict-budget boundary, bootstrap
determinism lives in test_einsim) plus differential tests of the incremental
solver against brute force and against the historical one-shot oracle.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetExhaustedError, SolverError
from repro.sat import CNF, CDCLSolver, iterate_models, simplify_literals
from repro.sat.encoders import encode_lex_geq


def brute_force_models(formula: CNF, variables):
    """Reference projected-model enumeration by exhaustive search."""
    models = set()
    for bits in itertools.product([False, True], repeat=formula.num_variables):
        if formula.evaluate(list(bits)):
            models.add(tuple((v, bits[v - 1]) for v in variables))
    return models


def pigeonhole(num_pigeons: int, num_holes: int) -> CNF:
    formula = CNF()
    variables = {
        (pigeon, hole): formula.new_variable()
        for pigeon in range(num_pigeons)
        for hole in range(num_holes)
    }
    for pigeon in range(num_pigeons):
        formula.add_clause([variables[(pigeon, hole)] for hole in range(num_holes)])
    for hole in range(num_holes):
        pigeons = [variables[(pigeon, hole)] for pigeon in range(num_pigeons)]
        for first, second in itertools.combinations(pigeons, 2):
            formula.add_clause([-first, -second])
    return formula


def random_formula(seed: int, with_dirty_clauses: bool = False) -> CNF:
    """A random small CNF; optionally with duplicate literals and tautologies."""
    rng = np.random.default_rng(seed)
    num_variables = int(rng.integers(3, 9))
    num_clauses = int(rng.integers(1, 4 * num_variables))
    formula = CNF(num_variables)
    for _ in range(num_clauses):
        width = int(rng.integers(1, 4))
        variables = rng.choice(num_variables, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clause = list(variables * signs)
        if with_dirty_clauses and rng.random() < 0.3:
            clause.append(clause[0])  # duplicate literal
        if with_dirty_clauses and rng.random() < 0.15:
            pivot = int(rng.integers(1, num_variables + 1))
            clause.extend([pivot, -pivot])  # tautology
        formula.add_clause(clause)
    return formula


class TestClauseHygiene:
    """Regression tests for CNF.add_clause clause hygiene."""

    def test_duplicate_literal_clause_propagates_as_unit(self):
        # Historically [x, x] put both watch slots on the same literal and
        # was misreported as a conflict instead of propagating x.
        formula = CNF()
        formula.add_clause([1, 1])
        result = CDCLSolver(formula).solve()
        assert result.satisfiable
        assert result.value(1) is True

    def test_duplicate_literals_are_deduped_in_storage(self):
        formula = CNF()
        formula.add_clause([2, 2, -3, 2])
        assert formula.clauses == [(2, -3)]

    def test_tautology_is_dropped(self):
        formula = CNF()
        formula.add_clause([1, -1])
        assert formula.num_clauses == 0
        # The formula is unconstrained: both polarities of 1 are models.
        assert len(list(iterate_models(formula, over_variables=[1]))) == 2

    def test_tautology_with_extra_literals_is_dropped(self):
        formula = CNF()
        formula.add_clause([4, 2, -4])
        assert formula.num_clauses == 0

    def test_duplicate_then_negation_still_unsat(self):
        formula = CNF()
        formula.add_clause([1, 1])
        formula.add_clause([-1, -1])
        assert not CDCLSolver(formula).solve().satisfiable

    def test_simplify_literals_helper(self):
        assert simplify_literals([1, 1, 2]) == (1, 2)
        assert simplify_literals([1, -1]) is None
        with pytest.raises(SolverError):
            simplify_literals([])
        with pytest.raises(SolverError):
            simplify_literals([0])

    def test_solver_add_clause_applies_hygiene(self):
        solver = CDCLSolver(CNF(2))
        solver.add_clause([1, -1])  # tautology: no constraint
        solver.add_clause([2, 2])  # unit after dedup
        result = solver.solve()
        assert result.satisfiable
        assert result.value(2) is True


class TestConflictBudget:
    """Regression tests for the dedicated indeterminate outcome."""

    def test_budget_exhaustion_is_distinguishable(self):
        formula = pigeonhole(7, 6)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            CDCLSolver(formula, max_conflicts=1).solve()
        assert isinstance(excinfo.value, SolverError)  # backwards compatible
        assert excinfo.value.budget == 1
        assert excinfo.value.conflicts == 1

    def test_budget_boundary_is_exact(self):
        # Measure the conflicts a full solve needs, then check that exactly
        # that budget suffices and one less is indeterminate.
        formula = pigeonhole(4, 3)
        reference = CDCLSolver(formula).solve()
        assert not reference.satisfiable
        needed = reference.conflicts
        assert needed > 1

        exact = CDCLSolver(formula, max_conflicts=needed).solve()
        assert not exact.satisfiable
        assert exact.conflicts == needed

        with pytest.raises(BudgetExhaustedError) as excinfo:
            CDCLSolver(formula, max_conflicts=needed - 1).solve()
        assert excinfo.value.conflicts == needed - 1

    def test_budget_never_exceeded_on_raise(self):
        for budget in (1, 2, 5, 20):
            solver = CDCLSolver(pigeonhole(6, 5), max_conflicts=budget)
            with pytest.raises(BudgetExhaustedError) as excinfo:
                solver.solve()
            assert excinfo.value.conflicts <= budget

    def test_solver_usable_after_budget_exhaustion(self):
        solver = CDCLSolver(pigeonhole(5, 4), max_conflicts=1)
        with pytest.raises(BudgetExhaustedError):
            solver.solve()
        result = solver.solve(max_conflicts=None)
        assert not result.satisfiable

    def test_per_call_budget_overrides_constructor(self):
        solver = CDCLSolver(pigeonhole(5, 4), max_conflicts=1)
        assert not solver.solve(max_conflicts=None).satisfiable


class TestIncrementalSolving:
    def test_solver_persists_across_added_clauses(self):
        formula = CNF()
        formula.add_clause([1, 2])
        solver = CDCLSolver(formula)
        assert solver.solve().satisfiable
        solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable
        assert result.value(2) is True
        solver.add_clause([-2])
        assert not solver.solve().satisfiable
        # UNSAT is permanent once derived at the root level.
        assert not solver.solve().satisfiable
        assert solver.stats().solve_calls == 4

    def test_statistics_accumulate_across_calls(self):
        solver = CDCLSolver(pigeonhole(4, 3))
        first = solver.solve()
        second = solver.solve()
        stats = solver.stats()
        assert stats.solve_calls == 2
        assert stats.conflicts >= first.conflicts
        assert second.conflicts == 0  # permanently UNSAT: no new work
        payload = stats.as_dict()
        assert payload["variables"] == 12
        assert set(payload) >= {"conflicts", "decisions", "propagations", "restarts"}

    @pytest.mark.parametrize("seed", range(25))
    def test_added_clauses_match_fresh_solve(self, seed):
        # A live solver that gains clauses between calls, as SatBeerSolver's
        # does with blocking clauses, answers like a fresh solver on the
        # accumulated formula.
        rng = np.random.default_rng(seed)

        def random_clause(num_variables, width):
            variables = rng.choice(num_variables, size=width, replace=False) + 1
            signs = rng.integers(0, 2, size=width) * 2 - 1
            return [int(literal) for literal in variables * signs]

        num_variables = int(rng.integers(4, 9))
        formula = CNF(num_variables)
        for _ in range(int(rng.integers(num_variables, 2 * num_variables + 1))):
            formula.add_clause(random_clause(num_variables, int(rng.integers(2, 4))))
        solver = CDCLSolver(formula)
        accumulated = formula.copy()
        for _ in range(8):
            result = solver.solve()
            assert result.satisfiable == CDCLSolver(accumulated).solve().satisfiable
            if result.satisfiable:
                assignment = [result.assignment[v] for v in range(1, num_variables + 1)]
                assert accumulated.evaluate(assignment)
                # Block the model on a random subset of its variables.
                width = int(rng.integers(1, num_variables + 1))
                variables = rng.choice(num_variables, size=width, replace=False) + 1
                clause = [int(-v if assignment[v - 1] else v) for v in variables]
            else:
                clause = random_clause(num_variables, int(rng.integers(1, 4)))
            solver.add_clause(clause)
            accumulated.add_clause(clause)


class TestEnumerationDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_enumeration_matches_brute_force(self, seed):
        formula = random_formula(seed, with_dirty_clauses=True)
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, formula.num_variables + 1))
        projection = sorted(rng.choice(formula.num_variables, size=width, replace=False) + 1)
        expected = brute_force_models(formula, projection)
        observed = {
            tuple(sorted(model.items()))
            for model in iterate_models(formula, over_variables=projection)
        }
        assert observed == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_matches_one_shot_oracle(self, seed):
        formula = random_formula(seed)
        incremental = {
            tuple(sorted(model.items())) for model in iterate_models(formula)
        }
        one_shot = {
            tuple(sorted(model.items()))
            for model in iterate_models(formula, incremental=False)
        }
        assert incremental == one_shot

    def test_enumeration_with_explicit_solver_reports_stats(self):
        formula = CNF()
        formula.add_clause([1, 2, 3])
        solver = CDCLSolver(formula)
        models = list(iterate_models(formula, over_variables=[1, 2, 3], solver=solver))
        assert len(models) == 7
        assert solver.stats().solve_calls == 8  # 7 models + final UNSAT

    def test_one_shot_oracle_rejects_solver_argument(self):
        formula = CNF(1)
        formula.add_clause([1])
        with pytest.raises(SolverError):
            list(iterate_models(formula, incremental=False, solver=CDCLSolver(formula)))

    def test_one_shot_oracle_does_not_mutate_formula(self):
        formula = CNF()
        formula.add_clause([1, 2])
        before = formula.num_clauses
        list(iterate_models(formula, incremental=False))
        assert formula.num_clauses == before

    def test_mismatched_solver_rejected(self):
        formula = CNF()
        formula.add_clause([1, 2])
        with pytest.raises(SolverError):
            list(iterate_models(formula, over_variables=[1, 2], solver=CDCLSolver()))


class TestRestartsAndReduceDB:
    def test_luby_restarts_fire_on_hard_instances(self):
        formula = pigeonhole(7, 6)
        solver = CDCLSolver(formula)
        solver._restart_base = 8  # shrink the interval to exercise restarts
        result = solver.solve()
        assert not result.satisfiable
        assert solver.stats().restarts > 0

    def test_reduce_db_deletes_learned_clauses_and_stays_correct(self):
        formula = pigeonhole(7, 6)
        solver = CDCLSolver(formula)
        solver._restart_base = 8  # restarts return to level 0 where reduceDB runs
        solver._max_learnt = 16
        result = solver.solve()
        assert not result.satisfiable
        stats = solver.stats()
        assert stats.deleted > 0
        assert stats.learnt_total > stats.deleted

    def test_reduce_db_preserves_enumeration_semantics(self):
        formula = random_formula(7)
        solver = CDCLSolver(formula)
        solver._max_learnt = 2
        observed = {
            tuple(sorted(model.items()))
            for model in iterate_models(formula, solver=solver)
        }
        expected = brute_force_models(formula, range(1, formula.num_variables + 1))
        assert observed == expected


class PerClauseLoad(CDCLSolver):
    """Oracle: the constructor that sent every clause through ``add_clause``."""

    def __init__(self, formula: CNF):
        super().__init__()
        self._ensure_variables(formula.num_variables)
        for clause in formula.clauses:
            self.add_clause(clause)
        self._max_learnt = max(1000, len(self._clauses) // 2)


@st.composite
def dirty_formulas(draw):
    """Random CNFs with units, duplicate literals and root-satisfied clauses."""
    num_variables = draw(st.integers(min_value=2, max_value=9))
    literals = st.integers(min_value=1, max_value=num_variables).flatmap(
        lambda variable: st.sampled_from([variable, -variable])
    )
    formula = CNF(num_variables + draw(st.integers(min_value=0, max_value=2)))
    units = draw(st.lists(literals, max_size=3))
    for unit in units:
        formula.add_clause([unit, unit])
    for clause in draw(st.lists(st.lists(literals, min_size=1, max_size=4), max_size=30)):
        formula.add_clause(clause)
        if units and draw(st.booleans()):
            # A copy that the root assignment satisfies or shortens.
            unit = draw(st.sampled_from(units))
            formula.add_clause(clause + [draw(st.sampled_from([unit, -unit]))])
    return formula


def enumeration_trace(solver: CDCLSolver, formula: CNF, limit: int = 12):
    """Models, learned clauses and statistics of an incremental enumeration."""
    initial = solver.stats()
    models = list(itertools.islice(iterate_models(formula, solver=solver), limit))
    learnt = [list(clause) for clause in solver._learnt]
    return initial, models, learnt, solver.stats()


class TestBulkLoad:
    """The constructor's bulk clause load against per-clause ``add_clause``."""

    @given(dirty_formulas())
    @settings(max_examples=200, deadline=None)
    def test_bulk_load_matches_per_clause_load(self, formula):
        assert enumeration_trace(CDCLSolver(formula), formula) == enumeration_trace(
            PerClauseLoad(formula), formula
        )

    def test_bulk_load_matches_per_clause_load_on_hard_instance(self):
        formula = pigeonhole(6, 5)
        bulk, per_clause = CDCLSolver(formula), PerClauseLoad(formula)
        assert bulk.solve() == per_clause.solve()
        assert bulk.stats() == per_clause.stats()
        assert [list(c) for c in bulk._learnt] == [list(c) for c in per_clause._learnt]


class TestLexicographicOrder:
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_projection_is_exactly_the_lex_order(self, length):
        formula = CNF()
        left = formula.new_variables(length)
        right = formula.new_variables(length)
        encode_lex_geq(formula, left, right)
        assert formula.num_variables == 3 * length - 1
        assert formula.num_clauses == 3 * length - 2
        expected = {
            tuple(zip(left, upper)) + tuple(zip(right, lower))
            for upper in itertools.product([False, True], repeat=length)
            for lower in itertools.product([False, True], repeat=length)
            if upper >= lower
        }
        assert brute_force_models(formula, left + right) == expected

    def test_lengths_must_match(self):
        with pytest.raises(SolverError):
            encode_lex_geq(CNF(3), [1, 2], [3])
