"""Decision-level pins of the CDCL core on paths BEER's profiles miss.

``tests/test_sat_bit_identity.py`` pins seven BEER profiles, all k <= 16.
This file pins what those leave out: an exhaustive k=32 BEER solve, and
seeded raw :class:`~repro.sat.CDCLSolver` runs that reach

* a conflict on an original two-literal clause,
* learnt two-literal clauses,
* Luby restarts and reduceDB (with the restart interval and the learnt
  clause limit shrunk),
* blocking clauses that root units shrink to two literals, and a solver
  that grows its variable count between solves.

Each raw run pins its model sequence, ``stats().as_dict()`` and the literal
lists of its learnt clauses (whose order records every watch swap), so a
change to the propagation order, the reasons or the conflict literal order
moves a pin.  Every run also asserts that it reaches its path.  The pinned
values were taken before two-literal clauses became implications in the
propagation core; they must not be edited to make a change pass.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SatBeerSolver, charged_patterns, expected_miscorrection_profile
from repro.ecc import random_hamming_code
from repro.sat import CNF, CDCLSolver, iterate_models
from repro.sat.solver import Clause


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def mixed_formula(seed: int, num_variables: int, widths) -> CNF:
    """Random clauses of the given widths over distinct variables."""
    rng = np.random.default_rng(seed)
    formula = CNF(num_variables)
    for width in widths:
        variables = rng.choice(num_variables, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width) * 2 - 1
        formula.add_clause([int(literal) for literal in variables * signs])
    return formula


def shuffled_widths(seed: int, binary: int, ternary: int, long: int):
    widths = [2] * binary + [3] * ternary + [5] * long
    np.random.default_rng(seed).shuffle(widths)
    return widths


def pigeonhole(num_pigeons: int, num_holes: int) -> CNF:
    formula = CNF(num_pigeons * num_holes)
    for pigeon in range(num_pigeons):
        formula.add_clause([pigeon * num_holes + hole + 1 for hole in range(num_holes)])
    for hole in range(num_holes):
        for first, second in itertools.combinations(range(num_pigeons), 2):
            formula.add_clause([-(first * num_holes + hole + 1), -(second * num_holes + hole + 1)])
    return formula


class Recorder:
    """Wraps a solver's conflict analysis to record each conflict's shape."""

    def __init__(self, solver: CDCLSolver):
        self.conflicts = []
        analyze = solver._analyze

        def recording(conflict):
            self.conflicts.append((len(conflict), conflict.learnt))
            return analyze(conflict)

        solver._analyze = recording

    @property
    def original_binary_conflicts(self) -> int:
        return sum(1 for size, learnt in self.conflicts if size == 2 and not learnt)


def _trace(solver: CDCLSolver, models):
    """``(models, stats, learnt digest)`` after a run; models as true literals."""
    literals = [sorted(v if value else -v for v, value in model.items()) for model in models]
    learnt = [list(clause) for clause in solver._learnt]
    return len(literals), _digest(literals), solver.stats().as_dict(), _digest(learnt)


def _stats(variables, clauses, learnt, conflicts, decisions, propagations, restarts,
           learnt_total, deleted, solve_calls):
    return {
        "variables": variables, "clauses": clauses, "learnt": learnt,
        "conflicts": conflicts, "decisions": decisions, "propagations": propagations,
        "restarts": restarts, "learnt_total": learnt_total, "deleted": deleted,
        "solve_calls": solve_calls,
    }


#: The one candidate of the k=32 solve: the code up to a parity-row permutation.
K32_COLUMNS = [
    3, 15, 53, 31, 33, 40, 13, 19, 59, 26, 7, 37, 62, 36, 38, 23,
    58, 43, 57, 29, 42, 22, 21, 41, 18, 45, 27, 9, 49, 61, 63, 48,
]

#: ``solver_stats`` of the k=32 solve, in :class:`~repro.sat.SolverStats` field order.
K32_STATS = (152381, 374932, 11, 15, 21453, 279022, 0, 11, 0, 2)


def test_exhaustive_k32_beer_solve():
    code = random_hamming_code(32, rng=np.random.default_rng(7))
    profile = expected_miscorrection_profile(code, list(charged_patterns(32, [1, 2])))
    solution = SatBeerSolver(32).solve(profile)
    assert [list(found.parity_column_ints) for found in solution.codes] == [K32_COLUMNS]
    assert solution.solver_stats == _stats(*K32_STATS)


def run_mixed_sat():
    """Enumeration of a satisfiable mixed-width formula."""
    formula = mixed_formula(0, 100, shuffled_widths(1000, 50, 300, 20))
    solver = CDCLSolver(formula)
    recorder = Recorder(solver)
    models = list(itertools.islice(iterate_models(formula, solver=solver), 40))
    return solver, recorder, models


def run_mixed_unsat():
    """One refutation of an unsatisfiable mixed-width formula."""
    formula = mixed_formula(3, 150, shuffled_widths(1003, 60, 520, 0))
    solver = CDCLSolver(formula)
    recorder = Recorder(solver)
    assert not solver.solve().satisfiable
    return solver, recorder, []


def run_restarts_reduce_db():
    """Pigeonhole 7/6 with restarts every 8 Luby units and reduceDB at 16."""
    solver = CDCLSolver(pigeonhole(7, 6))
    solver._restart_base = 8
    solver._max_learnt = 16
    recorder = Recorder(solver)
    assert not solver.solve().satisfiable
    return solver, recorder, []


#: Root units: the values of variables 1..8 in one model of the random part.
FIXED = (-1, -2, 3, -4, 5, -6, -7, -8)

#: Clauses over five new variables, each added before one more solve.
GROWTH = ([81, -82, 9], [-81, 83], [82, -83, -84, 12], [84, -85], [85, 81, 10])


def run_projection_and_growth():
    """A solver that grows, then root units shrink blocking clauses to two literals.

    The units come first, so the bulk load also shortens the formula's own
    clauses at the root.  Clauses over new variables then grow the solver
    between solves, and the enumeration projects onto the eight fixed
    variables and two free ones.
    """
    random_part = mixed_formula(17, 80, shuffled_widths(1017, 30, 220, 10))
    formula = CNF(80)
    for literal in FIXED:
        formula.add_clause([literal])
    for clause in random_part.clauses:
        formula.add_clause(clause)
    solver = CDCLSolver(formula)
    recorder = Recorder(solver)
    models = []
    for clause in GROWTH:
        solver.add_clause(clause)
        result = solver.solve()
        assert result.satisfiable
        models.append({v: value for v, value in result.assignment.items() if v > 75})
    projection = [abs(literal) for literal in FIXED] + [9, 10]
    models.extend(iterate_models(formula, over_variables=projection, solver=solver))
    return solver, recorder, models


RUNS = {
    "mixed-sat": run_mixed_sat,
    "mixed-unsat": run_mixed_unsat,
    "restarts-reduce-db": run_restarts_reduce_db,
    "projection-and-growth": run_projection_and_growth,
}


#: name -> (model count, model digest, ``stats()`` in field order, learnt digest)
RAW_PINS = {
    "mixed-sat": (
        40, "af5f1c63db04dbde5389d19eb4aa7aaa0a063bac83a514444dfd4a92d4aa12a9",
        (100, 409, 50, 53, 838, 4541, 0, 50, 0, 40),
        "9ef8edcb185a010c3f60f8a44aba3b47df290023654217bca73c5502c54580fb",
    ),
    "mixed-unsat": (
        0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        (150, 580, 206, 213, 238, 7407, 2, 206, 0, 1),
        "c09d33d5a84d4704d1c2f2d4cc3d185067cf027c31982067324f30d79b679764",
    ),
    "projection-and-growth": (
        9, "fa3b829664a2dc054b18cd308cecc2a47d1fabcb117ca6671d356c66e60c9316",
        (85, 209, 5, 6, 176, 764, 0, 5, 0, 10),
        "4e46d4f241971402b1200a67feb4fa61373b7d1d688bb0f40249534da3cf09cc",
    ),
    "restarts-reduce-db": (
        0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        (42, 133, 285, 1210, 1973, 14723, 61, 1204, 919, 1),
        "a54fd182728bd04814d044ad46645d6c43a8f3a1cf317e637e3af665f6ef6a04",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_raw_solver_run_is_bit_identical(name):
    solver, recorder, models = RUNS[name]()
    count, models_digest, stats, learnt_digest = RAW_PINS[name]
    assert _trace(solver, models) == (count, models_digest, _stats(*stats), learnt_digest)


def test_runs_reach_their_paths():
    solver, recorder, _ = run_mixed_sat()
    assert recorder.original_binary_conflicts > 0
    assert any(len(clause) == 2 for clause in solver._learnt)
    solver, recorder, _ = run_mixed_unsat()
    assert recorder.original_binary_conflicts > 0
    assert any(len(clause) == 2 for clause in solver._learnt)
    solver, _, _ = run_restarts_reduce_db()
    assert solver.stats().restarts > 0 and solver.stats().deleted > 0
    solver, recorder, models = run_projection_and_growth()
    assert recorder.original_binary_conflicts > 0
    assert len(models) > len(GROWTH) + 1 and solver.stats().variables == 85
    # Two blocking clauses over the ten projected variables keep only 9 and 10.
    blocking = [sorted(clause) for clause in solver._clauses if {abs(v) for v in clause} == {9, 10}]
    assert blocking == [[-9, 10], [9, 10]]


class ClauseObjects(CDCLSolver):
    """Oracle: two-literal clauses attached as ``Clause`` objects, not implications.

    The propagation core visits a two-literal ``Clause`` as it visits any
    clause, so this solver runs the watch scheme the implications replaced.
    """

    def _attach_formula(self, formula: CNF) -> None:
        for clause in formula.clauses:
            self._attach_at_root(clause)

    def _attach_at_root(self, clause) -> None:
        value = self._value
        if any(value[literal] for literal in clause):
            return
        remaining = [literal for literal in clause if value[literal] is None]
        if len(remaining) != 2:
            super()._attach_at_root(remaining)
            return
        attached = Clause(remaining)
        self._clauses.append(attached)
        self._watch(attached)


def random_mixed_formula(seed: int) -> CNF:
    """8-40 variables, 2-4 clauses per variable, a few of them units.

    About half of these formulas are unsatisfiable, and about half reach a
    conflict on an original two-literal clause.
    """
    rng = np.random.default_rng(seed)
    num_variables = int(rng.integers(8, 41))
    num_clauses = int(rng.integers(2 * num_variables, 4 * num_variables + 1))
    widths = rng.choice([1, 2, 3, 4, 5], size=num_clauses, p=[0.01, 0.3, 0.5, 0.1, 0.09])
    return mixed_formula(seed, num_variables, widths)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_implications_decide_as_two_literal_clauses(seed):
    formula = random_mixed_formula(seed)
    traces = []
    for solver in (CDCLSolver(formula), ClauseObjects(formula)):
        models = list(itertools.islice(iterate_models(formula, solver=solver), 20))
        traces.append((models, solver.stats(), [list(clause) for clause in solver._learnt]))
    assert traces[0] == traces[1]
