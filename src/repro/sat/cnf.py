"""CNF formula container.

Literals follow the DIMACS convention: variables are positive integers
``1, 2, 3, ...``; a positive literal ``v`` asserts the variable is true and a
negative literal ``-v`` asserts it is false.  A clause is a disjunction of
literals, and a formula is a conjunction of clauses.

A clause enters a formula one of two ways.  :meth:`CNF.add_clause` checks
it: every literal must be a non-zero integer, duplicates are removed,
tautologies dropped, and the variable pool grows to cover it.  Outside
callers and blocking clauses take that route.  The encoders of
:mod:`repro.sat.encoders` and :mod:`repro.core.beer_sat` build their clauses
from distinct variables they allocated themselves, so those clauses are
clean by construction and go through ``CNF._append_clean`` unchecked; a
clean clause is exactly what ``add_clause`` would have stored.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.predicates import is_integer


def simplify_literals(literals: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """Validate and clean one clause: dedupe literals, detect tautologies.

    Every literal must be a non-zero Python or numpy integer; a bool, float
    or string raises :class:`SolverError` rather than being read as one
    (``True`` would name variable 1 and ``1.7`` would be truncated to it).

    Returns the literals as Python ints with duplicates removed
    (first-occurrence order), or ``None`` when the clause contains a
    complementary pair ``x, -x`` and is a tautology that may be dropped.
    Duplicate literals are a correctness hazard downstream, not just noise:
    a two-watched-literal scheme would put both watch slots of ``[x, x]`` on
    the same literal and misreport a unit clause as a conflict.
    """
    checked: List[int] = []
    for literal in literals:
        if type(literal) is not int:  # the fast path skips the ABC check
            if not is_integer(literal):
                raise SolverError(f"literal {literal!r} is not an integer")
            literal = int(literal)
        if literal == 0:
            raise SolverError("0 is not a valid literal")
        checked.append(literal)
    if not checked:
        raise SolverError("cannot add an empty clause (formula would be trivially UNSAT)")
    seen: set = set()
    cleaned: List[int] = []
    for literal in checked:
        if -literal in seen:
            return None
        if literal not in seen:
            seen.add(literal)
            cleaned.append(literal)
    return tuple(cleaned)


class CNF:
    """A conjunctive-normal-form formula with explicit variable allocation."""

    def __init__(self, num_variables: int = 0):
        if num_variables < 0:
            raise SolverError("number of variables cannot be negative")
        self._num_variables = num_variables
        self._clauses: List[Tuple[int, ...]] = []

    # -- variables ---------------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Highest variable index allocated so far."""
        return self._num_variables

    def new_variable(self) -> int:
        """Allocate and return a fresh variable."""
        self._num_variables += 1
        return self._num_variables

    def new_variables(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return them in order."""
        if count < 0:
            raise SolverError("cannot allocate a negative number of variables")
        return [self.new_variable() for _ in range(count)]

    # -- clauses -------------------------------------------------------------
    @property
    def clauses(self) -> List[Tuple[int, ...]]:
        """The clauses added so far (tuples of literals)."""
        return list(self._clauses)

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self._clauses)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add one clause; literals referencing unallocated variables extend the pool.

        Clause hygiene is applied at add time: a literal that is not a
        non-zero integer raises :class:`SolverError`, duplicate literals are
        removed and tautologies (clauses containing both ``x`` and ``-x``)
        are silently dropped, so the stored formula is always watchable by a
        two-watched-literal solver.
        """
        literals = list(literals)
        clause = simplify_literals(literals)
        self._num_variables = max(
            self._num_variables, max(abs(int(literal)) for literal in literals)
        )
        if clause is not None:
            self._clauses.append(clause)

    def _append_clean(self, *literals: int) -> None:
        """Append the clause ``literals`` without :meth:`add_clause`'s checks.

        Only for clauses the program builds itself: there must be at least
        one literal, and the literals must be distinct, non-complementary,
        non-zero ints over variables already allocated, so that
        ``add_clause`` would store the same tuple.
        """
        self._clauses.append(literals)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def add_unit(self, literal: int) -> None:
        """Add a unit clause forcing ``literal`` to be true."""
        self.add_clause([literal])

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the formula under a full assignment.

        ``assignment[v - 1]`` gives the value of variable ``v``.
        """
        if len(assignment) < self._num_variables:
            raise SolverError(
                f"assignment covers {len(assignment)} variables, "
                f"formula has {self._num_variables}"
            )
        for clause in self._clauses:
            satisfied = False
            for literal in clause:
                value = assignment[abs(literal) - 1]
                if (literal > 0) == value:
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def copy(self) -> "CNF":
        """Return an independent copy of the formula."""
        duplicate = CNF(self._num_variables)
        duplicate._clauses = list(self._clauses)
        return duplicate

    def __repr__(self) -> str:
        return f"CNF(variables={self._num_variables}, clauses={len(self._clauses)})"
