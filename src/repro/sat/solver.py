"""An incremental conflict-driven clause-learning (CDCL) SAT solver.

The solver implements the standard modern architecture and is *persistent*:
one :class:`CDCLSolver` survives across :meth:`~CDCLSolver.solve` calls
interleaved with :meth:`~CDCLSolver.add_clause`.  That is the shape of BEER's
enumeration, which re-solves after each blocking clause until the formula is
UNSAT.  The BEER encoding yields one model per equivalence class, so an
exhaustive solve of a uniquely identified code is one model plus one UNSAT
call.

* two-watched-literal unit propagation, with each original two-literal
  clause an implication: a bare literal in its two watch lists, not a
  :class:`Clause`,
* first-UIP conflict analysis with non-chronological backjumping,
* activity-based (VSIDS-style) branching backed by an indexed binary max-heap
  (O(log V) decisions instead of an O(V) scan) with phase saving,
* incremental clause addition via :meth:`CDCLSolver.add_clause` with
  root-level simplification,
* Luby restarts and learned-clause deletion (reduceDB).  BEER's profiles at
  the benchmarked sizes trigger neither; they bound the search and the
  memory on harder formulas.

Learned clauses, variable activities, and saved phases are all kept alive
between :meth:`CDCLSolver.solve` calls; :func:`iterate_models` exploits this
so that enumerating the *n*-th model costs incremental work instead of a full
re-propagation of the whole formula.  The historical one-shot enumeration
(fresh solver per model) is retained behind ``incremental=False`` as the
differential oracle for the incremental path.

A per-call conflict budget is supported; exhausting it raises
:class:`repro.exceptions.BudgetExhaustedError`, a dedicated indeterminate
outcome distinct from encoding errors.

The solver is pure Python, so its cost is interpreter work per clause and
per watcher; the hot paths keep it down without changing a decision.
``CDCLSolver(formula)`` grows its variable arrays in bulk and attaches the
formula's own (already clean) clause list in one loop; only
:meth:`~CDCLSolver.add_clause`, which outside callers and blocking clauses
use, checks and simplifies each clause.  Literal truth and watch lists are
indexed by the literal itself: entry ``l`` of a list covering ±1..V, the
negative literals counted from the end, so ``value[v]`` for ``v > 0`` is the
variable's assignment and no sign is tested on the hot path.  A watch list
holds implications (ints) and clauses in the order they were watched, which
is the order a clause-only watch scheme visits them, and a two-literal
conflict presents its literals as that scheme's swap leaves them; so
two-literal clauses as implications change no decision.  Propagation, the
three-literal clause, backtracking and the branch heap's pop read solver
state through locals and run inline.  The statistics and every decision are
pinned by ``tests/test_sat_bit_identity.py`` and
``tests/test_sat_solver_pins.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.exceptions import BudgetExhaustedError, SolverError
from repro.obs import TRACER
from repro.sat.cnf import CNF, simplify_literals

#: With tracing enabled, a ``sat.solver.stats`` metric event (a full
#: :class:`SolverStats` snapshot) is emitted every this many conflicts —
#: the periodic heartbeat long solves/enumerations leave in the trace.
STATS_SNAPSHOT_INTERVAL = 1024


class Clause(list):
    """A clause attached to the solver: a literal list plus solver metadata.

    Every learned clause and every original clause of three or more literals
    is a ``Clause``; an original two-literal clause is not (it lives in the
    watch lists as two implications).  A conflict on such an implication is
    a fresh two-literal ``Clause`` for conflict analysis to read.

    Clauses are distinguished by identity, not value: two learned clauses
    with the same literals are distinct objects, so watch lists and reason
    pointers must be compared with ``is`` (see ``_remove_watch``).

    ``learnt`` and ``activity`` default to the class attributes below and
    are set on learned clauses only.  A Python-level ``__init__`` would
    cost more than the list copy itself on every original clause.
    """

    learnt = False
    activity = 0.0


@dataclass
class SolverStats:
    """Cumulative statistics of one :class:`CDCLSolver` instance."""

    variables: int = 0
    clauses: int = 0
    learnt: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_total: int = 0
    deleted: int = 0
    solve_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The statistics as a plain JSON-serialisable dict."""
        return dataclasses.asdict(self)


@dataclass
class SATResult:
    """Outcome of one SAT solver invocation (counters are per solve call)."""

    satisfiable: bool
    #: Variable assignment (``assignment[v]`` for variable ``v``); empty if UNSAT.
    assignment: Dict[int, bool]
    #: Number of conflicts encountered while solving.
    conflicts: int
    #: Number of decisions made while solving.
    decisions: int
    #: Number of literals propagated while solving.
    propagations: int = 0
    #: Number of restarts performed while solving.
    restarts: int = 0

    def value(self, variable: int) -> bool:
        """Return the value assigned to ``variable`` (only valid when satisfiable)."""
        if not self.satisfiable:
            raise SolverError("no model available for an unsatisfiable formula")
        return self.assignment[variable]


def _luby(index: int) -> int:
    """The ``index``-th term (0-based) of the Luby sequence 1,1,2,1,1,2,4,..."""
    size = 1
    sequence = 0
    while size < index + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        sequence -= 1
        index %= size
    return 1 << sequence


class _VariableHeap:
    """Indexed binary max-heap of variables ordered by VSIDS activity.

    Replaces the O(V) linear scan per decision with O(log V) pops; ``update``
    restores heap order after an activity bump (activities only grow between
    rescales, and rescaling is uniform, so sift-up suffices).  The pop is
    inlined in :meth:`CDCLSolver._pick_branch_variable`, the one caller.
    """

    __slots__ = ("_activity", "_heap", "_position")

    def __init__(self, activity: List[float]):
        self._activity = activity  # shared with the solver; never rebound
        self._heap: List[int] = []
        self._position: List[int] = [-1]  # var -> heap index, -1 if absent

    def append_fresh(self, first: int, last: int) -> None:
        """Add the new variables ``first..last``, each of zero activity.

        Every activity is non-negative, so a zero-activity variable never
        sifts up past its parent: pushing it is just an append.
        """
        size = len(self._heap)
        self._heap.extend(range(first, last + 1))
        self._position.extend(range(size, size + last - first + 1))

    def push_all(self, variables: Iterable[int]) -> None:
        """Push each of ``variables`` that is not in the heap, in order."""
        heap, activity, position = self._heap, self._activity, self._position
        for variable in variables:
            if position[variable] != -1:
                continue
            index = len(heap)
            heap.append(variable)
            if activity[variable]:
                self._sift_up(index)
            else:
                position[variable] = index  # zero activity never sifts up

    def update(self, variable: int) -> None:
        position = self._position[variable]
        if position != -1:
            self._sift_up(position)

    def _sift_up(self, index: int) -> None:
        heap, activity, position = self._heap, self._activity, self._position
        variable = heap[index]
        key = activity[variable]
        while index > 0:
            parent = (index - 1) >> 1
            parent_var = heap[parent]
            if activity[parent_var] >= key:
                break
            heap[index] = parent_var
            position[parent_var] = index
            index = parent
        heap[index] = variable
        position[variable] = index


#: A watch-list entry: the other literal of an original two-literal clause
#: (an implication), or a clause that watches the list's literal.
_Watch = Union[int, Clause]

#: Why a literal is assigned: None for a decision or a root-level unit, the
#: false literal of the implication that propagated it, or its clause.
_Reason = Union[None, int, Clause]

#: Sentinel distinguishing "no budget override" from an explicit None.
_UNSET = object()

#: Conflicts per Luby unit; restart interval is ``_RESTART_BASE * luby(i)``.
_RESTART_BASE = 100


class CDCLSolver:
    """Persistent, incremental CDCL solver.

    The solver outlives individual queries: call :meth:`solve` repeatedly,
    interleaved with :meth:`add_clause`.
    Learned clauses, activities, and saved phases carry over between calls.
    """

    def __init__(self, formula: Optional[CNF] = None, max_conflicts: Optional[int] = None):
        self._max_conflicts = max_conflicts
        self._num_variables = 0

        # Literal-indexed state: entry ``l`` for each literal ``l`` in ±1..V,
        # the negative literals counted from the end (slot 0 unused).
        # ``_value[l]`` is True, False or None (unassigned), so ``_value[v]``
        # for ``v > 0`` is the variable's assignment.
        self._value: List[Optional[bool]] = [None]
        self._watches: List[List[_Watch]] = [[]]

        # Variable-indexed state (slot 0 unused).
        self._level: List[int] = [0]
        self._reason: List[_Reason] = [None]
        self._activity: List[float] = [0.0]
        self._saved_phase: List[bool] = [False]

        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._clause_increment = 1.0
        self._clause_decay = 0.999

        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._propagation_head = 0

        # Every original clause: a Clause, or a two-literal clause's literals.
        self._clauses: List[Sequence[int]] = []
        self._learnt: List[Clause] = []
        self._heap = _VariableHeap(self._activity)
        self._seen = bytearray(1)  # persistent conflict-analysis scratch
        self._unsat = False
        self._stats = SolverStats()

        self._restart_base = _RESTART_BASE
        self._max_learnt_growth = 1.3

        if formula is not None:
            self._ensure_variables(formula.num_variables)
            self._attach_formula(formula)
        self._max_learnt = max(1000, len(self._clauses) // 2)

    # -- incremental clause API ---------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> None:
        """Attach one clause to the live solver.

        The solver backtracks to the root level and applies root-level
        simplification: satisfied clauses are dropped, root-false literals
        removed, and a resulting unit is enqueued immediately.  An empty
        residual marks the formula permanently unsatisfiable.
        """
        clause = simplify_literals(literals)
        if clause is None:
            return  # tautology
        self._ensure_variables(max(abs(literal) for literal in clause))
        self._backtrack(0)
        self._attach_at_root(clause)

    def _attach_formula(self, formula: CNF) -> None:
        """Attach the clauses of ``formula`` to this new, root-level solver.

        A formula's clauses are clean (distinct, non-complementary literals
        over allocated variables), so they skip :meth:`add_clause`'s checks,
        and they are read from the formula's own list without a copy.  Until
        a unit clause is enqueued nothing is assigned, so a clause attaches
        as it is; after that each one is simplified by :meth:`_attach_at_root`.
        """
        trail, attached, watches = self._trail, self._clauses, self._watches
        for literals in formula._clauses:
            size = len(literals)
            if trail:
                self._attach_at_root(literals)
            elif size == 2:
                first, second = literals
                attached.append(literals)
                watches[first].append(second)
                watches[second].append(first)
            elif size == 1:
                self._enqueue(literals[0], reason=None)
            else:
                clause = Clause(literals)
                attached.append(clause)
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)

    def _attach_at_root(self, clause: Sequence[int]) -> None:
        """Simplify a clean clause against the root assignment and attach it.

        The solver must be at the root level and cover every variable of
        ``clause``, whose literals must be distinct and non-complementary.
        Two remaining literals attach as a pair of implications.
        """
        value = self._value
        remaining: List[int] = []
        for literal in clause:
            truth = value[literal]
            if truth is None:
                remaining.append(literal)
            elif truth:
                return  # satisfied at the root level forever
        if not remaining:
            self._unsat = True
            return
        if len(remaining) == 1:
            self._enqueue(remaining[0], reason=None)
            return
        if len(remaining) == 2:
            first, second = remaining
            self._clauses.append(remaining)
            self._watches[first].append(second)
            self._watches[second].append(first)
            return
        attached = Clause(remaining)
        self._clauses.append(attached)
        self._watch(attached)

    def stats(self) -> SolverStats:
        """A snapshot of the solver's cumulative statistics."""
        snapshot = dataclasses.replace(self._stats)
        snapshot.variables = self._num_variables
        snapshot.clauses = len(self._clauses)
        snapshot.learnt = len(self._learnt)
        return snapshot

    # -- public solving API -------------------------------------------------------
    def solve(self, max_conflicts=_UNSET) -> SATResult:
        """Run the CDCL loop from the root level.

        ``max_conflicts`` overrides the constructor's per-call conflict
        budget; exhausting the budget raises :class:`BudgetExhaustedError`.
        """
        budget = self._max_conflicts if max_conflicts is _UNSET else max_conflicts
        self._stats.solve_calls += 1
        self._backtrack(0)

        start_conflicts = self._stats.conflicts
        start_decisions = self._stats.decisions
        start_propagations = self._stats.propagations
        start_restarts = self._stats.restarts

        def result(satisfiable: bool, model: Optional[Dict[int, bool]] = None) -> SATResult:
            if TRACER.enabled:
                TRACER.add("sat.solve_calls")
                TRACER.add("sat.conflicts", self._stats.conflicts - start_conflicts)
                TRACER.add("sat.decisions", self._stats.decisions - start_decisions)
                TRACER.add(
                    "sat.propagations", self._stats.propagations - start_propagations
                )
                TRACER.add("sat.restarts", self._stats.restarts - start_restarts)
            return SATResult(
                satisfiable,
                model if model is not None else {},
                self._stats.conflicts - start_conflicts,
                self._stats.decisions - start_decisions,
                self._stats.propagations - start_propagations,
                self._stats.restarts - start_restarts,
            )

        if self._unsat:
            return result(False)

        restart_number = 0
        conflicts_until_restart = self._restart_base * _luby(restart_number)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                consumed = self._stats.conflicts - start_conflicts
                if budget is not None and consumed >= budget:
                    raise BudgetExhaustedError(budget=budget, conflicts=consumed)
                self._stats.conflicts += 1
                if (
                    TRACER.enabled
                    and self._stats.conflicts % STATS_SNAPSHOT_INTERVAL == 0
                ):
                    TRACER.event("sat.solver.stats", self.stats().as_dict())
                conflicts_until_restart -= 1
                if self._decision_level() == 0:
                    self._unsat = True
                    return result(False)
                learnt_clause, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._attach_learnt(learnt_clause)
                self._decay_activities()
                continue

            if conflicts_until_restart <= 0 and self._decision_level() > 0:
                restart_number += 1
                conflicts_until_restart = self._restart_base * _luby(restart_number)
                self._stats.restarts += 1
                self._backtrack(0)
                continue

            if self._decision_level() == 0 and len(self._learnt) >= self._max_learnt:
                self._reduce_learnt()

            variable = self._pick_branch_variable()
            if variable is None:
                # Every variable is assigned: the positive half of the
                # literal values is the model.
                count = self._num_variables
                return result(True, dict(zip(range(1, count + 1), self._value[1 : count + 1])))
            self._stats.decisions += 1
            self._trail_limits.append(len(self._trail))
            self._enqueue(variable if self._saved_phase[variable] else -variable, reason=None)

    # -- clause bookkeeping -------------------------------------------------------
    def _watch(self, clause: Clause) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _remove_watch(self, literal: int, clause: Clause) -> None:
        watchers = self._watches[literal]
        for index, candidate in enumerate(watchers):
            if candidate is clause:
                watchers[index] = watchers[-1]
                watchers.pop()
                return

    def _attach_learnt(self, literals: List[int]) -> None:
        if len(literals) == 1:
            self._enqueue(literals[0], reason=None)
            return
        clause = Clause(literals)
        clause.learnt = True
        clause.activity = self._clause_increment
        self._learnt.append(clause)
        self._stats.learnt_total += 1
        self._watch(clause)
        self._enqueue(literals[0], reason=clause)

    def _is_locked(self, clause: Clause) -> bool:
        variable = abs(clause[0])
        return self._value[variable] is not None and self._reason[variable] is clause

    def _reduce_learnt(self) -> None:
        """Delete the lowest-activity half of the learned clauses (reduceDB)."""
        self._learnt.sort(key=lambda clause: clause.activity)
        target = len(self._learnt) // 2
        kept: List[Clause] = []
        deleted = 0
        for clause in self._learnt:
            if deleted >= target or len(clause) == 2 or self._is_locked(clause):
                kept.append(clause)
                continue
            self._remove_watch(clause[0], clause)
            self._remove_watch(clause[1], clause)
            deleted += 1
        self._learnt = kept
        self._stats.deleted += deleted
        self._max_learnt = int(self._max_learnt * self._max_learnt_growth) + 1

    # -- assignment machinery -----------------------------------------------------
    def _ensure_variables(self, count: int) -> None:
        new = count - self._num_variables
        if new <= 0:
            return
        # The literal-indexed lists grow in the middle: the new positive
        # literals follow +V and the new negative ones precede -V, so the
        # negative half stays counted from the end.
        middle = self._num_variables + 1
        self._value[middle:middle] = [None] * (2 * new)
        self._watches[middle:middle] = [[] for _ in range(2 * new)]
        self._level.extend([0] * new)
        self._reason.extend([None] * new)
        self._activity.extend([0.0] * new)
        self._saved_phase.extend([False] * new)
        self._seen.extend(bytes(new))
        self._heap.append_fresh(self._num_variables + 1, count)
        self._num_variables = count

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: int, reason: _Reason) -> None:
        variable = abs(literal)
        self._value[literal] = True
        self._value[-literal] = False
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._saved_phase[variable] = literal > 0
        self._trail.append(literal)

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_limits) <= target_level:
            return
        trail, value, reason = self._trail, self._value, self._reason
        cutoff = self._trail_limits[target_level]
        undone = [literal if literal > 0 else -literal for literal in reversed(trail[cutoff:])]
        for variable in undone:
            value[variable] = value[-variable] = None
            reason[variable] = None
        self._heap.push_all(undone)
        del trail[cutoff:]
        del self._trail_limits[target_level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    # -- propagation --------------------------------------------------------------
    def _propagate(self) -> Optional[Clause]:
        """Propagate the trail from the propagation head; return a conflict.

        Each false literal's watch list is visited in order.  An int entry
        is the other literal of an original two-literal clause: true, it
        stays; unassigned, it is enqueued with the false literal (an int) as
        its reason; false, it is the conflict ``Clause([other, false])``, the
        order in which a two-literal :class:`Clause` would present it.  A
        clause entry moves its false watch to the front, stays if its first
        literal is true, moves the watch to a non-false literal if it has
        one (a three-literal clause checks its third without a loop), and
        otherwise propagates its first literal or is the conflict.

        Solver state is read through locals and :meth:`_enqueue` is inlined;
        the decision level is fixed for the whole call.
        """
        trail, watches, value = self._trail, self._watches, self._value
        level, reason, saved_phase = self._level, self._reason, self._saved_phase
        decision_level = len(self._trail_limits)
        start = head = self._propagation_head
        conflict: Optional[Clause] = None
        while head < len(trail):
            false_literal = -trail[head]
            head += 1
            watching = watches[false_literal]
            if not watching:
                continue
            retained: List[_Watch] = []
            keep = retained.append
            entries = iter(watching)
            for entry in entries:
                if type(entry) is not Clause:
                    # An implication: the other literal of a two-literal clause.
                    keep(entry)
                    truth = value[entry]
                    if truth:
                        continue
                    if truth is None:
                        variable = entry if entry > 0 else -entry
                        value[entry] = True
                        value[-entry] = False
                        saved_phase[variable] = entry > 0
                        level[variable] = decision_level
                        reason[variable] = false_literal
                        trail.append(entry)
                        continue
                    conflict = Clause([entry, false_literal])
                    retained.extend(entries)
                    break
                clause = entry
                first = clause[0]
                if first == false_literal:
                    first = clause[0] = clause[1]
                    clause[1] = false_literal
                first_value = value[first]
                if first_value:
                    keep(clause)  # its first watch is true
                    continue
                size = len(clause)
                if size == 3:
                    candidate = clause[2]
                    if value[candidate] is not False:
                        clause[1] = candidate
                        clause[2] = false_literal
                        watches[candidate].append(clause)
                        continue
                elif size > 3:
                    moved = False
                    for alternative in range(2, size):
                        candidate = clause[alternative]
                        if value[candidate] is not False:
                            clause[1], clause[alternative] = candidate, false_literal
                            watches[candidate].append(clause)
                            moved = True
                            break
                    if moved:
                        continue
                keep(clause)
                if first_value is None:
                    variable = first if first > 0 else -first
                    value[first] = True
                    value[-first] = False
                    saved_phase[variable] = first > 0
                    level[variable] = decision_level
                    reason[variable] = clause
                    trail.append(first)
                else:
                    conflict = clause
                    retained.extend(entries)
                    break
            watches[false_literal] = retained
            if conflict is not None:
                break
        self._stats.propagations += head - start
        self._propagation_head = head
        return conflict

    # -- conflict analysis --------------------------------------------------------
    def _analyze(self, conflict: Clause) -> tuple:
        """First-UIP analysis of ``conflict``: the learnt clause and backjump level.

        The conflict and each reason are resolved in their literal order;
        an implication's reason (an int) is its one non-pivot literal.
        """
        learnt: List[int] = []
        # Persistent scratch: current-level marks are all cleared by the trail
        # walk below (one per counter decrement), lower-level marks explicitly
        # at the end, keeping analysis O(clause sizes) instead of O(V).
        seen, level, trail = self._seen, self._level, self._trail
        counter = 0
        literal: Optional[int] = None
        clause: _Reason = conflict
        trail_index = len(trail) - 1
        current_level = len(self._trail_limits)

        while True:
            if type(clause) is Clause:
                if clause.learnt:
                    self._bump_clause_activity(clause)
                others: Sequence[int] = clause
            else:
                assert clause is not None, "UIP literal must have a reason"
                others = (clause,)
            for clause_literal in others:
                # Skip the literal this clause propagated (the resolvent pivot).
                if clause_literal == literal:
                    continue
                variable = abs(clause_literal)
                if seen[variable] or level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump_activity(variable)
                if level[variable] == current_level:
                    counter += 1
                else:
                    learnt.append(clause_literal)

            while not seen[abs(trail[trail_index])]:
                trail_index -= 1
            literal = trail[trail_index]
            variable = abs(literal)
            seen[variable] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[variable]

        for lower_literal in learnt:
            seen[abs(lower_literal)] = 0

        learnt_clause = [-literal] + learnt
        if len(learnt_clause) == 1:
            backjump_level = 0
        else:
            levels = sorted((self._level[abs(lit)] for lit in learnt), reverse=True)
            backjump_level = levels[0]
            # Place a literal from the backjump level in the second watch slot.
            for index, lit in enumerate(learnt_clause[1:], start=1):
                if self._level[abs(lit)] == backjump_level:
                    learnt_clause[1], learnt_clause[index] = (
                        learnt_clause[index],
                        learnt_clause[1],
                    )
                    break
        return learnt_clause, backjump_level

    # -- branching heuristics -----------------------------------------------------
    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            for index in range(1, self._num_variables + 1):
                self._activity[index] *= 1e-100
            self._activity_increment *= 1e-100
        self._heap.update(variable)

    def _bump_clause_activity(self, clause: Clause) -> None:
        clause.activity += self._clause_increment
        if clause.activity > 1e20:
            for learnt in self._learnt:
                learnt.activity *= 1e-20
            self._clause_increment *= 1e-20

    def _decay_activities(self) -> None:
        self._activity_increment /= self._activity_decay
        self._clause_increment /= self._clause_decay

    def _pick_branch_variable(self) -> Optional[int]:
        """Pop the most active unassigned variable off the heap; None if none.

        The heap's pop and sift-down run inline.  Assigned variables are
        popped and dropped as they surface (lazy deletion): removing them
        when assigned would reorder variables of equal activity, and with
        them the decisions.
        """
        order = self._heap
        heap, position, activity = order._heap, order._position, order._activity
        value = self._value
        while heap:
            top = heap[0]
            last = heap.pop()
            position[top] = -1
            size = len(heap)
            if size:
                key = activity[last]
                index = 0
                while True:
                    child = 2 * index + 1
                    if child >= size:
                        break
                    right = child + 1
                    if right < size and activity[heap[right]] > activity[heap[child]]:
                        child = right
                    child_var = heap[child]
                    if key >= activity[child_var]:
                        break
                    heap[index] = child_var
                    position[child_var] = index
                    index = child
                heap[index] = last
                position[last] = index
            if value[top] is None:
                return top
        return None


def iterate_models(
    formula: CNF,
    over_variables: Optional[Sequence[int]] = None,
    incremental: bool = True,
    solver: Optional[CDCLSolver] = None,
) -> Iterator[Dict[int, bool]]:
    """Enumerate models of ``formula``.

    ``over_variables`` restricts both the reported assignment and the blocking
    clauses to a subset of variables, so models are enumerated up to their
    projection onto those variables.  The generator runs until the formula
    is exhausted; stop it early with ``itertools.islice`` or by closing it.

    With ``incremental=True`` (the default) one persistent :class:`CDCLSolver`
    is kept alive across blocking clauses, retaining learned clauses, watch
    lists, activities, and saved phases between models; pass ``solver`` to
    reuse/inspect that solver (e.g. to read its statistics afterwards).
    A supplied solver MUST have been constructed from ``formula`` (possibly
    with extra clauses already added) — enumeration runs entirely on the
    solver's own clause database.  ``incremental=False`` restores the
    historical one-shot behaviour — a fresh solver and a CNF copy per model —
    and serves as the differential oracle for the incremental path.
    """
    variables = (
        list(over_variables)
        if over_variables is not None
        else list(range(1, formula.num_variables + 1))
    )
    if not incremental:
        if solver is not None:
            raise SolverError("a persistent solver requires incremental mode")
        working = formula.copy()
        while True:
            result = CDCLSolver(working).solve()
            if not result.satisfiable:
                return
            model = {v: result.assignment[v] for v in variables}
            yield model
            blocking_clause = [(-v if model[v] else v) for v in variables]
            if not blocking_clause:
                return
            working.add_clause(blocking_clause)

    if solver is not None and solver.stats().variables < formula.num_variables:
        raise SolverError(
            "the supplied solver does not cover the formula's variables; "
            "construct it as CDCLSolver(formula)"
        )
    active = solver if solver is not None else CDCLSolver(formula)
    while True:
        result = active.solve()
        if not result.satisfiable:
            return
        model = {v: result.assignment[v] for v in variables}
        yield model
        blocking_clause = [(-v if model[v] else v) for v in variables]
        if not blocking_clause:
            return
        active.add_clause(blocking_clause)
