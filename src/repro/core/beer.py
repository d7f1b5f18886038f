"""BEER: recovering the on-die ECC function from a miscorrection profile.

Section 5.3 of the paper solves for the parity-check matrix with a SAT solver
constrained by (1) basic linear-code properties, (2) standard form, and (3)
the miscorrection profile.  This module implements the same search as a
specialised backtracking solver over the unknown columns of ``P`` (the data
portion of ``H = [P | I]``) with constraint propagation, which exploits the
closed-form structure of the constraints:

* a test pattern whose CHARGED codeword positions are ``S`` can miscorrect
  DISCHARGED data bit ``j`` iff ``H_j ∈ span{H_i : i ∈ S}``;
* ``S`` itself depends only on the columns of the pattern's CHARGED data bits
  (the CHARGED parity positions are the support of their XOR), so every
  constraint touches only the pattern's columns plus the target column.

Solutions are reported up to *code equivalence* (relabelling of parity bits,
Section 4.2.1).  The search prunes that symmetry by requiring parity rows to
be introduced in increasing order along the assignment order, but that rule
does not make every leaf distinct: a column that introduces several rows at
once leaves their relative labelling open, so one equivalence class can reach
several leaves.  Leaves are therefore deduplicated by their sorted-row
canonical form (:func:`~repro.ecc.codespace.canonical_parity_columns`).

The CNF/SAT formulation that mirrors the paper's Z3 encoding lives in
:mod:`repro.core.beer_sat` and is cross-checked against this solver in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CodeConstructionError, ProfileError, SolverError
from repro.ecc.code import SystematicLinearCode
from repro.ecc.codespace import canonical_parity_columns
from repro.ecc.family import CodeFamily, get_family
from repro.core.profile import MiscorrectionProfile, expected_miscorrection_profile


@dataclass
class BeerSolution:
    """Result of one BEER solve.

    Attributes
    ----------
    codes:
        Candidate ECC functions consistent with the profile, one representative
        per equivalence class, in the order found.
    nodes_visited:
        Number of partial assignments explored by the backtracking search
        (for the SAT backend: number of models examined).
    runtime_seconds:
        Wall-clock time spent searching.
    truncated:
        True if the search stopped at ``max_solutions`` rather than exhausting
        the space (the count is then a lower bound).
    solver_stats:
        CDCL solver statistics (conflicts, decisions, propagations, restarts,
        learned/deleted clauses, ...) when produced by the SAT backend's
        incremental path; None otherwise.
    family:
        Name of the code family whose design space was searched.
    design_space_columns:
        Number of legal per-column values in that family's design space for
        the assumed parity-bit count — e.g. SECDED's odd-weight constraint
        shrinks this well below SEC's ``2**r - r - 1``.
    """

    codes: List[SystematicLinearCode]
    nodes_visited: int
    runtime_seconds: float
    truncated: bool = False
    solver_stats: Optional[Dict[str, int]] = None
    family: str = "sec-hamming"
    design_space_columns: Optional[int] = None

    @property
    def num_solutions(self) -> int:
        """Number of (equivalence classes of) candidate functions found."""
        return len(self.codes)

    @property
    def unique(self) -> bool:
        """True if exactly one candidate function explains the profile."""
        return len(self.codes) == 1 and not self.truncated

    @property
    def code(self) -> SystematicLinearCode:
        """The unique solution (raises if the solution is not unique)."""
        if not self.codes:
            raise SolverError("no ECC function is consistent with the profile")
        if len(self.codes) > 1:
            raise SolverError(
                f"{len(self.codes)} ECC functions are consistent with the profile; "
                "use .codes to inspect them all"
            )
        return self.codes[0]


@dataclass
class _Constraint:
    """One (pattern, target-bit) entry of the miscorrection profile."""

    pattern_bits: Tuple[int, ...]
    target_bit: int
    observed: bool
    #: Position (in assignment order) after which all involved columns are known.
    ready_depth: int = field(default=0)


class BeerSolver:
    """Backtracking BEER solver over a family's standard-form parity-check columns.

    ``family`` selects the design space searched: ``"sec-hamming"`` (the
    paper's weight-≥2 columns, the default) or any registered correcting
    family with a searchable column space such as
    ``"secded-extended-hamming"`` (odd-weight-≥3 columns).
    """

    def __init__(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        family: str = "sec-hamming",
    ):
        if num_data_bits < 1:
            raise SolverError("the code must have at least one data bit")
        self._family: CodeFamily = (
            family if isinstance(family, CodeFamily) else get_family(family)
        )
        if not self._family.supports_beer:
            raise SolverError(
                f"code family {self._family.name!r} has a fixed structure; "
                "there is no column design space for BEER to search"
            )
        self._num_data_bits = num_data_bits
        try:
            self._num_parity_bits = (
                num_parity_bits
                if num_parity_bits is not None
                else self._family.min_parity_bits(num_data_bits)
            )
            self._candidates = self._family.candidate_columns(self._num_parity_bits)
        except CodeConstructionError as error:
            raise SolverError(str(error)) from error
        if num_data_bits > len(self._candidates):
            raise SolverError(
                f"k={num_data_bits} does not fit in r={self._num_parity_bits} "
                f"parity bits for family {self._family.name!r}"
            )

    # -- public API -----------------------------------------------------------
    @property
    def num_data_bits(self) -> int:
        """Dataword length ``k`` of the code being recovered."""
        return self._num_data_bits

    @property
    def num_parity_bits(self) -> int:
        """Number of parity bits ``r`` assumed for the code."""
        return self._num_parity_bits

    @property
    def family(self) -> CodeFamily:
        """The code family whose design space is searched."""
        return self._family

    def solve(
        self,
        profile: MiscorrectionProfile,
        max_solutions: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> BeerSolution:
        """Search for every ECC function consistent with ``profile``.

        ``max_solutions`` truncates the search after that many equivalence
        classes have been found (``None`` = exhaustive, which is what the
        uniqueness check requires).  ``max_nodes`` bounds the search effort and
        raises :class:`~repro.exceptions.SolverError` when exceeded.
        """
        if profile.num_data_bits != self._num_data_bits:
            raise ProfileError(
                f"profile is for k={profile.num_data_bits}, solver expects "
                f"k={self._num_data_bits}"
            )
        start_time = time.perf_counter()
        order = self._assignment_order(profile)
        order_position = {column: depth for depth, column in enumerate(order)}
        constraints = self._build_constraints(profile, order_position)
        constraints_by_depth: Dict[int, List[_Constraint]] = {}
        for constraint in constraints:
            constraints_by_depth.setdefault(constraint.ready_depth, []).append(constraint)

        state = _SearchState(
            num_data_bits=self._num_data_bits,
            num_parity_bits=self._num_parity_bits,
            candidates=self._candidates,
            order=order,
            constraints_by_depth=constraints_by_depth,
            max_solutions=max_solutions,
            max_nodes=max_nodes,
            candidates_per_column=self._prefilter_candidates(profile),
        )
        state.search()
        runtime = time.perf_counter() - start_time

        codes = [
            SystematicLinearCode.from_parity_columns(
                columns, self._num_parity_bits, family=self._family.name,
                detect_only=not self._family.corrects,
            )
            for columns in state.solutions
        ]
        return BeerSolution(
            codes=codes,
            nodes_visited=state.nodes_visited,
            runtime_seconds=runtime,
            truncated=state.truncated,
            family=self._family.name,
            design_space_columns=len(self._candidates),
        )

    def check_uniqueness(self, profile: MiscorrectionProfile) -> BeerSolution:
        """Exhaustively search for *all* consistent functions (paper's uniqueness check)."""
        return self.solve(profile, max_solutions=None)

    @staticmethod
    def verify(code: SystematicLinearCode, profile: MiscorrectionProfile) -> bool:
        """Return True if ``code`` reproduces every entry of ``profile`` exactly."""
        expected = expected_miscorrection_profile(code, profile.patterns)
        for pattern in profile.patterns:
            if expected.miscorrections(pattern) != profile.miscorrections(pattern):
                return False
        return True

    # -- internals ------------------------------------------------------------
    def _assignment_order(self, profile: MiscorrectionProfile) -> List[int]:
        """Choose a static column assignment order (most-constrained first).

        Columns that appear in many *observed* miscorrection relations are the
        most constrained, so assigning them early maximises pruning.
        """
        scores = [0] * self._num_data_bits
        for pattern, positions in profile.items():
            for bit in pattern.charged_bits:
                scores[bit] += len(positions) + 1
            for bit in positions:
                scores[bit] += 1
        return sorted(range(self._num_data_bits), key=lambda bit: -scores[bit])

    def _prefilter_candidates(self, profile: MiscorrectionProfile) -> Dict[int, List[int]]:
        """Derive per-column candidate lists from cheap 1-CHARGED counting bounds.

        If the 1-CHARGED pattern charging data bit ``c`` can miscorrect ``m``
        other data bits, then those ``m`` columns are distinct *legal* subsets
        of ``supp(P_c)`` other than ``P_c`` itself, so the family's
        ``legal_subset_count(w) - 1 >= m`` where ``w`` is the weight of
        ``P_c`` (for SEC Hamming: ``2**w - w - 2 >= m``).  This bounds the
        weight of each column from below and substantially narrows the value
        choices for heavily-covering columns before the search starts.
        """
        cover_counts: Dict[int, int] = {}
        for pattern, positions in profile.items():
            if pattern.weight != 1:
                continue
            (charged_bit,) = tuple(pattern.charged_bits)
            cover_counts[charged_bit] = len(positions)

        def capacity(value: int) -> int:
            return self._family.legal_subset_count(bin(value).count("1")) - 1

        candidates_per_column: Dict[int, List[int]] = {}
        for column in range(self._num_data_bits):
            cover = cover_counts.get(column)
            if cover is None:
                candidates_per_column[column] = list(self._candidates)
                continue
            allowed = [value for value in self._candidates if capacity(value) >= cover]
            # Try tightly-fitting weights first: columns that cover many bits
            # are almost certainly high weight, and vice versa.
            allowed.sort(key=lambda value: (capacity(value) - cover, value))
            candidates_per_column[column] = allowed
        return candidates_per_column

    def _build_constraints(
        self,
        profile: MiscorrectionProfile,
        order_position: Dict[int, int],
    ) -> List[_Constraint]:
        constraints: List[_Constraint] = []
        for pattern, observed_positions in profile.items():
            charged = tuple(sorted(pattern.charged_bits))
            if not charged:
                # The 0-CHARGED pattern cannot produce any retention errors and
                # therefore carries no information.
                continue
            for target in pattern.discharged_bits:
                involved = charged + (target,)
                ready_depth = max(order_position[bit] for bit in involved)
                constraints.append(
                    _Constraint(
                        pattern_bits=charged,
                        target_bit=target,
                        observed=target in observed_positions,
                        ready_depth=ready_depth,
                    )
                )
        return constraints


class _SearchState:
    """Mutable state of the backtracking search (kept out of the public API)."""

    def __init__(
        self,
        num_data_bits: int,
        num_parity_bits: int,
        candidates: Sequence[int],
        order: Sequence[int],
        constraints_by_depth: Dict[int, List[_Constraint]],
        max_solutions: Optional[int],
        max_nodes: Optional[int],
        candidates_per_column: Optional[Dict[int, List[int]]] = None,
    ):
        self.num_data_bits = num_data_bits
        self.num_parity_bits = num_parity_bits
        self.candidates = list(candidates)
        self.candidates_per_column = candidates_per_column or {}
        self.order = list(order)
        self.constraints_by_depth = constraints_by_depth
        self.max_solutions = max_solutions
        self.max_nodes = max_nodes

        self.assignment: Dict[int, int] = {}
        self.used_values: set = set()
        self.solutions: List[Tuple[int, ...]] = []
        self.seen_canonical: set = set()
        self.nodes_visited = 0
        self.truncated = False

    # -- search ------------------------------------------------------------------
    def search(self) -> None:
        self._search_depth(0, used_row_mask=0, rows_used=0)

    def _search_depth(self, depth: int, used_row_mask: int, rows_used: int) -> bool:
        """Depth-first search; returns False when the search should stop entirely."""
        if self.max_solutions is not None and len(self.solutions) >= self.max_solutions:
            self.truncated = True
            return False
        if depth == self.num_data_bits:
            self._record_solution()
            if self.max_solutions is not None and len(self.solutions) >= self.max_solutions:
                self.truncated = True
                return False
            return True
        column = self.order[depth]
        for value in self.candidates_per_column.get(column, self.candidates):
            if value in self.used_values:
                continue
            new_rows = value & ~used_row_mask
            if new_rows and not self._introduces_rows_in_order(new_rows, rows_used):
                continue
            self.nodes_visited += 1
            if self.max_nodes is not None and self.nodes_visited > self.max_nodes:
                raise SolverError("BEER search exceeded the node budget")
            self.assignment[column] = value
            self.used_values.add(value)
            if self._constraints_hold(depth):
                next_mask = used_row_mask | value
                next_rows_used = rows_used + bin(new_rows).count("1")
                keep_going = self._search_depth(depth + 1, next_mask, next_rows_used)
            else:
                keep_going = True
            del self.assignment[column]
            self.used_values.discard(value)
            if not keep_going:
                return False
        return True

    def _introduces_rows_in_order(self, new_rows: int, rows_used: int) -> bool:
        """Symmetry break: new parity rows must be the next consecutive indices."""
        count = bin(new_rows).count("1")
        expected = ((1 << count) - 1) << rows_used
        return new_rows == expected

    def _constraints_hold(self, depth: int) -> bool:
        for constraint in self.constraints_by_depth.get(depth, []):
            if self._evaluate(constraint) != constraint.observed:
                return False
        return True

    def _evaluate(self, constraint: _Constraint) -> bool:
        """Evaluate whether a miscorrection is possible under the current assignment.

        The CHARGED codeword positions are the pattern's data columns ``C``
        plus the parity rows in ``p = XOR(C)``.  Unit vectors on ``supp p``
        span everything inside ``p``, so the target lies in
        ``span(C ∪ {e_i : i ∈ supp p})`` iff ``target & ~p`` lies in
        ``span{c & ~p : c ∈ C}`` — the masked check eliminates over the
        pattern's columns alone.
        """
        pattern_columns = [self.assignment[bit] for bit in constraint.pattern_bits]
        parity_value = 0
        for column in pattern_columns:
            parity_value ^= column
        outside = ~parity_value
        target = self.assignment[constraint.target_bit] & outside
        return _int_in_span(target, [column & outside for column in pattern_columns])

    def _record_solution(self) -> None:
        columns = tuple(self.assignment[bit] for bit in range(self.num_data_bits))
        canonical = canonical_parity_columns(columns, self.num_parity_bits)
        if canonical in self.seen_canonical:
            return
        self.seen_canonical.add(canonical)
        self.solutions.append(columns)


def _int_in_span(target: int, vectors: Sequence[int]) -> bool:
    """Return True if ``target`` is a GF(2) combination of integer-encoded vectors."""
    if not target:
        return True
    basis: List[int] = []
    for vector in vectors:
        value = vector
        for pivot in basis:
            value = min(value, value ^ pivot)
        if value:
            basis.append(value)
            basis.sort(reverse=True)
    value = target
    for pivot in basis:
        value = min(value, value ^ pivot)
    return value == 0
