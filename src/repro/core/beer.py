"""BEER: recovering the on-die ECC function from a miscorrection profile.

Section 5.3 of the paper solves for the parity-check matrix with a SAT solver
constrained by (1) basic linear-code properties, (2) standard form, and (3)
the miscorrection profile.  This module implements the same search as a
specialised forward-checking solver over the unknown columns of ``P`` (the
data portion of ``H = [P | I]``), which exploits the closed-form structure of
the constraints:

* a test pattern whose CHARGED codeword positions are ``S`` can miscorrect
  DISCHARGED data bit ``j`` iff ``H_j ∈ span{H_i : i ∈ S}``;
* ``S`` itself depends only on the columns of the pattern's CHARGED data bits
  (the CHARGED parity positions are the support of their XOR), so every
  constraint touches only the pattern's columns plus the target column.

Each open column keeps a bitset of its remaining candidate values.  An
assignment removes its value from every other bitset and narrows the last
open column of every profile entry it completes up to one; an empty bitset
means backtrack.  The search branches on the column with the fewest
candidates left (MRV), breaking ties by column index.

Solutions are reported up to *code equivalence* (relabelling of parity bits,
Section 4.2.1).  The parity rows are kept in cells of rows that agree on
every assigned column, and a new value must meet each cell in that cell's
lowest rows before the cell splits.  Rows therefore end sorted, read along
the assignment order, and the candidate bitsets, hence the branching order,
are the same for every relabelling, so each equivalence class reaches
exactly one leaf.  A class reached twice raises
:class:`~repro.exceptions.SolverError`.

The CNF/SAT formulation that mirrors the paper's Z3 encoding lives in
:mod:`repro.core.beer_sat` and is cross-checked against this solver in tests.
Both backends share one front end, defined here: the problem checks of their
constructors and requests, one reading of the profile
(:func:`profile_entries`) and one answer builder, so the two refuse the same
problems and read a profile the same way.  A backend owns only its search.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import (
    CodeConstructionError, ProfileError, SolverError, ValidationError,
)
from repro.ecc.code import SystematicLinearCode
from repro.ecc.codespace import canonical_parity_columns
from repro.ecc.family import CodeFamily, get_family
from repro.predicates import is_integer
from repro.core.profile import (
    MiscorrectionProfile, expected_miscorrection_profile, miscorrection_test,
)


@dataclass
class BeerSolution:
    """Result of one BEER solve.

    Attributes
    ----------
    codes:
        Candidate ECC functions consistent with the profile, one representative
        per equivalence class, in the order found.
    nodes_visited:
        Number of column assignments the forward-checking search made: every
        candidate value it branched on that met the row cells, whether or not
        forward checking then failed (for the SAT backend: number of models
        examined).
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


class _BeerBackend(abc.ABC):
    """The BEER problem both backends solve: its checks and its answers.

    ``num_data_bits`` columns of the ``family``'s design space (a name or a
    :class:`~repro.ecc.family.CodeFamily`) for ``num_parity_bits`` rows, the
    family's minimum by default.  A k below 1, a k or r that is not an int,
    an unknown or fixed-structure family and a k that does not fit in r
    (r = 0 included) raise :class:`~repro.exceptions.SolverError`; the fit
    is the design space's closed-form size, so nothing is enumerated.
    """

    def __init__(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        family: str = "sec-hamming",
    ):
        if not is_integer(num_data_bits) or num_data_bits < 1:
            raise SolverError("the code must have at least one data bit")
        if num_parity_bits is not None and not is_integer(num_parity_bits):
            raise SolverError(f"the parity-bit count must be an integer, got {num_parity_bits!r}")
        try:
            self._family: CodeFamily = (
                family if isinstance(family, CodeFamily) else get_family(family)
            )
            if not self._family.supports_beer:
                raise SolverError(
                    f"code family {self._family.name!r} has a fixed structure; "
                    "there is no column design space for BEER to search"
                )
            if num_parity_bits is None:
                num_parity_bits = self._family.min_parity_bits(num_data_bits)
        except CodeConstructionError as error:
            raise SolverError(str(error)) from error
        self._num_data_bits = int(num_data_bits)
        self._num_parity_bits = int(num_parity_bits)
        self._design_space_columns = self._family.num_candidate_columns(self._num_parity_bits)
        if self._num_data_bits > self._design_space_columns:
            raise SolverError(
                f"k={self._num_data_bits} does not fit in r={self._num_parity_bits} "
                f"parity bits for family {self._family.name!r}"
            )

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

    @abc.abstractmethod
    def solve(
        self, profile: MiscorrectionProfile, max_solutions: Optional[int] = None
    ) -> BeerSolution:
        """Every ECC function consistent with ``profile``, up to ``max_solutions``."""

    def check_uniqueness(self, profile: MiscorrectionProfile) -> BeerSolution:
        """Exhaustively search for *all* consistent functions (paper's uniqueness check)."""
        return self.solve(profile, max_solutions=None)

    @staticmethod
    def verify(code: SystematicLinearCode, profile: MiscorrectionProfile) -> bool:
        """Return True if ``code`` reproduces every entry of ``profile`` exactly."""
        return expected_miscorrection_profile(code, profile.patterns) == profile

    def _check_request(self, profile: MiscorrectionProfile, max_solutions: Optional[int]) -> None:
        """Refuse a cap below one (``None`` is no cap) or a profile of another k."""
        if max_solutions is not None and (not is_integer(max_solutions) or max_solutions < 1):
            raise ValidationError(
                f"max_solutions must be at least 1, got {max_solutions!r}; leave it "
                "unset to find every candidate"
            )
        if profile.num_data_bits != self._num_data_bits:
            raise ProfileError(
                f"profile is for k={profile.num_data_bits}, solver expects "
                f"k={self._num_data_bits}"
            )

    def _answer(
        self, found: List[Tuple[int, ...]], nodes_visited: int, runtime_seconds: float,
        truncated: bool, solver_stats: Optional[Dict[str, int]] = None,
    ) -> BeerSolution:
        """The solution of the parity-column tuples ``found``, in that order."""
        return BeerSolution(
            codes=[
                SystematicLinearCode.from_parity_columns(
                    columns, self._num_parity_bits, family=self._family.name,
                    detect_only=not self._family.corrects,
                )
                for columns in found
            ],
            nodes_visited=nodes_visited,
            runtime_seconds=runtime_seconds,
            truncated=truncated,
            solver_stats=solver_stats,
            family=self._family.name,
            design_space_columns=self._design_space_columns,
        )


def profile_entries(profile: MiscorrectionProfile) -> List[Tuple[Tuple[int, ...], int]]:
    """The ``(CHARGED bits, observed-target mask)`` pairs both backends solve for.

    In profile order, CHARGED bits ascending; every DISCHARGED bit outside
    the mask reads as "cannot miscorrect".  A pattern that charges no bit
    or every bit constrains nothing and is skipped.
    """
    num_data_bits = profile.num_data_bits
    entries = []
    for pattern, positions in profile.items():
        charged = tuple(sorted(pattern.charged_bits))
        if charged and len(charged) < num_data_bits:
            entries.append((charged, sum(1 << bit for bit in positions)))
    return entries


#: Bytes the allowed-set tables of one :class:`BeerSolver` search may take.
_MAX_TABLE_BYTES = 1 << 30


class BeerSolver(_BeerBackend):
    """Forward-checking BEER solver over a family's standard-form parity-check columns.

    ``family`` selects the design space searched: ``"sec-hamming"`` (the
    paper's weight-≥2 columns, the default) or any registered correcting
    family with a searchable column space such as
    ``"secded-extended-hamming"`` (odd-weight-≥3 columns).  An r whose
    search tables would pass 2**30 bytes (r ≥ 16 for SEC) also raises
    :class:`~repro.exceptions.SolverError`, before the space is listed.
    """

    def __init__(
        self,
        num_data_bits: int,
        num_parity_bits: Optional[int] = None,
        family: str = "sec-hamming",
    ):
        super().__init__(num_data_bits, num_parity_bits, family)
        # ``setting`` and ``clearing`` hold 2**r bitsets each, one bit per
        # design-space value, and CPython stores ints in 4-byte 30-bit digits.
        digits = self._design_space_columns // 30 + 1
        if 2 * (1 << self._num_parity_bits) * 4 * digits > _MAX_TABLE_BYTES:
            raise SolverError(
                f"r={self._num_parity_bits} parity bits need search tables of more "
                f"than {_MAX_TABLE_BYTES} bytes; use SatBeerSolver, whose formula "
                "grows linearly in r"
            )
        self._candidates = self._family.candidate_columns(self._num_parity_bits)

    def solve(
        self,
        profile: MiscorrectionProfile,
        max_solutions: Optional[int] = None,
        max_nodes: Optional[int] = None,
    ) -> BeerSolution:
        """Search for every ECC function consistent with ``profile``.

        ``max_solutions`` truncates the search after that many equivalence
        classes have been found (``None`` = exhaustive, which is what the
        uniqueness check requires); a value below 1 raises
        :class:`~repro.exceptions.ValidationError`.  ``max_nodes`` bounds the
        search effort and raises :class:`~repro.exceptions.SolverError` when
        exceeded.
        """
        self._check_request(profile, max_solutions)
        start_time = time.perf_counter()
        state = _Search(
            self._candidates, self._num_parity_bits, profile, max_solutions, max_nodes
        )
        # Every parity row starts in one cell.
        state.search(_split_cells(((1 << self._num_parity_bits) - 1,), 0))
        return self._answer(
            state.solutions, state.nodes_visited, time.perf_counter() - start_time,
            state.truncated,
        )


class _Search:
    """Forward-checking search state (kept out of the public API).

    Bit ``i`` of a candidate bitset stands for ``values[i]``.  Patterns are
    stored once each, as :func:`profile_entries` reads them.
    """

    def __init__(
        self, values: Sequence[int], num_parity_bits: int, profile: MiscorrectionProfile,
        max_solutions: Optional[int], max_nodes: Optional[int],
    ):
        num_data_bits = profile.num_data_bits
        self.values = list(values)
        self.num_parity_bits = num_parity_bits
        self.max_solutions = max_solutions
        self.max_nodes = max_nodes
        #: (CHARGED bits, mask of observed targets) of every informative pattern.
        self.patterns = profile_entries(profile)
        #: Patterns charging each column, by index into ``patterns``.
        self.charging: List[List[int]] = [[] for _ in range(num_data_bits)]
        for index, (charged, _) in enumerate(self.patterns):
            for bit in charged:
                self.charging[bit].append(index)
        self.open_charged = [len(charged) for charged, _ in self.patterns]
        #: Patterns with one open CHARGED column -> (that column, the others' values).
        self.one_open: Dict[int, Tuple[int, Tuple[int, ...]]] = {
            index: (charged[0], ())
            for index, (charged, _) in enumerate(self.patterns)
            if len(charged) == 1
        }
        self.assignment: List[Optional[int]] = [None] * num_data_bits
        self.domains_full = (1 << len(self.values)) - 1
        self.domains = [self.domains_full] * num_data_bits
        self.rows_full = (1 << num_parity_bits) - 1
        #: ``setting[mask]`` / ``clearing[mask]``: the bitset of the values
        #: that set / clear every parity row of ``mask``.  Built by doubling:
        #: the masks holding row ``row`` as their highest are the masks below
        #: ``2**row`` narrowed by that row's bitset.  The ``2 * 2**r`` bitsets
        #: take about ``2**(2r - 2)`` bytes: little at the r <= 9 of on-die
        #: codes, 14 MB at r = 13.
        self.setting = [self.domains_full]
        self.clearing = [self.domains_full]
        for row in range(num_parity_bits):
            with_row = sum(
                1 << bit for bit, value in enumerate(self.values) if value >> row & 1
            )
            self.setting += [allowed & with_row for allowed in self.setting]
            self.clearing += [allowed & ~with_row for allowed in self.clearing]
        self.allowed: Dict[Tuple[Tuple[int, ...], Optional[int]], int] = {}
        self.solutions: List[Tuple[int, ...]] = []
        self.seen_canonical: set = set()
        self.nodes_visited = 0
        self.truncated = False

    def search(self, cells: Tuple[int, ...]) -> bool:
        """Depth-first search; returns False when the search should stop entirely."""
        if self.max_solutions is not None and len(self.solutions) >= self.max_solutions:
            self.truncated = True
            return False
        # MRV: the open column with the fewest candidates, ties by column index.
        column, size = -1, 0
        for bit, value in enumerate(self.assignment):
            if value is None:
                count = self.domains[bit].bit_count()
                if column < 0 or count < size:
                    column, size = bit, count
        if column < 0:
            return self._record_solution()
        domain = self.domains[column]
        while domain:
            low = domain & -domain
            domain ^= low
            value = self.values[low.bit_length() - 1]
            if not _meets_cells(value, cells):
                continue
            self.nodes_visited += 1
            if self.max_nodes is not None and self.nodes_visited > self.max_nodes:
                raise SolverError("BEER search exceeded the node budget")
            saved = self.domains[:]
            changes = self._assign(column, value, ~low)
            keep_going = self.search(_split_cells(cells, value))
            for index, previous in changes:
                self.open_charged[index] += 1
                if previous is None:
                    self.one_open.pop(index, None)
                else:
                    self.one_open[index] = previous
            self.assignment[column] = None
            self.domains = saved
            if not keep_going:
                return False
        return True

    def _assign(
        self, column: int, value: int, clear: int
    ) -> List[Tuple[int, Optional[Tuple[int, Tuple[int, ...]]]]]:
        """Assign and forward-check; returns the pattern changes to undo.

        An emptied bitset is left for the next :meth:`search` call, whose
        MRV choice picks it first and backtracks.
        """
        assignment, domains = self.assignment, self.domains
        assignment[column] = value
        open_bits = [bit for bit, other in enumerate(assignment) if other is None]
        for bit in open_bits:
            domains[bit] &= clear
        # Entries targeting ``column`` whose pattern has one open CHARGED column.
        for index, (open_bit, fixed) in self.one_open.items():
            if open_bit != column:
                observed = self.patterns[index][1] >> column & 1
                domains[open_bit] &= self._allowed(fixed, value, observed)
        changes = []
        for index in self.charging[column]:
            changes.append((index, self.one_open.pop(index, None)))
            self.open_charged[index] -= 1
            charged, observed = self.patterns[index]
            if self.open_charged[index] == 0:
                fixed = tuple(sorted(assignment[bit] for bit in charged))
                for bit in open_bits:
                    domains[bit] &= self._allowed(fixed, None, observed >> bit & 1)
            elif self.open_charged[index] == 1:
                open_bit = next(bit for bit in charged if assignment[bit] is None)
                fixed = tuple(sorted(assignment[bit] for bit in charged if bit != open_bit))
                self.one_open[index] = (open_bit, fixed)
                for bit, target in enumerate(assignment):
                    if target is not None and bit not in charged:
                        domains[open_bit] &= self._allowed(fixed, target, observed >> bit & 1)
        return changes

    def _allowed(self, fixed: Tuple[int, ...], target: Optional[int], observed: int) -> int:
        """The cached allowed set of one entry, or its complement if not observed."""
        key = (fixed, target)
        allowed = self.allowed.get(key)
        if allowed is None:
            allowed = self.allowed[key] = self._allowed_set(fixed, target)
        return allowed if observed else ~allowed

    def _allowed_set(self, fixed: Tuple[int, ...], target: Optional[int]) -> int:
        """Bitset of the values that keep one profile entry possible.

        With ``target`` None, each value ``u`` is the entry's target and
        ``fixed`` are the pattern's columns; otherwise ``u`` is the pattern's
        one open CHARGED column beside ``fixed``, tested against the target's
        column.  True-cells CHARGE the parity rows ``p = XOR`` of the
        pattern's columns, so one column ``a`` can miscorrect exactly its
        subsets, and two columns ``a, b`` exactly the ``t`` with
        ``t & ~(a ^ b) ∈ {0, a & b}``; both are intersections of per-row
        bitsets.  Three or more columns take the masked span of
        :func:`miscorrection_test`, value by value.
        """
        parity = 0
        for column in fixed:
            parity ^= column
        if target is None and len(fixed) == 1:
            return self._rows_fixed(0, ~parity)
        if target is None and len(fixed) == 2:
            shared = fixed[0] & fixed[1]
            return self._rows_fixed(0, ~parity) | self._rows_fixed(shared, ~parity & ~shared)
        if target is not None and not fixed:
            return self._rows_fixed(target, 0)
        if target is not None and len(fixed) == 1:
            # t ⊆ parity ^ u, or else t ⊆ parity | u with parity & u ⊆ t.
            return self._rows_fixed(target & ~parity, 0) & (
                self._rows_fixed(0, target & parity) | self._rows_fixed(0, parity & ~target)
            )
        if target is None:
            allowed = map(miscorrection_test(fixed, parity), self.values)
        else:
            allowed = (
                miscorrection_test(fixed + (value,), parity ^ value)(target)
                for value in self.values
            )
        return sum(1 << bit for bit, ok in enumerate(allowed) if ok)

    def _rows_fixed(self, ones: int, zeros: int) -> int:
        """Bitset of the values with every row in ``ones`` set and every row in ``zeros`` clear.

        Only the ``r`` parity rows count, and a row in both is in ``ones``.
        """
        full = self.rows_full
        return self.setting[ones & full] & self.clearing[zeros & ~ones & full]

    def _record_solution(self) -> bool:
        columns = tuple(self.assignment)
        canonical = canonical_parity_columns(columns, self.num_parity_bits)
        if canonical in self.seen_canonical:
            raise SolverError(
                "BEER search reached one equivalence class at two leaves; "
                "the row-cell symmetry break must leave exactly one"
            )
        self.seen_canonical.add(canonical)
        self.solutions.append(columns)
        if self.max_solutions is not None and len(self.solutions) >= self.max_solutions:
            self.truncated = True
            return False
        return True


def _meets_cells(value: int, cells: Tuple[int, ...]) -> bool:
    """Symmetry break: ``value`` meets each row cell in that cell's lowest rows."""
    for cell in cells:
        ones = value & cell
        if (cell ^ ones) & ((1 << ones.bit_length()) - 1):
            return False
    return True


def _split_cells(cells: Tuple[int, ...], value: int) -> Tuple[int, ...]:
    """Split each cell by ``value``'s rows; cells of one row constrain nothing."""
    return tuple(
        part for cell in cells for part in (cell & value, cell & ~value) if part & (part - 1)
    )
