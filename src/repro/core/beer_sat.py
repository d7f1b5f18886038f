"""BEER's CNF/SAT formulation (the paper's Z3-style encoding).

The unknown is the parity submatrix ``P`` of the standard-form parity-check
matrix ``H = [P | I]``: one Boolean variable per (data column, parity row)
entry.  The constraints mirror Section 5.3 of the paper:

1. basic linear-code properties — every data column is non-zero, has weight at
   least two (so it cannot collide with the identity columns), and all data
   columns are pairwise distinct;
2. standard form — implicit in solving only for ``P``;
3. the miscorrection profile — for every (pattern, DISCHARGED bit) entry the
   encoded "miscorrection possible" condition must match the observation.

The profile conditions have closed forms for the pattern weights BEER uses
(Section 4.2.3):

* 1-CHARGED pattern ``{c}``: possible at ``j`` iff ``supp(P_j) ⊆ supp(P_c)``;
* 2-CHARGED pattern ``{a, b}``: possible at ``j`` iff ``supp(P_j) ⊆ U`` or
  ``supp(P_j ⊕ P_a) ⊆ U`` where ``U = supp(P_a ⊕ P_b)``.

Codes that differ only by a relabelling of the parity bits are
indistinguishable from outside the chip (Section 4.2.1), so the encoding
breaks that symmetry: consecutive parity rows, each read as a ``k``-bit
vector along the data-column order (column 0 first, ``1 > 0``), must be
non-increasing.  That is exactly the sorted-row form
:func:`~repro.ecc.codespace.canonical_parity_columns` picks, so every
equivalence class yields one model.  Pinned ``known_columns`` leave only the
permutations of rows that carry the same bits in every pinned column, so only
those rows are ordered.

The front end both backends share (:mod:`repro.core.beer`) checks the
problem and every request, reads the profile
(:func:`~repro.core.beer.profile_entries`; targets are encoded ascending)
and builds the answer; this module owns the encoding and the enumeration.
A pattern of three or more CHARGED bits that leaves a bit DISCHARGED raises
:class:`~repro.exceptions.SolverError`.

Every clause the encoding builds joins distinct variables it allocated
itself, so it is appended unchecked (``CNF._append_clean``); only the pins
of ``known_columns`` go through the checked ``add_clause``, after the pins
are validated.  Solving and model enumeration use the library's own CDCL
solver (:mod:`repro.sat`).  Enumeration runs on one *persistent*
incremental solver: learned clauses, watch lists, activities, and saved
phases survive across the blocking-clause iterations, so the n-th model
costs incremental work instead of a full re-propagation (pass
``incremental=False`` to :meth:`SatBeerSolver.solve` for the historical
one-shot oracle).  This backend is the reference implementation used to
cross-validate the faster specialised solver in :mod:`repro.core.beer`; it
is practical for the small-to-moderate code sizes used in tests.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import SolverError
from repro.ecc.codespace import parity_rows
from repro.predicates import is_integer
from repro.sat import CNF, CDCLSolver, iterate_models
from repro.sat.encoders import (
    encode_column_design_space, encode_lex_geq, encode_xor_gate, integer_of_bits,
)
from repro.core.beer import BeerSolution, _BeerBackend, profile_entries
from repro.core.profile import MiscorrectionProfile


class SatBeerSolver(_BeerBackend):
    """BEER solver backed by the CNF encoding and the CDCL SAT solver.

    ``family`` selects the column design space encoded as CNF, exactly
    mirroring the forward-checking backend: ``"sec-hamming"`` columns are
    non-zero with weight ≥ 2; ``"secded-extended-hamming"`` columns are
    odd-weight with weight ≥ 3 (encoded with an XOR parity chain).  It
    refuses what :class:`~repro.core.beer.BeerSolver` refuses but a large r:
    the formula grows linearly in r.
    """

    # -- public API ---------------------------------------------------------
    def solve(
        self,
        profile: MiscorrectionProfile,
        max_solutions: Optional[int] = None,
        incremental: bool = True,
        known_columns: Optional[Mapping[int, int]] = None,
    ) -> BeerSolution:
        """Enumerate the ECC functions consistent with ``profile`` (up to equivalence).

        ``incremental=True`` (the default) enumerates on one persistent CDCL
        solver and reports its statistics in ``BeerSolution.solver_stats``;
        ``incremental=False`` is the historical one-shot oracle (fresh solver
        per model) kept for differential validation and benchmarking.

        Every equivalence class of codes yields exactly one model, so
        ``nodes_visited`` equals the number of codes found and an exhaustive
        incremental enumeration makes one more solve call than that.

        ``known_columns`` optionally fixes parity-check columns that are
        already known (``{data column index: column integer, ...}``, LSB =
        parity row 0) — the partial-knowledge scenario where a datasheet or a
        previous BEER run pins part of ``P``.  Indices and values must be
        Python or numpy ints in range; a bool, float or string raises
        :class:`~repro.exceptions.SolverError`.  The pins fix the parity-bit
        labelling only up to permutations of rows that carry the same bits in
        every pinned column, so only those rows are ordered; the pinned
        columns come back exactly as given.

        ``max_solutions`` stops the enumeration after that many codes
        (``None`` = exhaustive); a value below 1 raises
        :class:`~repro.exceptions.ValidationError`, as on :class:`BeerSolver`.
        """
        self._check_request(profile, max_solutions)
        pinned = self._checked_pins(known_columns or {})
        start_time = time.perf_counter()
        formula, column_variables = self._build_formula(profile)
        self._pin_known_columns(formula, column_variables, pinned)
        row_pairs = self._ordered_row_pairs(pinned)
        for upper, lower in row_pairs:
            encode_lex_geq(
                formula,
                [column[upper] for column in column_variables],
                [column[lower] for column in column_variables],
            )
        flat_variables = [v for column in column_variables for v in column]

        solver: Optional[CDCLSolver] = CDCLSolver(formula) if incremental else None
        models = iterate_models(
            formula,
            over_variables=flat_variables,
            incremental=incremental,
            solver=solver,
        )

        found: List[Tuple[int, ...]] = []
        truncated = False
        for model in models:
            columns = tuple(integer_of_bits(model, column) for column in column_variables)
            rows = parity_rows(columns, self._num_parity_bits)
            if any(rows[upper] < rows[lower] for upper, lower in row_pairs):
                raise SolverError(
                    f"SAT model {columns} breaks the parity-row order the "
                    "encoding imposes; the symmetry-breaking clauses are unsound"
                )
            found.append(columns)
            if max_solutions is not None and len(found) >= max_solutions:
                truncated = True
                break
        models.close()
        return self._answer(
            found, len(found), time.perf_counter() - start_time, truncated,
            solver.stats().as_dict() if solver is not None else None,
        )

    def _checked_pins(self, known_columns: Mapping[int, int]) -> Dict[int, int]:
        """``known_columns`` as a dict of ints, once every pin is valid.

        A bool is not an index (``True`` would pin column 1), nor is a float
        or a string; numpy ints pass.
        """
        pinned: Dict[int, int] = {}
        for column_index, value in known_columns.items():
            if not (is_integer(column_index) and is_integer(value)):
                raise SolverError(
                    f"known column {column_index!r}: {value!r} must map an "
                    "integer index to an integer value"
                )
            if not 0 <= column_index < self._num_data_bits:
                raise SolverError(
                    f"known column {column_index} out of range for k={self._num_data_bits}"
                )
            if not 0 <= value < (1 << self._num_parity_bits):
                raise SolverError(
                    f"known column value {value} does not fit in "
                    f"{self._num_parity_bits} parity bits"
                )
            pinned[int(column_index)] = int(value)
        return pinned

    def _pin_known_columns(
        self,
        formula: CNF,
        column_variables: List[List[int]],
        known_columns: Mapping[int, int],
    ) -> None:
        """Fix already-known parity-check columns with unit clauses."""
        for column_index, value in known_columns.items():
            for row, variable in enumerate(column_variables[column_index]):
                formula.add_unit(variable if (value >> row) & 1 else -variable)

    def _ordered_row_pairs(self, known_columns: Mapping[int, int]) -> List[Tuple[int, int]]:
        """Row pairs ``(upper, lower)`` whose order the encoding fixes.

        Rows are grouped by their bits in the pinned columns — without pins
        all rows form one group — and consecutive rows of each group must
        satisfy ``row[upper] ≥ row[lower]``.  Permuting rows within a group
        is exactly the symmetry the pins leave, so ordering every group keeps
        one model per equivalence class.
        """
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for row in range(self._num_parity_bits):
            signature = tuple((value >> row) & 1 for value in known_columns.values())
            groups.setdefault(signature, []).append(row)
        return [
            (rows[index], rows[index + 1])
            for rows in groups.values()
            for index in range(len(rows) - 1)
        ]

    # -- CNF construction -----------------------------------------------------
    def _build_formula(self, profile: MiscorrectionProfile) -> Tuple[CNF, List[List[int]]]:
        formula = CNF()
        column_variables = [
            formula.new_variables(self._num_parity_bits) for _ in range(self._num_data_bits)
        ]
        self._encode_code_validity(formula, column_variables)
        xor_cache: Dict[Tuple[int, int], List[int]] = {}
        for charged, observed_targets in profile_entries(profile):
            if len(charged) > 2:
                raise SolverError(
                    "the SAT backend supports 1- and 2-CHARGED patterns only; "
                    "use BeerSolver for higher-weight patterns"
                )
            for target in range(self._num_data_bits):
                if target in charged:
                    continue
                observed = bool(observed_targets >> target & 1)
                if len(charged) == 1:
                    self._encode_one_charged(
                        formula, column_variables, charged[0], target, observed
                    )
                else:
                    self._encode_two_charged(
                        formula,
                        column_variables,
                        charged[0],
                        charged[1],
                        target,
                        observed,
                        xor_cache,
                    )
        return formula, column_variables

    def _encode_code_validity(self, formula: CNF, column_variables: List[List[int]]) -> None:
        """Columns satisfy the family's design-space predicates and are distinct."""
        constraints = self._family.column_constraints()
        for column in column_variables:
            encode_column_design_space(
                formula, column, constraints.min_weight, constraints.odd_weight
            )
        for first in range(self._num_data_bits):
            for second in range(first + 1, self._num_data_bits):
                difference_bits = []
                for row in range(self._num_parity_bits):
                    diff = formula.new_variable()
                    encode_xor_gate(
                        formula,
                        column_variables[first][row],
                        column_variables[second][row],
                        diff,
                    )
                    difference_bits.append(diff)
                formula._append_clean(*difference_bits)

    def _encode_one_charged(
        self,
        formula: CNF,
        column_variables: List[List[int]],
        charged_bit: int,
        target_bit: int,
        observed: bool,
    ) -> None:
        """Encode ``supp(P_target) ⊆ supp(P_charged)`` equal to ``observed``."""
        target = column_variables[target_bit]
        charged = column_variables[charged_bit]
        if observed:
            for row in range(self._num_parity_bits):
                formula._append_clean(-target[row], charged[row])
        else:
            witnesses = []
            for row in range(self._num_parity_bits):
                witness = formula.new_variable()
                formula._append_clean(-witness, target[row])
                formula._append_clean(-witness, -charged[row])
                witnesses.append(witness)
            formula._append_clean(*witnesses)

    def _encode_two_charged(
        self,
        formula: CNF,
        column_variables: List[List[int]],
        first_bit: int,
        second_bit: int,
        target_bit: int,
        observed: bool,
        xor_cache: Dict[Tuple[int, int], List[int]],
    ) -> None:
        """Encode the 2-CHARGED miscorrection condition equal to ``observed``."""
        union_bits = self._cached_xor(formula, column_variables, first_bit, second_bit, xor_cache)
        shifted_bits = self._cached_xor(formula, column_variables, first_bit, target_bit, xor_cache)
        target = column_variables[target_bit]

        if observed:
            # (forall row: target -> union) OR (forall row: shifted -> union)
            case_direct = formula.new_variable()
            case_shifted = formula.new_variable()
            for row in range(self._num_parity_bits):
                formula._append_clean(-case_direct, -target[row], union_bits[row])
                formula._append_clean(-case_shifted, -shifted_bits[row], union_bits[row])
            formula._append_clean(case_direct, case_shifted)
        else:
            # (exists row: target and not union) AND (exists row: shifted and not union)
            direct_witnesses = []
            shifted_witnesses = []
            for row in range(self._num_parity_bits):
                direct = formula.new_variable()
                formula._append_clean(-direct, target[row])
                formula._append_clean(-direct, -union_bits[row])
                direct_witnesses.append(direct)
                shifted = formula.new_variable()
                formula._append_clean(-shifted, shifted_bits[row])
                formula._append_clean(-shifted, -union_bits[row])
                shifted_witnesses.append(shifted)
            formula._append_clean(*direct_witnesses)
            formula._append_clean(*shifted_witnesses)

    def _cached_xor(
        self,
        formula: CNF,
        column_variables: List[List[int]],
        first_bit: int,
        second_bit: int,
        xor_cache: Dict[Tuple[int, int], List[int]],
    ) -> List[int]:
        """Return variables representing ``P_first ⊕ P_second`` (memoised)."""
        key = (min(first_bit, second_bit), max(first_bit, second_bit))
        if key not in xor_cache:
            result_bits = []
            for row in range(self._num_parity_bits):
                result = formula.new_variable()
                encode_xor_gate(
                    formula,
                    column_variables[key[0]][row],
                    column_variables[key[1]][row],
                    result,
                )
                result_bits.append(result)
            xor_cache[key] = result_bits
        return xor_cache[key]
