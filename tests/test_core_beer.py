"""Unit and integration tests for the BEER solver (specialised backend)."""

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProfileError, SolverError
from repro.ecc import (
    codes_equivalent,
    example_7_4_code,
    hamming_code,
    random_hamming_code,
)
from repro.ecc.codespace import canonical_form, canonical_parity_columns
from repro.ecc.family import CodeFamily, get_family
from repro.core import (
    BeerSolver,
    ChargedPattern,
    SatBeerSolver,
    MiscorrectionProfile,
    charged_patterns,
    expected_miscorrection_profile,
    one_charged_patterns,
)
from repro.core.beer import _Search


def profile_for(code, weights):
    patterns = list(charged_patterns(code.num_data_bits, weights))
    return expected_miscorrection_profile(code, patterns)


class TestSolverBasics:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(SolverError):
            BeerSolver(0)
        with pytest.raises(SolverError):
            BeerSolver(5, num_parity_bits=3)

    def test_profile_length_mismatch_rejected(self):
        solver = BeerSolver(4, 3)
        with pytest.raises(ProfileError):
            solver.solve(MiscorrectionProfile(5))

    def test_default_parity_bits_is_minimum(self):
        assert BeerSolver(16).num_parity_bits == 5
        assert BeerSolver(64).num_parity_bits == 7

    @pytest.mark.parametrize(
        "num_parity_bits, family",
        [(16, "sec-hamming"), (40, "sec-hamming"), (17, "secded-extended-hamming")],
    )
    def test_a_parity_bit_count_past_the_tables_fails_before_listing(
        self, num_parity_bits, family, monkeypatch
    ):
        # r = 40 used to list ~2**40 candidate values and never return.
        def no_listing(self, num_parity_bits):
            raise AssertionError("the design space was listed")

        monkeypatch.setattr(CodeFamily, "candidate_columns", no_listing)
        with pytest.raises(SolverError, match="search tables"):
            BeerSolver(12, num_parity_bits, family=family)
        # The SAT formula grows linearly in r, so that backend still takes it.
        solver = SatBeerSolver(12, num_parity_bits, family=family)
        assert solver.num_parity_bits == num_parity_bits

    def test_the_largest_tables_are_accepted(self):
        assert BeerSolver(12, 15).num_parity_bits == 15
        assert BeerSolver(12, 16, family="secded-extended-hamming").num_parity_bits == 16

    def test_solution_code_property_raises_when_ambiguous(self):
        # An empty profile constrains nothing: many solutions exist.
        solver = BeerSolver(2, 3)
        solution = solver.solve(MiscorrectionProfile(2), max_solutions=3)
        assert solution.num_solutions == 3
        assert solution.truncated
        assert not solution.unique
        with pytest.raises(SolverError):
            _ = solution.code

    def test_node_budget_enforced(self):
        code = hamming_code(8)
        profile = profile_for(code, [1])
        with pytest.raises(SolverError):
            BeerSolver(8).solve(profile, max_nodes=1)

    def test_inconsistent_profile_has_no_solutions(self):
        # Claim that a 1-CHARGED pattern miscorrects every other bit AND that
        # another pattern miscorrects nothing, including the first bit - then
        # make the two claims contradictory by also claiming the reverse
        # containment, which forces equal columns (impossible: distinctness).
        profile = MiscorrectionProfile(2)
        profile.record(ChargedPattern(2, [0]), [1])
        profile.record(ChargedPattern(2, [1]), [0])
        solution = BeerSolver(2, 3).solve(profile)
        assert solution.num_solutions == 0
        with pytest.raises(SolverError):
            _ = solution.code


class TestExactRecovery:
    def test_paper_example_code_recovered_from_one_charged(self):
        code = example_7_4_code()
        solution = BeerSolver(4, 3).solve(profile_for(code, [1]))
        assert solution.unique
        assert codes_equivalent(solution.code, code)

    def test_full_length_codes_unique_with_one_charged(self):
        # Full-length codes (k = 2^r - r - 1) are uniquely identified by the
        # 1-CHARGED patterns alone (paper Section 6.1).
        for num_data_bits in (4, 11):
            code = random_hamming_code(num_data_bits, rng=np.random.default_rng(num_data_bits))
            solution = BeerSolver(num_data_bits).solve(profile_for(code, [1]))
            assert solution.unique
            assert codes_equivalent(solution.code, code)

    def test_shortened_codes_unique_with_one_two_charged(self):
        for num_data_bits, seed in [(6, 0), (8, 1), (12, 2), (16, 3)]:
            code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
            solution = BeerSolver(num_data_bits).solve(profile_for(code, [1, 2]))
            assert solution.unique, f"k={num_data_bits} not unique"
            assert codes_equivalent(solution.code, code)

    def test_shortened_code_with_extra_parity_bits(self):
        code = random_hamming_code(6, num_parity_bits=5, rng=np.random.default_rng(7))
        solution = BeerSolver(6, num_parity_bits=5).solve(profile_for(code, [1, 2]))
        assert solution.unique
        assert codes_equivalent(solution.code, code)

    def test_recovered_code_reproduces_profile(self):
        code = random_hamming_code(10, rng=np.random.default_rng(11))
        profile = profile_for(code, [1, 2])
        solution = BeerSolver(10).solve(profile)
        assert BeerSolver.verify(solution.code, profile)

    def test_verify_rejects_wrong_code(self):
        code = random_hamming_code(8, rng=np.random.default_rng(0))
        other = random_hamming_code(8, rng=np.random.default_rng(99))
        if codes_equivalent(code, other):
            pytest.skip("random codes happened to be equivalent")
        profile = profile_for(code, [1, 2])
        assert not BeerSolver.verify(other, profile)


class TestSolutionCounting:
    def test_one_charged_alone_may_be_ambiguous_for_shortened_codes(self):
        # With heavy shortening the 1-CHARGED patterns need not uniquely
        # identify the code (paper Figure 5): two columns whose supports are
        # disjoint produce the same (empty) containment profile as two columns
        # whose supports merely overlap, and those codes are not equivalent.
        from repro.ecc import SystematicLinearCode

        code = SystematicLinearCode.from_parity_columns([0b00011, 0b00101], 5)
        single = BeerSolver(2, 5).solve(profile_for(code, [1]), max_solutions=10)
        assert single.num_solutions > 1
        assert any(codes_equivalent(code, candidate) for candidate in single.codes)
        # Adding the 2-CHARGED pattern narrows the candidate set.
        combined = BeerSolver(2, 5).solve(profile_for(code, [1, 2]), max_solutions=10)
        assert combined.num_solutions <= single.num_solutions
        assert any(codes_equivalent(code, candidate) for candidate in combined.codes)

    def test_random_shortened_codes_always_contain_truth_among_candidates(self):
        # Whatever the solution count, the true function is always among the
        # candidates and every candidate reproduces the profile (paper
        # Section 6.1).  With *extra* parity bits beyond the minimum the
        # {1,2}-CHARGED patterns are not always sufficient for uniqueness —
        # the paper's evaluation only covers minimum-redundancy codes, and the
        # minimum-redundancy case is asserted unique below.
        for seed in range(6):
            code = random_hamming_code(5, num_parity_bits=5, rng=np.random.default_rng(seed))
            single = BeerSolver(5, 5).solve(profile_for(code, [1]), max_solutions=20)
            combined = BeerSolver(5, 5).solve(profile_for(code, [1, 2]))
            assert any(codes_equivalent(code, candidate) for candidate in combined.codes)
            assert all(BeerSolver.verify(candidate, profile_for(code, [1, 2]))
                       for candidate in combined.codes)
            # The 1-CHARGED-only enumeration may be truncated at 20 of a much
            # larger candidate set; every reported candidate must nevertheless
            # reproduce the 1-CHARGED profile, and if the enumeration was
            # complete it must include the true function.
            assert all(BeerSolver.verify(candidate, profile_for(code, [1]))
                       for candidate in single.codes)
            if not single.truncated:
                assert any(codes_equivalent(code, candidate) for candidate in single.codes)

        for seed in range(4):
            code = random_hamming_code(5, rng=np.random.default_rng(seed))
            combined = BeerSolver(5).solve(profile_for(code, [1, 2]))
            assert combined.unique
            assert codes_equivalent(combined.code, code)

    def test_true_code_always_among_candidates(self):
        for seed in range(5):
            code = random_hamming_code(6, num_parity_bits=4, rng=np.random.default_rng(seed))
            solution = BeerSolver(6, 4).solve(profile_for(code, [1]), max_solutions=50)
            assert any(codes_equivalent(code, candidate) for candidate in solution.codes)

    def test_solutions_are_pairwise_inequivalent(self):
        code = random_hamming_code(5, num_parity_bits=5, rng=np.random.default_rng(2))
        solution = BeerSolver(5, 5).solve(profile_for(code, [1]), max_solutions=10)
        for i in range(solution.num_solutions):
            for j in range(i + 1, solution.num_solutions):
                assert not codes_equivalent(solution.codes[i], solution.codes[j])

    def test_max_solutions_truncates(self):
        solver = BeerSolver(3, 4)
        solution = solver.solve(MiscorrectionProfile(3), max_solutions=2)
        assert solution.num_solutions == 2
        assert solution.truncated


class TestSolverStatistics:
    def test_statistics_populated(self):
        code = hamming_code(8)
        solution = BeerSolver(8).solve(profile_for(code, [1, 2]))
        assert solution.nodes_visited > 0
        assert solution.runtime_seconds >= 0.0

    def test_two_charged_profile_does_not_hurt_uniqueness(self):
        code = hamming_code(11, num_parity_bits=4)
        only_two = BeerSolver(11, 4).solve(profile_for(code, [2]), max_solutions=5)
        assert any(codes_equivalent(code, candidate) for candidate in only_two.codes)


class TestRandomisedRoundTrips:
    @given(st.integers(min_value=4, max_value=14), st.integers(min_value=0, max_value=500))
    @settings(max_examples=12, deadline=None)
    def test_round_trip_with_one_two_charged(self, num_data_bits, seed):
        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1, 2])
        solution = BeerSolver(num_data_bits).solve(profile)
        assert solution.unique
        assert codes_equivalent(solution.code, code)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=8, deadline=None)
    def test_profile_of_recovered_code_matches_original(self, seed):
        code = random_hamming_code(9, rng=np.random.default_rng(seed))
        patterns = one_charged_patterns(9)
        profile = expected_miscorrection_profile(code, patterns)
        solution = BeerSolver(9).solve(profile, max_solutions=1)
        recovered = solution.codes[0]
        assert expected_miscorrection_profile(recovered, patterns) == profile


def _unit_vector_in_span(target, vectors):
    """GF(2) elimination over integer-encoded vectors (the solver's original)."""
    basis = []
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


def _unit_vector_possible(pattern_columns, target):
    """The original constraint check: the pattern's columns plus one unit
    vector per CHARGED parity row, eliminated together."""
    parity_value = 0
    for column in pattern_columns:
        parity_value ^= column
    spanning = list(pattern_columns)
    row = 0
    remaining = parity_value
    while remaining:
        if remaining & 1:
            spanning.append(1 << row)
        remaining >>= 1
        row += 1
    return _unit_vector_in_span(target, spanning)


def _unit_vector_allowed_set(self, fixed, target):
    """``_Search._allowed_set`` rebuilt value by value from the unit-vector check."""
    allowed = 0
    for bit, value in enumerate(self.values):
        if target is None:
            possible = _unit_vector_possible(fixed, value)
        else:
            possible = _unit_vector_possible(fixed + (value,), target)
        if possible:
            allowed |= 1 << bit
    return allowed


def _bare_search(num_parity_bits):
    """A search over every non-zero column value, with nothing to constrain it."""
    values = list(range(1, 1 << num_parity_bits))
    return _Search(values, num_parity_bits, MiscorrectionProfile(1), None, None)


class TestMaskedSpanCheck:
    """The allowed-set builder against the unit-vector elimination."""

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda rows: st.tuples(
                st.just(rows),
                st.lists(
                    st.integers(min_value=1, max_value=(1 << rows) - 1),
                    min_size=2,
                    max_size=4,
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_vector_elimination(self, rows_and_columns):
        # Pattern columns ``fixed`` (1-3 of them) and one more column, which
        # is the target (target open) or the target's column (CHARGED open).
        num_parity_bits, columns = rows_and_columns
        *fixed, last = columns
        state = _bare_search(num_parity_bits)
        as_target = state._allowed_set(tuple(sorted(fixed)), None)
        beside = state._allowed_set(tuple(sorted(fixed[1:])), last)
        for bit, value in enumerate(state.values):
            assert (as_target >> bit & 1) == _unit_vector_possible(fixed, value)
            assert (beside >> bit & 1) == _unit_vector_possible(fixed[1:] + [value], last)

    @pytest.mark.parametrize(
        "num_data_bits, seed", [(8, 0), (8, 1), (8, 2), (16, 3), (16, 4), (16, 5)]
    )
    def test_solve_visits_the_same_nodes(self, num_data_bits, seed):
        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1, 2])
        closed_form = BeerSolver(num_data_bits).solve(profile)
        with mock.patch.object(_Search, "_allowed_set", _unit_vector_allowed_set):
            original = BeerSolver(num_data_bits).solve(profile)
        assert closed_form.nodes_visited == original.nodes_visited
        assert [c.parity_column_ints for c in closed_form.codes] == [
            c.parity_column_ints for c in original.codes
        ]
        assert closed_form.unique and codes_equivalent(closed_form.code, code)

    def test_three_charged_columns_use_the_masked_span(self):
        code = random_hamming_code(8, rng=np.random.default_rng(6))
        profile = profile_for(code, [3])
        masked = BeerSolver(8).solve(profile)
        with mock.patch.object(_Search, "_allowed_set", _unit_vector_allowed_set):
            original = BeerSolver(8).solve(profile)
        assert masked.nodes_visited == original.nodes_visited
        assert masked.unique and codes_equivalent(masked.code, code)


def _rows_fixed_by_row(state):
    """``_Search._rows_fixed`` one parity row at a time: a row in ``ones``
    keeps the values that set it, else a row in ``zeros`` the values that
    clear it."""
    with_row = [
        sum(1 << bit for bit, value in enumerate(state.values) if value >> row & 1)
        for row in range(state.num_parity_bits)
    ]

    def rows_fixed(ones, zeros):
        allowed = state.domains_full
        for row, values in enumerate(with_row):
            if ones >> row & 1:
                allowed &= values
            elif zeros >> row & 1:
                allowed &= ~values
        return allowed

    return rows_fixed


class TestRowMaskTables:
    """The solver's row-mask tables against the per-row loop."""

    @pytest.mark.parametrize("num_parity_bits", range(2, 8))
    def test_every_mask_pair_matches_the_row_loop(self, num_parity_bits):
        state = _bare_search(num_parity_bits)
        by_row = _rows_fixed_by_row(state)
        # Negative masks are the complements the allowed sets pass (~parity):
        # every row past the r parity rows is set.
        masks = range(-(1 << num_parity_bits), 1 << num_parity_bits)
        for ones in masks:
            for zeros in masks:
                assert state._rows_fixed(ones, zeros) == by_row(ones, zeros), (ones, zeros)


class TestOneLeafPerClass:
    def test_forced_duplicate_leaf_raises(self):
        # Without the row-cell rule every relabelling of a class is a leaf.
        profile = profile_for(example_7_4_code(), [1])
        with mock.patch("repro.core.beer._meets_cells", lambda value, cells: True):
            with pytest.raises(SolverError, match="two leaves"):
                BeerSolver(4, 3).solve(profile)

    def test_leaves_equal_classes_on_an_empty_profile(self):
        # Every assignment of distinct legal columns is a solution, so the
        # class count is the number of row-sorted 3-column codes.
        solution = BeerSolver(3, 4).solve(MiscorrectionProfile(3))
        canonical = {canonical_form(code) for code in solution.codes}
        assert len(canonical) == solution.num_solutions
        every_code = itertools.permutations(get_family("sec-hamming").candidate_columns(4), 3)
        assert solution.num_solutions == len(
            {canonical_parity_columns(columns, 4) for columns in every_code}
        )


# ---------------------------------------------------------------------------
# The static-order search the forward-checking one replaced, kept as oracle
# ---------------------------------------------------------------------------
@dataclass
class _Constraint:
    """One (pattern, target-bit) entry of the miscorrection profile."""

    pattern_bits: Tuple[int, ...]
    target_bit: int
    observed: bool
    #: Position (in assignment order) after which all involved columns are known.
    ready_depth: int = 0


def _static_solve(num_data_bits, num_parity_bits, family, profile):
    """Exhaustive generate-and-test along a static column order; returns the
    canonical code set."""
    family = get_family(family)
    candidates = family.candidate_columns(num_parity_bits)
    # Most-constrained first: columns in many observed relations.
    scores = [0] * num_data_bits
    for pattern, positions in profile.items():
        for bit in pattern.charged_bits:
            scores[bit] += len(positions) + 1
        for bit in positions:
            scores[bit] += 1
    order = sorted(range(num_data_bits), key=lambda bit: -scores[bit])
    position = {column: depth for depth, column in enumerate(order)}
    constraints_by_depth: Dict[int, List[_Constraint]] = {}
    for pattern, observed_positions in profile.items():
        charged = tuple(sorted(pattern.charged_bits))
        if not charged:
            continue
        for target in pattern.discharged_bits:
            ready = max(position[bit] for bit in charged + (target,))
            constraints_by_depth.setdefault(ready, []).append(
                _Constraint(charged, target, target in observed_positions, ready)
            )
    state = _StaticSearchState(
        num_data_bits,
        num_parity_bits,
        candidates,
        order,
        constraints_by_depth,
        _prefilter_candidates(family, candidates, num_data_bits, profile),
    )
    state.search()
    return {canonical_parity_columns(columns, num_parity_bits) for columns in state.solutions}


def _prefilter_candidates(family, candidates, num_data_bits, profile):
    """Counting bound: a 1-CHARGED pattern miscorrecting ``m`` bits needs ``m``
    legal proper subsets of its column, so ``num_candidate_columns(w) - 1 >= m``."""
    cover_counts = {}
    for pattern, positions in profile.items():
        if pattern.weight == 1:
            (charged_bit,) = tuple(pattern.charged_bits)
            cover_counts[charged_bit] = len(positions)

    def capacity(value):
        return family.num_candidate_columns(bin(value).count("1")) - 1

    candidates_per_column = {}
    for column in range(num_data_bits):
        cover = cover_counts.get(column)
        if cover is None:
            candidates_per_column[column] = list(candidates)
            continue
        allowed = [value for value in candidates if capacity(value) >= cover]
        allowed.sort(key=lambda value: (capacity(value) - cover, value))
        candidates_per_column[column] = allowed
    return candidates_per_column


class _StaticSearchState:
    """The old backtracking search: static order, row-introduction rule, leaf dedupe."""

    def __init__(
        self,
        num_data_bits: int,
        num_parity_bits: int,
        candidates: Sequence[int],
        order: Sequence[int],
        constraints_by_depth: Dict[int, List[_Constraint]],
        candidates_per_column: Dict[int, List[int]],
    ):
        self.num_data_bits = num_data_bits
        self.num_parity_bits = num_parity_bits
        self.candidates = list(candidates)
        self.candidates_per_column = candidates_per_column
        self.order = list(order)
        self.constraints_by_depth = constraints_by_depth
        self.assignment: Dict[int, int] = {}
        self.used_values: set = set()
        self.solutions: List[Tuple[int, ...]] = []
        self.seen_canonical: set = set()

    def search(self) -> None:
        self._search_depth(0, used_row_mask=0, rows_used=0)

    def _search_depth(self, depth: int, used_row_mask: int, rows_used: int) -> None:
        if depth == self.num_data_bits:
            self._record_solution()
            return
        column = self.order[depth]
        for value in self.candidates_per_column.get(column, self.candidates):
            if value in self.used_values:
                continue
            new_rows = value & ~used_row_mask
            count = bin(new_rows).count("1")
            # Symmetry break: new parity rows must be the next consecutive indices.
            if new_rows and new_rows != ((1 << count) - 1) << rows_used:
                continue
            self.assignment[column] = value
            self.used_values.add(value)
            if all(
                _unit_vector_in_span(*self._masked(constraint)) == constraint.observed
                for constraint in self.constraints_by_depth.get(depth, [])
            ):
                self._search_depth(depth + 1, used_row_mask | value, rows_used + count)
            del self.assignment[column]
            self.used_values.discard(value)

    def _masked(self, constraint: _Constraint):
        """``target & ~p`` and ``{c & ~p}`` for the pattern's columns ``c``, ``p = XOR(c)``."""
        pattern_columns = [self.assignment[bit] for bit in constraint.pattern_bits]
        parity_value = 0
        for column in pattern_columns:
            parity_value ^= column
        outside = ~parity_value
        target = self.assignment[constraint.target_bit] & outside
        return target, [column & outside for column in pattern_columns]

    def _record_solution(self) -> None:
        columns = tuple(self.assignment[bit] for bit in range(self.num_data_bits))
        canonical = canonical_parity_columns(columns, self.num_parity_bits)
        if canonical not in self.seen_canonical:
            self.seen_canonical.add(canonical)
            self.solutions.append(columns)


def _thinned(profile, rng, drop=0.1):
    """The profile with each recorded miscorrection dropped with probability ``drop``."""
    thinned = MiscorrectionProfile(profile.num_data_bits)
    for pattern, positions in profile.items():
        thinned.record(pattern, [bit for bit in sorted(positions) if rng.random() >= drop])
    return thinned


WEIGHT_SETS = ([1], [2], [3], [1, 2])


class TestDifferentialAgainstStaticSearch:
    """Identical canonical code sets from the forward-checking and static searches."""

    @pytest.mark.parametrize("family", ["sec-hamming", "secded-extended-hamming"])
    @pytest.mark.parametrize("num_data_bits", range(4, 13))
    def test_identical_canonical_code_sets(self, family, num_data_bits):
        rng = np.random.default_rng([num_data_bits, len(family)])
        solver = BeerSolver(num_data_bits, family=family)
        for weights in WEIGHT_SETS:
            if family != "sec-hamming" and weights == [1] and num_data_bits > 6:
                continue  # tens of thousands of SECDED classes; both searches list them all
            code = get_family(family).random(num_data_bits, rng=rng)
            exact = profile_for(code, weights)
            for profile in (exact, _thinned(exact, rng)):
                solution = solver.solve(profile)
                found = [canonical_form(candidate) for candidate in solution.codes]
                assert len(set(found)) == len(found)
                assert set(found) == _static_solve(
                    num_data_bits, solver.num_parity_bits, family, profile
                ), (weights, profile is exact)
                if profile is exact:
                    assert canonical_form(code) in found

    @given(
        st.sampled_from(["sec-hamming", "secded-extended-hamming"]),
        st.integers(min_value=4, max_value=12),
        st.sampled_from([(1, 2), (2,), (3,), (1, 2, 3)]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_true_class_is_among_the_candidates(self, family, num_data_bits, weights, seed):
        code = get_family(family).random(num_data_bits, rng=np.random.default_rng(seed))
        solution = BeerSolver(num_data_bits, family=family).solve(profile_for(code, weights))
        assert not solution.truncated
        assert any(codes_equivalent(code, candidate) for candidate in solution.codes)
