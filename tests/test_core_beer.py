"""Unit and integration tests for the BEER solver (specialised backend)."""

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
from repro.core import (
    BeerSolver,
    ChargedPattern,
    MiscorrectionProfile,
    charged_patterns,
    expected_miscorrection_profile,
    one_charged_patterns,
)


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


def _unit_vector_evaluate(self, constraint):
    """The original constraint check: the pattern's columns plus one unit
    vector per CHARGED parity row, eliminated together."""
    pattern_columns = [self.assignment[bit] for bit in constraint.pattern_bits]
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
    target = self.assignment[constraint.target_bit]
    return _unit_vector_in_span(target, spanning)


class TestMaskedSpanCheck:
    """The masked-span constraint check against the unit-vector elimination."""

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
        from repro.core.beer import _Constraint, _SearchState

        num_parity_bits, columns = rows_and_columns
        state = _SearchState(
            num_data_bits=len(columns),
            num_parity_bits=num_parity_bits,
            candidates=[],
            order=[],
            constraints_by_depth={},
            max_solutions=None,
            max_nodes=None,
        )
        state.assignment = dict(enumerate(columns))
        constraint = _Constraint(
            pattern_bits=tuple(range(len(columns) - 1)),
            target_bit=len(columns) - 1,
            observed=True,
        )
        assert state._evaluate(constraint) == _unit_vector_evaluate(state, constraint)

    @pytest.mark.parametrize(
        "num_data_bits, seed", [(8, 0), (8, 1), (8, 2), (16, 3), (16, 4), (16, 5)]
    )
    def test_solve_visits_the_same_nodes(self, num_data_bits, seed):
        from unittest import mock

        from repro.core.beer import _SearchState

        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1, 2])
        masked = BeerSolver(num_data_bits).solve(profile)
        with mock.patch.object(_SearchState, "_evaluate", _unit_vector_evaluate):
            original = BeerSolver(num_data_bits).solve(profile)
        assert masked.nodes_visited == original.nodes_visited
        assert [c.parity_column_ints for c in masked.codes] == [
            c.parity_column_ints for c in original.codes
        ]
        assert masked.unique and codes_equivalent(masked.code, code)
