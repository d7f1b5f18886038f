"""Integration/property tests for equivalence invariants across modules.

BEER can only recover an ECC function up to a relabelling of its parity bits
(paper Section 4.2.1).  These tests pin down the corresponding invariants:
row-permuted codes are externally indistinguishable (same miscorrection
profiles, same post-correction behaviour on data bits), and the solver's
output respects that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import SyndromeDecoder, SystematicLinearCode, codes_equivalent, random_hamming_code
from repro.core import (
    BeerSolver,
    charged_patterns,
    expected_miscorrection_profile,
    miscorrections_possible,
    one_charged_patterns,
)


def permute_parity_rows(code: SystematicLinearCode, permutation):
    """Return the equivalent code with parity rows relabelled by ``permutation``."""
    new_columns = []
    for column in code.parity_column_ints:
        value = 0
        for source_row, target_row in enumerate(permutation):
            if (column >> source_row) & 1:
                value |= 1 << target_row
        new_columns.append(value)
    return SystematicLinearCode.from_parity_columns(new_columns, code.num_parity_bits)


class TestProfileEquivalenceInvariance:
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_row_permutations_do_not_change_profiles(self, num_data_bits, seed):
        rng = np.random.default_rng(seed)
        code = random_hamming_code(num_data_bits, rng=rng)
        permutation = list(rng.permutation(code.num_parity_bits))
        permuted = permute_parity_rows(code, permutation)
        patterns = one_charged_patterns(num_data_bits)
        assert expected_miscorrection_profile(code, patterns) == (
            expected_miscorrection_profile(permuted, patterns)
        )

    def test_equivalent_codes_have_identical_data_bit_behaviour(self):
        # Any error pattern restricted to data bits produces the same
        # post-correction dataword under equivalent codes.
        rng = np.random.default_rng(5)
        code = random_hamming_code(8, rng=rng)
        permuted = permute_parity_rows(code, list(rng.permutation(code.num_parity_bits)))
        decoder_a = SyndromeDecoder(code)
        decoder_b = SyndromeDecoder(permuted)
        for _trial in range(50):
            dataword = rng.integers(0, 2, size=8).astype(np.uint8)
            error_bits = rng.choice(8, size=2, replace=False)
            received_a = code.encode(dataword)
            received_b = permuted.encode(dataword)
            for bit in error_bits:
                received_a[bit] ^= 1
                received_b[bit] ^= 1
            assert np.array_equal(
                decoder_a.decode_dataword(received_a), decoder_b.decode_dataword(received_b)
            )

    def test_inequivalent_codes_differ_on_some_profile(self):
        # Two codes the solver distinguishes must differ in at least one
        # {1,2}-CHARGED profile entry.
        first = random_hamming_code(8, rng=np.random.default_rng(1))
        second = random_hamming_code(8, rng=np.random.default_rng(2))
        if codes_equivalent(first, second):
            pytest.skip("random draw produced equivalent codes")
        patterns = list(charged_patterns(8, [1, 2]))
        assert expected_miscorrection_profile(first, patterns) != (
            expected_miscorrection_profile(second, patterns)
        )


class TestSolverEquivalenceBehaviour:
    @given(st.integers(min_value=4, max_value=10), st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_solver_output_is_invariant_under_profile_source_permutation(
        self, num_data_bits, seed
    ):
        rng = np.random.default_rng(seed)
        code = random_hamming_code(num_data_bits, rng=rng)
        permuted = permute_parity_rows(code, list(rng.permutation(code.num_parity_bits)))
        patterns = list(charged_patterns(num_data_bits, [1, 2]))
        solution_original = BeerSolver(num_data_bits).solve(
            expected_miscorrection_profile(code, patterns)
        )
        solution_permuted = BeerSolver(num_data_bits).solve(
            expected_miscorrection_profile(permuted, patterns)
        )
        assert solution_original.num_solutions == solution_permuted.num_solutions == 1
        assert codes_equivalent(solution_original.code, solution_permuted.code)

    def test_miscorrection_possibility_is_charge_domain_symmetric(self):
        # The 1-CHARGED condition depends only on column supports, so applying
        # it to all patterns of a full-length code marks every data bit whose
        # column is dominated by another as susceptible somewhere.
        code = random_hamming_code(11, rng=np.random.default_rng(3))
        susceptible = set()
        for pattern in one_charged_patterns(11):
            susceptible |= set(miscorrections_possible(code, pattern))
        columns = code.parity_column_ints
        expected = set()
        for target, column in enumerate(columns):
            for other, other_column in enumerate(columns):
                if other != target and (column & ~other_column) == 0:
                    expected.add(target)
                    break
        assert susceptible == expected

    def test_exhaustive_small_space_enumeration_matches_solver(self):
        # For a tiny code the solver's solution set must equal a brute-force
        # scan of the entire design space.
        from repro.ecc.codespace import enumerate_sec_codes, canonical_form

        code = SystematicLinearCode.from_parity_columns([0b011, 0b110], 3)
        patterns = list(charged_patterns(2, [1, 2]))
        profile = expected_miscorrection_profile(code, patterns)
        brute_force = {
            canonical_form(candidate)
            for candidate in enumerate_sec_codes(2, 3)
            if expected_miscorrection_profile(candidate, patterns) == profile
        }
        solution = BeerSolver(2, 3).solve(profile)
        solver_set = {canonical_form(candidate) for candidate in solution.codes}
        assert solver_set == brute_force
