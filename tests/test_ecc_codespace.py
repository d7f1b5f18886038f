"""Unit tests for code equivalence, canonical forms, and enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    SystematicLinearCode,
    canonical_parity_columns,
    codes_equivalent,
    design_space_size,
    enumerate_sec_codes,
    example_7_4_code,
    hamming_code,
    random_hamming_code,
)
from repro.ecc.codespace import canonical_form, deduplicate_equivalent, parity_rows


def permute_columns(columns, permutation):
    """Relabel parity rows: ``permutation[i]`` is the new row of original row ``i``."""
    new_columns = []
    for column in columns:
        value = 0
        for source_row, target_row in enumerate(permutation):
            if (column >> source_row) & 1:
                value |= 1 << target_row
        new_columns.append(value)
    return tuple(new_columns)


def permute_rows(code, permutation):
    """Return the code obtained by relabelling parity rows with ``permutation``."""
    return SystematicLinearCode.from_parity_columns(
        permute_columns(code.parity_column_ints, permutation), code.num_parity_bits
    )


def enumerated_canonical(columns, num_parity_bits):
    """Oracle: the smallest column tuple over all ``r!`` row permutations."""
    return min(
        permute_columns(columns, permutation)
        for permutation in itertools.permutations(range(num_parity_bits))
    )


def rows_non_increasing(columns, num_parity_bits):
    """Are the rows of ``P``, read column 0 first with 1 > 0, non-increasing?"""
    rows = [
        tuple((column >> row) & 1 for column in columns)
        for row in range(num_parity_bits)
    ]
    return all(rows[row] >= rows[row + 1] for row in range(num_parity_bits - 1))


column_tuples = st.integers(min_value=1, max_value=7).flatmap(
    lambda rows: st.tuples(
        st.just(rows),
        st.lists(
            st.integers(min_value=0, max_value=(1 << rows) - 1),
            min_size=1,
            max_size=12,
        ).map(tuple),
    )
)


class TestCanonicalForm:
    def test_canonical_form_is_invariant_under_row_permutations(self):
        code = example_7_4_code()
        base = canonical_form(code)
        for permutation in [(1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert canonical_form(permute_rows(code, permutation)) == base

    def test_canonical_form_distinguishes_different_codes(self):
        first = hamming_code(4, num_parity_bits=4)
        second = random_hamming_code(4, num_parity_bits=4, rng=np.random.default_rng(5))
        if first.parity_column_ints == second.parity_column_ints:
            pytest.skip("random draw matched the deterministic code")
        # They may still be equivalent by chance; verify via brute force that
        # the canonical forms agree exactly when an equivalence exists.
        assert (canonical_form(first) == canonical_form(second)) == codes_equivalent(
            first, second
        )

    def test_canonical_columns_idempotent(self):
        columns = (0b110, 0b011, 0b111)
        canonical = canonical_parity_columns(columns, 3)
        assert canonical_parity_columns(canonical, 3) == canonical

    def test_canonical_is_lexicographically_minimal(self):
        columns = (0b110, 0b101)
        canonical = canonical_parity_columns(columns, 3)
        assert canonical <= columns


class TestSortedRowCanonicalForm:
    """The row sort against the ``r!`` enumeration it replaced."""

    @given(column_tuples)
    @settings(max_examples=150, deadline=None)
    def test_sort_equals_permutation_enumeration(self, case):
        num_parity_bits, columns = case
        assert canonical_parity_columns(columns, num_parity_bits) == enumerated_canonical(
            columns, num_parity_bits
        )

    @given(column_tuples, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_fixed_points_are_exactly_the_non_increasing_row_orders(self, case, canonicalise):
        # The predicate the SAT encoding's row-order clauses impose.
        num_parity_bits, columns = case
        if canonicalise:
            columns = canonical_parity_columns(columns, num_parity_bits)
        assert (columns == canonical_parity_columns(columns, num_parity_bits)) == (
            rows_non_increasing(columns, num_parity_bits)
        )

    def test_parity_rows_read_column_zero_first(self):
        # P rows: row 0 = (1, 0, 1), row 1 = (0, 1, 1), row 2 = (0, 0, 0).
        assert parity_rows((0b001, 0b010, 0b011), 3) == [0b101, 0b011, 0b000]

    def test_canonical_form_moves_column_zero_bits_to_the_lowest_rows(self):
        assert canonical_parity_columns((0b0110, 0b1010), 4) == (0b0011, 0b0101)


class TestEquivalence:
    def test_row_permuted_codes_are_equivalent(self):
        code = example_7_4_code()
        assert codes_equivalent(code, permute_rows(code, (2, 0, 1)))

    def test_codes_with_different_dimensions_not_equivalent(self):
        assert not codes_equivalent(hamming_code(4), hamming_code(5))
        assert not codes_equivalent(
            hamming_code(4, num_parity_bits=3), hamming_code(4, num_parity_bits=4)
        )

    def test_inequivalent_codes_detected(self):
        # {011, 101, 110} vs {011, 101, 111} cannot be related by a row
        # permutation because the multiset of column weights differs.
        first = SystematicLinearCode.from_parity_columns([0b011, 0b101, 0b110], 3)
        second = SystematicLinearCode.from_parity_columns([0b011, 0b101, 0b111], 3)
        assert not codes_equivalent(first, second)

    def test_deduplicate_equivalent(self):
        code = example_7_4_code()
        variants = [code, permute_rows(code, (1, 0, 2)), permute_rows(code, (2, 1, 0))]
        unique = deduplicate_equivalent(variants + [hamming_code(4)])
        assert len(unique) == len(deduplicate_equivalent([code, hamming_code(4)]))


class TestEnumeration:
    def test_enumeration_count_matches_design_space(self):
        codes = list(enumerate_sec_codes(2, 3))
        assert len(codes) == design_space_size(2, 3) == math.perm(4, 2)

    def test_enumeration_yields_valid_codes(self):
        for code in enumerate_sec_codes(3, 3):
            assert code.is_single_error_correcting()

    def test_enumeration_up_to_equivalence_is_smaller(self):
        full = list(enumerate_sec_codes(3, 3))
        reduced = list(enumerate_sec_codes(3, 3, up_to_equivalence=True))
        assert len(reduced) < len(full)
        # Every full enumeration member must be equivalent to some reduced one.
        for code in full[:10]:
            assert any(codes_equivalent(code, rep) for rep in reduced)

    def test_design_space_size_formula(self):
        assert design_space_size(4, 3) == 24
        assert design_space_size(11, 4) == math.factorial(11)
        assert design_space_size(12, 4) == 0
