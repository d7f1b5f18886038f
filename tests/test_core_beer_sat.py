"""Tests for the SAT-backed BEER solver and its agreement with the fast backend."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.beer_sat as beer_sat
from repro.core.beer import profile_entries
from repro.exceptions import ProfileError, SolverError, ValidationError
from repro.ecc import (
    canonical_parity_columns,
    codes_equivalent,
    example_7_4_code,
    get_family,
    hamming_code,
    random_hamming_code,
)
from repro.ecc.codespace import canonical_form
from repro.core import (
    BeerSolver,
    ChargedPattern,
    MiscorrectionProfile,
    SatBeerSolver,
    charged_patterns,
    expected_miscorrection_profile,
    one_charged_patterns,
)


def profile_for(code, weights):
    return expected_miscorrection_profile(
        code, list(charged_patterns(code.num_data_bits, weights))
    )


def relabel(columns, permutation):
    """Move parity row ``i`` of every column to row ``permutation[i]``."""
    return tuple(
        sum(1 << target for source, target in enumerate(permutation) if (column >> source) & 1)
        for column in columns
    )


def rotated_pins(code, pinned):
    """Pins from a rotated labelling of ``code``'s canonical form.

    Rotating every row up by one takes the canonical column 0 (its set bits
    in the lowest rows) to a value such as ``0b0110``, which is not in
    canonical row order.
    """
    rows = code.num_parity_bits
    rotation = [(row + 1) % rows for row in range(rows)]
    columns = relabel(canonical_form(code), rotation)
    return {index: columns[index] for index in pinned}


def matches_pins(code, pins):
    """Oracle: does some relabelling of ``code``'s parity rows reproduce ``pins``?"""
    columns = code.parity_column_ints
    return any(
        all(relabel(columns, permutation)[index] == value for index, value in pins.items())
        for permutation in itertools.permutations(range(code.num_parity_bits))
    )


def differential_codes():
    """Random SEC codes for k = 4..8 and one SECDED code, with their families."""
    cases = [
        ("sec-hamming", random_hamming_code(k, rng=np.random.default_rng(100 + k)))
        for k in range(4, 9)
    ]
    cases.append(
        (
            "secded-extended-hamming",
            get_family("secded-extended-hamming").random(
                4, 5, rng=np.random.default_rng(4)
            ),
        )
    )
    return cases


class TestSatBackendBasics:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(SolverError):
            SatBeerSolver(0)

    def test_profile_length_mismatch_rejected(self):
        with pytest.raises(ProfileError):
            SatBeerSolver(4, 3).solve(MiscorrectionProfile(5))

    def test_default_parity_bits(self):
        assert SatBeerSolver(11).num_parity_bits == 4

    def test_higher_weight_patterns_rejected(self):
        profile = MiscorrectionProfile(4)
        profile.record(ChargedPattern(4, [0, 1, 2]), [])
        with pytest.raises(SolverError):
            SatBeerSolver(4, 3).solve(profile)

    def test_zero_weight_pattern_is_ignored(self):
        code = example_7_4_code()
        profile = profile_for(code, [1])
        profile.record(ChargedPattern(4, []), [])
        solution = SatBeerSolver(4, 3).solve(profile)
        assert solution.unique


class TestSatRecovery:
    def test_paper_example_recovered(self):
        code = example_7_4_code()
        solution = SatBeerSolver(4, 3).solve(profile_for(code, [1]))
        assert solution.unique
        assert codes_equivalent(solution.code, code)

    def test_shortened_code_with_one_two_charged(self):
        code = random_hamming_code(6, rng=np.random.default_rng(3))
        solution = SatBeerSolver(6).solve(profile_for(code, [1, 2]))
        assert solution.unique
        assert codes_equivalent(solution.code, code)

    def test_max_solutions_truncates(self):
        solution = SatBeerSolver(2, 3).solve(MiscorrectionProfile(2), max_solutions=2)
        assert solution.num_solutions == 2
        assert solution.truncated

    def test_ambiguous_one_charged_profile_yields_multiple_codes(self):
        # A heavily shortened code where 1-CHARGED alone is not unique: two
        # disjoint-support columns give the same empty profile as two
        # overlapping-support columns.
        from repro.ecc import SystematicLinearCode

        code = SystematicLinearCode.from_parity_columns([0b0011, 0b1100], 4)
        solution = SatBeerSolver(2, 4).solve(profile_for(code, [1]), max_solutions=8)
        assert solution.num_solutions > 1
        assert any(codes_equivalent(code, candidate) for candidate in solution.codes)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sat_and_specialised_backends_agree_on_uniqueness(self, seed):
        code = random_hamming_code(5, num_parity_bits=4, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1, 2])
        fast = BeerSolver(5, 4).solve(profile)
        sat = SatBeerSolver(5, 4).solve(profile)
        assert fast.num_solutions == sat.num_solutions
        for candidate in sat.codes:
            assert any(codes_equivalent(candidate, other) for other in fast.codes)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_backends_agree_on_solution_sets_for_one_charged(self, seed):
        code = random_hamming_code(4, num_parity_bits=4, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1])
        fast = BeerSolver(4, 4).solve(profile)
        sat = SatBeerSolver(4, 4).solve(profile)
        assert fast.num_solutions == sat.num_solutions
        for candidate in fast.codes:
            assert any(codes_equivalent(candidate, other) for other in sat.codes)

    def test_full_length_code_unique_under_both_backends(self):
        code = hamming_code(4, num_parity_bits=3)
        profile = profile_for(code, [1])
        assert BeerSolver(4, 3).solve(profile).unique
        assert SatBeerSolver(4, 3).solve(profile).unique

    def test_recovered_codes_reproduce_profile(self):
        code = random_hamming_code(6, rng=np.random.default_rng(21))
        patterns = one_charged_patterns(6)
        profile = expected_miscorrection_profile(code, patterns)
        solution = SatBeerSolver(6).solve(profile, max_solutions=4)
        for candidate in solution.codes:
            assert expected_miscorrection_profile(candidate, patterns) == profile

    @pytest.mark.parametrize("backend", [BeerSolver, SatBeerSolver], ids=["fast", "sat"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_both_backends_refuse_a_cap_below_one(self, backend, cap):
        # The SAT loop used to check the cap only after its first model, so
        # it returned one candidate where the search returned none.
        code = random_hamming_code(8, rng=np.random.default_rng(3))
        with pytest.raises(ValidationError, match="max_solutions"):
            backend(8).solve(profile_for(code, [1, 2]), max_solutions=cap)

    @pytest.mark.parametrize("backend", [BeerSolver, SatBeerSolver], ids=["fast", "sat"])
    def test_a_cap_of_one_stops_at_one_candidate(self, backend):
        solution = backend(2, 3).solve(MiscorrectionProfile(2), max_solutions=1)
        assert solution.num_solutions == 1
        assert solution.truncated

    @pytest.mark.parametrize(
        "num_data_bits, num_parity_bits, family",
        [
            # The SAT backend used to accept these and return 0 candidates.
            (12, 4, "sec-hamming"),  # r = 4 holds 11 SEC columns
            (5, 4, "secded-extended-hamming"),  # and 4 SEC-DED ones
            (4, 0, "sec-hamming"),
            (4, -1, "sec-hamming"),
            (4, None, "parity-detect"),
            (4, None, "repetition"),
            (4, None, "no-such-family"),
            (0, None, "sec-hamming"),
            (4.0, None, "sec-hamming"),
            (4, 3.0, "sec-hamming"),
            (4, True, "sec-hamming"),
        ],
        ids=repr,
    )
    def test_both_backends_refuse_the_same_problems(
        self, num_data_bits, num_parity_bits, family
    ):
        messages = []
        for backend in (BeerSolver, SatBeerSolver):
            with pytest.raises(SolverError) as refused:
                backend(num_data_bits, num_parity_bits, family=family)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("cap", [2.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("backend", [BeerSolver, SatBeerSolver], ids=["fast", "sat"])
    def test_both_backends_refuse_a_cap_that_is_not_an_int(self, backend, cap):
        with pytest.raises(ValidationError, match="max_solutions"):
            backend(2, 3).solve(MiscorrectionProfile(2), max_solutions=cap)

    @pytest.mark.parametrize("backend", [BeerSolver, SatBeerSolver], ids=["fast", "sat"])
    def test_a_pattern_charging_every_bit_constrains_nothing(self, backend):
        # A 3-CHARGED pattern of a 3-bit word leaves no bit to miscorrect;
        # the SAT backend used to refuse it as a higher-weight pattern.
        code = random_hamming_code(3, num_parity_bits=3, rng=np.random.default_rng(2))
        profile = profile_for(code, [1])
        padded = profile_for(code, [1])
        padded.record(ChargedPattern(3, [0, 1, 2]), [])
        padded.record(ChargedPattern(3, []), [])
        assert [c.parity_column_ints for c in backend(3, 3).solve(padded).codes] == [
            c.parity_column_ints for c in backend(3, 3).solve(profile).codes
        ]


@st.composite
def perturbed_exact_profiles(draw):
    """``(family, k, r, profile)``: an exact profile with entries dropped or added."""
    family = draw(st.sampled_from(["sec-hamming", "secded-extended-hamming"]))
    num_data_bits = draw(st.integers(min_value=2, max_value=6))
    code = get_family(family).random(
        num_data_bits, rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    )
    weights = draw(st.sampled_from([[1], [2], [1, 2]]))
    patterns = list(charged_patterns(num_data_bits, weights))
    exact = expected_miscorrection_profile(code, patterns)
    mapping = {pattern: set(exact.miscorrections(pattern)) for pattern in patterns}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # Drop a whole pattern, or flip one (pattern, DISCHARGED bit) entry.
        pattern = draw(st.sampled_from(sorted(mapping, key=lambda p: sorted(p.charged_bits))))
        if draw(st.booleans()) or not pattern.discharged_bits:
            if len(mapping) > 1:
                del mapping[pattern]
        else:
            mapping[pattern] ^= {draw(st.sampled_from(sorted(pattern.discharged_bits)))}
    profile = MiscorrectionProfile(num_data_bits, mapping)
    return family, num_data_bits, code.num_parity_bits, profile


class TestBackendAgreementProperty:
    """Both backends read a profile one way, so they find the same candidates."""

    @settings(max_examples=40, deadline=None)
    @given(perturbed_exact_profiles())
    def test_same_canonical_candidates(self, case):
        family, num_data_bits, num_parity_bits, profile = case
        fast, sat = (
            backend(num_data_bits, num_parity_bits, family=family).solve(profile)
            for backend in (BeerSolver, SatBeerSolver)
        )
        assert not fast.truncated and not sat.truncated
        assert fast.num_solutions == sat.num_solutions
        assert sorted(canonical_form(code) for code in fast.codes) == sorted(
            canonical_form(code) for code in sat.codes
        )
        assert (fast.family, fast.design_space_columns) == (
            sat.family, sat.design_space_columns
        )


class TestProfileEntries:
    def test_entries_in_profile_order_without_empty_or_full_patterns(self):
        profile = MiscorrectionProfile(4)
        profile.record(ChargedPattern(4, [2]), [0, 3])
        profile.record(ChargedPattern(4, []), [])
        profile.record(ChargedPattern(4, [3, 0]), [])
        profile.record(ChargedPattern(4, [0, 1, 2, 3]), [])
        profile.record(ChargedPattern(4, [1, 2, 0]), [3])
        assert profile_entries(profile) == [
            ((2,), 0b1001), ((0, 3), 0), ((0, 1, 2), 0b1000),
        ]


class TestIncrementalEnumeration:
    """The persistent-solver path against the historical one-shot oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_incremental_and_one_shot_find_identical_canonical_sets(self, seed):
        code = random_hamming_code(5, num_parity_bits=4, rng=np.random.default_rng(seed))
        profile = profile_for(code, [1, 2])
        solver = SatBeerSolver(5, 4)
        incremental = solver.solve(profile)
        one_shot = solver.solve(profile, incremental=False)
        assert {canonical_form(c) for c in incremental.codes} == {
            canonical_form(c) for c in one_shot.codes
        }

    def test_incremental_solve_reports_solver_stats(self):
        code = example_7_4_code()
        solution = SatBeerSolver(4, 3).solve(profile_for(code, [1]))
        stats = solution.solver_stats
        assert stats is not None
        assert stats["solve_calls"] == solution.nodes_visited + 1  # final UNSAT call
        assert stats["decisions"] > 0

    def test_one_shot_oracle_reports_no_stats(self):
        code = example_7_4_code()
        solution = SatBeerSolver(4, 3).solve(profile_for(code, [1]), incremental=False)
        assert solution.solver_stats is None

    def test_known_columns_restrict_the_search(self):
        code = random_hamming_code(6, rng=np.random.default_rng(3))
        profile = profile_for(code, [1, 2])
        pinned = {0: code.parity_column_ints[0], 1: code.parity_column_ints[1]}
        solution = SatBeerSolver(6).solve(profile, known_columns=pinned)
        assert solution.num_solutions == 1
        # One model per equivalence class, pinned or not.
        unpinned = SatBeerSolver(6).solve(profile)
        assert solution.nodes_visited == unpinned.nodes_visited == 1
        assert solution.codes[0].parity_column_ints[:2] == tuple(pinned.values())

    def test_known_columns_validation(self):
        code = example_7_4_code()
        profile = profile_for(code, [1])
        with pytest.raises(SolverError):
            SatBeerSolver(4, 3).solve(profile, known_columns={9: 1})
        with pytest.raises(SolverError):
            SatBeerSolver(4, 3).solve(profile, known_columns={0: 1 << 7})

    @pytest.mark.parametrize(
        "pins",
        [{True: 5}, {1.0: 5}, {1: 5.0}, {"1": 5}, {1: "5"}, {1: np.bool_(True)}],
        ids=repr,
    )
    def test_known_columns_must_be_integers(self, pins, monkeypatch):
        # {True: 5} used to pin column 1; {1.0: 5} and {1: 5.0} raised a bare
        # TypeError from list indexing and from ``>>``.
        def no_formula(*args):
            raise AssertionError("the formula was built before the pins were checked")

        monkeypatch.setattr(SatBeerSolver, "_build_formula", no_formula)
        profile = profile_for(example_7_4_code(), [1])
        with pytest.raises(SolverError, match="integer"):
            SatBeerSolver(4, 3).solve(profile, known_columns=pins)

    def test_known_columns_accept_numpy_integers(self):
        code = example_7_4_code()
        profile = profile_for(code, [1])
        columns = code.parity_column_ints
        plain = SatBeerSolver(4, 3).solve(profile, known_columns={1: columns[1]})
        numpy = SatBeerSolver(4, 3).solve(
            profile, known_columns={np.int64(1): np.uint8(columns[1])}
        )
        assert [c.parity_column_ints for c in numpy.codes] == [
            c.parity_column_ints for c in plain.codes
        ]
        assert numpy.solver_stats == plain.solver_stats


class TestOneModelPerEquivalenceClass:
    """Row-order symmetry breaking against the specialised ``BeerSolver``."""

    @pytest.mark.parametrize("pinned", [(), (0,), (0, 2)], ids=["free", "pin0", "pin0+2"])
    @pytest.mark.parametrize("weights", [[1], [1, 2]], ids=["1-charged", "1,2-charged"])
    @pytest.mark.parametrize(
        "family,code",
        differential_codes(),
        ids=lambda value: value if isinstance(value, str) else f"k{value.num_data_bits}",
    )
    def test_enumeration_matches_beer_solver_with_exact_counts(
        self, family, code, weights, pinned
    ):
        k, r = code.num_data_bits, code.num_parity_bits
        profile = profile_for(code, weights)
        pins = rotated_pins(code, pinned)
        if pins:
            # Not in sorted-row order: that would put column 0's bits lowest.
            assert pins[0] != (1 << bin(pins[0]).count("1")) - 1
        expected = {
            canonical_form(candidate)
            for candidate in BeerSolver(k, r, family=family).solve(profile).codes
            if matches_pins(candidate, pins)
        }
        solver = SatBeerSolver(k, r, family=family)
        incremental = solver.solve(profile, known_columns=pins or None)
        one_shot = solver.solve(profile, known_columns=pins or None, incremental=False)

        assert canonical_form(code) in expected
        assert {canonical_form(candidate) for candidate in incremental.codes} == expected
        assert incremental.num_solutions == len(expected)
        assert incremental.nodes_visited == incremental.num_solutions
        assert incremental.solver_stats["solve_calls"] == incremental.num_solutions + 1
        assert {c.parity_column_ints for c in one_shot.codes} == {
            c.parity_column_ints for c in incremental.codes
        }
        assert one_shot.nodes_visited == one_shot.num_solutions
        for candidate in incremental.codes:
            columns = candidate.parity_column_ints
            assert {index: columns[index] for index in pins} == pins
            if not pins:
                assert columns == canonical_parity_columns(columns, r)

    def test_unique_two_charged_profile_yields_one_model(self):
        # Without the row-order clauses every one of the 4! relabellings of
        # the answer was a separate model.
        code = random_hamming_code(8, rng=np.random.default_rng(0))
        solution = SatBeerSolver(8).solve(profile_for(code, [1, 2]))
        assert solution.unique
        assert solution.nodes_visited == 1
        assert solution.solver_stats["solve_calls"] == 2

    def test_model_outside_the_row_order_raises(self, monkeypatch):
        # Without the row-order clauses the enumeration reaches relabelled
        # copies, which the invariant check must refuse rather than return.
        monkeypatch.setattr(beer_sat, "encode_lex_geq", lambda formula, left, right: None)
        code = random_hamming_code(8, rng=np.random.default_rng(0))
        with pytest.raises(SolverError, match="parity-row order"):
            SatBeerSolver(8).solve(profile_for(code, [1, 2]))
