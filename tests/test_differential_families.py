"""Differential guarantees for the pluggable code families.

Two locks:

* the packed engine's decode outcomes (corrected words *and* DUE masks) are
  bit-identical to the reference backend for every family — the fast path
  must encode "detect, don't flip" exactly like the oracle;
* BEER — both the backtracking and the SAT backend — recovers an injected
  SECDED extended-Hamming function uniquely up to code equivalence from a
  simulated miscorrection(+DUE) profile, searching the SECDED design space.
"""

import numpy as np
import pytest

from repro.ecc import SyndromeDecoder, classify_decode, codes_equivalent, get_family
from repro.ecc.decoder import DecodeOutcome
from repro.einsim.engine import bulk_decode, bulk_decode_outcomes, bulk_encode
from repro.einsim.simulator import EinsimSimulator
from repro.einsim.injectors import UniformRandomInjector
from repro.core.beer import BeerSolver
from repro.core.beer_sat import SatBeerSolver
from repro.core.patterns import charged_patterns
from repro.core.profile import (
    expected_miscorrection_profile,
    monte_carlo_observation_counts,
)


def family_codes():
    """One representative code per family (ids used as pytest parameters)."""
    return [
        ("sec-hamming", get_family("sec-hamming").construct(8)),
        (
            "secded-extended-hamming",
            get_family("secded-extended-hamming").random(
                8, rng=np.random.default_rng(11)
            ),
        ),
        ("parity-detect", get_family("parity-detect").construct(8)),
        ("repetition-3x", get_family("repetition").construct(5)),
        ("repetition-2x-detect", get_family("repetition").construct(5, 5)),
    ]


@pytest.fixture(params=family_codes(), ids=lambda pair: pair[0])
def family_code(request):
    return request.param[1]


class TestPackedMatchesReferencePerFamily:
    def test_bulk_decode_outcomes_bit_identical(self, family_code):
        code = family_code
        rng = np.random.default_rng(5)
        received = rng.integers(
            0, 2, size=(512, code.codeword_length), dtype=np.uint8
        )
        ref_corrected, ref_due = bulk_decode_outcomes(code, received, "reference")
        fast_corrected, fast_due = bulk_decode_outcomes(code, received, "packed")
        np.testing.assert_array_equal(ref_corrected, fast_corrected)
        np.testing.assert_array_equal(ref_due, fast_due)
        np.testing.assert_array_equal(
            bulk_decode(code, received, "reference"),
            bulk_decode(code, received, "packed"),
        )

    def test_bulk_encode_bit_identical(self, family_code):
        code = family_code
        rng = np.random.default_rng(6)
        datawords = rng.integers(0, 2, size=(256, code.num_data_bits), dtype=np.uint8)
        np.testing.assert_array_equal(
            bulk_encode(code, datawords, "reference"),
            bulk_encode(code, datawords, "packed"),
        )

    def test_engine_matches_scalar_decoder(self, family_code):
        code = family_code
        decoder = SyndromeDecoder(code)
        rng = np.random.default_rng(7)
        received = rng.integers(0, 2, size=(64, code.codeword_length), dtype=np.uint8)
        corrected, due = bulk_decode_outcomes(code, received, "packed")
        for row in range(received.shape[0]):
            result = decoder.decode(received[row])
            assert corrected[row].tolist() == result.corrected_codeword.tolist()
            assert bool(due[row]) == result.detected_uncorrectable

    def test_simulator_backends_agree_including_due(self, family_code):
        code = family_code
        results = {}
        for backend in ("reference", "packed"):
            simulator = EinsimSimulator(code, seed=42, backend=backend)
            results[backend] = simulator.simulate(
                np.ones(code.num_data_bits, dtype=np.uint8),
                2_000,
                UniformRandomInjector(0.02),
            )
        reference, packed = results["reference"], results["packed"]
        assert reference.detected_words == packed.detected_words
        assert reference.uncorrectable_words == packed.uncorrectable_words
        assert reference.miscorrected_words == packed.miscorrected_words
        np.testing.assert_array_equal(
            reference.post_correction_error_counts,
            packed.post_correction_error_counts,
        )


class TestFamilyDueSemantics:
    def test_secded_every_double_error_is_due_in_bulk(self):
        code = get_family("secded-extended-hamming").construct(8)
        codeword = bulk_encode(
            code, np.ones((1, 8), dtype=np.uint8), "packed"
        )[0]
        words = []
        for a in range(code.codeword_length):
            for b in range(a + 1, code.codeword_length):
                word = codeword.copy()
                word[a] ^= 1
                word[b] ^= 1
                words.append(word)
        received = np.asarray(words, dtype=np.uint8)
        corrected, due = bulk_decode_outcomes(code, received, "packed")
        assert due.all()
        np.testing.assert_array_equal(corrected, received)  # nothing flipped

    def test_detect_only_family_never_flips_in_bulk(self):
        code = get_family("parity-detect").construct(8)
        rng = np.random.default_rng(9)
        received = rng.integers(0, 2, size=(128, 9), dtype=np.uint8)
        corrected, due = bulk_decode_outcomes(code, received, "packed")
        np.testing.assert_array_equal(corrected, received)
        syndromes = received.sum(axis=1) % 2
        np.testing.assert_array_equal(due, syndromes == 1)

    def test_simulator_counts_due_for_detect_only_family(self):
        code = get_family("repetition").construct(4, 4)  # duplication
        simulator = EinsimSimulator(code, seed=0, backend="packed")
        result = simulator.simulate(
            np.ones(4, dtype=np.uint8), 2_000, UniformRandomInjector(0.05)
        )
        assert result.detected_words > 0
        assert result.miscorrected_words == 0
        # Any injected error is uncorrectable for a detect-only code.
        assert result.uncorrectable_words >= result.detected_words


# A SECDED member whose weight-{1,2} profile pins it uniquely (verified by
# exhaustive search in both backends below).
SECDED_K, SECDED_R, SECDED_SEED = 4, 5, 2


def _injected_secded_code():
    return get_family("secded-extended-hamming").random(
        SECDED_K, SECDED_R, rng=np.random.default_rng(SECDED_SEED)
    )


def _simulated_profile(code):
    """Miscorrection(+DUE) profile measured by Monte-Carlo simulation."""
    patterns = list(charged_patterns(code.num_data_bits, [1, 2]))
    counts = monte_carlo_observation_counts(
        code,
        patterns,
        bit_error_rate=0.35,
        words_per_pattern=4_000,
        rng=np.random.default_rng(123),
        backend="packed",
    )
    return counts, counts.to_profile()


class TestSecdedBeerRecovery:
    def test_simulated_profile_converges_to_ground_truth(self):
        code = _injected_secded_code()
        counts, profile = _simulated_profile(code)
        expected = expected_miscorrection_profile(code, profile.patterns)
        for pattern in profile.patterns:
            assert profile.miscorrections(pattern) == expected.miscorrections(
                pattern
            )
        # Detection is part of the simulated signal: double errors are DUEs.
        assert counts.total_due_words > 0

    def test_backtracking_recovers_uniquely_up_to_equivalence(self):
        code = _injected_secded_code()
        _, profile = _simulated_profile(code)
        solver = BeerSolver(SECDED_K, SECDED_R, family="secded-extended-hamming")
        solution = solver.check_uniqueness(profile)
        assert solution.unique
        assert codes_equivalent(solution.code, code)
        assert solution.family == "secded-extended-hamming"
        recovered = solution.code
        assert recovered.family_name == "secded-extended-hamming"
        # The odd-weight constraint shrinks the searched design space, and
        # the solver reports it: 11 legal 5-bit columns vs SEC's 26.
        assert solution.design_space_columns == 11

    def test_sat_backend_recovers_uniquely_up_to_equivalence(self):
        code = _injected_secded_code()
        _, profile = _simulated_profile(code)
        solver = SatBeerSolver(SECDED_K, SECDED_R, family="secded-extended-hamming")
        solution = solver.solve(profile)
        assert solution.unique
        assert codes_equivalent(solution.code, code)
        assert solution.design_space_columns == 11
        assert solution.solver_stats is not None

    def test_backends_enumerate_identical_solution_sets(self):
        # On a profile with *several* consistent SECDED functions the two
        # backends must agree on the full set of equivalence classes.
        from repro.ecc.codespace import canonical_form

        code = get_family("secded-extended-hamming").random(
            SECDED_K, SECDED_R, rng=np.random.default_rng(1)
        )
        profile = expected_miscorrection_profile(
            code, list(charged_patterns(SECDED_K, [1, 2]))
        )
        fast = BeerSolver(
            SECDED_K, SECDED_R, family="secded-extended-hamming"
        ).solve(profile)
        sat = SatBeerSolver(
            SECDED_K, SECDED_R, family="secded-extended-hamming"
        ).solve(profile)
        assert fast.num_solutions == sat.num_solutions > 0
        assert {canonical_form(c) for c in fast.codes} == {
            canonical_form(c) for c in sat.codes
        }

    def test_every_candidate_respects_the_family_design_space(self):
        code = _injected_secded_code()
        _, profile = _simulated_profile(code)
        family = get_family("secded-extended-hamming")
        for solver in (
            BeerSolver(SECDED_K, SECDED_R, family="secded-extended-hamming"),
            SatBeerSolver(SECDED_K, SECDED_R, family="secded-extended-hamming"),
        ):
            for candidate in solver.solve(profile).codes:
                assert family.is_member(candidate)

    def test_sec_solver_on_secded_profile_does_not_find_the_code(self):
        # Searching the wrong family's design space must not silently return
        # the injected SECDED function: SEC's weight->=2 space contains the
        # odd-weight columns too, but the recovered set differs (no longer
        # unique) -- the family constraint is load-bearing.
        code = _injected_secded_code()
        _, profile = _simulated_profile(code)
        sec_solution = BeerSolver(SECDED_K, SECDED_R, family="sec-hamming").solve(
            profile
        )
        secded_solution = BeerSolver(
            SECDED_K, SECDED_R, family="secded-extended-hamming"
        ).solve(profile)
        assert sec_solution.num_solutions > secded_solution.num_solutions


class TestDetectOnlyFamiliesRejectBeer:
    def test_backtracking_solver_rejects_fixed_structure_families(self):
        from repro.exceptions import SolverError

        for name in ("parity-detect", "repetition"):
            with pytest.raises(SolverError, match="fixed structure"):
                BeerSolver(4, family=name)

    def test_sat_solver_rejects_fixed_structure_families(self):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError, match="fixed structure"):
            SatBeerSolver(4, family="parity-detect")


class TestClassifyAcrossFamilies:
    def test_single_errors_classified_per_family_policy(self, family_code):
        code = family_code
        codeword = code.encode([1] * code.num_data_bits)
        expected = (
            DecodeOutcome.DETECTED_UNCORRECTABLE
            if code.detect_only
            else DecodeOutcome.CORRECTED
        )
        for position in range(code.codeword_length):
            received = codeword.copy()
            received[position] ^= 1
            outcome = classify_decode(code, codeword, received)
            assert outcome == expected
