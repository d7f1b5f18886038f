"""Unit tests for miscorrection profiles, counts, and threshold filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProfileError
from repro.dram import CellType
from repro.ecc import SystematicLinearCode, example_7_4_code, hamming_code
from repro.ecc.family import family_names, get_family
from gf2_oracle import in_span
from repro.core import (
    ChargedPattern,
    MiscorrectionCounts,
    MiscorrectionProfile,
    charged_patterns,
    expected_miscorrection_profile,
    miscorrections_possible,
    one_charged_patterns,
)
from repro.core.profile import charged_codeword_positions


@pytest.fixture
def code_7_4():
    return example_7_4_code()


class TestChargedCodewordPositions:
    def test_one_charged_pattern_charges_parity_support(self, code_7_4):
        # Charging only data bit 2 charges exactly the parity bits in the
        # support of column P_*,2 = (1, 0, 1): parity positions 4 and 6.
        pattern = ChargedPattern(4, [2])
        charged = charged_codeword_positions(code_7_4, pattern)
        assert charged == frozenset({2, 4, 6})

    def test_zero_pattern_true_cells_has_no_charged_positions(self, code_7_4):
        charged = charged_codeword_positions(code_7_4, ChargedPattern(4, []))
        assert charged == frozenset()

    def test_anti_cells_invert_parity_charges(self, code_7_4):
        # With all data bits DISCHARGED, anti-cells store all ones; the parity
        # bits then store the encoding of all-ones data.
        pattern = ChargedPattern(4, [])
        charged = charged_codeword_positions(code_7_4, pattern, CellType.ANTI_CELL)
        codeword = code_7_4.encode(pattern.dataword(CellType.ANTI_CELL))
        expected = {p for p in code_7_4.parity_bit_positions if codeword[p] == 0}
        assert charged == frozenset(expected)

    def test_pattern_code_mismatch_rejected(self, code_7_4):
        with pytest.raises(ProfileError):
            charged_codeword_positions(code_7_4, ChargedPattern(5, [0]))


class TestMiscorrectionsPossible:
    def test_paper_table_2(self, code_7_4):
        # Table 2: only the pattern charging data bit 0 can miscorrect, and it
        # can miscorrect every other data bit.
        expectations = {
            0: {1, 2, 3},
            1: set(),
            2: set(),
            3: set(),
        }
        for charged_bit, expected in expectations.items():
            possible = miscorrections_possible(code_7_4, ChargedPattern(4, [charged_bit]))
            assert possible == frozenset(expected)

    def test_miscorrections_never_reported_at_charged_bits(self):
        code = hamming_code(8)
        for pattern in one_charged_patterns(8):
            possible = miscorrections_possible(code, pattern)
            assert not (possible & pattern.charged_bits)

    def test_full_charge_pattern_spans_everything(self):
        # Charging every data bit makes every column reachable, so every
        # DISCHARGED bit (none) - trivially empty set.
        code = hamming_code(8)
        pattern = ChargedPattern(8, range(8))
        assert miscorrections_possible(code, pattern) == frozenset()

    def test_weight_two_column_pattern_can_only_miscorrect_subsets(self):
        # For a 1-CHARGED pattern, miscorrections are possible exactly at bits
        # whose columns have support contained in the charged bit's column.
        code = SystematicLinearCode.from_parity_columns([0b111, 0b011, 0b101, 0b110], 3)
        possible = miscorrections_possible(code, ChargedPattern(4, [1]))
        assert possible == frozenset()
        possible = miscorrections_possible(code, ChargedPattern(4, [0]))
        assert possible == frozenset({1, 2, 3})


def _in_span_miscorrections(code, pattern, cell_type):
    """The original builder: every CHARGED position's ``H`` column, then
    ``in_span`` over 0/1 arrays for each DISCHARGED target."""
    check = code.parity_check_matrix
    charged = charged_codeword_positions(code, pattern, cell_type)
    spanning_columns = [check[:, position] for position in charged]
    return frozenset(
        target
        for target in pattern.discharged_bits
        if in_span(check[:, target], spanning_columns)
    )


class TestIntegerMaskedSpanBuilder:
    """``miscorrections_possible`` against the ``in_span`` builder it replaced."""

    @given(
        st.sampled_from(family_names()),
        st.integers(min_value=1, max_value=10),
        st.sampled_from(list(CellType)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_in_span_builder(self, family, num_data_bits, cell_type, weight, seed):
        code = get_family(family).random(num_data_bits, rng=np.random.default_rng(seed))
        for pattern in charged_patterns(num_data_bits, [min(weight, num_data_bits)]):
            assert miscorrections_possible(code, pattern, cell_type) == (
                _in_span_miscorrections(code, pattern, cell_type)
            )

    @pytest.mark.parametrize("cell_type", list(CellType))
    def test_paper_example_both_cell_types(self, code_7_4, cell_type):
        for pattern in charged_patterns(4, [0, 1, 2, 3, 4]):
            assert miscorrections_possible(code_7_4, pattern, cell_type) == (
                _in_span_miscorrections(code_7_4, pattern, cell_type)
            )

    def test_pattern_code_mismatch_rejected(self, code_7_4):
        with pytest.raises(ProfileError):
            miscorrections_possible(code_7_4, ChargedPattern(5, [0]))


class TestMiscorrectionProfile:
    def test_record_and_query(self):
        profile = MiscorrectionProfile(4)
        pattern = ChargedPattern(4, [0])
        profile.record(pattern, [1, 3])
        assert profile.miscorrections(pattern) == frozenset({1, 3})
        assert pattern in profile
        assert profile.total_miscorrections == 2

    def test_record_accumulates(self):
        profile = MiscorrectionProfile(4)
        pattern = ChargedPattern(4, [0])
        profile.record(pattern, [1])
        profile.record(pattern, [2])
        assert profile.miscorrections(pattern) == frozenset({1, 2})

    def test_cannot_record_miscorrection_at_charged_bit(self):
        profile = MiscorrectionProfile(4)
        with pytest.raises(ProfileError):
            profile.record(ChargedPattern(4, [0]), [0])

    def test_cannot_record_out_of_range_position(self):
        profile = MiscorrectionProfile(4)
        with pytest.raises(ProfileError):
            profile.record(ChargedPattern(4, [0]), [4])

    def test_pattern_length_mismatch(self):
        profile = MiscorrectionProfile(4)
        with pytest.raises(ProfileError):
            profile.record(ChargedPattern(5, [0]), [1])
        with pytest.raises(ProfileError):
            profile.miscorrections(ChargedPattern(5, [0]))

    def test_query_unknown_pattern(self):
        profile = MiscorrectionProfile(4)
        with pytest.raises(ProfileError):
            profile.miscorrections(ChargedPattern(4, [0]))

    def test_merge(self):
        first = MiscorrectionProfile(4, {ChargedPattern(4, [0]): [1]})
        second = MiscorrectionProfile(4, {ChargedPattern(4, [0]): [2], ChargedPattern(4, [1]): []})
        merged = first.merge(second)
        assert merged.miscorrections(ChargedPattern(4, [0])) == frozenset({1, 2})
        assert merged.miscorrections(ChargedPattern(4, [1])) == frozenset()

    def test_merge_length_mismatch(self):
        with pytest.raises(ProfileError):
            MiscorrectionProfile(4).merge(MiscorrectionProfile(5))

    def test_restricted_to_weights(self):
        profile = MiscorrectionProfile(4)
        profile.record(ChargedPattern(4, [0]), [1])
        profile.record(ChargedPattern(4, [0, 1]), [2])
        only_singles = profile.restricted_to_weights([1])
        assert len(only_singles.patterns) == 1
        assert only_singles.patterns[0].weight == 1

    def test_serialisation_round_trip(self, code_7_4):
        profile = expected_miscorrection_profile(code_7_4, one_charged_patterns(4))
        rebuilt = MiscorrectionProfile.from_dict(profile.to_dict())
        assert rebuilt == profile

    def test_from_dict_malformed(self):
        with pytest.raises(ProfileError):
            MiscorrectionProfile.from_dict({"entries": []})

    @pytest.mark.parametrize(
        "payload",
        [
            # Each used to be truncated: bit 0.9 charged bit 0, a true
            # miscorrection recorded bit 1, and k = 8.9 became 8.
            {"num_data_bits": 4, "entries": [{"charged_bits": [0.9], "miscorrections": []}]},
            {"num_data_bits": 4, "entries": [{"charged_bits": [0], "miscorrections": [True]}]},
            {"num_data_bits": 8.9, "entries": []},
            {"num_data_bits": True, "entries": []},
            {"num_data_bits": "4", "entries": []},
            {"num_data_bits": 4, "entries": [{"charged_bits": ["0"], "miscorrections": []}]},
            {"num_data_bits": 4, "entries": [{"charged_bits": [0], "miscorrections": [1.0]}]},
            # Shapes that used to escape as TypeError or KeyError.
            [],
            {"num_data_bits": 4, "entries": 3},
            {"num_data_bits": 4, "entries": [7]},
            {"num_data_bits": 4, "entries": [{"charged_bits": [0]}]},
            {"num_data_bits": 4, "entries": [{"charged_bits": 0, "miscorrections": []}]},
        ],
        ids=repr,
    )
    def test_from_dict_refuses_what_it_would_have_to_guess(self, payload):
        with pytest.raises(ProfileError):
            MiscorrectionProfile.from_dict(payload)

    @pytest.mark.parametrize("position", [1.0, True, "1", None])
    def test_record_refuses_non_integer_positions(self, position):
        profile = MiscorrectionProfile(4)
        with pytest.raises(ProfileError, match="not an integer"):
            profile.record(ChargedPattern(4, [0]), [2, position])
        assert ChargedPattern(4, [0]) not in profile

    def test_integer_fields_of_every_kind_still_pass(self):
        profile = MiscorrectionProfile(np.int64(4))
        profile.record(ChargedPattern(4, [np.uint8(0)]), [np.int64(1), 2])
        assert profile.num_data_bits == 4 and type(profile.num_data_bits) is int
        assert profile.miscorrections(ChargedPattern(4, [0])) == frozenset({1, 2})

    def test_equality(self, code_7_4):
        first = expected_miscorrection_profile(code_7_4, one_charged_patterns(4))
        second = expected_miscorrection_profile(code_7_4, one_charged_patterns(4))
        assert first == second
        assert first != MiscorrectionProfile(4)

    def test_repr(self):
        profile = MiscorrectionProfile(4, {ChargedPattern(4, [0]): [1, 2]})
        assert "patterns=1" in repr(profile)
        assert "entries=2" in repr(profile)


class TestMiscorrectionCounts:
    def test_record_and_probabilities(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        counts.record_observations(pattern, [1, 1, 2], words_observed=10)
        assert counts.words_observed(pattern) == 10
        assert counts.counts_for(pattern).tolist() == [0, 2, 1, 0]
        probabilities = counts.error_probabilities(pattern)
        assert probabilities[1] == pytest.approx(0.2)

    def test_counts_validation(self):
        counts = MiscorrectionCounts(4)
        with pytest.raises(ProfileError):
            counts.record_observations(ChargedPattern(5, [0]), [], 1)
        with pytest.raises(ProfileError):
            counts.record_observations(ChargedPattern(4, [0]), [9], 1)
        with pytest.raises(ProfileError):
            counts.record_observations(ChargedPattern(4, [0]), [], -1)
        with pytest.raises(ProfileError):
            counts.counts_for(ChargedPattern(4, [1]))
        with pytest.raises(ProfileError):
            MiscorrectionCounts(0)

    def test_error_positions_with_zero_words_rejected(self):
        counts = MiscorrectionCounts(4)
        with pytest.raises(ProfileError, match="zero words"):
            counts.record_observations(ChargedPattern(4, [0]), [1, 2], 0)

    def test_zero_word_rounds_do_not_register_the_pattern(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        # A zero-word round is a legal no-op: the pattern is not registered,
        # so downstream probability/profile computations never divide by it.
        counts.record_observations(pattern, [], 0)
        assert counts.patterns == []
        assert counts.to_profile().patterns == []
        with pytest.raises(ProfileError, match="no recorded observations"):
            counts.error_probabilities(pattern)

    def test_rejected_position_leaves_the_counts_untouched(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        with pytest.raises(ProfileError, match="out of range"):
            counts.record_observations(pattern, [1, 9], 5)
        assert counts.patterns == []
        assert counts.to_profile().patterns == []
        counts.record_observations(pattern, [1], 5)
        assert counts.counts_for(pattern).tolist() == [0, 1, 0, 0]
        assert counts.words_observed(pattern) == 5
        assert counts.to_profile().miscorrections(pattern) == frozenset({1})

    def test_record_tallies_equals_record_observations(self):
        pattern = ChargedPattern(4, [0])
        by_position = MiscorrectionCounts(4)
        by_position.record_observations(pattern, [1, 1, 2], 10, due_words=3)
        by_position.record_observations(pattern, [3], 2)
        tallied = MiscorrectionCounts(4)
        tallied.record_tallies(pattern, np.array([0, 2, 1, 0]), 10, due_words=3)
        tallied.record_tallies(pattern, [0, 0, 0, 1], 2)
        assert tallied.patterns == by_position.patterns
        assert tallied.counts_for(pattern).tolist() == [0, 2, 1, 1]
        assert by_position.counts_for(pattern).tolist() == [0, 2, 1, 1]
        assert tallied.words_observed(pattern) == by_position.words_observed(pattern) == 12
        assert tallied.due_words_observed(pattern) == by_position.due_words_observed(pattern) == 3

    def test_record_tallies_validation(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        for per_bit, words, due in [
            ([0, 1, 0], 5, 0),
            ([[0, 1], [0, 0]], 5, 0),
            ([0, -1, 0, 0], 5, 0),
            ([0, 1, 0, 0], -1, 0),
            ([0, 1, 0, 0], 5, 6),
            ([0, 1, 0, 0], 5, -1),
        ]:
            with pytest.raises(ProfileError):
                counts.record_tallies(pattern, np.array(per_bit), words, due)
        with pytest.raises(ProfileError, match="zero words"):
            counts.record_tallies(pattern, np.array([0, 1, 0, 0]), 0)
        with pytest.raises(ProfileError):
            counts.record_tallies(ChargedPattern(5, [0]), np.zeros(5), 1)
        # Nothing was registered by the rejected calls, and an empty
        # zero-word tally is a legal no-op.
        counts.record_tallies(pattern, np.zeros(4, dtype=np.int64), 0)
        assert counts.patterns == []

    def test_record_tallies_keeps_its_own_copy(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        per_bit = np.array([0, 1, 0, 0], dtype=np.int64)
        counts.record_tallies(pattern, per_bit, 3)
        per_bit[1] = 99
        counts.record_tallies(pattern, per_bit, 3)
        assert counts.counts_for(pattern).tolist() == [0, 100, 0, 0]

    def test_threshold_filter_removes_rare_events(self):
        # Bit 1 fails often (a real miscorrection), bit 2 fails once
        # (transient noise); a threshold separates them (paper Figure 4).
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        counts.record_observations(pattern, [1] * 50 + [2], words_observed=1000)
        profile = counts.to_profile(threshold=0.01)
        assert profile.miscorrections(pattern) == frozenset({1})

    def test_zero_threshold_keeps_all_discharged_observations(self):
        counts = MiscorrectionCounts(4)
        pattern = ChargedPattern(4, [0])
        counts.record_observations(pattern, [0, 1, 2], words_observed=10)
        profile = counts.to_profile(threshold=0.0)
        # Bit 0 is CHARGED: its errors are ambiguous and never become profile entries.
        assert profile.miscorrections(pattern) == frozenset({1, 2})

    def test_negative_threshold_rejected(self):
        counts = MiscorrectionCounts(4)
        with pytest.raises(ProfileError):
            counts.to_profile(threshold=-0.1)

    def test_merge_counts(self):
        pattern = ChargedPattern(4, [0])
        first = MiscorrectionCounts(4)
        first.record_observations(pattern, [1], 5)
        second = MiscorrectionCounts(4)
        second.record_observations(pattern, [1, 2], 5)
        merged = first.merge(second)
        assert merged.words_observed(pattern) == 10
        assert merged.counts_for(pattern).tolist() == [0, 2, 1, 0]

    def test_merge_length_mismatch(self):
        with pytest.raises(ProfileError):
            MiscorrectionCounts(4).merge(MiscorrectionCounts(5))


def _per_pattern_profile(counts, threshold):
    """``to_profile`` as it was: one probability row and one ``record`` per pattern."""
    profile = MiscorrectionProfile(counts.num_data_bits)
    for pattern in counts.patterns:
        probabilities = counts.error_probabilities(pattern)
        profile.record(
            pattern,
            [bit for bit in pattern.discharged_bits if probabilities[bit] > threshold],
        )
    return profile


class TestCountsFromTallies:
    """``from_tallies`` is ``record_tallies`` on every row, checked as one."""

    @settings(max_examples=200, deadline=None)
    @given(
        num_data_bits=st.integers(2, 9),
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.999)),
    )
    def test_equals_record_tallies_and_the_per_pattern_profile(
        self, num_data_bits, weights, seed, threshold
    ):
        rng = np.random.default_rng(seed)
        patterns = list(charged_patterns(num_data_bits, [w for w in weights if w <= num_data_bits]))
        rng.shuffle(patterns)
        # Word counts of 0 (unregistered), 4 (exact quarter ratios, which the
        # strict > must drop at threshold 0.25) and others.
        words = rng.choice([0, 4, 7, 40], size=len(patterns))
        tallies = rng.integers(0, words[:, np.newaxis] + 1, (len(patterns), num_data_bits))
        bulk = MiscorrectionCounts.from_tallies(num_data_bits, patterns, tallies, words)
        looped = MiscorrectionCounts(num_data_bits)
        for pattern, per_bit, observed in zip(patterns, tallies, words):
            looped.record_tallies(pattern, per_bit, int(observed))
        assert bulk.patterns == looped.patterns
        for pattern in looped.patterns:
            assert bulk.counts_for(pattern).tolist() == looped.counts_for(pattern).tolist()
            assert bulk.words_observed(pattern) == looped.words_observed(pattern)
            assert bulk.due_words_observed(pattern) == 0
        profile = bulk.to_profile(threshold)
        assert profile == _per_pattern_profile(looped, threshold)
        assert profile.patterns == looped.patterns

    def test_the_tally_is_copied(self):
        pattern = ChargedPattern(4, [0])
        tallies = np.array([[0, 1, 0, 0]])
        counts = MiscorrectionCounts.from_tallies(4, [pattern], tallies, np.array([3]))
        tallies[0, 1] = 99
        counts.record_tallies(pattern, [0, 1, 0, 0], 3)
        assert counts.counts_for(pattern).tolist() == [0, 2, 0, 0]
        assert counts.words_observed(pattern) == 6

    @pytest.mark.parametrize("patterns, tallies, words", [
        pytest.param([ChargedPattern(4, [0])], [[0, 1, 0]], [3], id="narrow-tally"),
        pytest.param([ChargedPattern(4, [0])], [0, 1, 0, 0], [3], id="1-d-tally"),
        pytest.param([ChargedPattern(4, [0])], [[0, 1, 0, 0]], [3, 3], id="two-word-counts"),
        pytest.param([ChargedPattern(4, [0])], [[0, -1, 0, 0]], [3], id="negative-count"),
        pytest.param([ChargedPattern(4, [0])], [[0, 1, 0, 0]], [-1], id="negative-words"),
        pytest.param([ChargedPattern(4, [0])], [[0, 1, 0, 0]], [0], id="errors-unread"),
        pytest.param([ChargedPattern(5, [0])], [[0, 1, 0, 0]], [3], id="wrong-length"),
        pytest.param(
            [ChargedPattern(4, [0]), ChargedPattern(4, [0])], [[0] * 4, [0] * 4], [3, 3],
            id="repeated-pattern",
        ),
    ])
    def test_malformed_tallies_are_refused(self, patterns, tallies, words):
        with pytest.raises(ProfileError):
            MiscorrectionCounts.from_tallies(4, patterns, np.array(tallies), np.array(words))

    def test_no_patterns_give_empty_counts(self):
        counts = MiscorrectionCounts.from_tallies(4, [], np.zeros((0, 4)), np.zeros(0))
        assert counts.patterns == [] and counts.to_profile().patterns == []


class TestExpectedProfileConsistency:
    def test_expected_profile_matches_per_pattern_queries(self, code_7_4):
        patterns = one_charged_patterns(4)
        profile = expected_miscorrection_profile(code_7_4, patterns)
        for pattern in patterns:
            assert profile.miscorrections(pattern) == miscorrections_possible(
                code_7_4, pattern
            )

    def test_profiles_differ_between_codes(self):
        first = hamming_code(8)
        second = SystematicLinearCode.from_parity_columns(
            list(reversed(first.parity_column_ints)), first.num_parity_bits
        )
        patterns = one_charged_patterns(8)
        assert expected_miscorrection_profile(
            first, patterns
        ) != expected_miscorrection_profile(second, patterns)

    def test_anti_cell_profile_of_one_charged_pattern(self, code_7_4):
        # BEER's reasoning is charge-based, so the expected profile computed
        # for anti-cells must match the charge-domain condition as well.
        patterns = one_charged_patterns(4)
        profile = expected_miscorrection_profile(code_7_4, patterns, CellType.ANTI_CELL)
        for pattern in patterns:
            assert profile.miscorrections(pattern) == miscorrections_possible(
                code_7_4, pattern, CellType.ANTI_CELL
            )
