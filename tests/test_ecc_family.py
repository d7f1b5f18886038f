"""Unit tests for the pluggable code-family registry (repro.ecc.family)."""

import numpy as np
import pytest

from repro.exceptions import CodeConstructionError
from repro.ecc import (
    FAMILY_NAMES,
    ColumnConstraints,
    SyndromeDecoder,
    all_families,
    family_names,
    get_family,
    hamming_code,
    random_hamming_code,
    register_family,
)
from repro.ecc.family import SecHammingFamily, RepetitionFamily


def _flip(word, *positions):
    """A copy of ``word`` with the bit at each position flipped."""
    flipped = word.copy()
    for position in positions:
        flipped[position] ^= 1
    return flipped


class TestRegistry:
    def test_builtin_families_registered(self):
        assert FAMILY_NAMES == (
            "sec-hamming",
            "secded-extended-hamming",
            "parity-detect",
            "repetition",
        )
        assert family_names() == list(FAMILY_NAMES)
        assert [f.name for f in all_families()] == list(FAMILY_NAMES)

    def test_unknown_family_raises_with_known_names(self):
        with pytest.raises(CodeConstructionError, match="sec-hamming"):
            get_family("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(CodeConstructionError, match="already registered"):
            register_family(SecHammingFamily())

    def test_unnamed_family_rejected(self):
        class Anonymous(SecHammingFamily):
            name = ""

        with pytest.raises(CodeConstructionError, match="non-empty name"):
            register_family(Anonymous())


class TestSecHammingFamily:
    def test_matches_historical_constructors(self):
        family = get_family("sec-hamming")
        for k in (4, 8, 16):
            assert family.construct(k) == hamming_code(k)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        assert family.random(8, rng=rng_a) == random_hamming_code(8, rng=rng_b)

    def test_tags_and_policy(self):
        code = get_family("sec-hamming").construct(8)
        assert code.family_name == "sec-hamming"
        assert not code.detect_only
        assert code.is_single_error_correcting()

    def test_constraints(self):
        constraints = get_family("sec-hamming").column_constraints()
        assert constraints == ColumnConstraints(min_weight=2, odd_weight=False)
        # 2**r - r - 1 legal values for r parity bits.
        assert get_family("sec-hamming").num_candidate_columns(4) == 16 - 4 - 1


class TestSecDedFamily:
    def test_columns_are_odd_weight_at_least_three(self):
        family = get_family("secded-extended-hamming")
        for r in (4, 5, 6):
            for value in family.candidate_columns(r):
                assert value.bit_count() >= 3
                assert value.bit_count() % 2 == 1

    def test_minimum_distance_is_four(self):
        family = get_family("secded-extended-hamming")
        for k, seed in [(4, 0), (8, 1), (11, 2)]:
            code = family.random(k, rng=np.random.default_rng(seed))
            assert code.minimum_distance() == 4
            assert code.is_single_error_correcting()
            assert code.family_name == "secded-extended-hamming"
            assert not code.detect_only

    def test_min_parity_bits(self):
        family = get_family("secded-extended-hamming")
        # r=4: odd-weight >=3 values in 4 bits: weight 3 only -> 4 columns.
        assert family.num_candidate_columns(4) == 4
        assert family.min_parity_bits(4) == 4
        assert family.min_parity_bits(5) == 5
        # SEC-DED needs more parity bits than SEC for the same k.
        assert family.min_parity_bits(8) >= get_family(
            "sec-hamming"
        ).min_parity_bits(8)

    def test_design_space_smaller_than_sec(self):
        secded = get_family("secded-extended-hamming")
        sec = get_family("sec-hamming")
        for r in (5, 6, 7):
            assert secded.num_candidate_columns(r) < sec.num_candidate_columns(r)

    def test_double_errors_always_detected_never_miscorrected(self):
        import itertools

        from repro.ecc import DecodeOutcome, classify_decode

        code = get_family("secded-extended-hamming").random(
            6, rng=np.random.default_rng(3)
        )
        codeword = code.encode(np.array([1, 0, 1, 1, 0, 1]))
        for a, b in itertools.combinations(range(code.codeword_length), 2):
            outcome = classify_decode(code, codeword, _flip(codeword, a, b))
            assert outcome == DecodeOutcome.DETECTED_UNCORRECTABLE

    def test_explicit_columns_validated(self):
        family = get_family("secded-extended-hamming")
        with pytest.raises(CodeConstructionError, match="design space"):
            family.construct(2, 4, columns=[3, 7])  # weight 2 is illegal


class TestParityDetectFamily:
    def test_structure(self):
        code = get_family("parity-detect").construct(8)
        assert code.num_parity_bits == 1
        assert code.codeword_length == 9
        assert code.detect_only
        assert list(code.parity_column_ints) == [1] * 8
        # The parity bit is the XOR of the data bits.
        word = np.array([1, 1, 0, 1, 0, 0, 1, 0])
        assert code.encode(word)[8] == sum(word.tolist()) % 2

    def test_decoder_never_corrects(self):
        code = get_family("parity-detect").construct(5)
        decoder = SyndromeDecoder(code)
        codeword = code.encode(np.array([1, 0, 1, 0, 1]))
        for position in range(code.codeword_length):
            result = decoder.decode(_flip(codeword, position))
            assert result.corrected_position is None
            assert result.detected_uncorrectable

    def test_no_beer_design_space(self):
        family = get_family("parity-detect")
        assert not family.supports_beer
        with pytest.raises(CodeConstructionError, match="no searchable"):
            family.candidate_columns(1)

    def test_rejects_explicit_columns_and_wrong_r(self):
        family = get_family("parity-detect")
        with pytest.raises(CodeConstructionError):
            family.construct(4, columns=[1, 1, 1, 1])
        with pytest.raises(CodeConstructionError):
            family.construct(4, num_parity_bits=2)

    def test_membership(self):
        family = get_family("parity-detect")
        assert family.is_member(family.construct(6))
        assert not family.is_member(hamming_code(6))


class TestRepetitionFamily:
    def test_three_x_codeword_is_data_repeated(self):
        code = get_family("repetition").construct(4)
        data = np.array([1, 0, 1, 1])
        assert code.encode(data).tolist() == data.tolist() * 3

    def test_three_x_corrects_every_single_error(self):
        code = get_family("repetition").construct(4)
        assert not code.detect_only
        assert code.is_single_error_correcting()
        decoder = SyndromeDecoder(code)
        codeword = code.encode(np.array([1, 0, 0, 1]))
        for position in range(code.codeword_length):
            result = decoder.decode(_flip(codeword, position))
            assert result.corrected_position == position
            assert np.array_equal(result.dataword, codeword[0:4])

    def test_duplication_is_detect_only(self):
        code = get_family("repetition").construct(4, num_parity_bits=4)
        assert code.detect_only
        assert code.minimum_distance() == 2
        decoder = SyndromeDecoder(code)
        codeword = code.encode(np.array([1, 1, 0, 0]))
        result = decoder.decode(_flip(codeword, 0))
        assert result.corrected_position is None
        assert result.detected_uncorrectable

    def test_five_x_construction(self):
        family = RepetitionFamily(repetitions=5)
        code = family.construct(3)
        assert code.codeword_length == 15
        assert code.encode(np.array([1, 0, 1])).tolist() == [1, 0, 1] * 5

    def test_invalid_dimensions_rejected(self):
        family = get_family("repetition")
        with pytest.raises(CodeConstructionError):
            family.construct(4, num_parity_bits=6)  # not a multiple of k
        with pytest.raises(CodeConstructionError):
            RepetitionFamily(repetitions=1)

    def test_membership(self):
        family = get_family("repetition")
        assert family.is_member(family.construct(4))
        assert not family.is_member(hamming_code(4))


class TestDecodeActionTable:
    def test_sec_table_matches_position_table(self):
        code = hamming_code(8)
        actions = code.decode_action_table()
        positions = code.syndrome_position_table()
        assert actions[0] == code.ACTION_NONE
        for syndrome in range(1, 1 << code.num_parity_bits):
            if positions[syndrome] >= 0:
                assert actions[syndrome] == positions[syndrome]
            else:
                assert actions[syndrome] == code.ACTION_DETECT

    def test_detect_only_table_flags_every_nonzero_syndrome(self):
        code = get_family("parity-detect").construct(4)
        actions = code.decode_action_table()
        assert actions[0] == code.ACTION_NONE
        assert actions[1] == code.ACTION_DETECT

    def test_shortened_sec_code_has_detect_entries(self):
        code = hamming_code(4, num_parity_bits=4)  # shortened: unused syndromes
        actions = code.decode_action_table()
        assert (actions == code.ACTION_DETECT).sum() > 0


class TestTableSizeGuards:
    """Families whose r can explode must fail loudly, not OOM (regression)."""

    def test_repetition_beyond_table_limit_rejected_at_construction(self):
        family = get_family("repetition")
        # k=16 at 3x needs r=32: a 2**32-entry decode table. Must refuse.
        with pytest.raises(CodeConstructionError, match="table-decode limit"):
            family.construct(16)
        # The largest representable width still works.
        code = family.construct(12)  # r=24 == MAX_TABLE_PARITY_BITS
        assert code.num_parity_bits == 24

    def test_oversized_code_table_raises_clearly(self):
        from repro.ecc import SystematicLinearCode

        columns = [(1 << 25) - 1]
        code = SystematicLinearCode.from_parity_columns(columns, 25)
        with pytest.raises(CodeConstructionError, match="syndrome table"):
            code.decode_action_table()
        with pytest.raises(CodeConstructionError, match="syndrome table"):
            code.syndrome_position_table()
