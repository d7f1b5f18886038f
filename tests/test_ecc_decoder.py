"""Unit tests for syndrome decoding and outcome classification."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError, ValidationError
from repro.ecc import (
    DecodeOutcome,
    SyndromeDecoder,
    classify_decode,
    example_7_4_code,
    hamming_code,
    random_hamming_code,
)
from repro.ecc.decoder import post_correction_error_positions
from repro.ecc.code import SystematicLinearCode


@pytest.fixture
def code_7_4():
    return example_7_4_code()


def _bits(values):
    return np.array(values, dtype=np.uint8)


def _flip(word, *positions):
    """A copy of ``word`` with the bit at each position flipped."""
    flipped = np.array(word, dtype=np.uint8)
    for position in positions:
        flipped[position] ^= 1
    return flipped


class TestSyndromeDecoder:
    def test_decode_clean_codeword(self, code_7_4):
        decoder = SyndromeDecoder(code_7_4)
        dataword = _bits([1, 0, 1, 0])
        result = decoder.decode(code_7_4.encode(dataword))
        assert np.array_equal(result.dataword, dataword)
        assert result.corrected_position is None
        assert not result.correction_performed
        assert result.syndrome == 0

    def test_decode_corrects_every_single_bit_error(self, code_7_4):
        decoder = SyndromeDecoder(code_7_4)
        dataword = _bits([0, 1, 1, 1])
        codeword = code_7_4.encode(dataword)
        for position in range(7):
            result = decoder.decode(_flip(codeword, position))
            assert np.array_equal(result.dataword, dataword)
            assert result.corrected_position == position
            assert result.correction_performed

    def test_decode_length_mismatch(self, code_7_4):
        decoder = SyndromeDecoder(code_7_4)
        with pytest.raises(DimensionError):
            decoder.decode(_bits([1, 0, 1]))

    def test_decode_dataword_helper(self, code_7_4):
        decoder = SyndromeDecoder(code_7_4)
        dataword = _bits([1, 1, 0, 0])
        assert np.array_equal(decoder.decode_dataword(code_7_4.encode(dataword)), dataword)

    def test_decoder_exposes_code(self, code_7_4):
        assert SyndromeDecoder(code_7_4).code is code_7_4

    def test_double_error_causes_wrong_dataword(self, code_7_4):
        # A SEC code cannot correct two errors; the result must differ from
        # the transmitted dataword for at least one double-error pattern.
        decoder = SyndromeDecoder(code_7_4)
        dataword = _bits([0, 0, 0, 0])
        codeword = code_7_4.encode(dataword)
        wrong = 0
        for first, second in itertools.combinations(range(7), 2):
            received = _flip(codeword, first, second)
            if not np.array_equal(decoder.decode_dataword(received), dataword):
                wrong += 1
        assert wrong > 0


class TestClassifyDecode:
    def test_no_error(self, code_7_4):
        codeword = code_7_4.encode(_bits([1, 0, 0, 1]))
        assert classify_decode(code_7_4, codeword, codeword) == DecodeOutcome.NO_ERROR

    def test_single_error_corrected(self, code_7_4):
        codeword = code_7_4.encode(_bits([1, 0, 0, 1]))
        for position in range(7):
            outcome = classify_decode(code_7_4, codeword, _flip(codeword, position))
            assert outcome == DecodeOutcome.CORRECTED

    def test_double_errors_are_uncorrectable(self, code_7_4):
        codeword = code_7_4.encode(_bits([1, 1, 1, 1]))
        uncorrectable = {
            DecodeOutcome.SILENT_CORRUPTION,
            DecodeOutcome.PARTIAL_CORRECTION,
            DecodeOutcome.MISCORRECTION,
            DecodeOutcome.DETECTED_UNCORRECTABLE,
        }
        for first, second in itertools.combinations(range(7), 2):
            received = _flip(codeword, first, second)
            outcome = classify_decode(code_7_4, codeword, received)
            assert outcome in uncorrectable

    def test_miscorrection_exists_for_double_errors(self, code_7_4):
        # For a full-length Hamming code every double error triggers a
        # correction at some third position -> miscorrection whenever that
        # position is not one of the two errors.
        codeword = code_7_4.encode(_bits([0, 0, 0, 0]))
        outcomes = {
            classify_decode(code_7_4, codeword, _flip(codeword, a, b))
            for a, b in itertools.combinations(range(7), 2)
        }
        assert DecodeOutcome.MISCORRECTION in outcomes

    def test_triple_error_silent_corruption_possible(self, code_7_4):
        # Flipping the support of a weight-3 codeword yields syndrome zero.
        codeword = code_7_4.encode(_bits([0, 0, 0, 0]))
        weight_three = next(
            w for w in code_7_4.codewords() if w.sum() == 3
        )
        received = codeword ^ weight_three
        outcome = classify_decode(code_7_4, codeword, received)
        assert outcome == DecodeOutcome.SILENT_CORRUPTION

    def test_detected_uncorrectable_for_shortened_code(self):
        # Shortened code: some double-error syndromes match no column.
        code = SystematicLinearCode.from_parity_columns([0b0011, 0b0101], 4)
        codeword = code.encode(_bits([0, 0]))
        # Errors in the two parity bits corresponding to rows 2 and 3 give
        # syndrome 0b1100 which is not a column of H.
        received = _flip(codeword, 2 + 2, 2 + 3)
        assert (
            classify_decode(code, codeword, received)
            == DecodeOutcome.DETECTED_UNCORRECTABLE
        )

    def test_classify_length_mismatch(self, code_7_4):
        with pytest.raises(DimensionError):
            classify_decode(code_7_4, _bits([1, 0]), _bits([1, 0]))

    def test_partial_correction_counts_as_uncorrectable(self, code_7_4):
        # Find a double error whose syndrome points at one of the two errors.
        codeword = code_7_4.encode(_bits([0, 0, 0, 0]))
        found_partial = False
        for first, second in itertools.combinations(range(7), 2):
            received = _flip(codeword, first, second)
            outcome = classify_decode(code_7_4, codeword, received)
            if outcome == DecodeOutcome.PARTIAL_CORRECTION:
                found_partial = True
                syndrome = code_7_4.syndrome(received)
                assert code_7_4.syndrome_to_position(syndrome) in {first, second}
        # The (7,4) full-length code has no partial corrections (every double
        # error points at a third column); assert we understand that.
        assert not found_partial


class TestPostCorrectionErrors:
    def test_no_errors_reports_empty(self, code_7_4):
        dataword = _bits([1, 0, 1, 1])
        codeword = code_7_4.encode(dataword)
        assert post_correction_error_positions(code_7_4, dataword, codeword) == ()

    def test_miscorrection_reports_flipped_data_bit(self, code_7_4):
        dataword = _bits([0, 0, 0, 0])
        codeword = code_7_4.encode(dataword)
        # Choose two parity-bit errors that miscorrect into a data bit.
        for first, second in itertools.combinations(range(4, 7), 2):
            received = _flip(codeword, first, second)
            syndrome = code_7_4.syndrome(received)
            target = code_7_4.syndrome_to_position(syndrome)
            if target is not None and target < 4:
                observed = post_correction_error_positions(
                    code_7_4, dataword, received
                )
                assert observed == (target,)
                return
        pytest.fail("expected at least one parity-parity miscorrection")

    def test_single_error_fully_corrected_everywhere(self):
        rng = np.random.default_rng(1)
        code = random_hamming_code(16, rng=rng)
        dataword = _bits(rng.integers(0, 2, size=16))
        codeword = code.encode(dataword)
        for position in range(code.codeword_length):
            observed = post_correction_error_positions(
                code, dataword, _flip(codeword, position)
            )
            assert observed == ()


class TestDecoderProperties:
    @given(
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_error_always_corrected(self, num_data_bits, seed):
        rng = np.random.default_rng(seed)
        code = random_hamming_code(num_data_bits, rng=rng)
        decoder = SyndromeDecoder(code)
        dataword = _bits(rng.integers(0, 2, size=num_data_bits))
        codeword = code.encode(dataword)
        position = int(rng.integers(0, code.codeword_length))
        assert np.array_equal(decoder.decode_dataword(_flip(codeword, position)), dataword)

    @given(
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_decoder_output_is_always_a_codeword(self, num_data_bits, seed):
        rng = np.random.default_rng(seed)
        code = hamming_code(num_data_bits)
        decoder = SyndromeDecoder(code)
        received = _bits(rng.integers(0, 2, size=code.codeword_length))
        result = decoder.decode(received)
        # After correction the syndrome is either zero (valid codeword) or a
        # syndrome that matches no column (only possible for shortened codes).
        final_syndrome = code.syndrome(result.corrected_codeword)
        assert final_syndrome == 0 or code.syndrome_to_position(final_syndrome) is None


class TestClassifyDecodeDegenerateBranches:
    """Shortened/degenerate branches that detection-aware families lean on."""

    def test_single_error_detected_for_duplicate_column_code(self):
        # A degenerate (non-SEC) code with a duplicated column: an error at
        # the *higher* duplicate is decoded towards the lower one, which is
        # not the erroneous bit -- classified as detected-uncorrectable
        # rather than CORRECTED.
        code = SystematicLinearCode.from_parity_columns([3, 3], 2)
        codeword = code.encode(_bits([1, 1]))
        outcome = classify_decode(code, codeword, _flip(codeword, 1))
        assert outcome == DecodeOutcome.DETECTED_UNCORRECTABLE

    def test_single_error_detected_for_detect_only_code(self):
        from repro.ecc import get_family

        code = get_family("parity-detect").construct(6)
        codeword = code.encode(_bits([1, 0, 1, 1, 0, 1]))
        for position in range(code.codeword_length):
            outcome = classify_decode(code, codeword, _flip(codeword, position))
            assert outcome == DecodeOutcome.DETECTED_UNCORRECTABLE

    def test_zero_syndrome_multi_error_is_silent_corruption(self):
        from repro.ecc import get_family

        code = get_family("parity-detect").construct(6)
        codeword = code.encode(_bits([1, 0, 1, 1, 0, 1]))
        # Two data-bit errors keep overall parity intact: zero syndrome.
        received = _flip(codeword, 0, 2)
        assert code.syndrome(received) == 0
        outcome = classify_decode(code, codeword, received)
        assert outcome == DecodeOutcome.SILENT_CORRUPTION

    def test_zero_syndrome_multi_error_silent_for_degenerate_code(self):
        code = SystematicLinearCode.from_parity_columns([3, 3], 2)
        codeword = code.encode(_bits([0, 0]))
        # Errors at both duplicated columns XOR to the zero syndrome.
        received = _flip(codeword, 0, 1)
        assert code.syndrome(received) == 0
        outcome = classify_decode(code, codeword, received)
        assert outcome == DecodeOutcome.SILENT_CORRUPTION

    def test_decode_result_reports_due_sentinel(self):
        from repro.ecc import get_family

        code = get_family("parity-detect").construct(4)
        decoder = SyndromeDecoder(code)
        codeword = code.encode(_bits([1, 1, 0, 0]))
        clean = decoder.decode(codeword)
        assert not clean.detected_uncorrectable
        due = decoder.decode(_flip(codeword, 2))
        assert due.detected_uncorrectable
        assert due.corrected_position is None
        assert np.array_equal(due.dataword, _flip(codeword, 2)[0:4])

    def test_secded_double_error_sets_due_sentinel(self):
        from repro.ecc import get_family

        code = get_family("secded-extended-hamming").construct(8)
        decoder = SyndromeDecoder(code)
        codeword = code.encode(_bits([1] * 8))
        single = decoder.decode(_flip(codeword, 3))
        assert single.corrected_position == 3
        assert not single.detected_uncorrectable
        double = decoder.decode(_flip(codeword, 3, 5))
        assert double.corrected_position is None
        assert double.detected_uncorrectable


class TestWordFormat:
    """Words cross the decoder as 0/1 arrays and syndromes as ints."""

    def test_decode_result_fields(self, code_7_4):
        codeword = code_7_4.encode([0, 1, 1, 0])
        result = SyndromeDecoder(code_7_4).decode(_flip(codeword, 5))
        assert isinstance(result.syndrome, int)
        assert result.syndrome == code_7_4.column_int(5)
        assert result.dataword.dtype == np.uint8
        assert result.dataword.tolist() == [0, 1, 1, 0]
        assert np.array_equal(result.corrected_codeword, codeword)

    def test_decode_results_compare_by_value_and_are_unhashable(self, code_7_4):
        # The generated == compared the word arrays with numpy's == and
        # raised "truth value of an array is ambiguous".
        received = _flip(code_7_4.encode([0, 1, 1, 0]), 5)
        result = SyndromeDecoder(code_7_4).decode(received)
        same = SyndromeDecoder(code_7_4).decode(received.copy())
        assert (result == same) is True
        assert (result != same) is False
        assert result != SyndromeDecoder(code_7_4).decode(_flip(received, 5))
        assert result != replace(same, corrected_codeword=same.corrected_codeword[:4])
        assert result != replace(same, detected_uncorrectable=True)
        assert result != replace(same, dataword=same.dataword.tolist())
        assert result != (result.dataword, result.corrected_codeword)
        with pytest.raises(TypeError):
            hash(result)

    def test_decode_does_not_touch_its_input(self, code_7_4):
        received = _flip(code_7_4.encode([1, 0, 0, 1]), 0)
        before = received.copy()
        SyndromeDecoder(code_7_4).decode(received)
        assert np.array_equal(received, before)

    @pytest.mark.parametrize(
        "received", [[2, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1], [0.5] * 7]
    )
    def test_decode_rejects_non_binary_values(self, code_7_4, received):
        # [2, 0, ...] reduced mod 2 would decode as the zero word.
        with pytest.raises(ValidationError):
            SyndromeDecoder(code_7_4).decode(received)

    def test_classify_and_post_correction_reject_non_binary_values(self, code_7_4):
        codeword = code_7_4.encode([0, 0, 0, 0])
        with pytest.raises(ValidationError):
            classify_decode(code_7_4, codeword, [2, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValidationError):
            classify_decode(code_7_4, [0, 0, 0, 0, 0, 0, 3], codeword)
        with pytest.raises(ValidationError):
            post_correction_error_positions(code_7_4, [0, 2, 0, 0], codeword)
