"""Unit and integration tests for the simulated DRAM chip with on-die ECC."""

import numpy as np
import pytest

from repro.exceptions import AddressError, ChipConfigurationError
from repro.ecc import hamming_code, random_hamming_code
from repro.dram import (
    CellType,
    CellTypeLayout,
    ChipGeometry,
    DataRetentionModel,
    RetentionCalibration,
    SimulatedDramChip,
    TransientFaultModel,
)


def make_chip(num_data_bits=16, num_rows=8, words_per_row=4, seed=0, **kwargs):
    code = hamming_code(num_data_bits)
    geometry = ChipGeometry(num_rows=num_rows, words_per_row=words_per_row)
    return SimulatedDramChip(code=code, geometry=geometry, seed=seed, **kwargs)


#: A calibration that produces many retention failures within short windows,
#: keeping tests fast while exercising the same code paths.
FAST_FAILING = DataRetentionModel(RetentionCalibration(1.0, 1e-4, 100.0, 0.5))


class TestGeometry:
    def test_word_count(self):
        chip = make_chip(num_rows=4, words_per_row=8)
        assert chip.num_words == 32
        assert chip.geometry.num_words == 32

    def test_invalid_geometry(self):
        with pytest.raises(ChipConfigurationError):
            ChipGeometry(num_rows=0, words_per_row=4)

    def test_row_of_word(self):
        chip = make_chip(num_rows=4, words_per_row=8)
        assert chip.row_of_word(0) == 0
        assert chip.row_of_word(7) == 0
        assert chip.row_of_word(8) == 1
        assert list(chip.words_in_row(1)) == list(range(8, 16))

    def test_row_of_word_out_of_range(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.row_of_word(chip.num_words)
        with pytest.raises(AddressError):
            chip.words_in_row(999)

    def test_row_size_bytes(self):
        chip = make_chip(num_data_bits=16, words_per_row=4)
        assert chip.row_size_bytes == 8


class TestReadWrite:
    def test_write_then_read_round_trip(self):
        chip = make_chip()
        dataword = np.array([1, 0] * 8, dtype=np.uint8)
        chip.write_dataword(3, dataword)
        read = chip.read_dataword(3)
        assert read.dtype == np.uint8
        assert np.array_equal(read, dataword)

    def test_fill_writes_every_word(self):
        chip = make_chip()
        chip.fill(np.ones(16, dtype=np.uint8))
        data = chip.read_all_datawords()
        assert data.shape == (chip.num_words, 16)
        assert (data == 1).all()

    def test_bulk_write_and_read(self):
        chip = make_chip()
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2, size=(chip.num_words, 16)).astype(np.uint8)
        chip.write_datawords(range(chip.num_words), words)
        assert np.array_equal(chip.read_all_datawords(), words)

    def test_index_forms_read_identically(self):
        chip = make_chip()
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2, size=(chip.num_words, 16)).astype(np.uint8)
        chip.write_datawords(np.arange(chip.num_words), words)
        everything = chip.read_datawords(range(chip.num_words))
        assert np.array_equal(everything, words)
        assert np.array_equal(chip.read_datawords(list(range(chip.num_words))), everything)
        assert np.array_equal(chip.read_datawords(np.arange(chip.num_words)), everything)
        scattered = [5, 0, chip.num_words - 1, 5]
        assert np.array_equal(
            chip.read_datawords(np.array(scattered, dtype=np.int32)),
            chip.read_datawords(scattered),
        )

    def test_out_of_range_ndarray_index(self):
        chip = make_chip()
        for bad in (np.array([0, chip.num_words]), np.array([-1])):
            with pytest.raises(AddressError):
                chip.read_datawords(bad)
            with pytest.raises(AddressError):
                chip.write_datawords(bad, np.zeros((bad.size, 16), dtype=np.uint8))

    def test_write_wrong_shape(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.write_datawords([0, 1], np.zeros((2, 8), dtype=np.uint8))

    def test_write_out_of_range_index(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.write_dataword(chip.num_words, np.zeros(16, dtype=np.uint8))

    def test_wrong_dataword_length(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.write_dataword(0, np.zeros(8, dtype=np.uint8))

    def test_stored_codeword_is_systematic_encoding(self):
        chip = make_chip()
        dataword = [1] + [0] * 15
        chip.write_dataword(0, dataword)
        codeword = chip.inspect_stored_codeword(0)
        assert np.array_equal(codeword, chip.code.encode(dataword))

    @pytest.mark.parametrize("value", [2, -1, 0.5, 255, float("nan"), "1"])
    def test_non_binary_datawords_are_rejected_before_encoding(self, value):
        # A cell holds one bit.  The packed encoder used to store a 2 as 1
        # (parity 1110) and the reference encoder as 0 (parity 0000).
        chip = make_chip(num_data_bits=4)
        chip.write_dataword(0, [0, 1, 1, 0])
        before = chip.inspect_stored_codeword(0)
        bad = [value, 0, 0, 0]
        with pytest.raises(AddressError):
            chip.write_datawords([0], np.array([bad]))
        with pytest.raises(AddressError):
            chip.write_dataword(0, bad)
        with pytest.raises(AddressError):
            chip.fill(bad)
        assert np.array_equal(chip.inspect_stored_codeword(0), before)
        assert chip.read_dataword(0).tolist() == [0, 1, 1, 0]

    def test_binary_floats_and_booleans_are_accepted(self):
        chip = make_chip(num_data_bits=4)
        chip.write_datawords([0, 1], np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]]))
        chip.write_dataword(2, np.array([True, False, False, True]))
        assert chip.read_datawords([0, 1, 2]).tolist() == [
            [1, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 1],
        ]


def _chip_state(chip):
    """Everything a rejected call must leave as it was."""
    return (
        chip._stored.copy(),
        chip._current.copy(),
        {key: mask.copy() for key, mask in chip._failing_masks.items()},
        chip._rng.bit_generator.state,
    )


def _assert_same_state(first, second):
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert first[2].keys() == second[2].keys()
    assert all(np.array_equal(first[2][key], second[2][key]) for key in first[2])
    assert first[3] == second[3]


def _noisy_chip(**kwargs):
    """A chip whose reads draw transient flips, written with random words and paused."""
    chip = make_chip(
        retention_model=FAST_FAILING,
        transient_faults=TransientFaultModel(0.05),
        seed=4,
        **kwargs,
    )
    rng = np.random.default_rng(4)
    chip.write_datawords(
        range(chip.num_words),
        (rng.random((chip.num_words, chip.num_data_bits)) < 0.5).astype(np.uint8),
    )
    chip.pause_refresh(20.0)
    return chip


class TestWordIndices:
    """A word index is an integer: a float, bool or string selects no word."""

    @pytest.mark.parametrize("bad", [
        [1.5], [2.9], [2.0], [0.7], ["1"], [True], [np.True_], [0, True], [1, 2.0],
        [None], np.array([1.0]), np.array([True, False]), np.array(["1"]),
        np.array([[0, 1]]), np.array(1),
    ], ids=repr)
    def test_non_integer_indices_are_rejected_before_anything_happens(self, bad):
        # [1.5] used to read word 1, [2.9] word 2, ["1"] and [True] word 1,
        # and a write to [0.7] overwrote word 0.
        chip = _noisy_chip()
        before = _chip_state(chip)
        count = np.asarray(bad).size
        with pytest.raises(AddressError):
            chip.read_datawords(bad)
        with pytest.raises(AddressError):
            chip.write_datawords(bad, np.ones((count, 16), dtype=np.uint8))
        with pytest.raises(AddressError):
            chip.retention_rounds(
                bad, np.ones((1, 16), dtype=np.uint8), np.zeros((1, count), dtype=np.int64), 90.0
            )
        _assert_same_state(before, _chip_state(chip))

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None, np.float64(1.0)], ids=repr)
    def test_single_word_calls_refuse_non_integers(self, bad):
        chip = _noisy_chip()
        before = _chip_state(chip)
        for call in (
            lambda: chip.read_dataword(bad),
            lambda: chip.write_dataword(bad, np.ones(16, dtype=np.uint8)),
            lambda: chip.row_of_word(bad),
            lambda: chip.cell_type_of_word(bad),
            lambda: chip.inspect_stored_codeword(bad),
            lambda: chip.inspect_current_codeword(bad),
            lambda: chip.inspect_pre_correction_errors(bad),
            lambda: chip.inspect_retention_time(bad, 0),
        ):
            with pytest.raises(AddressError):
                call()
        _assert_same_state(before, _chip_state(chip))

    @pytest.mark.parametrize("good", [
        [1, 3], [np.int64(1), np.uint8(3)], np.array([1, 3], dtype=np.int32),
        np.array([1, 3], dtype=np.uint64), range(1, 4, 2), (1, 3),
    ], ids=repr)
    def test_integer_index_forms_still_pass(self, good):
        chip = make_chip()
        data = np.array([[1, 0] * 8, [0, 1] * 8], dtype=np.uint8)
        chip.write_datawords(good, data)
        assert np.array_equal(chip.read_datawords(good), data)
        assert np.array_equal(chip.read_datawords([1, 3]), data)
        assert np.array_equal(chip.read_dataword(np.int16(3)), data[1])
        assert chip.row_of_word(np.int64(5)) == 1

    def test_an_integer_past_int64_is_out_of_range(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.read_datawords([0, 2**70])

    def test_empty_index_lists_still_pass(self):
        chip = make_chip()
        for empty in ([], (), range(0), np.array([], dtype=np.int64)):
            chip.write_datawords(empty, np.zeros((0, 16), dtype=np.uint8))
            assert chip.read_datawords(empty).shape == (0, 16)


class TestRetentionRounds:
    """``retention_rounds`` is its rounds of write, pause and read, in one call."""

    @staticmethod
    def _loop(chip, indices, patterns, assignment, duration_s, temperature_c):
        reads = []
        for rows in assignment:
            chip.write_datawords(indices, patterns[rows])
            chip.pause_refresh(duration_s, temperature_c)
            reads.append(chip.read_datawords(indices))
        return np.array(reads, dtype=np.uint8).reshape(assignment.shape + (chip.num_data_bits,))

    @pytest.mark.parametrize("num_data_bits", [8, 16, 60, 122])
    @pytest.mark.parametrize("rounds", [1, 2, 5])
    def test_same_answers_state_and_draws_as_the_rounds(self, num_data_bits, rounds):
        batched, looped = (
            _noisy_chip(
                num_data_bits=num_data_bits, num_rows=8, words_per_row=4,
                cell_layout=CellTypeLayout.alternating([2, 3]),
            )
            for _ in range(2)
        )
        rng = np.random.default_rng(rounds)
        indices = rng.permutation(batched.num_words)[:20]
        # Seven rows, the last a copy of the first: rounds and words share rows.
        patterns = (rng.random((7, num_data_bits)) < 0.5).astype(np.uint8)
        patterns[-1] = patterns[0]
        assignment = rng.integers(0, 7, (rounds, 20))
        observed = batched.retention_rounds(indices, patterns, assignment, 40.0, 85.0)
        assert observed.dtype == np.uint8 and observed.shape == (rounds, 20, num_data_bits)
        assert (observed != patterns[assignment]).any()
        assert np.array_equal(
            observed, self._loop(looped, indices, patterns, assignment, 40.0, 85.0)
        )
        _assert_same_state(_chip_state(batched), _chip_state(looped))

    def test_the_table_is_encoded_once(self, monkeypatch):
        from repro.dram import chip as chip_module

        encoded, encode_lanes = [], chip_module.encode_lanes

        def recording_encode(code, datawords):
            encoded.append(len(datawords))
            return encode_lanes(code, datawords)

        monkeypatch.setattr(chip_module, "encode_lanes", recording_encode)
        chip = make_chip()
        patterns = np.eye(16, dtype=np.uint8)[:3]
        observed = chip.retention_rounds(
            range(32), patterns, np.arange(64 * 32).reshape(64, 32) % 3, 0.0
        )
        assert encoded == [3]
        assert np.array_equal(observed, patterns[np.arange(64 * 32).reshape(64, 32) % 3])

    @pytest.mark.parametrize("indices, patterns, assignment, pause, error", [
        pytest.param([0, 1], np.ones((3, 8)), [[0, 1]], (90.0,), AddressError, id="narrow-table"),
        pytest.param([0, 1], np.ones(16), [[0, 0]], (90.0,), AddressError, id="1-d-table"),
        pytest.param(
            [0, 1], np.ones((2, 1, 16)), [[0, 0]], (90.0,), AddressError, id="3-d-table"
        ),
        pytest.param([0, 1], np.full((3, 16), 2), [[0, 1]], (90.0,), AddressError, id="bit-2"),
        pytest.param(
            [0, 1], np.full((3, 16), 0.5), [[0, 1]], (90.0,), AddressError, id="bit-half"
        ),
        pytest.param([0, 1], np.full((3, 16), "1"), [[0, 1]], (90.0,), AddressError, id="bit-str"),
        pytest.param(
            [0, 1], np.ones((3, 16)), [[0, 1, 2]], (90.0,), AddressError, id="three-columns"
        ),
        pytest.param([0, 1], np.ones((3, 16)), [0, 1], (90.0,), AddressError, id="no-rounds-axis"),
        pytest.param(
            [0, 1], np.ones((3, 16)), np.zeros((2, 2, 1), dtype=int), (90.0,), AddressError,
            id="3-d-assignment",
        ),
        pytest.param([0, 1], np.ones((3, 16)), [[0, 3]], (90.0,), AddressError, id="row-past-end"),
        pytest.param([0, 1], np.ones((3, 16)), [[-1, 0]], (90.0,), AddressError, id="row-negative"),
        pytest.param([0, 1], np.ones((0, 16)), [[0, 0]], (90.0,), AddressError, id="empty-table"),
        pytest.param(
            [0, 1], np.ones((3, 16)), np.array([[0.0, 1.0]]), (90.0,), AddressError,
            id="float-array",
        ),
        pytest.param([0, 1], np.ones((3, 16)), [[0, 1.5]], (90.0,), AddressError, id="float-row"),
        pytest.param([0, 1], np.ones((3, 16)), [[0, 2.0]], (90.0,), AddressError, id="float-2.0"),
        pytest.param([0, 1], np.ones((3, 16)), [[0, "1"]], (90.0,), AddressError, id="str-row"),
        pytest.param(
            [0, 1], np.ones((3, 16)), np.array([[True, False]]), (90.0,), AddressError,
            id="bool-array",
        ),
        pytest.param([0, 1], np.ones((3, 16)), [[True, 0]], (90.0,), AddressError, id="bool-row"),
        pytest.param([0, 1.0], np.ones((3, 16)), [[0, 1]], (90.0,), AddressError, id="float-index"),
        pytest.param(
            [0, 32], np.ones((3, 16)), [[0, 1]], (90.0,), AddressError, id="index-past-end"
        ),
        pytest.param(
            [-1, 0], np.ones((3, 16)), [[0, 1]], (90.0,), AddressError, id="index-negative"
        ),
        pytest.param(
            [3, 0, 3], np.ones((3, 16)), [[0, 1, 2]], (90.0,), AddressError, id="repeated"
        ),
        pytest.param(
            [0, 0], np.ones((3, 16)), np.zeros((0, 2), dtype=int), (90.0,), AddressError,
            id="repeated-0-rounds",
        ),
        pytest.param(
            [0, 1], np.ones((3, 16)), [[0, 1]], (-1.0,), ChipConfigurationError, id="negative"
        ),
        pytest.param(
            [0, 1], np.ones((3, 16)), [[0, 1]], (np.nan,), ChipConfigurationError, id="nan"
        ),
        pytest.param(
            [0, 1], np.ones((3, 16)), [[0, 1]], (90.0, np.nan), ChipConfigurationError,
            id="nan-temp",
        ),
        pytest.param(
            [0, 1], np.ones((3, 16)), [[0, 1]], (90.0, np.inf), ChipConfigurationError,
            id="inf-temp",
        ),
        pytest.param(
            [0], np.ones((3, 16)), np.zeros((0, 1), dtype=int), (-1.0,), ChipConfigurationError,
            id="negative-0-rounds",
        ),
    ])
    def test_a_rejected_call_changes_nothing(self, indices, patterns, assignment, pause, error):
        # The per-round loop would have written and read the first rounds
        # before it raised; the call checks everything first.
        chip = _noisy_chip()
        before = _chip_state(chip)
        with pytest.raises(error):
            chip.retention_rounds(indices, patterns, assignment, *pause)
        _assert_same_state(before, _chip_state(chip))
        assert (90.0, 80.0) not in chip._failing_masks

    def test_zero_rounds_do_nothing(self):
        chip = _noisy_chip()
        before = _chip_state(chip)
        observed = chip.retention_rounds(
            [0, 5], np.ones((3, 16), dtype=np.uint8), np.zeros((0, 2), dtype=np.int64), 90.0
        )
        assert observed.shape == (0, 2, 16) and observed.dtype == np.uint8
        _assert_same_state(before, _chip_state(chip))

    def test_an_empty_word_list_still_pauses(self):
        batched, paused = _noisy_chip(), _noisy_chip()
        observed = batched.retention_rounds(
            [], np.ones((1, 16), dtype=np.uint8), np.zeros((3, 0), dtype=np.int64), 90.0
        )
        assert observed.shape == (3, 0, 16)
        paused.pause_refresh(90.0)
        _assert_same_state(_chip_state(batched), _chip_state(paused))
        assert not np.array_equal(batched._current, _noisy_chip()._current)


class TestByteAddressing:
    def test_byte_round_trip(self):
        chip = make_chip(num_data_bits=16)
        payload = bytes(range(16))
        chip.write_bytes(0, payload)
        assert chip.read_bytes(0, 16) == payload

    def test_byte_interleaving_matches_layout(self):
        chip = make_chip(num_data_bits=16)
        # Bytes 0 and 1 of a region belong to different ECC words.
        chip.write_bytes(0, bytes([0xFF, 0x00, 0x00, 0x00]))
        word0 = chip.read_dataword(0)
        word1 = chip.read_dataword(1)
        assert word0.tolist()[:8] == [1] * 8
        assert word1.tolist()[:8] == [0] * 8

    def test_byte_access_requires_layout(self):
        code = hamming_code(12)  # not byte aligned
        chip = SimulatedDramChip(code, ChipGeometry(2, 2))
        with pytest.raises(ChipConfigurationError):
            chip.write_bytes(0, b"\x00")
        with pytest.raises(ChipConfigurationError):
            _ = chip.row_size_bytes


class TestRetentionBehaviour:
    def test_no_pause_means_no_errors(self):
        chip = make_chip(retention_model=FAST_FAILING)
        chip.fill(np.ones(16, dtype=np.uint8))
        assert (chip.read_all_datawords() == 1).all()

    def test_pause_refresh_induces_errors_in_charged_cells_only(self):
        chip = make_chip(
            num_rows=16, words_per_row=8, retention_model=FAST_FAILING, seed=1
        )
        chip.fill(np.ones(16, dtype=np.uint8))
        chip.pause_refresh(200.0, temperature_c=80.0)
        raw_errors = [
            chip.inspect_pre_correction_errors(w) for w in range(chip.num_words)
        ]
        assert any(raw_errors), "expected at least one retention error"
        # True cells store 1 when charged; every raw error must be a 1 -> 0 decay.
        for word_index, errors in enumerate(raw_errors):
            stored = chip.inspect_stored_codeword(word_index)
            current = chip.inspect_current_codeword(word_index)
            for position in errors:
                assert stored[position] == 1
                assert current[position] == 0

    def test_all_zero_true_cell_pattern_never_fails(self):
        chip = make_chip(retention_model=FAST_FAILING)
        chip.fill(np.zeros(16, dtype=np.uint8))
        chip.pause_refresh(10_000.0)
        assert (chip.read_all_datawords() == 0).all()
        for word in range(chip.num_words):
            assert chip.inspect_pre_correction_errors(word) == ()

    def test_anti_cells_fail_towards_one(self):
        code = hamming_code(16)
        chip = SimulatedDramChip(
            code,
            ChipGeometry(4, 4),
            cell_layout=CellTypeLayout.uniform(CellType.ANTI_CELL),
            retention_model=FAST_FAILING,
            seed=2,
        )
        chip.fill(np.zeros(16, dtype=np.uint8))
        chip.pause_refresh(500.0)
        errors = [
            position
            for word in range(chip.num_words)
            for position in chip.inspect_pre_correction_errors(word)
        ]
        assert errors, "expected anti-cell retention errors"
        for word in range(chip.num_words):
            current = chip.inspect_current_codeword(word)
            for position in chip.inspect_pre_correction_errors(word):
                assert current[position] == 1

    def test_retention_errors_are_repeatable(self):
        first = make_chip(num_rows=16, words_per_row=8, retention_model=FAST_FAILING, seed=5)
        second = make_chip(num_rows=16, words_per_row=8, retention_model=FAST_FAILING, seed=5)
        for chip in (first, second):
            chip.fill(np.ones(16, dtype=np.uint8))
            chip.pause_refresh(100.0)
        for word in range(first.num_words):
            assert first.inspect_pre_correction_errors(
                word
            ) == second.inspect_pre_correction_errors(word)

    def test_decay_accumulates_until_rewrite(self):
        chip = make_chip(retention_model=FAST_FAILING, seed=3)
        chip.fill(np.ones(16, dtype=np.uint8))
        chip.pause_refresh(100.0)
        errors_after_first = sum(
            len(chip.inspect_pre_correction_errors(w)) for w in range(chip.num_words)
        )
        chip.pause_refresh(1000.0)
        errors_after_second = sum(
            len(chip.inspect_pre_correction_errors(w)) for w in range(chip.num_words)
        )
        assert errors_after_second >= errors_after_first
        chip.fill(np.ones(16, dtype=np.uint8))
        assert all(
            chip.inspect_pre_correction_errors(w) == () for w in range(chip.num_words)
        )

    def test_single_error_words_are_corrected_by_on_die_ecc(self):
        chip = make_chip(num_rows=32, words_per_row=8, retention_model=FAST_FAILING, seed=7)
        chip.fill(np.ones(16, dtype=np.uint8))
        chip.pause_refresh(20.0)
        data = chip.read_all_datawords()
        for word in range(chip.num_words):
            if len(chip.inspect_pre_correction_errors(word)) == 1:
                assert (data[word] == 1).all()

    def test_negative_pause_rejected(self):
        with pytest.raises(ChipConfigurationError):
            make_chip().pause_refresh(-1.0)

    @pytest.mark.parametrize("duration_s, temperature_c", [
        (float("nan"), 80.0), (30.0, float("nan")), (np.nan, np.nan),
    ])
    def test_nan_pause_rejected(self, duration_s, temperature_c):
        # A NaN window used to compare false with every retention time and
        # silently decay nothing.
        chip = make_chip(retention_model=FAST_FAILING)
        chip.fill(np.ones(16, dtype=np.uint8))
        with pytest.raises(ChipConfigurationError):
            chip.pause_refresh(duration_s, temperature_c)
        assert all(
            chip.inspect_pre_correction_errors(word) == ()
            for word in range(chip.num_words)
        )

    @pytest.mark.parametrize("duration_s, temperature_c", [
        (float("inf"), float("-inf")), (30.0, float("inf")), (0.0, float("-inf")),
    ])
    def test_infinite_temperature_pause_rejected(self, duration_s, temperature_c):
        # pause_refresh(inf, -inf) used to decay nothing.
        chip = make_chip(retention_model=FAST_FAILING)
        chip.fill(np.ones(16, dtype=np.uint8))
        with pytest.raises(ChipConfigurationError, match="finite"):
            chip.pause_refresh(duration_s, temperature_c)
        assert all(
            chip.inspect_pre_correction_errors(word) == ()
            for word in range(chip.num_words)
        )
        assert not chip._failing_masks

    def test_extreme_temperature_pause_is_an_infinite_pause(self):
        # pause_refresh(60.0, 1e5) used to raise OverflowError.
        hot, endless = (make_chip(retention_model=FAST_FAILING, seed=4) for _ in range(2))
        for chip in (hot, endless):
            chip.fill(np.ones(16, dtype=np.uint8))
        hot.pause_refresh(60.0, 1e5)
        endless.pause_refresh(float("inf"))
        errors = [hot.inspect_pre_correction_errors(word) for word in range(hot.num_words)]
        assert all(errors)
        assert errors == [
            endless.inspect_pre_correction_errors(word) for word in range(endless.num_words)
        ]


class TestTransientFaults:
    def test_transient_faults_affect_reads_not_storage(self):
        chip = make_chip(
            num_rows=16,
            words_per_row=8,
            transient_faults=TransientFaultModel(probability_per_bit=0.02),
            seed=9,
        )
        chip.fill(np.zeros(16, dtype=np.uint8))
        # Transient flips may appear on any given read...
        observed_any = any(chip.read_all_datawords().any() for _ in range(10))
        assert observed_any
        # ...but the stored state never changes.
        for word in range(chip.num_words):
            assert chip.inspect_pre_correction_errors(word) == ()

    def test_zero_probability_means_clean_reads(self):
        chip = make_chip(transient_faults=TransientFaultModel(0.0))
        chip.fill(np.ones(16, dtype=np.uint8))
        for _ in range(5):
            assert (chip.read_all_datawords() == 1).all()

    @pytest.mark.parametrize("block", [1, 50, 105])
    def test_block_draws_are_the_one_draw(self, block, monkeypatch):
        # Blocks of one, two and five of the 32 words of 21 bits (the last of
        # those short) read what one (rows, n) draw reads.
        from repro.dram import chip as chip_module

        whole, blocked = _noisy_chip(), _noisy_chip()
        expected = whole.read_all_datawords()
        monkeypatch.setattr(chip_module, "_FLIP_BLOCK_UNIFORMS", block)
        assert np.array_equal(blocked.read_all_datawords(), expected)
        _assert_same_state(_chip_state(blocked), _chip_state(whole))

    def test_a_call_draws_its_flips_in_bounded_memory(self):
        # One uniform per codeword bit used to be drawn at once: a call's
        # peak grew by 9 bytes per bit read (19 MB for these 2.15M bits).
        import tracemalloc

        def traced_peak(probability):
            chip = make_chip(
                num_rows=64, words_per_row=8, seed=1,
                transient_faults=TransientFaultModel(probability),
            )
            patterns = (np.random.default_rng(0).random((8, 16)) < 0.5).astype(np.uint8)
            assignment = np.zeros((200, chip.num_words), dtype=np.int64)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                chip.retention_rounds(range(chip.num_words), patterns, assignment, 1.0)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        bits = 200 * 512 * 21
        assert traced_peak(1e-2) - traced_peak(0.0) < bits // 4


class TestGroundTruthInspection:
    def test_inspect_retention_time_positive(self):
        chip = make_chip()
        assert chip.inspect_retention_time(0, 0) > 0

    def test_cell_type_of_word_follows_layout(self):
        code = hamming_code(16)
        chip = SimulatedDramChip(
            code,
            ChipGeometry(num_rows=4, words_per_row=2),
            cell_layout=CellTypeLayout.alternating([1, 1]),
        )
        assert chip.cell_type_of_word(0) is CellType.TRUE_CELL
        assert chip.cell_type_of_word(2) is CellType.ANTI_CELL

    def test_inspect_out_of_range(self):
        chip = make_chip()
        with pytest.raises(AddressError):
            chip.inspect_stored_codeword(chip.num_words)


class TestDefaultConstruction:
    def test_default_geometry_and_layout(self):
        code = random_hamming_code(32, rng=np.random.default_rng(0))
        chip = SimulatedDramChip(code)
        assert chip.num_words == ChipGeometry().num_words
        assert chip.word_layout is not None
        assert chip.word_layout.dataword_bytes == 4
