"""Unit tests for manufacturer profiles and fault models."""

import numpy as np
import pytest

from repro.exceptions import ChipConfigurationError
from repro.dram import (
    CellType,
    ChipGeometry,
    StuckAtFaultModel,
    TransientFaultModel,
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
    all_vendors,
)
from repro.ecc import codes_equivalent


class TestManufacturerEccFunctions:
    def test_each_vendor_has_a_valid_sec_code(self):
        for vendor in all_vendors():
            code = vendor.ecc_function(16)
            assert code.num_data_bits == 16
            assert code.is_single_error_correcting()

    def test_vendors_use_different_functions(self):
        codes = [vendor.ecc_function(16) for vendor in all_vendors()]
        assert not codes_equivalent(codes[0], codes[1])
        assert not codes_equivalent(codes[1], codes[2]) or not codes_equivalent(
            codes[0], codes[2]
        )

    def test_same_vendor_same_function_across_chips(self):
        # Chips of the same model share the ECC function (paper Section 5.1.3).
        assert VENDOR_A.ecc_function(16) == VENDOR_A.ecc_function(16)
        assert VENDOR_B.ecc_function(32) == VENDOR_B.ecc_function(32)

    def test_vendor_b_columns_are_ascending(self):
        code = VENDOR_B.ecc_function(16)
        columns = list(code.parity_column_ints)
        assert columns == sorted(columns)

    def test_vendor_c_columns_grouped_by_weight(self):
        code = VENDOR_C.ecc_function(16)
        weights = [bin(c).count("1") for c in code.parity_column_ints]
        assert weights == sorted(weights)

    def test_default_dataword_length(self):
        code = VENDOR_A.ecc_function()
        assert code.num_data_bits == VENDOR_A.default_dataword_bits


class TestManufacturerCellLayouts:
    def test_vendors_a_and_b_are_true_cell_only(self):
        for vendor in (VENDOR_A, VENDOR_B):
            layout = vendor.cell_layout()
            assert all(
                layout.cell_type_for_row(row) is CellType.TRUE_CELL for row in range(64)
            )

    def test_vendor_c_has_both_cell_types(self):
        layout = VENDOR_C.cell_layout()
        types = {layout.cell_type_for_row(row) for row in range(layout.period)}
        assert types == {CellType.TRUE_CELL, CellType.ANTI_CELL}


class TestChipFactory:
    def test_make_chip_uses_vendor_code_and_layout(self):
        chip = VENDOR_C.make_chip(num_data_bits=16, geometry=ChipGeometry(56, 2), seed=3)
        assert chip.code == VENDOR_C.ecc_function(16)
        cell_types = {chip.cell_type_of_word(w) for w in range(chip.num_words)}
        assert cell_types == {CellType.TRUE_CELL, CellType.ANTI_CELL}

    def test_make_chip_takes_the_chip_defaults(self):
        chip = VENDOR_B.make_chip(num_data_bits=16)
        assert chip.geometry == ChipGeometry()
        assert chip.word_layout.dataword_bytes == 2
        assert chip.word_layout.words_per_region == 2
        assert VENDOR_B.make_chip(num_data_bits=12).word_layout is None

    def test_chips_differ_by_seed_but_share_code(self):
        first = VENDOR_A.make_chip(num_data_bits=16, seed=0)
        second = VENDOR_A.make_chip(num_data_bits=16, seed=1)
        assert first.code == second.code
        assert first.inspect_retention_time(0, 0) != second.inspect_retention_time(0, 0)

    def test_transient_fault_probability_passthrough(self):
        chip = VENDOR_A.make_chip(num_data_bits=16, transient_fault_probability=0.5, seed=0)
        chip.fill([0] * 16)
        assert chip.read_all_datawords().any()

    def test_all_vendors_returns_three_profiles(self):
        names = [vendor.name for vendor in all_vendors()]
        assert names == ["A", "B", "C"]


class TestFaultModels:
    def test_transient_model_rejects_bad_probability(self):
        with pytest.raises(ChipConfigurationError):
            TransientFaultModel(-0.1)
        with pytest.raises(ChipConfigurationError):
            TransientFaultModel(1.5)

    def test_transient_model_zero_probability_is_identity(self):
        model = TransientFaultModel(0.0)
        bits = np.ones((4, 8), dtype=np.uint8)
        assert np.array_equal(model.corrupt(bits, np.random.default_rng(0)), bits)

    def test_transient_model_flip_rate(self):
        model = TransientFaultModel(0.25)
        bits = np.zeros((100, 100), dtype=np.uint8)
        corrupted = model.corrupt(bits, np.random.default_rng(0))
        assert corrupted.mean() == pytest.approx(0.25, abs=0.03)

    def test_stuck_at_model_is_persistent(self):
        model = StuckAtFaultModel(stuck_fraction=0.3, stuck_value=1, rng=np.random.default_rng(1))
        bits = np.zeros((16, 16), dtype=np.uint8)
        first = model.corrupt(bits)
        second = model.corrupt(bits)
        assert np.array_equal(first, second)
        assert first.any()

    def test_stuck_at_model_validation(self):
        with pytest.raises(ChipConfigurationError):
            StuckAtFaultModel(stuck_fraction=2.0)
        with pytest.raises(ChipConfigurationError):
            StuckAtFaultModel(stuck_value=3)

    def test_stuck_at_zero_fraction_is_identity(self):
        model = StuckAtFaultModel(stuck_fraction=0.0)
        bits = np.ones((4, 4), dtype=np.uint8)
        assert np.array_equal(model.corrupt(bits), bits)
