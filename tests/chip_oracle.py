"""The uint8 chip model, kept as the oracle of the packed chip.

This is ``repro.dram.chip.SimulatedDramChip`` as it was before the chip
moved to packed ``uint64`` lanes: one ``uint8`` per codeword bit, every
pause comparing every retention time with the window and rebuilding the
current state through two ``np.where`` passes, every write encoding through
``bulk_encode`` and every read decoding through ``bulk_decode``, both on
the engine's ``"reference"`` kernels (integer matmuls mod 2), so nothing of
the packed lane codec the library chip runs is used here.  The class body
is unchanged but for five things: ``ChipGeometry`` now comes from the
library, so both chips take the same geometry objects; words are handed out
as 0/1 ``uint8`` arrays, the library's word format; a word index that is
not an integer (a float, bool or string) raises ``AddressError`` instead of
being cast; ``retention_rounds`` is its own loop, after the library chip's
up-front checks, of ``write_datawords`` of ``patterns[assignment[r]]``,
``pause_refresh`` and ``read_datawords``; and the ``backend`` selector and
the no-op ``restore_refresh`` are gone, as they are from the library chip.
``tests/test_dram_chip_differential.py`` requires the packed chip to
answer every call sequence exactly as this one does.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import AddressError, ChipConfigurationError
from repro.ecc.code import SystematicLinearCode
from repro.dram.cell import CellType
from repro.dram.chip import ChipGeometry
from repro.dram.faults import TransientFaultModel
from repro.dram.layout import ByteInterleavedWordLayout, CellTypeLayout
from repro.dram.retention import DataRetentionModel


class SimulatedDramChip:
    """Simulated DRAM chip with on-die ECC and a data-retention fault model."""

    def __init__(
        self,
        code: SystematicLinearCode,
        geometry: Optional[ChipGeometry] = None,
        cell_layout: Optional[CellTypeLayout] = None,
        word_layout=None,
        retention_model: Optional[DataRetentionModel] = None,
        transient_faults: Optional[TransientFaultModel] = None,
        seed: int = 0,
    ):
        self._code = code
        self._geometry = geometry if geometry is not None else ChipGeometry()
        self._cell_layout = (
            cell_layout
            if cell_layout is not None
            else CellTypeLayout.uniform(CellType.TRUE_CELL)
        )
        if code.num_data_bits % 8 == 0:
            default_layout = ByteInterleavedWordLayout(code.num_data_bits // 8, 2)
        else:
            default_layout = None
        self._word_layout = word_layout if word_layout is not None else default_layout
        self._retention_model = (
            retention_model if retention_model is not None else DataRetentionModel()
        )
        self._transient_faults = (
            transient_faults if transient_faults is not None else TransientFaultModel(0.0)
        )
        self._rng = np.random.default_rng(seed)

        num_words = self._geometry.num_words
        codeword_length = code.codeword_length
        self._stored = np.zeros((num_words, codeword_length), dtype=np.uint8)
        self._current = np.zeros((num_words, codeword_length), dtype=np.uint8)
        self._retention_times = self._retention_model.sample_retention_times(
            num_words * codeword_length, self._rng
        ).reshape(num_words, codeword_length)

        # One cell type per word (all cells of a row share the row's type).
        word_rows = np.arange(num_words) // self._geometry.words_per_row
        self._word_is_anti = np.array(
            [
                self._cell_layout.cell_type_for_row(int(row)) is CellType.ANTI_CELL
                for row in word_rows
            ],
            dtype=bool,
        )


    # -- basic properties ----------------------------------------------------
    @property
    def code(self) -> SystematicLinearCode:
        """The on-die ECC function (ground truth; hidden from BEER itself)."""
        return self._code

    @property
    def geometry(self) -> ChipGeometry:
        """The chip geometry."""
        return self._geometry

    @property
    def num_words(self) -> int:
        """Total number of ECC words on the chip."""
        return self._geometry.num_words

    @property
    def num_data_bits(self) -> int:
        """Dataword length of the on-die ECC."""
        return self._code.num_data_bits

    @property
    def word_layout(self):
        """The byte-address to ECC-word layout (None for word-only addressing)."""
        return self._word_layout

    @property
    def row_size_bytes(self) -> int:
        """Number of data bytes stored per row (requires byte-aligned datawords)."""
        if self._code.num_data_bits % 8 != 0:
            raise ChipConfigurationError(
                "row size in bytes is undefined for non-byte-aligned datawords"
            )
        return self._geometry.words_per_row * (self._code.num_data_bits // 8)

    def row_of_word(self, word_index: int) -> int:
        """Return the row that stores the given ECC word."""
        self._check_word_index(word_index)
        return word_index // self._geometry.words_per_row

    def words_in_row(self, row_index: int) -> range:
        """Return the ECC word indices stored in the given row."""
        if not 0 <= row_index < self._geometry.num_rows:
            raise AddressError(f"row index {row_index} out of range")
        start = row_index * self._geometry.words_per_row
        return range(start, start + self._geometry.words_per_row)

    def cell_type_of_word(self, word_index: int) -> CellType:
        """Return the cell type (true/anti) of every cell in the given word."""
        self._check_word_index(word_index)
        return CellType.ANTI_CELL if self._word_is_anti[word_index] else CellType.TRUE_CELL

    # -- word-granular data access ---------------------------------------------
    def write_dataword(self, word_index: int, dataword) -> None:
        """Encode and store one dataword."""
        self.write_datawords([word_index], np.asarray([_as_bits(dataword, self.num_data_bits)]))

    def write_datawords(self, word_indices: Sequence[int], datawords: np.ndarray) -> None:
        """Encode and store datawords at the given word indices (vectorised)."""
        indices = self._validate_indices(word_indices)
        data = np.asarray(datawords, dtype=np.uint8)
        if data.ndim != 2 or data.shape != (len(indices), self.num_data_bits):
            raise AddressError(
                f"expected dataword array of shape ({len(indices)}, {self.num_data_bits})"
            )
        from repro.einsim.engine import bulk_encode

        codewords = bulk_encode(self._code, data, "reference")
        self._stored[indices] = codewords
        self._current[indices] = codewords

    def fill(self, dataword) -> None:
        """Write the same dataword to every ECC word on the chip."""
        bits = _as_bits(dataword, self.num_data_bits)
        tiled = np.tile(bits, (self.num_words, 1))
        self.write_datawords(range(self.num_words), tiled)

    def read_dataword(self, word_index: int) -> np.ndarray:
        """Read and decode one dataword."""
        return self.read_datawords([word_index])[0]

    def read_datawords(self, word_indices: Sequence[int]) -> np.ndarray:
        """Read and decode datawords at the given indices (vectorised).

        The returned array contains only post-correction data bits; parity
        bits and syndromes are never exposed.
        """
        indices = self._validate_indices(word_indices)
        raw = self._current[indices]
        raw = self._transient_faults.corrupt(raw, self._rng)
        corrected = self._decode_bulk(raw)
        return corrected[:, : self.num_data_bits]

    def read_all_datawords(self) -> np.ndarray:
        """Read and decode every word on the chip."""
        return self.read_datawords(range(self.num_words))

    # -- byte-addressed access --------------------------------------------------
    def write_bytes(self, byte_address: int, data: bytes) -> None:
        """Write bytes through the address layout (read-modify-write per word)."""
        layout = self._require_layout()
        pending = {}
        for offset, value in enumerate(data):
            for bit_in_byte in range(8):
                target = layout.bit_address(byte_address + offset, bit_in_byte)
                self._check_word_index(target.word_index)
                word_bits = pending.get(target.word_index)
                if word_bits is None:
                    word_bits = self._stored[target.word_index, : self.num_data_bits].copy()
                    pending[target.word_index] = word_bits
                word_bits[target.bit_index] = (value >> bit_in_byte) & 1
        for word_index, bits in pending.items():
            self.write_dataword(word_index, bits)

    def read_bytes(self, byte_address: int, length: int) -> bytes:
        """Read bytes through the address layout."""
        layout = self._require_layout()
        needed_words = sorted(
            {
                layout.bit_address(byte_address + offset, 0).word_index
                for offset in range(length)
            }
        )
        decoded = {
            word: bits
            for word, bits in zip(needed_words, self.read_datawords(needed_words))
        }
        output = bytearray()
        for offset in range(length):
            value = 0
            for bit_in_byte in range(8):
                target = layout.bit_address(byte_address + offset, bit_in_byte)
                value |= int(decoded[target.word_index][target.bit_index]) << bit_in_byte
            output.append(value)
        return bytes(output)

    # -- refresh control -----------------------------------------------------------
    def pause_refresh(self, duration_s: float, temperature_c: float = 80.0) -> None:
        """Pause refresh for ``duration_s`` seconds at the given temperature.

        Every CHARGED cell whose retention time is shorter than the effective
        window decays to the DISCHARGED state.  The decay accumulates until
        the affected words are rewritten.
        """
        if duration_s < 0:
            raise ChipConfigurationError("refresh pause must be non-negative")
        failing = self._retention_model.cells_failing(
            self._retention_times, duration_s, temperature_c
        )
        anti_mask = self._word_is_anti[:, np.newaxis]
        # True-cells: CHARGED stores 1, decays to 0.  Anti-cells: CHARGED
        # stores 0, decays to 1.
        charged = np.where(anti_mask, self._current == 0, self._current == 1)
        decayed = failing & charged
        self._current = np.where(
            decayed, np.where(anti_mask, 1, 0), self._current
        ).astype(np.uint8)

    def retention_rounds(
        self,
        word_indices: Sequence[int],
        patterns: np.ndarray,
        assignment: np.ndarray,
        duration_s: float,
        temperature_c: float = 80.0,
    ) -> np.ndarray:
        """Round ``r`` writes ``patterns[assignment[r]]``, pauses and reads, once all is checked."""
        indices = self._validate_indices(word_indices)
        if len(set(indices.tolist())) != indices.size:
            raise AddressError("word indices must be distinct")
        table = np.asarray(patterns)
        if table.ndim != 2 or table.shape[1] != self.num_data_bits:
            raise AddressError("expected a (patterns, k) table")
        if not np.isin(table, (0, 1)).all():
            raise AddressError("dataword bits must be 0 or 1")
        if isinstance(assignment, np.ndarray) and assignment.dtype.kind not in "iu":
            raise AddressError("assignment entries must be integers")
        rows = np.asarray(assignment, dtype=object)
        if rows.ndim != 2 or rows.shape[1] != indices.size:
            raise AddressError("expected a (rounds, words) assignment")
        for row in rows.flat:
            if not isinstance(row, (int, np.integer)) or isinstance(row, bool):
                raise AddressError("assignment entries must be integers")
            if not 0 <= row < len(table):
                raise AddressError("assignment entry out of range")
        if math.isnan(duration_s) or math.isnan(temperature_c) or duration_s < 0:
            raise ChipConfigurationError("refresh pause must be a non-negative number")
        reads = []
        for round_rows in rows.astype(np.int64):
            self.write_datawords(indices, table[round_rows])
            self.pause_refresh(duration_s, temperature_c)
            reads.append(self.read_datawords(indices))
        return np.array(reads, dtype=np.uint8).reshape(rows.shape + (self.num_data_bits,))

    # -- ground-truth inspection (not available to BEER/BEEP) -----------------------
    def inspect_stored_codeword(self, word_index: int) -> np.ndarray:
        """Ground truth: the codeword as originally written (pre-decay)."""
        self._check_word_index(word_index)
        return self._stored[word_index].copy()

    def inspect_current_codeword(self, word_index: int) -> np.ndarray:
        """Ground truth: the stored codeword including accumulated decay."""
        self._check_word_index(word_index)
        return self._current[word_index].copy()

    def inspect_pre_correction_errors(self, word_index: int) -> tuple:
        """Ground truth: positions of raw (pre-correction) errors in a word."""
        self._check_word_index(word_index)
        difference = self._stored[word_index] ^ self._current[word_index]
        return tuple(int(i) for i in np.flatnonzero(difference))

    def inspect_retention_time(self, word_index: int, bit_index: int) -> float:
        """Ground truth: a single cell's retention time (seconds at 80 °C)."""
        self._check_word_index(word_index)
        return float(self._retention_times[word_index, bit_index])

    # -- internals ----------------------------------------------------------------
    def _decode_bulk(self, raw: np.ndarray) -> np.ndarray:
        from repro.einsim.engine import bulk_decode

        return bulk_decode(self._code, raw, "reference")

    def _require_layout(self):
        if self._word_layout is None:
            raise ChipConfigurationError(
                "byte-addressed access requires a word layout "
                "(dataword length must be byte-aligned or a layout must be supplied)"
            )
        return self._word_layout

    def _check_word_index(self, word_index: int) -> None:
        if not 0 <= word_index < self.num_words:
            raise AddressError(
                f"word index {word_index} out of range for {self.num_words} words"
            )

    def _validate_indices(self, word_indices: Iterable[int]) -> np.ndarray:
        if isinstance(word_indices, np.ndarray):
            integers = word_indices.dtype.kind in "iu"
        else:
            word_indices = list(word_indices)
            integers = all(
                isinstance(index, (int, np.integer)) and not isinstance(index, bool)
                for index in word_indices
            )
        if not integers:
            raise AddressError("word indices must be integers")
        indices = np.asarray(word_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_words):
            raise AddressError("one or more word indices out of range")
        return indices


def _as_bits(dataword, expected_length: int) -> np.ndarray:
    """Convert a dataword (list, ndarray) to a uint8 bit array."""
    bits = np.asarray(dataword, dtype=np.uint8) % 2
    if bits.ndim != 1 or bits.shape[0] != expected_length:
        raise AddressError(
            f"dataword must have exactly {expected_length} bits, got shape {bits.shape}"
        )
    return bits.astype(np.uint8)
