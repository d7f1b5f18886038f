"""A behavioural model of a DRAM chip with on-die ECC.

The chip stores every dataword as an ECC codeword produced by an internal
(single-error-correcting) code that is *not* observable at the chip interface.
Reads decode the stored codeword and return only the data bits — exactly the
visibility a third-party tester has when applying BEER to real hardware.

The model exposes the handful of controls that the paper's testing
infrastructure provides:

* write and read datawords (word-granular or byte-addressed),
* pause refresh for a chosen duration at a chosen ambient temperature, which
  lets CHARGED cells decay according to their per-cell retention times,
* nothing else — syndromes, parity bits and pre-correction states stay inside
  the chip (accessible only through explicitly named ``inspect_*`` ground-truth
  helpers that the BEER/BEEP algorithms never use).

State is bit-packed.  Each ECC word occupies ``ceil(n / 64)`` ``uint64``
lanes in :func:`repro.gf2.bitpack.pack_rows` layout (codeword bit ``j`` is
bit ``j % 64`` of lane ``j // 64``), once as written and once with the decay
accumulated since.  A write encodes straight into lanes
(:func:`repro.einsim.engine.encode_lanes`).  A refresh pause is three lane
operations: a CHARGED true-cell stores 1 and decays to 0, a CHARGED
anti-cell stores 0 and decays to 1, so the decaying cells are
``failing & (current ^ anti)``, where ``anti`` has all ``n`` bits set in
anti-cell words, and each of them flips.  A read syndrome-decodes the lanes
in place (:func:`repro.einsim.engine.decode_lanes`) and unpacks only the
data bits it returns.

Retention times are fixed for the chip's life, so the packed mask of the
cells failing a ``(duration, temperature)`` pause is computed once by
:meth:`~repro.dram.retention.DataRetentionModel.cells_failing` and cached.
The cache holds one mask per distinct window for the chip's life, and a
mask costs ``num_words × lanes × 8`` bytes: 4 KB for 512 words of the
(21,16) code, 96 KB for 4,096 words of the (136,128) code.  A BEER campaign
pauses for four windows (three measurement windows and the discovery
pause).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AddressError, ChipConfigurationError
from repro.gf2 import GF2Vector
from repro.gf2.bitpack import num_lanes, pack_rows
from repro.ecc.code import SystematicLinearCode
from repro.dram.cell import CellType
from repro.dram.faults import TransientFaultModel
from repro.dram.layout import ByteInterleavedWordLayout, CellTypeLayout
from repro.dram.retention import DataRetentionModel
from repro.einsim.engine import decode_lanes, encode_lanes, resolve_backend


@dataclass(frozen=True)
class ChipGeometry:
    """Size of the simulated chip, expressed in rows and ECC words per row."""

    num_rows: int = 64
    words_per_row: int = 8

    def __post_init__(self):
        if self.num_rows < 1 or self.words_per_row < 1:
            raise ChipConfigurationError("chip geometry values must be positive")

    @property
    def num_words(self) -> int:
        """Total number of ECC words on the chip."""
        return self.num_rows * self.words_per_row


class SimulatedDramChip:
    """Simulated DRAM chip with on-die ECC and a data-retention fault model.

    Codewords are kept in packed ``uint64`` lanes (see the module
    docstring).  ``backend`` selects only the backend of the engine's lane
    codec: ``"packed"`` (the default; ``"auto"`` and ``"fused"`` are
    aliases) folds the lanes' bytes through the code's cached parity,
    syndrome and decode-action tables, while ``"reference"`` unpacks the
    lanes and runs the uint8 reference kernels.  Storage, decay and every
    random draw are shared, so both read back the same bits.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        geometry: Optional[ChipGeometry] = None,
        cell_layout: Optional[CellTypeLayout] = None,
        word_layout=None,
        retention_model: Optional[DataRetentionModel] = None,
        transient_faults: Optional[TransientFaultModel] = None,
        seed: int = 0,
        backend: str = "packed",
    ):
        self._code = code
        self._backend = resolve_backend(backend)
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
        lanes = num_lanes(codeword_length)
        self._stored = np.zeros((num_words, lanes), dtype="<u8")
        self._current = np.zeros((num_words, lanes), dtype="<u8")
        self._retention_times = self._retention_model.sample_retention_times(
            num_words * codeword_length, self._rng
        ).reshape(num_words, codeword_length)

        # One cell type per word (all cells of a row share the row's type).
        row_is_anti = np.array(
            [
                self._cell_layout.cell_type_for_row(row) is CellType.ANTI_CELL
                for row in range(self._geometry.num_rows)
            ],
            dtype=bool,
        )
        self._word_is_anti = np.repeat(row_is_anti, self._geometry.words_per_row)
        every_bit = pack_rows(np.ones((1, codeword_length), dtype=np.uint8))
        self._anti_lanes = np.where(
            self._word_is_anti[:, np.newaxis], every_bit, np.uint64(0)
        ).astype("<u8")
        #: Packed masks of the cells that fail a pause, keyed by
        #: ``(duration_s, temperature_c)``.
        self._failing_masks: Dict[Tuple[float, float], np.ndarray] = {}

    # -- basic properties ----------------------------------------------------
    @property
    def code(self) -> SystematicLinearCode:
        """The on-die ECC function (ground truth; hidden from BEER itself)."""
        return self._code

    @property
    def backend(self) -> str:
        """GF(2) kernel backend used by the on-die encode/decode machinery."""
        return self._backend

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
        """Encode and store datawords at the given word indices (vectorised).

        Every value must be 0 or 1; anything else raises
        :class:`~repro.exceptions.AddressError` before a word is written.
        """
        indices = self._validate_indices(word_indices)
        data = np.asarray(datawords)
        if data.ndim != 2 or data.shape != (len(indices), self.num_data_bits):
            raise AddressError(
                f"expected dataword array of shape ({len(indices)}, {self.num_data_bits})"
            )
        codewords = encode_lanes(self._code, _binary(data), self._backend)
        self._stored[indices] = codewords
        self._current[indices] = codewords

    def fill(self, dataword) -> None:
        """Write the same dataword to every ECC word on the chip."""
        codeword = encode_lanes(
            self._code, _as_bits(dataword, self.num_data_bits)[np.newaxis], self._backend
        )
        self._stored[:] = codeword
        self._current[:] = codeword

    def read_dataword(self, word_index: int) -> GF2Vector:
        """Read and decode one dataword."""
        return GF2Vector(self.read_datawords([word_index])[0])

    def read_datawords(self, word_indices: Sequence[int]) -> np.ndarray:
        """Read and decode datawords at the given indices (vectorised).

        The returned array contains only post-correction data bits; parity
        bits and syndromes are never exposed.  Transient faults are drawn as
        :meth:`~repro.dram.faults.TransientFaultModel.corrupt` draws them —
        one uniform per codeword bit, and nothing at probability 0 — so the
        chip's random stream does not depend on the storage format.
        """
        indices = self._validate_indices(word_indices)
        lanes = self._current[indices]
        probability = self._transient_faults.probability_per_bit
        if probability > 0:
            flips = self._rng.random((indices.size, self._code.codeword_length))
            lanes ^= pack_rows(flips < probability)
        decode_lanes(self._code, lanes, self._backend)
        return _unpack(lanes, self.num_data_bits)

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
                    word_bits = self._codeword_bits(self._stored, target.word_index)[
                        : self.num_data_bits
                    ]
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
        if math.isnan(duration_s) or math.isnan(temperature_c):
            raise ChipConfigurationError(
                "refresh pause duration and temperature must be numbers, not NaN"
            )
        if duration_s < 0:
            raise ChipConfigurationError("refresh pause must be non-negative")
        failing = self._failing_mask(duration_s, temperature_c)
        # True-cells: CHARGED stores 1, decays to 0.  Anti-cells: CHARGED
        # stores 0, decays to 1.  Either way a decaying cell flips.
        self._current ^= failing & (self._current ^ self._anti_lanes)

    def restore_refresh(self) -> None:
        """Resume normal refresh (no further decay until the next pause).

        Decay that already happened cannot be undone; the method exists so
        experiment code reads naturally (pause → wait → restore → read).
        """

    # -- ground-truth inspection (not available to BEER/BEEP) -----------------------
    def inspect_stored_codeword(self, word_index: int) -> GF2Vector:
        """Ground truth: the codeword as originally written (pre-decay)."""
        self._check_word_index(word_index)
        return GF2Vector(self._codeword_bits(self._stored, word_index))

    def inspect_current_codeword(self, word_index: int) -> GF2Vector:
        """Ground truth: the stored codeword including accumulated decay."""
        self._check_word_index(word_index)
        return GF2Vector(self._codeword_bits(self._current, word_index))

    def inspect_pre_correction_errors(self, word_index: int) -> tuple:
        """Ground truth: positions of raw (pre-correction) errors in a word."""
        self._check_word_index(word_index)
        difference = self._codeword_bits(self._stored, word_index) ^ self._codeword_bits(
            self._current, word_index
        )
        return tuple(int(i) for i in np.flatnonzero(difference))

    def inspect_retention_time(self, word_index: int, bit_index: int) -> float:
        """Ground truth: a single cell's retention time (seconds at 80 °C)."""
        self._check_word_index(word_index)
        return float(self._retention_times[word_index, bit_index])

    # -- internals ----------------------------------------------------------------
    def _failing_mask(self, duration_s: float, temperature_c: float) -> np.ndarray:
        """Packed mask of the cells whose retention time the pause exceeds."""
        key = (float(duration_s), float(temperature_c))
        mask = self._failing_masks.get(key)
        if mask is None:
            mask = self._failing_masks[key] = pack_rows(
                self._retention_model.cells_failing(
                    self._retention_times, duration_s, temperature_c
                )
            )
        return mask

    def _codeword_bits(self, lanes: np.ndarray, word_index: int) -> np.ndarray:
        """One word of a lane array, unpacked to ``n`` uint8 bits."""
        return _unpack(lanes[word_index : word_index + 1], self._code.codeword_length)[0]

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
        if not isinstance(word_indices, np.ndarray):
            word_indices = list(word_indices)
        indices = np.asarray(word_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_words):
            raise AddressError("one or more word indices out of range")
        return indices


def _unpack(lanes: np.ndarray, num_bits: int) -> np.ndarray:
    """The first ``num_bits`` bits of each row of C-contiguous lanes, as uint8."""
    return np.unpackbits(lanes.view(np.uint8), axis=1, count=num_bits, bitorder="little")


def _as_bits(dataword, expected_length: int) -> np.ndarray:
    """Convert a dataword (GF2Vector, list, ndarray) to a uint8 bit array."""
    if isinstance(dataword, GF2Vector):
        bits = dataword.to_numpy()
    else:
        bits = np.asarray(dataword)
    if bits.ndim != 1 or bits.shape[0] != expected_length:
        raise AddressError(
            f"dataword must have exactly {expected_length} bits, got shape {bits.shape}"
        )
    return _binary(bits)


def _binary(values: np.ndarray) -> np.ndarray:
    """``values`` as uint8 bits; :class:`AddressError` unless each is 0 or 1.

    A cell holds one bit: a 2 has no codeword, and silently reducing it would
    store ``packbits``'s 1 on one backend and the reference's ``2 % 2 = 0``
    on the other.
    """
    if values.dtype.kind in "bu":
        binary = not values.size or values.max() <= 1
    else:
        binary = bool(((values == 0) | (values == 1)).all())
    if not binary:
        raise AddressError("dataword bits must be 0 or 1")
    return values.astype(np.uint8, copy=False)
