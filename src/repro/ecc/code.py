"""Systematic linear block codes in standard form.

The paper (Section 4.2.1) argues that, because on-die ECC never exposes its
parity bits, the ECC function may be assumed without loss of generality to be
a *systematic* code in *standard form*: the parity-check matrix is

    H = [ P | I ]            (r rows, n = k + r columns)

where the first ``k`` columns correspond to the data bits and the trailing
``r`` columns form an identity over the parity bits.  A codeword is laid out
as ``c = [d | p]`` with ``p = P · d``.

:class:`SystematicLinearCode` captures exactly this representation and is the
single code type used throughout the library.  It holds the columns of ``H``
and the rows of ``P`` as integer bit masks and encodes and computes syndromes
on them.  Words cross its API in the format of :mod:`repro.gf2.bits`: a
dataword or codeword is a 1-D ``uint8`` array of 0s and 1s, a syndrome or a
column of ``H`` is an int (LSB = parity row 0), and ``P``, ``H`` and ``G``
are read-only 2-D ``uint8`` arrays built on first access.  Construction
logic lives in the pluggable code-family registry (:mod:`repro.ecc.family`),
with the historical SEC-Hamming helpers in :mod:`repro.ecc.hamming`; each
code carries its family name and decode policy (correct-then-detect vs.
detect-only) so downstream layers dispatch without further lookups.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CodeConstructionError, DimensionError, ValidationError
from repro.gf2.bitpack import byte_fold_table, pack_rows
from repro.gf2.bits import as_bits, bits_to_int, int_to_bits, is_binary


def _bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """``uint8`` rows holding the ``width`` low bits of each int, LSB first.

    The ints are laid end to end, one per whole number of bytes, and
    converted by one :func:`int_to_bits` call.
    """
    num_bytes = (width + 7) // 8
    merged = b"".join(value.to_bytes(num_bytes, "little") for value in values)
    bits = int_to_bits(int.from_bytes(merged, "little"), len(merged) * 8)
    return bits.reshape(len(values), num_bytes * 8)[:, :width]


def _row_ints(bits: np.ndarray) -> Tuple[int, ...]:
    """The rows of a 0/1 array as ints (column ``j`` → bit ``j``)."""
    return tuple(bits_to_int(row) for row in bits)


def _bit_matrix(matrix) -> np.ndarray:
    """A 2-D array-like of 0s and 1s as a ``uint8`` array."""
    array = np.array(matrix)
    if array.ndim != 2:
        raise DimensionError(f"expected a 2-dimensional array, got shape {array.shape}")
    if not is_binary(array):
        raise ValidationError("matrix entries must be 0 or 1")
    return array.astype(np.uint8, copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SystematicLinearCode:
    """A systematic linear block code ``H = [P | I]`` over GF(2).

    Parameters
    ----------
    parity_submatrix:
        The ``r × k`` submatrix ``P`` mapping datawords to parity bits: any
        2-D array-like of 0s and 1s.
    family:
        Name of the code family this code belongs to (metadata; see
        :mod:`repro.ecc.family`).  Defaults to ``"sec-hamming"``, the
        historical single family of the library.
    detect_only:
        Decode policy.  ``False`` (default): the decoder flips the bit the
        syndrome points at, if any.  ``True``: the decoder never corrects and
        flags every non-zero syndrome as a detected-uncorrectable error (DUE)
        — the semantics of parity-check and duplication codes.

    Notes
    -----
    * Data bits occupy codeword positions ``0 .. k-1``.
    * Parity bits occupy codeword positions ``k .. n-1``.
    * The code corrects a single bit error iff all columns of ``H`` are
      distinct and non-zero (:meth:`is_single_error_correcting`) *and* the
      decode policy is not detect-only.
    * Equality and hashing consider only the parity submatrix; the family
      tag and decode policy are descriptive metadata.
    """

    def __init__(
        self,
        parity_submatrix,
        family: str = "sec-hamming",
        detect_only: bool = False,
    ):
        matrix = _bit_matrix(parity_submatrix)
        self._set_columns(_row_ints(matrix.T), matrix.shape[0], family, detect_only)

    def _set_columns(
        self,
        parity_columns: Tuple[int, ...],
        num_parity_bits: int,
        family: str,
        detect_only: bool,
    ) -> None:
        if num_parity_bits == 0 or not parity_columns:
            raise CodeConstructionError("parity submatrix must be non-empty")
        self._family = str(family)
        self._detect_only = bool(detect_only)
        self._num_parity_bits = num_parity_bits
        self._num_data_bits = len(parity_columns)
        self._column_ints = parity_columns + tuple(
            1 << row for row in range(num_parity_bits)
        )
        #: Row ``i`` of ``P`` as an int: bit ``j`` is the coefficient of data
        #: bit ``j`` in parity bit ``i``.
        self._parity_rows = _row_ints(_bit_rows(parity_columns, num_parity_bits).T)
        # The matrix views and the decode/encode artefacts shared by every
        # batched operation on this code are built on first access.
        self._parity_submatrix: Optional[np.ndarray] = None
        self._parity_check_matrix: Optional[np.ndarray] = None
        self._generator_matrix: Optional[np.ndarray] = None
        self._syndrome_position_table: Optional[np.ndarray] = None
        self._decode_action_table: Optional[np.ndarray] = None
        self._correction_table: Optional[np.ndarray] = None
        self._h_transpose_int64: Optional[np.ndarray] = None
        self._syndrome_weights: Optional[np.ndarray] = None
        self._syndrome_fold_table: Optional[np.ndarray] = None
        self._parity_fold_table: Optional[np.ndarray] = None
        self._packed_h_lanes: Optional[np.ndarray] = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_parity_columns(
        cls,
        columns: Sequence[int],
        num_parity_bits: int,
        family: str = "sec-hamming",
        detect_only: bool = False,
    ) -> "SystematicLinearCode":
        """Build a code from integer-encoded columns of ``P`` (LSB = row 0)."""
        columns = list(columns)
        for column in columns:
            if column < 0:
                raise ValidationError("parity columns must be non-negative")
            if column >> num_parity_bits:
                raise DimensionError(
                    f"column {column} does not fit in {num_parity_bits} parity bits"
                )
        code = cls.__new__(cls)
        code._set_columns(
            tuple(int(column) for column in columns), num_parity_bits, family,
            detect_only,
        )
        return code

    @classmethod
    def from_parity_check_matrix(cls, matrix) -> "SystematicLinearCode":
        """Build a code from a full standard-form parity-check matrix ``[P | I]``.

        ``matrix`` is any 2-D array-like of 0s and 1s.  Raises
        :class:`~repro.exceptions.CodeConstructionError` if the trailing
        square block is not the identity.
        """
        full = _bit_matrix(matrix)
        num_parity, num_total = full.shape
        if num_total <= num_parity:
            raise CodeConstructionError(
                "parity-check matrix must have more columns than rows"
            )
        num_data = num_total - num_parity
        if not np.array_equal(full[:, num_data:], np.eye(num_parity, dtype=np.uint8)):
            raise CodeConstructionError(
                "parity-check matrix is not in standard form [P | I]"
            )
        return cls(full[:, :num_data])

    # -- family metadata ---------------------------------------------------
    @property
    def family_name(self) -> str:
        """Name of the code family this code was constructed by (metadata)."""
        return self._family

    @property
    def detect_only(self) -> bool:
        """True when the decoder must never correct, only flag DUEs."""
        return self._detect_only

    # -- dimensions -------------------------------------------------------
    @property
    def num_data_bits(self) -> int:
        """``k`` — the number of data bits per ECC word."""
        return self._num_data_bits

    @property
    def num_parity_bits(self) -> int:
        """``r = n - k`` — the number of parity-check bits."""
        return self._num_parity_bits

    @property
    def codeword_length(self) -> int:
        """``n = k + r`` — the total codeword length."""
        return self._num_data_bits + self._num_parity_bits

    @property
    def data_bit_positions(self) -> range:
        """Codeword positions holding data bits."""
        return range(self._num_data_bits)

    @property
    def parity_bit_positions(self) -> range:
        """Codeword positions holding parity bits."""
        return range(self._num_data_bits, self.codeword_length)

    # -- matrices ---------------------------------------------------------
    @property
    def parity_submatrix(self) -> np.ndarray:
        """The ``r × k`` submatrix ``P``, read-only (built on first access)."""
        if self._parity_submatrix is None:
            self._parity_submatrix = _read_only(
                _bit_rows(self._parity_rows, self._num_data_bits)
            )
        return self._parity_submatrix

    @property
    def parity_check_matrix(self) -> np.ndarray:
        """The ``r × n`` parity-check matrix ``H = [P | I]``, read-only (built on first access)."""
        if self._parity_check_matrix is None:
            self._parity_check_matrix = _read_only(
                np.hstack(
                    [self.parity_submatrix, np.eye(self._num_parity_bits, dtype=np.uint8)]
                )
            )
        return self._parity_check_matrix

    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``n × k`` generator ``G`` with ``c = G · d``, read-only (built on first access)."""
        if self._generator_matrix is None:
            self._generator_matrix = _read_only(
                np.vstack(
                    [np.eye(self._num_data_bits, dtype=np.uint8), self.parity_submatrix]
                )
            )
        return self._generator_matrix

    def column_int(self, position: int) -> int:
        """Return column ``position`` of ``H`` encoded as an integer (LSB = row 0)."""
        return self._column_ints[position]

    @property
    def column_ints(self) -> Tuple[int, ...]:
        """All ``n`` columns of ``H`` as integers, data columns first."""
        return self._column_ints

    @property
    def parity_column_ints(self) -> Tuple[int, ...]:
        """The ``k`` data-bit columns of ``H`` (i.e. the columns of ``P``) as integers."""
        return self._column_ints[: self._num_data_bits]

    @property
    def parity_row_ints(self) -> Tuple[int, ...]:
        """The ``r`` rows of ``P`` as integers (bit ``j`` = data bit ``j``)."""
        return self._parity_rows

    # -- cached batched-decode artefacts ------------------------------------
    #: Largest parity-bit count for which the dense per-syndrome decode
    #: tables (``2**r`` entries) are built.  Beyond this the allocation is
    #: gigabytes; families that can exceed it (repetition) refuse construction
    #: with a clear error instead of letting numpy crash or the machine OOM.
    MAX_TABLE_PARITY_BITS = 24

    def syndrome_position_table(self) -> np.ndarray:
        """Map syndrome integer → corrected codeword position (``-1`` = none).

        Built once per code and cached; every batched decode (both backends)
        indexes into the same array.  Callers must not mutate the result.
        """
        if self._syndrome_position_table is None:
            self._check_table_size()
            self._syndrome_position_table = self._build_syndrome_position_table()
        return self._syndrome_position_table

    def _check_table_size(self) -> None:
        if self._num_parity_bits > self.MAX_TABLE_PARITY_BITS:
            raise CodeConstructionError(
                f"r={self._num_parity_bits} parity bits would need a "
                f"2**{self._num_parity_bits}-entry syndrome table; table-based "
                f"decoding supports r <= {self.MAX_TABLE_PARITY_BITS}"
            )

    def _build_syndrome_position_table(self) -> np.ndarray:
        table = np.full(1 << self._num_parity_bits, -1, dtype=np.int64)
        # Iterate in reverse so that, in the degenerate case of duplicate
        # columns, the *lowest* position wins — matching syndrome_to_position.
        for position in range(self.codeword_length - 1, -1, -1):
            table[self._column_ints[position]] = position
        table[0] = -1
        return table

    #: ``decode_action_table`` entry meaning "no action" (zero syndrome).
    ACTION_NONE = -1
    #: ``decode_action_table`` entry meaning "detect, don't flip" (DUE).
    ACTION_DETECT = -2

    def decode_action_table(self) -> np.ndarray:
        """Map syndrome integer → decode action, respecting the decode policy.

        Entries: a codeword position ``>= 0`` means "flip that bit"; the
        sentinel :data:`ACTION_DETECT` (``-2``) means "detect, don't flip" —
        the detected-uncorrectable (DUE) path; :data:`ACTION_NONE` (``-1``)
        marks the zero syndrome (no action, no detection).  For a
        ``detect_only`` code every non-zero syndrome is a DUE; otherwise the
        table is the syndrome-position table with its unmatched entries
        encoded as DUEs.  Built once per code and cached; callers must not
        mutate the result.
        """
        if self._decode_action_table is None:
            self._check_table_size()
            if self._detect_only:
                table = np.full(
                    1 << self._num_parity_bits, self.ACTION_DETECT, dtype=np.int64
                )
            else:
                table = self.syndrome_position_table().copy()
                table[table < 0] = self.ACTION_DETECT
            table[0] = self.ACTION_NONE
            self._decode_action_table = table
        return self._decode_action_table

    def correction_table(self) -> np.ndarray:
        """Map decode action → the codeword lanes it flips, read-only (cached).

        An ``(n + 2, ceil(n / 64))`` ``uint64`` array in
        :func:`repro.gf2.bitpack.pack_rows` layout: row ``p < n`` holds only
        codeword bit ``p`` and the last two rows are zero, so the sentinels
        :data:`ACTION_DETECT` (``-2``) and :data:`ACTION_NONE` (``-1``) index
        them by wrap-around and flip nothing.  XORing
        ``correction_table()[decode_action_table()[syndromes]]`` into packed
        words applies every decode action at once.  Indexed by action, not
        by syndrome, it grows with ``n`` rather than ``2**r``.
        """
        if self._correction_table is None:
            length = self.codeword_length
            self._correction_table = _read_only(
                pack_rows(np.eye(length + 2, length, dtype=np.uint8))
            )
        return self._correction_table

    def h_transpose_int64(self) -> np.ndarray:
        """``H.T`` as a cached ``int64`` array (reference-backend syndromes)."""
        if self._h_transpose_int64 is None:
            self._h_transpose_int64 = self.parity_check_matrix.T.astype(np.int64)
        return self._h_transpose_int64

    def syndrome_weights(self) -> np.ndarray:
        """Cached powers of two converting syndrome bit rows to integers."""
        if self._syndrome_weights is None:
            self._syndrome_weights = (
                1 << np.arange(self._num_parity_bits, dtype=np.int64)
            )
        return self._syndrome_weights

    def syndrome_fold_table(self) -> np.ndarray:
        """Per-byte partial-syndrome table over all ``n`` columns of ``H`` (cached)."""
        if self._syndrome_fold_table is None:
            self._syndrome_fold_table = byte_fold_table(self._column_ints)
        return self._syndrome_fold_table

    def parity_fold_table(self) -> np.ndarray:
        """Per-byte partial-parity table over the ``k`` columns of ``P`` (cached)."""
        if self._parity_fold_table is None:
            self._parity_fold_table = byte_fold_table(
                self._column_ints[: self._num_data_bits]
            )
        return self._parity_fold_table

    def packed_h_lanes(self) -> np.ndarray:
        """The ``r`` rows of ``H`` packed into ``uint64`` lanes (cached).

        Shape ``(r, ceil(n / 64))``, aligned with
        :func:`repro.gf2.bitpack.pack_rows` batches of codewords, so
        ``lanes & packed_h_lanes()[i]`` selects exactly the columns of row
        ``i``.  Used by the tiny-``r`` syndrome path of
        :mod:`repro.einsim.engine`, which reduces masked lanes with XOR +
        popcount.
        """
        if self._packed_h_lanes is None:
            self._packed_h_lanes = pack_rows(self.parity_check_matrix)
        return self._packed_h_lanes

    # -- encoding / syndromes ----------------------------------------------
    def encode_int(self, dataword: int) -> int:
        """Encode a ``k``-bit int dataword into the int codeword ``[d | P·d]``."""
        parity = 0
        for row_index, row in enumerate(self._parity_rows):
            parity |= ((row & dataword).bit_count() & 1) << row_index
        return dataword | parity << self._num_data_bits

    def syndrome_int(self, codeword: int) -> int:
        """Return ``H · c`` of an ``n``-bit int codeword as an int (LSB = row 0)."""
        data = codeword & ((1 << self._num_data_bits) - 1)
        return (self.encode_int(data) ^ codeword) >> self._num_data_bits

    def encode(self, dataword) -> np.ndarray:
        """Encode a ``k``-bit dataword into its ``n``-bit codeword ``[d | p]``."""
        data = bits_to_int(as_bits(dataword, self._num_data_bits, "dataword"))
        return int_to_bits(self.encode_int(data), self.codeword_length)

    def syndrome(self, codeword) -> int:
        """Return ``H · c`` of a (possibly erroneous) codeword as an int."""
        return self.syndrome_int(
            bits_to_int(as_bits(codeword, self.codeword_length, "codeword"))
        )

    def syndrome_of_error_positions(self, positions: Iterable[int]) -> int:
        """Return the syndrome produced by errors at exactly the given positions."""
        value = 0
        for position in positions:
            if not 0 <= position < self.codeword_length:
                raise DimensionError(
                    f"error position {position} out of range for n={self.codeword_length}"
                )
            value ^= self._column_ints[position]
        return value

    def syndrome_to_position(self, syndrome) -> Optional[int]:
        """Map an integer syndrome (LSB = row 0) to the position it points at.

        Any integer is accepted, numpy's included.  Returns ``None`` for the
        zero syndrome and for syndromes that match no column of ``H``
        (possible for shortened codes).  If several columns matched — which
        cannot happen for a valid SEC code — the lowest position is returned.
        """
        try:
            value = operator.index(syndrome)
        except TypeError:
            raise ValidationError(f"a syndrome is an integer, got {syndrome!r}") from None
        if value == 0:
            return None
        try:
            return self._column_ints.index(value)
        except ValueError:
            return None

    # -- code properties ---------------------------------------------------
    def is_single_error_correcting(self) -> bool:
        """True iff every column of ``H`` is non-zero and all columns are distinct."""
        if 0 in self._column_ints:
            return False
        return len(set(self._column_ints)) == len(self._column_ints)

    def minimum_distance(self) -> int:
        """Return the minimum distance of the code.

        Computed from the parity-check columns: the minimum distance is the
        smallest number of columns of ``H`` that XOR to zero.  This is
        exponential in general, so the search is capped at distance 4 which is
        sufficient to distinguish the cases relevant to SEC on-die ECC
        (d = 1, 2, 3 or ``>= 4``).
        """
        columns = self._column_ints
        if 0 in columns:
            return 1
        if len(set(columns)) != len(columns):
            return 2
        column_set = set(columns)
        for i in range(len(columns)):
            for j in range(i + 1, len(columns)):
                combined = columns[i] ^ columns[j]
                if combined in column_set and columns.index(combined) not in (i, j):
                    return 3
        return 4

    def codewords(self) -> np.ndarray:
        """Every codeword as a ``(2**k, n)`` array, row ``d`` encoding the int ``d``.

        Only sensible for small ``k``.
        """
        if self._num_data_bits > 20:
            raise CodeConstructionError(
                "refusing to enumerate more than 2**20 codewords"
            )
        return _bit_rows(
            [self.encode_int(value) for value in range(1 << self._num_data_bits)],
            self.codeword_length,
        )

    # -- protocol methods ---------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, SystematicLinearCode):
            return NotImplemented
        # The trailing identity columns fix r, so the columns alone fix P.
        return self._column_ints == other._column_ints

    def __hash__(self) -> int:
        return hash(self._column_ints)

    def __repr__(self) -> str:
        suffix = "" if self._family == "sec-hamming" else f", family={self._family!r}"
        return (
            f"SystematicLinearCode(n={self.codeword_length}, "
            f"k={self.num_data_bits}, r={self.num_parity_bits}{suffix})"
        )
