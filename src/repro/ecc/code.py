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
and the rows of ``P`` as integer bit masks, encodes and computes syndromes
on them, and builds its ``GF2Matrix`` views of ``P``, ``H`` and ``G`` only
when one is asked for.  Construction logic lives in
the pluggable code-family registry (:mod:`repro.ecc.family`), with the
historical SEC-Hamming helpers in :mod:`repro.ecc.hamming`; each code carries
its family name and decode policy (correct-then-detect vs. detect-only) so
downstream layers dispatch without further lookups.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CodeConstructionError, DimensionError, ValidationError
from repro.gf2 import GF2Matrix, GF2Vector
from repro.gf2.bitpack import byte_fold_table


def _bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """``uint8`` rows holding the ``width`` low bits of each int, LSB first."""
    num_bytes = (width + 7) // 8
    raw = b"".join(value.to_bytes(num_bytes, "little") for value in values)
    as_bytes = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), num_bytes)
    return np.unpackbits(as_bytes, axis=1, count=width, bitorder="little")


def _row_ints(bits: np.ndarray) -> Tuple[int, ...]:
    """The rows of a 0/1 array as ints (column ``j`` → bit ``j``)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


class SystematicLinearCode:
    """A systematic linear block code ``H = [P | I]`` over GF(2).

    Parameters
    ----------
    parity_submatrix:
        The ``r × k`` submatrix ``P`` mapping datawords to parity bits.
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
        parity_submatrix: GF2Matrix,
        family: str = "sec-hamming",
        detect_only: bool = False,
    ):
        matrix = (
            parity_submatrix
            if isinstance(parity_submatrix, GF2Matrix)
            else GF2Matrix(parity_submatrix)
        )
        self._set_columns(
            _row_ints(matrix.to_numpy().T), matrix.num_rows, family, detect_only
        )
        self._parity_submatrix = matrix

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
        self._parity_submatrix: Optional[GF2Matrix] = None
        self._parity_check_matrix: Optional[GF2Matrix] = None
        self._generator_matrix: Optional[GF2Matrix] = None
        self._syndrome_position_table: Optional[np.ndarray] = None
        self._decode_action_table: Optional[np.ndarray] = None
        self._h_transpose_int64: Optional[np.ndarray] = None
        self._syndrome_weights: Optional[np.ndarray] = None
        self._syndrome_fold_table: Optional[np.ndarray] = None
        self._parity_fold_table: Optional[np.ndarray] = None
        self._packed_h_rows: Optional[np.ndarray] = None
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
        if not columns:
            raise DimensionError("a code needs at least one parity column")
        code = cls.__new__(cls)
        code._set_columns(
            tuple(int(column) for column in columns), num_parity_bits, family,
            detect_only,
        )
        return code

    @classmethod
    def from_parity_check_matrix(cls, matrix: GF2Matrix) -> "SystematicLinearCode":
        """Build a code from a full standard-form parity-check matrix ``[P | I]``.

        Raises :class:`~repro.exceptions.CodeConstructionError` if the trailing
        square block is not the identity.
        """
        full = matrix if isinstance(matrix, GF2Matrix) else GF2Matrix(matrix)
        num_parity = full.num_rows
        num_total = full.num_cols
        if num_total <= num_parity:
            raise CodeConstructionError(
                "parity-check matrix must have more columns than rows"
            )
        identity_block = full.submatrix(cols=range(num_total - num_parity, num_total))
        if identity_block != GF2Matrix.identity(num_parity):
            raise CodeConstructionError(
                "parity-check matrix is not in standard form [P | I]"
            )
        parity_submatrix = full.submatrix(cols=range(num_total - num_parity))
        return cls(parity_submatrix)

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
    def parity_submatrix(self) -> GF2Matrix:
        """The ``r × k`` submatrix ``P`` (built on first access)."""
        if self._parity_submatrix is None:
            self._parity_submatrix = GF2Matrix(
                _bit_rows(self._parity_rows, self._num_data_bits)
            )
        return self._parity_submatrix

    @property
    def parity_check_matrix(self) -> GF2Matrix:
        """The full ``r × n`` parity-check matrix ``H = [P | I]`` (built on first access)."""
        if self._parity_check_matrix is None:
            self._parity_check_matrix = self.parity_submatrix.hstack(
                GF2Matrix.identity(self._num_parity_bits)
            )
        return self._parity_check_matrix

    @property
    def generator_matrix(self) -> GF2Matrix:
        """The ``n × k`` generator ``G`` such that ``c = G · d`` (built on first access)."""
        if self._generator_matrix is None:
            self._generator_matrix = GF2Matrix.identity(self._num_data_bits).vstack(
                self.parity_submatrix
            )
        return self._generator_matrix

    def column(self, position: int) -> GF2Vector:
        """Return column ``position`` of ``H`` (the syndrome of a single error there)."""
        return GF2Vector.from_int(self._column_ints[position], self._num_parity_bits)

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

    def h_transpose_int64(self) -> np.ndarray:
        """``H.T`` as a cached ``int64`` array (reference-backend syndromes)."""
        if self._h_transpose_int64 is None:
            self._h_transpose_int64 = (
                self.parity_check_matrix.to_numpy().T.astype(np.int64)
            )
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

    def packed_h_rows(self) -> np.ndarray:
        """The ``r`` rows of ``H`` byte-packed LSB-first (cached).

        Shape ``(r, ceil(n / 8))`` ``uint8`` — the same layout
        ``np.packbits(words, axis=1, bitorder="little")`` gives a batch of
        codewords, so ``packed_word & packed_h_rows()[i]`` selects exactly the
        columns of row ``i``.  Used by the tiny-``r`` syndrome fast path,
        where a full byte-fold table costs more than it saves.
        """
        if self._packed_h_rows is None:
            self._packed_h_rows = np.packbits(
                self.parity_check_matrix.to_numpy(), axis=1, bitorder="little"
            )
        return self._packed_h_rows

    def packed_h_lanes(self) -> np.ndarray:
        """The ``r`` rows of ``H`` packed into ``uint64`` lanes (cached).

        Shape ``(r, ceil(n / 64))`` ``<u8``-endian ``uint64`` — the lane view
        of :meth:`packed_h_rows`, aligned with
        :func:`repro.gf2.bitpack.pack_rows` batches.  Used by the tiny-``r``
        syndrome fast path, which reduces masked lanes with XOR + popcount.
        """
        if self._packed_h_lanes is None:
            from repro.gf2.bitpack import bytes_to_lanes

            self._packed_h_lanes = bytes_to_lanes(
                self.packed_h_rows(), self.codeword_length
            )
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

    def encode(self, dataword: GF2Vector) -> GF2Vector:
        """Encode a ``k``-bit dataword into an ``n``-bit codeword ``[d | p]``."""
        data = dataword if isinstance(dataword, GF2Vector) else GF2Vector(dataword)
        if len(data) != self._num_data_bits:
            raise DimensionError(
                f"dataword length {len(data)} does not match k={self._num_data_bits}"
            )
        return GF2Vector.from_int(self.encode_int(data.to_int()), self.codeword_length)

    def extract_dataword(self, codeword: GF2Vector) -> GF2Vector:
        """Return the data portion (first ``k`` bits) of a codeword."""
        word = codeword if isinstance(codeword, GF2Vector) else GF2Vector(codeword)
        if len(word) != self.codeword_length:
            raise DimensionError(
                f"codeword length {len(word)} does not match n={self.codeword_length}"
            )
        return word[0 : self._num_data_bits]

    def syndrome(self, codeword: GF2Vector) -> GF2Vector:
        """Return ``H · c`` for a (possibly erroneous) codeword."""
        word = codeword if isinstance(codeword, GF2Vector) else GF2Vector(codeword)
        if len(word) != self.codeword_length:
            raise DimensionError(
                f"codeword length {len(word)} does not match n={self.codeword_length}"
            )
        return GF2Vector.from_int(
            self.syndrome_int(word.to_int()), self._num_parity_bits
        )

    def syndrome_of_error_positions(self, positions: Iterable[int]) -> GF2Vector:
        """Return the syndrome produced by errors at exactly the given positions."""
        value = 0
        for position in positions:
            if not 0 <= position < self.codeword_length:
                raise DimensionError(
                    f"error position {position} out of range for n={self.codeword_length}"
                )
            value ^= self._column_ints[position]
        return GF2Vector.from_int(value, self._num_parity_bits)

    def is_codeword(self, codeword: GF2Vector) -> bool:
        """Return True if ``codeword`` has a zero syndrome."""
        return self.syndrome(codeword).is_zero()

    def syndrome_to_position(self, syndrome) -> Optional[int]:
        """Map a syndrome (a vector, or an int with LSB = row 0) to its position.

        Returns ``None`` for the zero syndrome and for syndromes that match no
        column of ``H`` (possible for shortened codes).  If several columns
        matched — which cannot happen for a valid SEC code — the lowest
        position is returned.
        """
        if isinstance(syndrome, int):
            value = syndrome
        elif isinstance(syndrome, GF2Vector):
            value = syndrome.to_int()
        else:
            value = GF2Vector(syndrome).to_int()
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

    def codewords(self) -> List[GF2Vector]:
        """Enumerate every codeword (only sensible for small ``k``)."""
        if self._num_data_bits > 20:
            raise CodeConstructionError(
                "refusing to enumerate more than 2**20 codewords"
            )
        words = []
        for value in range(1 << self._num_data_bits):
            dataword = GF2Vector.from_int(value, self._num_data_bits)
            words.append(self.encode(dataword))
        return words

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
