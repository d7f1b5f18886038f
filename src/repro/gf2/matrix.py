"""A dense matrix type over GF(2).

``GF2Matrix`` wraps a two-dimensional ``numpy.uint8`` array whose entries are
restricted to {0, 1}.  Addition is XOR and multiplication is AND, i.e. all
arithmetic is carried out modulo 2.  The class is deliberately small and
explicit: it supports exactly the operations the rest of the library needs
(construction, slicing, concatenation, matrix products, equality, hashing of
immutable snapshots).  Solving is done on integer bit masks instead
(:func:`repro.gf2.affine.solve_affine`), and a code keeps its columns and
rows as ints, handing out ``GF2Matrix`` views only on request.

``GF2Vector`` is a one-dimensional counterpart used for datawords, codewords
and syndromes; :meth:`GF2Vector.from_int` and :meth:`GF2Vector.to_int`
convert to and from the integer encoding (element ``i`` = bit ``i``).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.exceptions import DimensionError, ReproError, ValidationError

ArrayLike = Union["GF2Matrix", "GF2Vector", np.ndarray, Sequence]


def _coerce_array(data: ArrayLike, ndim: int) -> np.ndarray:
    """Convert ``data`` into a ``uint8`` array of the requested rank.

    Values are reduced modulo 2 so callers may pass ordinary integer arrays.
    """
    if isinstance(data, (GF2Matrix, GF2Vector)):
        array = data.to_numpy()
    else:
        array = np.asarray(data)
    if array.ndim != ndim:
        raise DimensionError(
            f"expected a {ndim}-dimensional array, got shape {array.shape}"
        )
    return np.mod(array.astype(np.int64), 2).astype(np.uint8)


class GF2Vector:
    """A vector over GF(2).

    Parameters
    ----------
    data:
        Any one-dimensional sequence of integers; values are reduced mod 2.
    """

    __slots__ = ("_data",)

    def __init__(self, data: ArrayLike):
        self._data = _coerce_array(data, ndim=1)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, length: int) -> "GF2Vector":
        """Return the all-zero vector of the given length."""
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> "GF2Vector":
        """Return the all-one vector of the given length."""
        return cls(np.ones(length, dtype=np.uint8))

    @classmethod
    def unit(cls, length: int, index: int) -> "GF2Vector":
        """Return the standard basis vector ``e_index`` of the given length."""
        if not 0 <= index < length:
            raise DimensionError(f"unit index {index} out of range for length {length}")
        vec = np.zeros(length, dtype=np.uint8)
        vec[index] = 1
        return cls(vec)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "GF2Vector":
        """Return the vector of the given length with ones at ``support``."""
        vec = np.zeros(length, dtype=np.uint8)
        for index in support:
            if not 0 <= index < length:
                raise DimensionError(
                    f"support index {index} out of range for length {length}"
                )
            vec[index] = 1
        return cls(vec)

    @classmethod
    def from_int(cls, value: int, length: int) -> "GF2Vector":
        """Return the vector whose bit ``i`` is bit ``i`` of ``value`` (LSB first)."""
        if value < 0:
            raise ValidationError("value must be non-negative")
        if value >> length:
            raise DimensionError(f"value {value} does not fit in {length} bits")
        vector = cls.__new__(cls)
        raw = np.frombuffer(int(value).to_bytes((length + 7) // 8, "little"), np.uint8)
        vector._data = np.unpackbits(raw, count=length, bitorder="little")
        return vector

    # -- accessors --------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Return a copy of the underlying ``uint8`` array."""
        return self._data.copy()

    def to_int(self) -> int:
        """Return the integer whose bit ``i`` (LSB first) is element ``i``."""
        packed = np.packbits(self._data, bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def to_list(self) -> list:
        """Return the elements as a list of Python ints."""
        return [int(b) for b in self._data]

    @property
    def support(self) -> tuple:
        """Indices of the non-zero entries, in increasing order."""
        return tuple(int(i) for i in np.flatnonzero(self._data))

    @property
    def weight(self) -> int:
        """Hamming weight (number of ones)."""
        return int(self._data.sum())

    def is_zero(self) -> bool:
        """Return True if every entry is zero."""
        return not self._data.any()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        other_vec = GF2Vector(other) if not isinstance(other, GF2Vector) else other
        if len(self) != len(other_vec):
            raise DimensionError(
                f"cannot add vectors of lengths {len(self)} and {len(other_vec)}"
            )
        return GF2Vector(np.bitwise_xor(self._data, other_vec._data))

    __xor__ = __add__
    __sub__ = __add__

    def __mul__(self, other: "GF2Vector") -> int:
        """Inner product over GF(2)."""
        other_vec = GF2Vector(other) if not isinstance(other, GF2Vector) else other
        if len(self) != len(other_vec):
            raise DimensionError(
                f"cannot take inner product of lengths {len(self)} and {len(other_vec)}"
            )
        return int(np.bitwise_and(self._data, other_vec._data).sum() % 2)

    def flip(self, index: int) -> "GF2Vector":
        """Return a copy with the bit at ``index`` flipped."""
        data = self._data.copy()
        data[index] ^= 1
        return GF2Vector(data)

    # -- protocol methods -------------------------------------------------
    def __len__(self) -> int:
        return int(self._data.shape[0])

    def __getitem__(self, index):
        result = self._data[index]
        if isinstance(index, slice) or isinstance(index, (list, np.ndarray)):
            return GF2Vector(result)
        return int(result)

    def __iter__(self):
        return (int(b) for b in self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Vector):
            try:
                other = GF2Vector(other)
            except (ReproError, TypeError, ValueError):
                return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._data, other._data))

    def __hash__(self) -> int:
        return hash((len(self), self.to_int()))

    def __repr__(self) -> str:
        bits = "".join(str(int(b)) for b in self._data)
        return f"GF2Vector('{bits}')"


class GF2Matrix:
    """A dense matrix over GF(2).

    Parameters
    ----------
    data:
        Any two-dimensional sequence of integers; values are reduced mod 2.
    """

    __slots__ = ("_data",)

    def __init__(self, data: ArrayLike):
        self._data = _coerce_array(data, ndim=2)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        """Return the all-zero matrix with the given shape."""
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, size: int) -> "GF2Matrix":
        """Return the ``size`` × ``size`` identity matrix."""
        return cls(np.eye(size, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Iterable[ArrayLike]) -> "GF2Matrix":
        """Build a matrix from an iterable of equal-length row vectors."""
        row_arrays = [GF2Vector(row).to_numpy() for row in rows]
        if not row_arrays:
            raise DimensionError("cannot build a matrix from zero rows")
        lengths = {len(row) for row in row_arrays}
        if len(lengths) != 1:
            raise DimensionError(f"rows have inconsistent lengths: {sorted(lengths)}")
        return cls(np.vstack(row_arrays))

    @classmethod
    def from_columns(cls, columns: Iterable[ArrayLike]) -> "GF2Matrix":
        """Build a matrix from an iterable of equal-length column vectors."""
        return cls.from_rows(columns).transpose()

    # -- accessors --------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Return a copy of the underlying ``uint8`` array."""
        return self._data.copy()

    @property
    def shape(self) -> tuple:
        """(rows, columns)."""
        return (int(self._data.shape[0]), int(self._data.shape[1]))

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return int(self._data.shape[0])

    @property
    def num_cols(self) -> int:
        """Number of columns."""
        return int(self._data.shape[1])

    def row(self, index: int) -> GF2Vector:
        """Return row ``index`` as a vector."""
        return GF2Vector(self._data[index, :])

    def column(self, index: int) -> GF2Vector:
        """Return column ``index`` as a vector."""
        return GF2Vector(self._data[:, index])

    def rows(self) -> list:
        """Return all rows as a list of vectors."""
        return [self.row(i) for i in range(self.num_rows)]

    def columns(self) -> list:
        """Return all columns as a list of vectors."""
        return [self.column(j) for j in range(self.num_cols)]

    def submatrix(self, rows=None, cols=None) -> "GF2Matrix":
        """Return the submatrix selected by the given row/column index lists."""
        data = self._data
        if rows is not None:
            data = data[np.asarray(list(rows), dtype=np.intp), :]
        if cols is not None:
            data = data[:, np.asarray(list(cols), dtype=np.intp)]
        return GF2Matrix(data)

    # -- structure --------------------------------------------------------
    def transpose(self) -> "GF2Matrix":
        """Return the transpose."""
        return GF2Matrix(self._data.T)

    @property
    def T(self) -> "GF2Matrix":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def hstack(self, other: "GF2Matrix") -> "GF2Matrix":
        """Concatenate ``other`` to the right of this matrix."""
        other_mat = other if isinstance(other, GF2Matrix) else GF2Matrix(other)
        if self.num_rows != other_mat.num_rows:
            raise DimensionError(
                f"cannot hstack matrices with {self.num_rows} and "
                f"{other_mat.num_rows} rows"
            )
        return GF2Matrix(np.hstack([self._data, other_mat._data]))

    def vstack(self, other: "GF2Matrix") -> "GF2Matrix":
        """Concatenate ``other`` below this matrix."""
        other_mat = other if isinstance(other, GF2Matrix) else GF2Matrix(other)
        if self.num_cols != other_mat.num_cols:
            raise DimensionError(
                f"cannot vstack matrices with {self.num_cols} and "
                f"{other_mat.num_cols} columns"
            )
        return GF2Matrix(np.vstack([self._data, other_mat._data]))

    def with_column_order(self, order: Sequence[int]) -> "GF2Matrix":
        """Return a copy whose columns are permuted into the given order."""
        if sorted(order) != list(range(self.num_cols)):
            raise DimensionError("column order must be a permutation of all columns")
        return GF2Matrix(self._data[:, np.asarray(order, dtype=np.intp)])

    def with_row_order(self, order: Sequence[int]) -> "GF2Matrix":
        """Return a copy whose rows are permuted into the given order."""
        if sorted(order) != list(range(self.num_rows)):
            raise DimensionError("row order must be a permutation of all rows")
        return GF2Matrix(self._data[np.asarray(order, dtype=np.intp), :])

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "GF2Matrix") -> "GF2Matrix":
        other_mat = other if isinstance(other, GF2Matrix) else GF2Matrix(other)
        if self.shape != other_mat.shape:
            raise DimensionError(
                f"cannot add matrices of shapes {self.shape} and {other_mat.shape}"
            )
        return GF2Matrix(np.bitwise_xor(self._data, other_mat._data))

    __xor__ = __add__
    __sub__ = __add__

    def __matmul__(self, other):
        if isinstance(other, GF2Vector) or (
            not isinstance(other, GF2Matrix) and np.asarray(other).ndim == 1
        ):
            vector = other if isinstance(other, GF2Vector) else GF2Vector(other)
            if self.num_cols != len(vector):
                raise DimensionError(
                    f"matrix with {self.num_cols} columns cannot multiply "
                    f"vector of length {len(vector)}"
                )
            product = self._data.astype(np.int64) @ vector.to_numpy().astype(np.int64)
            return GF2Vector(product % 2)
        other_mat = other if isinstance(other, GF2Matrix) else GF2Matrix(other)
        if self.num_cols != other_mat.num_rows:
            raise DimensionError(
                f"cannot multiply shapes {self.shape} and {other_mat.shape}"
            )
        product = self._data.astype(np.int64) @ other_mat._data.astype(np.int64)
        return GF2Matrix(product % 2)

    def is_zero(self) -> bool:
        """Return True if every entry is zero."""
        return not self._data.any()

    # -- protocol methods -------------------------------------------------
    def __getitem__(self, index) -> int:
        row, col = index
        return int(self._data[row, col])

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            try:
                other = GF2Matrix(other)
            except (ReproError, TypeError, ValueError):
                return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        rows = [" ".join(str(int(b)) for b in row) for row in self._data]
        body = "\n ".join(rows)
        return f"GF2Matrix(\n {body}\n)"
