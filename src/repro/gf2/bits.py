"""The word format: a word is a 1-D ``uint8`` array of 0s and 1s.

A dataword or codeword that crosses the public API is one row of the batch
format the ``bulk_*`` kernels and the chip's ``write_datawords`` already
take; a syndrome or a column of ``H`` is an int (bit ``i`` = parity row
``i``).  Every per-word boundary checks its input with :func:`as_bits` and
converts between the two encodings with :func:`bits_to_int` and
:func:`int_to_bits` (element ``i`` = bit ``i``, LSB first).  A dataclass
that carries words takes :func:`fields_equal` as its ``==``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import DimensionError, ValidationError


def is_binary(values: np.ndarray) -> bool:
    """Whether every value of ``values`` is the number 0 or 1 (NaN is not)."""
    kind = values.dtype.kind
    if kind in "bu":
        return not values.size or values.max() <= 1
    if kind not in "if":
        return False
    return bool(((values == 0) | (values == 1)).all())


def as_bits(value, length: int, what: str) -> np.ndarray:
    """A fresh ``(length,)`` ``uint8`` copy of ``value``, checked to be a word.

    A wrong shape raises :class:`DimensionError`; any value other than 0 or 1
    (2, -1, 0.5, NaN, the string ``"1"``) raises :class:`ValidationError`;
    ``what`` names the word in either message.  Bools and numpy integers are
    accepted.
    """
    bits = np.array(value)
    if bits.shape != (length,):
        raise DimensionError(f"{what} must have exactly {length} bits, got shape {bits.shape}")
    if not is_binary(bits):
        raise ValidationError(f"{what} must hold only 0s and 1s")
    return bits.astype(np.uint8, copy=False)


def bits_to_int(bits: np.ndarray) -> int:
    """The int whose bit ``i`` is ``bits[i]`` (a 0/1 array)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def int_to_bits(value: int, length: int) -> np.ndarray:
    """A non-negative int below ``2**length`` as ``length`` 0/1 ``uint8`` bits."""
    raw = np.frombuffer(int(value).to_bytes((length + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def fields_equal(self, other):
    """``==`` for a dataclass with array fields, to be its ``__eq__``.

    Two instances of one class are equal when every field is: arrays by
    shape and value (``np.array_equal``), anything else by ``==``.  The
    result is a bool, where the generated ``__eq__`` would raise numpy's
    "truth value of an array is ambiguous".  Such a class sets
    ``__hash__ = None``: its arrays are mutable.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        _field_equal(getattr(self, field.name), getattr(other, field.name))
        for field in dataclasses.fields(self)
    )


def _field_equal(first, second) -> bool:
    arrays = isinstance(first, np.ndarray), isinstance(second, np.ndarray)
    if any(arrays):
        return all(arrays) and np.array_equal(first, second)
    return bool(first == second)
