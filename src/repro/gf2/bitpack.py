"""Bit packing over ``uint64`` lanes and byte-fold syndrome kernels.

Column ``j`` of a packed row lives in lane ``j // 64`` at bit ``j % 64``
(LSB first, matching the library-wide LSB-first integer encoding), so a row
XOR touches 64 columns per machine word and an inner product becomes AND +
popcount.  Byte ``b`` of a row's lanes holds columns ``8*b .. 8*b+7``, the
layout ``np.packbits(..., bitorder="little")`` produces.

* :func:`pack_rows` / :func:`unpack_rows` — lossless dense ↔ packed
  conversion of boolean or ``{0,1}`` rows;
* :func:`byte_fold_table` / :func:`fold_bytes` — per-byte XOR tables, the
  kernel :mod:`repro.einsim.engine` folds packed words through for batched
  syndromes and parity bits.

Equivalence with the one-byte-per-bit reference path is enforced by the
differential test suite (``tests/test_gf2_bitpack.py`` and
``tests/test_differential_backends.py``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError

#: Number of columns stored per packed lane.
LANE_BITS = 64

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

# Per-byte popcount table used when numpy lacks ``bitwise_count`` (< 2.0).
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)


def popcount_u64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values)
    as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


def num_lanes(num_cols: int) -> int:
    """Number of ``uint64`` lanes needed to hold ``num_cols`` bits."""
    return (num_cols + LANE_BITS - 1) // LANE_BITS


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean or ``{0,1}`` array into ``uint64`` lanes, one row per row.

    Column ``j`` of the input maps to bit ``j % 64`` of lane ``j // 64``
    (LSB first).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise DimensionError(f"pack_rows expects a 2-D array, got shape {bits.shape}")
    rows, cols = bits.shape
    num_bytes = (cols + 7) // 8
    if cols % 8:
        padded = np.zeros((rows, num_bytes * 8), dtype=bits.dtype)
        padded[:, :cols] = bits
        bits = padded
    # One flat packbits: numpy packs a long 1-D run far faster than along the
    # short axis of a 2-D batch.
    packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(rows, num_bytes)
    lanes = np.zeros((rows, num_lanes(cols) * 8), dtype=np.uint8)
    lanes[:, :num_bytes] = packed
    return lanes.view("<u8")


def unpack_rows(packed: np.ndarray, num_cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a ``uint8`` array of given width."""
    packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint64))
    if packed.ndim != 2:
        raise DimensionError(
            f"unpack_rows expects a 2-D array, got shape {packed.shape}"
        )
    if packed.shape[1] != num_lanes(num_cols):
        raise DimensionError(
            f"{packed.shape[1]} lanes cannot hold exactly {num_cols} columns"
        )
    rows, lanes = packed.shape
    as_bytes = packed.view(np.uint8).reshape(rows, lanes * 8)
    return np.unpackbits(as_bytes, axis=1, count=num_cols, bitorder="little")


# ---------------------------------------------------------------------------
# Batched syndrome kernels (the packed simulation backend's hot loop).
# ---------------------------------------------------------------------------
def byte_fold_table(column_ints) -> np.ndarray:
    """Precompute per-byte partial syndromes for a set of integer columns.

    Entry ``[b, v]`` is the XOR of ``column_ints[8*b + j]`` over the set bits
    ``j`` of the byte value ``v``.  Folding a bit-packed word's bytes through
    this table with XOR yields exactly ``sum_{i set} column_ints[i]`` over
    GF(2) — the word's integer syndrome — while touching eight columns per
    lookup instead of one.

    The table is built by doubling, every byte at once: the values whose
    highest set bit is ``j`` are the values below ``2**j`` with column ``j``
    XORed in.  A last byte with fewer than eight columns takes its missing
    steps with a zero column, so its upper values repeat its lower ones.
    """
    column_ints = [int(value) for value in column_ints]
    num_bytes = (len(column_ints) + 7) // 8
    columns = np.zeros(num_bytes * 8, dtype=np.int64)
    columns[: len(column_ints)] = column_ints
    columns = columns.reshape(num_bytes, 8)
    table = np.zeros((num_bytes, 256), dtype=np.int64)
    for bit in range(8):
        table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ columns[:, bit : bit + 1]
    return table


def fold_bytes(table: np.ndarray, packed_bytes: np.ndarray) -> np.ndarray:
    """XOR-fold each row of ``packed_bytes`` through a :func:`byte_fold_table`."""
    packed_bytes = np.asarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] != table.shape[0]:
        raise DimensionError(
            f"expected byte array of shape (*, {table.shape[0]}), "
            f"got {packed_bytes.shape}"
        )
    if table.shape[0] == 0:
        return np.zeros(packed_bytes.shape[0], dtype=np.int64)
    # np.take gathers a byte column faster than fancy indexing does.
    values = np.take(table[0], packed_bytes[:, 0])
    for byte_index in range(1, table.shape[0]):
        values ^= np.take(table[byte_index], packed_bytes[:, byte_index])
    return values
