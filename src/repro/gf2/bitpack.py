"""Bit packing over ``uint64`` lanes and byte-fold syndrome kernels.

Column ``j`` of a packed row lives in lane ``j // 64`` at bit ``j % 64``
(LSB first, matching the library-wide LSB-first integer encoding), so a row
XOR touches 64 columns per machine word and an inner product becomes AND +
popcount.

* :func:`pack_rows` / :func:`unpack_rows` — lossless dense ↔ packed
  conversion (:func:`pack_bool_rows` for boolean masks);
* :func:`lanes_to_bytes` / :func:`bytes_to_lanes` — views between lanes and
  the byte layout ``np.packbits(..., bitorder="little")`` produces;
* :func:`packed_column_counts` — per-column set-bit counts of a packed batch;
* :func:`byte_fold_table` / :func:`fold_bytes` — cached per-byte XOR tables,
  the kernel the ``packed`` simulation backend (:mod:`repro.einsim.engine`)
  and the packed chip model use for batched syndromes and parity bits.

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
    """Pack a 2-D ``{0,1}`` array into ``uint64`` lanes, one row per row.

    Column ``j`` of the input maps to bit ``j % 64`` of lane ``j // 64``
    (LSB first).
    """
    bits = np.ascontiguousarray(np.asarray(bits, dtype=np.uint8) & 1)
    if bits.ndim != 2:
        raise DimensionError(f"pack_rows expects a 2-D array, got shape {bits.shape}")
    rows, cols = bits.shape
    lanes = num_lanes(cols)
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean mask into ``uint64`` lanes (see :func:`pack_rows`).

    Same layout as :func:`pack_rows` without the ``uint8``-coercion pass —
    the fused simulation path packs freshly drawn boolean error masks, which
    ``numpy.packbits`` consumes directly.
    """
    mask = np.ascontiguousarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DimensionError(
            f"pack_bool_rows expects a 2-D array, got shape {mask.shape}"
        )
    rows, cols = mask.shape
    lanes = num_lanes(cols)
    packed_bytes = np.packbits(mask, axis=1, bitorder="little")
    if packed_bytes.shape[1] == lanes * 8:
        return packed_bytes.view("<u8").reshape(rows, lanes)
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


def lanes_to_bytes(lanes: np.ndarray, num_cols: int) -> np.ndarray:
    """View packed lanes as the per-byte columns covering ``num_cols`` bits.

    The returned array has shape ``(rows, ceil(num_cols / 8))`` and shares
    memory with ``lanes`` where possible; byte ``b`` holds columns
    ``8*b .. 8*b+7`` LSB first, exactly the layout
    ``np.packbits(..., bitorder="little")`` produces.
    """
    lanes = np.ascontiguousarray(np.asarray(lanes, dtype="<u8"))
    if lanes.ndim != 2:
        raise DimensionError(
            f"lanes_to_bytes expects a 2-D array, got shape {lanes.shape}"
        )
    if lanes.shape[1] != num_lanes(num_cols):
        raise DimensionError(
            f"{lanes.shape[1]} lanes cannot hold exactly {num_cols} columns"
        )
    num_bytes = (num_cols + 7) // 8
    rows, lanes_per_row = lanes.shape
    return lanes.view(np.uint8).reshape(rows, 8 * lanes_per_row)[:, :num_bytes]


def bytes_to_lanes(packed_bytes: np.ndarray, num_cols: int) -> np.ndarray:
    """View byte-packed rows as ``uint64`` lanes covering ``num_cols`` bits.

    Inverse direction of :func:`lanes_to_bytes`: pads the byte columns of a
    ``np.packbits(..., bitorder="little")`` batch up to a lane multiple (no
    copy when the byte count already is one) and reinterprets them as
    little-endian ``uint64`` lanes.
    """
    packed_bytes = np.ascontiguousarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] != (num_cols + 7) // 8:
        raise DimensionError(
            f"byte array of shape {packed_bytes.shape} does not pack exactly "
            f"{num_cols} columns"
        )
    rows = packed_bytes.shape[0]
    lanes = num_lanes(num_cols)
    if packed_bytes.shape[1] == lanes * 8:
        return packed_bytes.view("<u8").reshape(rows, lanes)
    padded = np.zeros((rows, lanes * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[1]] = packed_bytes
    return padded.view("<u8").reshape(rows, lanes)


#: ``_BYTE_BIT_TABLE[v, b]`` is bit ``b`` of byte value ``v`` — turns a
#: per-byte-value histogram into per-column set-bit counts with one matmul.
_BYTE_BIT_TABLE = ((np.arange(256)[:, np.newaxis] >> np.arange(8)) & 1).astype(
    np.int64
)


def packed_column_counts(packed_bytes: np.ndarray, num_cols: int) -> np.ndarray:
    """Count set bits per column over a batch of byte-packed rows.

    Equivalent to ``unpack(...).sum(axis=0)`` but works directly on the
    packed representation: one 256-bin histogram per byte column, dotted with
    the byte→bit table.
    """
    packed_bytes = np.asarray(packed_bytes, dtype=np.uint8)
    if packed_bytes.ndim != 2 or packed_bytes.shape[1] < (num_cols + 7) // 8:
        raise DimensionError(
            f"byte array of shape {packed_bytes.shape} cannot hold "
            f"{num_cols} columns"
        )
    counts = np.zeros(((num_cols + 7) // 8) * 8, dtype=np.int64)
    for byte_index in range((num_cols + 7) // 8):
        histogram = np.bincount(packed_bytes[:, byte_index], minlength=256)
        counts[byte_index * 8 : byte_index * 8 + 8] = histogram @ _BYTE_BIT_TABLE
    return counts[:num_cols]


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
    """
    column_ints = [int(value) for value in column_ints]
    num_cols = len(column_ints)
    num_bytes = (num_cols + 7) // 8
    table = np.zeros((num_bytes, 256), dtype=np.int64)
    byte_values = np.arange(256)
    for byte_index in range(num_bytes):
        for bit in range(8):
            col = byte_index * 8 + bit
            if col >= num_cols:
                break
            table[byte_index, ((byte_values >> bit) & 1) == 1] ^= column_ints[col]
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
    values = table[0][packed_bytes[:, 0]]
    for byte_index in range(1, table.shape[0]):
        values ^= table[byte_index][packed_bytes[:, byte_index]]
    return values
