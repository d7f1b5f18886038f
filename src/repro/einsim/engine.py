"""Batched encode / syndrome / decode kernels with selectable backends.

Every bulk operation in the library funnels through this module.  Two
backends implement each kernel:

* ``"reference"`` — the original one-bit-per-``uint8`` arithmetic (integer
  matmuls mod 2).  Simple, slow, and the oracle the differential test suite
  measures everything against.
* ``"packed"`` — words bit-packed into ``uint64`` lanes
  (:func:`repro.gf2.bitpack.pack_rows` layout) and folded byte by byte
  through the code's cached per-byte XOR tables
  (:func:`repro.gf2.bitpack.byte_fold_table`), turning the per-word syndrome
  into a handful of table lookups; an order of magnitude faster than the
  reference on realistic code sizes.  Codes with one or two parity bits
  skip the fold tables for a direct AND/XOR-parity reduction
  (:func:`_tiny_syndromes`), which is faster at that scale.

The lane codec, :func:`encode_lanes` and :func:`decode_lanes`, encodes
datawords straight into codeword lanes and syndrome-decodes lanes in place;
the simulated chip (:mod:`repro.dram.chip`) stores its words in those lanes,
and the packed :func:`bulk_encode` and :func:`bulk_syndrome_values` pack
their ``uint8`` batches and run the same codec.  The lane codec has one
implementation and takes no ``backend``; the ``"reference"`` bulk kernels
are its oracle in the differential tests.  On ``"packed"``,
Monte-Carlo simulations only encode through this module: the one runner,
:func:`repro.einsim.simulator.simulate_segments`, classifies error
coordinates with :mod:`repro.einsim.fused` without ever materializing
codeword batches, and decodes through the staged kernels only as the
``"reference"`` oracle.

``"packed"`` is the default everywhere.  ``"auto"`` and ``"fused"`` are
accepted as aliases of ``"packed"`` so older specs, stored cell configs and
scripts keep running.

Both backends are bit-exact: for any code and any batch of 0s and 1s, they
return identical arrays, and the bulk kernels reject any other value before
any work (``tests/test_differential_backends.py``,
``tests/test_differential_families.py`` and
``tests/test_differential_fused.py`` enforce this).  Per-code artefacts
(fold tables, decode-action table, correction table, transposed ``H``,
packed rows) are built once and cached on the code object itself.

Decoding is family-aware: each code's cached *decode-action table*
(:meth:`~repro.ecc.code.SystematicLinearCode.decode_action_table`) encodes,
per syndrome, whether to flip a bit, do nothing, or **detect without
flipping** — the detected-uncorrectable (DUE) path of SEC-DED double errors
and detect-only families.  :func:`bulk_decode_outcomes` additionally returns
the per-word DUE mask.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2.bitpack import (
    LANE_BITS,
    fold_bytes,
    num_lanes,
    pack_rows,
    popcount_u64,
    unpack_rows,
)
from repro.gf2.bits import is_binary
from repro.obs import TRACER
from repro.ecc.code import SystematicLinearCode

#: The implementations behind every ``backend=`` selector in the library.
BACKENDS: Tuple[str, ...] = ("reference", "packed")

#: Names accepted for compatibility, each resolving to an implementation.
_ALIASES = {"fused": "packed", "auto": "packed"}

#: Every name a ``backend=`` selector (or ``--backend`` option) accepts.
BACKEND_CHOICES: Tuple[str, ...] = BACKENDS + tuple(_ALIASES)

#: Parity-bit count at or below which the packed syndrome kernel skips the
#: byte-fold tables for :func:`_tiny_syndromes`: with one or two check rows
#: an AND + XOR-reduce per row beats per-byte table gathers (the
#: parity-detect regression fix).
_TINY_SYNDROME_PARITY_BITS = 2


def resolve_backend(backend: str) -> str:
    """Validate a backend name, resolving its aliases to ``"packed"``."""
    if backend not in BACKEND_CHOICES:
        raise ValidationError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    return _ALIASES.get(backend, backend)


def _validate_batch(
    array: np.ndarray, expected_cols: int, what: str, check_bits: bool = True
) -> np.ndarray:
    """``array`` as a ``(*, expected_cols)`` uint8 batch, checked before any work.

    Any value other than 0 or 1 raises :class:`ValidationError` (the two
    backends would read a 2 differently) unless ``check_bits`` is False,
    which only the lane codec passes: the chip checks its bits on write.
    """
    array = np.asarray(array)
    if array.ndim != 2 or array.shape[1] != expected_cols:
        raise DimensionError(
            f"expected {what} of shape (*, {expected_cols}), got {array.shape}"
        )
    if check_bits and not is_binary(array):
        raise ValidationError(f"{what} must hold only 0s and 1s")
    return array.astype(np.uint8, copy=False)


def _tiny_syndromes(lanes: np.ndarray, h_lanes: np.ndarray) -> np.ndarray:
    """Integer syndrome of every packed word, one check row at a time.

    ``lanes`` holds the words as ``(num_words, lanes)`` ``uint64`` and
    ``h_lanes`` the rows of ``H`` packed the same way.  Check bit ``i`` is
    the parity of the word masked by row ``i``: XOR the masked lanes
    together and take the accumulator's popcount mod 2.  Cheaper than
    building and gathering a ``(bytes, 256)`` fold table for one or two
    rows.
    """
    syndromes = np.zeros(lanes.shape[0], dtype=np.int64)
    for row in range(h_lanes.shape[0]):
        masked = lanes & h_lanes[row]
        folded = masked[:, 0]
        for lane in range(1, masked.shape[1]):
            folded = folded ^ masked[:, lane]
        syndromes |= (popcount_u64(folded).astype(np.int64) & 1) << row
    return syndromes


def _lane_syndromes(code: SystematicLinearCode, lanes: np.ndarray) -> np.ndarray:
    """Integer syndrome of every word of C-contiguous codeword lanes."""
    if code.num_parity_bits <= _TINY_SYNDROME_PARITY_BITS:
        return _tiny_syndromes(lanes, code.packed_h_lanes())
    codeword_bytes = lanes.view(np.uint8)[:, : (code.codeword_length + 7) // 8]
    return fold_bytes(code.syndrome_fold_table(), codeword_bytes)


def encode_lanes(code: SystematicLinearCode, datawords: np.ndarray) -> np.ndarray:
    """Encode a batch of 0/1 datawords (rows) straight into codeword lanes.

    Returns ``(num_words, ceil(n / 64))`` ``uint64`` lanes in
    :func:`repro.gf2.bitpack.pack_rows` layout: codeword ``[d | p]`` bit
    ``j`` is bit ``j % 64`` of lane ``j // 64``.  The values are not
    checked: the chip's write path and :func:`bulk_encode` check them first.
    """
    data = _validate_batch(
        datawords, code.num_data_bits, "dataword array", check_bits=False
    )
    num_words, num_data_bits = data.shape
    data_bytes = (num_data_bits + 7) // 8
    codeword_bytes = np.zeros(
        (num_words, num_lanes(code.codeword_length) * 8), dtype=np.uint8
    )
    if num_data_bits % 8:
        padded = np.zeros((num_words, data_bytes * 8), dtype=np.uint8)
        padded[:, :num_data_bits] = data
        data = padded
    # Packing straight into the codeword's bytes, with one flat packbits,
    # saves the copy a pack_rows of the data would take.
    codeword_bytes[:, :data_bytes] = np.packbits(
        data.reshape(-1), bitorder="little"
    ).reshape(num_words, data_bytes)
    parity = fold_bytes(
        code.parity_fold_table(), codeword_bytes[:, :data_bytes]
    ).astype(np.uint64)
    lanes = codeword_bytes.view("<u8")
    # The parity bits follow the data bits, from codeword bit k on; they
    # straddle two lanes when k % 64 + r > 64 (k = 58..63 at r = 7).
    lane, shift = divmod(num_data_bits, LANE_BITS)
    lanes[:, lane] |= parity << np.uint64(shift)
    if shift + code.num_parity_bits > LANE_BITS:
        lanes[:, lane + 1] |= parity >> np.uint64(LANE_BITS - shift)
    return lanes


def decode_lanes(code: SystematicLinearCode, lanes: np.ndarray) -> None:
    """Syndrome-decode C-contiguous codeword lanes in place.

    Applies the code's decode action to every word, exactly as
    :func:`bulk_decode` does to the unpacked words: the bit the syndrome
    points at is flipped, a detected or zero syndrome flips nothing.  Each
    word's action row of the code's correction table is gathered and XORed
    in, one gather for every word.
    """
    actions = code.decode_action_table()[_lane_syndromes(code, lanes)]
    corrections = code.correction_table()
    # Each row gathered as one void item: a whole-row copy, several times
    # faster than fancy-indexing the 2-D table.
    rows = corrections.view(np.dtype((np.void, corrections.strides[0])))[:, 0]
    lanes ^= rows[actions].view(lanes.dtype).reshape(lanes.shape)


def bulk_encode(
    code: SystematicLinearCode, datawords: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Encode a batch of 0/1 datawords (rows) into codewords ``[d | p]``."""
    backend = resolve_backend(backend)
    data = _validate_batch(datawords, code.num_data_bits, "dataword array")
    if backend != "reference":
        return unpack_rows(encode_lanes(code, data), code.codeword_length)
    return _reference_encode(code, data)


def _reference_encode(code: SystematicLinearCode, data: np.ndarray) -> np.ndarray:
    # P.T is the first k rows of the cached H.T (H = [P | I]).
    p_transpose = code.h_transpose_int64()[: code.num_data_bits]
    parity = ((data.astype(np.int64) @ p_transpose) % 2).astype(np.uint8)
    return np.hstack([data, parity])


def bulk_syndrome_values(
    code: SystematicLinearCode, received: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Return the integer syndrome of every received 0/1 codeword (row)."""
    backend = resolve_backend(backend)
    words = _validate_batch(received, code.codeword_length, "codeword array")
    return _syndrome_values(code, words, backend)


def _syndrome_values(
    code: SystematicLinearCode, words: np.ndarray, backend: str
) -> np.ndarray:
    if backend != "reference":
        return _lane_syndromes(code, pack_rows(words))
    syndromes = (words.astype(np.int64) @ code.h_transpose_int64()) % 2
    return syndromes @ code.syndrome_weights()


def bulk_decode(
    code: SystematicLinearCode, received: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Syndrome-decode a batch of 0/1 codewords (rows of ``received``) at once.

    Mirrors :class:`repro.ecc.decoder.SyndromeDecoder` exactly, including the
    code's family decode policy: for correcting families the bit the syndrome
    points at (lowest matching column of ``H``, zero syndrome → no
    correction) is flipped in every word; detect-only families never flip.
    """
    return bulk_decode_outcomes(code, received, backend)[0]


def bulk_decode_outcomes(
    code: SystematicLinearCode, received: np.ndarray, backend: str = "packed"
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a batch and also report the per-word DUE mask.

    Returns ``(corrected, due)`` where ``due[i]`` is True when word ``i``'s
    syndrome was non-zero but nothing was flipped — the decoder *detected* an
    uncorrectable error (shortened-code syndrome miss, SEC-DED double error,
    or any non-zero syndrome under a detect-only policy).  Both backends
    produce bit-identical arrays: they share the cached decode-action table
    and differ only in how the syndrome integers are computed.
    """
    backend = resolve_backend(backend)
    words = _validate_batch(received, code.codeword_length, "codeword array")
    # One branch while disabled: the decode hot path stays unmeasurably
    # close to the uninstrumented code.
    batch_start = time.perf_counter() if TRACER.enabled else 0.0
    values = _syndrome_values(code, words, backend)
    actions = code.decode_action_table()[values]
    rows = np.flatnonzero(actions >= 0)
    if rows.size:
        corrected = words.copy()
        corrected[rows, actions[rows]] ^= 1
    else:
        # No action flips a bit (detect-only family, or every syndrome is
        # zero/DUE): the input already is the decode result.  Returning it
        # uncopied skips the dominant allocation of detect-only batches;
        # callers treat the result as read-only either way.
        corrected = words
    due = actions == SystematicLinearCode.ACTION_DETECT
    if TRACER.enabled:
        seconds = time.perf_counter() - batch_start
        num_words = int(words.shape[0])
        due_words = int(np.count_nonzero(due))
        TRACER.add("einsim.decode_batches")
        TRACER.add("einsim.words_decoded", num_words)
        TRACER.add("einsim.due_words", due_words)
        TRACER.add("einsim.decode_s", seconds)
        TRACER.event(
            "einsim.decode_batch",
            {
                "backend": backend,
                "words": num_words,
                "due_words": due_words,
                "seconds": seconds,
                "words_per_s": num_words / seconds if seconds > 0 else 0.0,
                "codeword_length": code.codeword_length,
            },
        )
    return corrected, due
