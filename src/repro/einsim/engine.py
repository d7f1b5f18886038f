"""Batched encode / syndrome / decode kernels with selectable backends.

Every bulk operation in the library funnels through this module.  Two
backends implement each kernel:

* ``"reference"`` — the original one-bit-per-``uint8`` arithmetic (integer
  matmuls mod 2).  Simple, slow, and the oracle the differential test suite
  measures everything against.
* ``"packed"`` — words bit-packed with :mod:`repro.gf2.bitpack` machinery:
  each batch is packed eight columns per byte and folded through cached
  per-byte XOR tables (:func:`repro.gf2.bitpack.byte_fold_table`), turning
  the per-word syndrome into a handful of table lookups; an order of
  magnitude faster than the reference on realistic code sizes.  Codes with
  one or two parity bits skip the fold tables for a direct AND/XOR-parity
  reduction (:func:`tiny_syndromes`, shared with the fused kernel), which is
  faster at that scale.  On ``"packed"``, Monte-Carlo simulations only
  encode through this module: the one runner,
  :func:`repro.einsim.simulator.simulate_segments`, classifies packed error
  masks with :mod:`repro.einsim.fused` without ever materializing codeword
  batches, and decodes through the staged kernels only as the
  ``"reference"`` oracle.

``"packed"`` is the default everywhere.  ``"auto"`` and ``"fused"`` are
accepted as aliases of ``"packed"`` so older specs, stored cell configs and
scripts keep running.

Both backends are bit-exact: for any code, any batch and any input, they
return identical arrays (``tests/test_differential_backends.py``,
``tests/test_differential_families.py`` and
``tests/test_differential_fused.py`` enforce this).  Per-code artefacts
(syndrome lookup table, decode-action table, transposed ``H``, packed rows)
are built once and cached on the code object itself.

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
from repro.gf2.bitpack import bytes_to_lanes, fold_bytes, popcount_u64
from repro.obs import TRACER
from repro.ecc.code import SystematicLinearCode

#: The implementations behind every ``backend=`` selector in the library.
BACKENDS: Tuple[str, ...] = ("reference", "packed")

#: Names accepted for compatibility, each resolving to an implementation.
_ALIASES = {"fused": "packed", "auto": "packed"}

#: Every name a ``backend=`` selector (or ``--backend`` option) accepts.
BACKEND_CHOICES: Tuple[str, ...] = BACKENDS + tuple(_ALIASES)

#: Parity-bit count at or below which the packed syndrome kernels (this
#: module's and the fused kernel's) skip the byte-fold tables for
#: :func:`tiny_syndromes`: with one or two check rows an AND + XOR-reduce per
#: row beats per-byte table gathers (the parity-detect regression fix).
TINY_SYNDROME_PARITY_BITS = 2


def resolve_backend(backend: str) -> str:
    """Validate a backend name, resolving its aliases to ``"packed"``."""
    if backend not in BACKEND_CHOICES:
        raise ValidationError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    return _ALIASES.get(backend, backend)


def _validate_batch(
    array: np.ndarray, expected_cols: int, what: str
) -> np.ndarray:
    array = np.asarray(array, dtype=np.uint8)
    if array.ndim != 2 or array.shape[1] != expected_cols:
        raise DimensionError(
            f"expected {what} of shape (*, {expected_cols}), got {array.shape}"
        )
    return array


def tiny_syndromes(lanes: np.ndarray, h_lanes: np.ndarray) -> np.ndarray:
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


def bulk_encode(
    code: SystematicLinearCode, datawords: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Encode a batch of datawords (rows) into codewords ``[d | p]``."""
    backend = resolve_backend(backend)
    data = _validate_batch(datawords, code.num_data_bits, "dataword array")
    if backend != "reference":
        parity_values = fold_bytes(
            code.parity_fold_table(), np.packbits(data, axis=1, bitorder="little")
        )
        shifts = np.arange(code.num_parity_bits, dtype=np.int64)
        parity = ((parity_values[:, np.newaxis] >> shifts) & 1).astype(np.uint8)
    else:
        # P.T is the first k rows of the cached H.T (H = [P | I]).
        p_transpose = code.h_transpose_int64()[: code.num_data_bits]
        parity = ((data.astype(np.int64) @ p_transpose) % 2).astype(np.uint8)
    return np.hstack([data, parity])


def bulk_syndrome_values(
    code: SystematicLinearCode, received: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Return the integer syndrome of every received codeword (row)."""
    backend = resolve_backend(backend)
    words = _validate_batch(received, code.codeword_length, "codeword array")
    if backend != "reference":
        packed = np.packbits(words, axis=1, bitorder="little")
        if code.num_parity_bits <= TINY_SYNDROME_PARITY_BITS:
            lanes = bytes_to_lanes(packed, code.codeword_length)
            return tiny_syndromes(lanes, code.packed_h_lanes())
        return fold_bytes(code.syndrome_fold_table(), packed)
    syndromes = (words.astype(np.int64) @ code.h_transpose_int64()) % 2
    return syndromes @ code.syndrome_weights()


def bulk_decode(
    code: SystematicLinearCode, received: np.ndarray, backend: str = "packed"
) -> np.ndarray:
    """Syndrome-decode a batch of codewords (rows of ``received``) at once.

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
    values = bulk_syndrome_values(code, words, backend)
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
