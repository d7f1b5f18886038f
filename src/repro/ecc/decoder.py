"""Syndrome decoding and classification of decode outcomes.

Section 3.3 of the paper describes the behaviour of an on-die SEC decoder
facing an arbitrary (possibly uncorrectable) error pattern:

* syndrome ``0``       → no correction performed,
* syndrome = column j  → bit ``j`` is flipped,
* syndrome matches no column (possible for shortened codes, and guaranteed
  for SEC-DED double errors) → no correction, but the error is *detected* —
  the detected-uncorrectable error (DUE) path.

Decoding dispatches on the code's family decode policy
(:attr:`~repro.ecc.code.SystematicLinearCode.detect_only`): detect-only
families (single parity bit, duplication) never flip a bit and flag every
non-zero syndrome as a DUE.

When the injected error pattern is uncorrectable, the externally visible
outcome falls into one of the classes of :class:`DecodeOutcome` — *silent
data corruption*, *partial correction*, *miscorrection*, or *detected
uncorrectable* — which :func:`classify_decode` reports.  Miscorrections are
the signal BEER is built on; DUEs are the signal detection-aware profiling
adds on top.

Words cross this module's API in the format of :mod:`repro.gf2.bits`:
received and transmitted words are 1-D ``uint8`` arrays of 0s and 1s
(anything else raises), and a syndrome is an int.  The decoder itself works
on the words' int masks; it is the per-word reference the batched
:func:`repro.einsim.engine.bulk_decode` is held to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gf2.bits import as_bits, bits_to_int, fields_equal, int_to_bits
from repro.ecc.code import SystematicLinearCode


class DecodeOutcome(enum.Enum):
    """Classification of a decode relative to the true transmitted codeword."""

    #: No pre-correction errors and no correction performed.
    NO_ERROR = "no_error"
    #: A single pre-correction error was corrected exactly.
    CORRECTED = "corrected"
    #: Uncorrectable error with a zero syndrome: errors pass through silently.
    SILENT_CORRUPTION = "silent_corruption"
    #: Uncorrectable error whose syndrome pointed at one of the erroneous bits.
    PARTIAL_CORRECTION = "partial_correction"
    #: Uncorrectable error whose syndrome pointed at a non-erroneous bit.
    MISCORRECTION = "miscorrection"
    #: Non-zero syndrome with no correction performed: matched no column of H
    #: (shortened SEC codes, SEC-DED double errors) or the code is
    #: detect-only.  This is the DUE path.
    DETECTED_UNCORRECTABLE = "detected_uncorrectable"


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Result of decoding one (possibly erroneous) codeword.

    Attributes
    ----------
    dataword:
        The post-correction dataword handed back over the DRAM interface.
    corrected_codeword:
        The full post-correction codeword (internal to the chip).
    corrected_position:
        The codeword position flipped by the decoder, or ``None``.
    syndrome:
        The raw error syndrome ``H · c'`` as an int (never visible to real
        hosts; kept here for simulation and validation).
    detected_uncorrectable:
        The DUE sentinel: True when the decoder saw a non-zero syndrome it
        could not (detect-only policy) or would not (no matching column)
        correct.
    """

    dataword: np.ndarray
    corrected_codeword: np.ndarray
    corrected_position: Optional[int]
    syndrome: int
    detected_uncorrectable: bool = False

    __eq__ = fields_equal
    __hash__ = None

    @property
    def correction_performed(self) -> bool:
        """True if the decoder flipped any bit."""
        return self.corrected_position is not None


class SyndromeDecoder:
    """Family-dispatched syndrome decoder for a :class:`SystematicLinearCode`.

    The decoder mirrors the hardware behaviour described in the paper: it
    blindly computes the syndrome and acts on the code's decode policy.  For
    correcting families it flips the bit the syndrome points at (if any);
    for detect-only families (parity check, duplication) it never flips and
    flags every non-zero syndrome as a DUE.  It has no notion of how many
    errors actually occurred.
    """

    def __init__(self, code: SystematicLinearCode):
        self._code = code

    @property
    def code(self) -> SystematicLinearCode:
        """The code this decoder operates on."""
        return self._code

    def decode(self, received_codeword) -> DecodeResult:
        """Decode a received codeword and return the full decode result."""
        code = self._code
        word = bits_to_int(
            as_bits(received_codeword, code.codeword_length, "received codeword")
        )
        syndrome = code.syndrome_int(word)
        position = None if code.detect_only else code.syndrome_to_position(syndrome)
        corrected = word if position is None else word ^ 1 << position
        return DecodeResult(
            dataword=int_to_bits(
                corrected & ((1 << code.num_data_bits) - 1), code.num_data_bits
            ),
            corrected_codeword=int_to_bits(corrected, code.codeword_length),
            corrected_position=position,
            syndrome=syndrome,
            detected_uncorrectable=position is None and syndrome != 0,
        )

    def decode_dataword(self, received_codeword) -> np.ndarray:
        """Decode and return only the post-correction dataword."""
        return self.decode(received_codeword).dataword


def classify_decode(
    code: SystematicLinearCode,
    transmitted_codeword,
    received_codeword,
) -> DecodeOutcome:
    """Classify the outcome of decoding ``received`` given the true codeword.

    This requires ground-truth knowledge of the transmitted codeword and is
    therefore only available in simulation — exactly the visibility gap that
    motivates BEER.
    """
    length = code.codeword_length
    transmitted = as_bits(transmitted_codeword, length, "transmitted codeword")
    received = as_bits(received_codeword, length, "received codeword")
    error_positions = set(np.flatnonzero(transmitted ^ received).tolist())
    result = SyndromeDecoder(code).decode(received)

    if not error_positions:
        return DecodeOutcome.NO_ERROR
    if len(error_positions) == 1:
        # A valid correcting code fixes a single error exactly.
        if result.corrected_position in error_positions:
            return DecodeOutcome.CORRECTED
        # Detect-only codes never correct; a shortened/degenerate code may
        # fail to match the syndrome.  Either way the error was detected.
        return DecodeOutcome.DETECTED_UNCORRECTABLE

    if result.syndrome == 0:
        return DecodeOutcome.SILENT_CORRUPTION
    if result.corrected_position is None:
        return DecodeOutcome.DETECTED_UNCORRECTABLE
    if result.corrected_position in error_positions:
        return DecodeOutcome.PARTIAL_CORRECTION
    return DecodeOutcome.MISCORRECTION


def post_correction_error_positions(
    code: SystematicLinearCode,
    transmitted_dataword,
    received_codeword,
) -> tuple:
    """Return the data-bit positions that differ after decoding.

    These are the only errors a third party can observe through the DRAM
    interface (the parity bits never leave the chip).
    """
    decoded = SyndromeDecoder(code).decode_dataword(received_codeword)
    transmitted = as_bits(transmitted_dataword, code.num_data_bits, "transmitted dataword")
    return tuple(np.flatnonzero(decoded ^ transmitted).tolist())
