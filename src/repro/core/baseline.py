"""Baseline: reverse engineering an ECC function with direct syndrome access.

Section 4.1 of the paper describes the prior-work approach (Cojocar et al.)
for *rank-level* ECC, where the memory controller reports error-correction
events: inject a single-bit error at each codeword position and read off the
error syndrome — each syndrome is literally one column of the parity-check
matrix.

This baseline is included for two reasons:

* it is the comparison point that motivates BEER — the approach requires
  (1) writing raw codewords (including parity bits) and (2) observing the
  syndromes, and *neither* capability exists for on-die ECC;
* systems that do expose this interface (rank-level ECC test modes, FPGA
  memory controllers) can use it directly, and its output should agree with
  what BEER recovers from miscorrections alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DimensionError, SolverError
from repro.gf2.bits import as_bits
from repro.ecc.code import SystematicLinearCode
from repro.ecc.decoder import SyndromeDecoder


class RankLevelEccInterface:
    """A memory-controller-style ECC interface that exposes correction metadata.

    The interface wraps a known code (the simulated controller's ECC) and
    mimics what a test engineer with controller cooperation can do:

    * write an arbitrary *raw codeword* (parity bits included) to a location,
    * read it back through the decoder,
    * observe the reported error syndrome and corrected bit position.

    On-die ECC offers none of these hooks, which is exactly why BEER exists.
    """

    def __init__(self, code: SystematicLinearCode, noise_probability: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        if not 0.0 <= noise_probability <= 1.0:
            raise SolverError("noise probability must lie in [0, 1]")
        self._code = code
        self._decoder = SyndromeDecoder(code)
        self._noise_probability = noise_probability
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def codeword_length(self) -> int:
        """Total codeword length (data + parity) accepted by the interface."""
        return self._code.codeword_length

    @property
    def num_data_bits(self) -> int:
        """Number of data bits per codeword."""
        return self._code.num_data_bits

    def encode(self, dataword) -> np.ndarray:
        """Encode a 0/1 dataword exactly as the controller would."""
        return self._code.encode(dataword)

    def inject_and_report(self, codeword, error_positions) -> int:
        """Write ``codeword`` with errors injected, decode, and report the int syndrome.

        An error position outside ``[0, n)`` raises :class:`DimensionError`.
        """
        length = self._code.codeword_length
        corrupted = as_bits(codeword, length, "codeword")
        for position in error_positions:
            if not 0 <= position < length:
                raise DimensionError(
                    f"error position {position} out of range for n={length}"
                )
            corrupted[position] ^= 1
        if self._noise_probability > 0:
            for position in range(length):
                if self._rng.random() < self._noise_probability:
                    corrupted[position] ^= 1
        return self._decoder.decode(corrupted).syndrome


def reverse_engineer_with_syndromes(
    interface: RankLevelEccInterface,
    trials_per_position: int = 1,
) -> SystematicLinearCode:
    """Recover the parity-check matrix by injecting 1-hot errors (Section 4.1).

    Each single-bit error's reported syndrome is the corresponding column of
    ``H``; with ``trials_per_position > 1`` a majority vote over repeated
    injections tolerates occasional interface noise.
    """
    if trials_per_position < 1:
        raise SolverError("at least one trial per position is required")
    base_codeword = interface.encode(np.zeros(interface.num_data_bits, dtype=np.uint8))

    columns = []
    for position in range(interface.codeword_length):
        votes = {}
        for _ in range(trials_per_position):
            syndrome = interface.inject_and_report(base_codeword, [position])
            votes[syndrome] = votes.get(syndrome, 0) + 1
        winner = max(votes, key=votes.get)
        if winner == 0:
            raise SolverError(
                f"position {position} reported a zero syndrome; the interface "
                "does not behave like a single-error-correcting code"
            )
        columns.append(winner)

    num_parity_bits = interface.codeword_length - interface.num_data_bits
    parity_columns = columns[: interface.num_data_bits]
    identity_columns = columns[interface.num_data_bits :]
    expected_identity = [1 << row for row in range(num_parity_bits)]
    if identity_columns != expected_identity:
        # The interface's parity ordering differs from standard form; remap the
        # syndrome bit order so the recovered matrix is reported in standard form.
        remap = {value: row for row, value in enumerate(identity_columns)}
        if set(identity_columns) != set(expected_identity):
            raise SolverError(
                "parity-bit syndromes are not unit vectors; cannot normalise to "
                "standard form"
            )
        parity_columns = [_remap_bits(column, remap) for column in parity_columns]
    return SystematicLinearCode.from_parity_columns(parity_columns, num_parity_bits)


def _remap_bits(column: int, remap: dict) -> int:
    """Permute syndrome bits so parity position ``i`` maps to unit vector ``e_i``."""
    result = 0
    for source_value, target_row in remap.items():
        source_row = source_value.bit_length() - 1
        if (column >> source_row) & 1:
            result |= 1 << target_row
    return result


def syndromes_match_code(
    interface: RankLevelEccInterface, code: SystematicLinearCode
) -> bool:
    """Check that a candidate code (e.g. recovered by BEER) matches the interface."""
    if code.codeword_length != interface.codeword_length:
        return False
    recovered = reverse_engineer_with_syndromes(interface)
    return recovered == code or _codes_equal_up_to_parity_order(recovered, code)


def _codes_equal_up_to_parity_order(
    first: SystematicLinearCode, second: SystematicLinearCode
) -> bool:
    from repro.ecc.codespace import codes_equivalent

    return codes_equivalent(first, second)
