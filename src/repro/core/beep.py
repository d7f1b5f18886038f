"""BEEP: Bit-Exact Error Profiling (paper Section 7.1).

BEEP uses the ECC function recovered by BEER to identify the number and
bit-exact locations of *pre-correction* error-prone cells — including cells in
the invisible parity bits — purely from observed post-correction errors.

The three phases of Figure 7:

1. **Craft a test pattern** for the codeword bit under test: the bit is placed
   in the CHARGED state, its physical neighbours DISCHARGED (worst-case
   coupling), and the remaining bits are chosen so that a miscorrection
   becomes observable if the bit fails together with already-identified
   error-prone cells.  Every charge constraint is affine over the dataword:
   codeword bit ``p`` of dataword ``d`` is ``popcount(G_p & d) mod 2`` for
   the row ``G_p`` of the generator, held as an int mask.  A pattern is the
   solution of a few such rows (:func:`repro.gf2.solve_affine`).
2. **Run the experiment**: write the pattern, induce retention errors, read
   back the post-correction dataword.
3. **Infer pre-correction errors**: an observed miscorrection at DISCHARGED
   data bit ``j`` reveals the syndrome ``H_j`` of the unknown pre-correction
   codeword ``c'``; since the data part of ``c'`` is known, the parity part
   follows uniquely (Equation 4) and ``c ⊕ c'`` pinpoints the raw errors.

Datawords and codewords are int masks throughout (bit ``i`` = position
``i``).  Where a pattern is handed out or a word under test is written and
read, they cross in the format of :mod:`repro.gf2.bits`: 1-D ``uint8``
arrays of 0s and 1s, checked with :func:`~repro.gf2.bits.as_bits`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import DimensionError, PatternCraftingError
from repro.gf2 import solve_affine
from repro.gf2.bits import as_bits, bits_to_int, fields_equal, int_to_bits
from repro.ecc.code import SystematicLinearCode
from repro.dram.cell import CellType


@dataclass(frozen=True, eq=False)
class CraftedPattern:
    """A BEEP test pattern plus the bookkeeping needed to interpret results."""

    #: The dataword to write (0/1 ``uint8``).
    dataword: np.ndarray
    #: The codeword the chip will store (assuming the recovered ECC function).
    codeword: np.ndarray
    #: The codeword bit this pattern targets.
    target_bit: int
    #: True when the miscorrection-possibility constraint could be satisfied.
    miscorrection_armed: bool

    __eq__ = fields_equal
    __hash__ = None


@dataclass
class BeepResult:
    """Outcome of profiling one ECC word with BEEP."""

    identified_errors: Tuple[int, ...]
    passes_used: int
    patterns_tested: int
    miscorrections_observed: int

    def identified_set(self) -> FrozenSet[int]:
        """The identified pre-correction error positions as a set."""
        return frozenset(self.identified_errors)


class WordUnderTest:
    """Interface BEEP needs from a device: write a dataword, stress, read back."""

    def test(self, dataword: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        """Write ``dataword``, induce retention errors, and return the read dataword."""
        raise NotImplementedError


class SimulatedWordUnderTest(WordUnderTest):
    """A standalone simulated ECC word with a fixed set of error-prone cells.

    Each error-prone cell fails with probability ``per_bit_probability``
    whenever it is CHARGED during a test — the model behind the paper's
    Figures 8 and 9.
    """

    def __init__(
        self,
        code: SystematicLinearCode,
        error_prone_positions: Iterable[int],
        per_bit_probability: float = 1.0,
        cell_type: CellType = CellType.TRUE_CELL,
        rng: Optional[np.random.Generator] = None,
    ):
        self._code = code
        positions = sorted(set(int(p) for p in error_prone_positions))
        for position in positions:
            if not 0 <= position < code.codeword_length:
                raise DimensionError(
                    f"error-prone position {position} out of range for n={code.codeword_length}"
                )
        if not 0.0 <= per_bit_probability <= 1.0:
            raise DimensionError("per-bit error probability must lie in [0, 1]")
        self._error_prone = positions
        self._per_bit_probability = per_bit_probability
        self._cell_type = cell_type
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def error_prone_positions(self) -> Tuple[int, ...]:
        """Ground-truth error-prone cell positions (used only for evaluation)."""
        return tuple(self._error_prone)

    @property
    def code(self) -> SystematicLinearCode:
        """The on-die ECC function of the simulated word."""
        return self._code

    def test(self, dataword: np.ndarray) -> np.ndarray:
        """Encode, decay error-prone CHARGED cells probabilistically, decode."""
        code = self._code
        codeword = code.encode_int(
            bits_to_int(as_bits(dataword, code.num_data_bits, "dataword"))
        )
        charged_value = 1 if self._cell_type is CellType.TRUE_CELL else 0
        for position in self._error_prone:
            if (codeword >> position) & 1 != charged_value:
                continue
            if self._rng.random() < self._per_bit_probability:
                codeword ^= 1 << position
        # SyndromeDecoder's policy, applied to the int codeword directly.
        if not code.detect_only:
            position = code.syndrome_to_position(code.syndrome_int(codeword))
            if position is not None:
                codeword ^= 1 << position
        return int_to_bits(codeword & ((1 << code.num_data_bits) - 1), code.num_data_bits)


class ChipWordUnderTest(WordUnderTest):
    """Adapter that exposes one word of a :class:`SimulatedDramChip` to BEEP."""

    def __init__(self, chip, word_index: int, refresh_pause_s: float, temperature_c: float = 80.0):
        self._chip = chip
        self._word_index = word_index
        self._refresh_pause_s = refresh_pause_s
        self._temperature_c = temperature_c

    def test(self, dataword: np.ndarray) -> np.ndarray:
        """Write, pause refresh, read back the post-correction dataword."""
        self._chip.write_dataword(self._word_index, dataword)
        self._chip.pause_refresh(self._refresh_pause_s, self._temperature_c)
        return self._chip.read_dataword(self._word_index)


class BeepProfiler:
    """Infers pre-correction error locations using a known ECC function."""

    def __init__(
        self,
        code: SystematicLinearCode,
        cell_type: CellType = CellType.TRUE_CELL,
        max_combination_size: int = 2,
    ):
        self._code = code
        self._cell_type = cell_type
        self._charged_value = 1 if cell_type is CellType.TRUE_CELL else 0
        if max_combination_size < 1:
            raise PatternCraftingError("combination size must be at least 1")
        self._max_combination_size = max_combination_size
        #: Row ``p`` of the generator ``G`` as a data-bit mask.
        self._generator_rows = (
            tuple(1 << bit for bit in range(code.num_data_bits)) + code.parity_row_ints
        )

    @property
    def code(self) -> SystematicLinearCode:
        """The ECC function BEEP reasons with (typically recovered by BEER)."""
        return self._code

    # -- phase 1: pattern crafting ------------------------------------------------
    def craft_pattern(
        self, target_bit: int, known_errors: Iterable[int] = (), phase: int = 0
    ) -> CraftedPattern:
        """Craft a test pattern for ``target_bit`` given already-known error cells.

        The pattern satisfies, in priority order:

        1. the target is CHARGED and its neighbours DISCHARGED, and the target
           failing together with a subset of known errors produces an
           observable miscorrection;
        2. failing that, constraint (1) without the neighbour requirement;
        3. failing that, the bootstrap pattern: target CHARGED, neighbours
           DISCHARGED, and the remaining data bits alternating
           CHARGED/DISCHARGED so coincident failures of unknown error-prone
           cells stay observable.  ``phase`` flips which half of the bits is
           CHARGED, so successive passes charge complementary cell sets.
        """
        dataword, armed = self._craft(target_bit, known_errors, phase)
        return CraftedPattern(
            dataword=int_to_bits(dataword, self._code.num_data_bits),
            codeword=int_to_bits(self._code.encode_int(dataword), self._code.codeword_length),
            target_bit=target_bit,
            miscorrection_armed=armed,
        )

    def _craft(
        self, target_bit: int, known_errors: Iterable[int], phase: int
    ) -> Tuple[int, bool]:
        """The int dataword of :meth:`craft_pattern` and whether it is armed."""
        if not 0 <= target_bit < self._code.codeword_length:
            raise PatternCraftingError(
                f"target bit {target_bit} out of range for n={self._code.codeword_length}"
            )
        known = sorted(set(int(e) for e in known_errors) - {target_bit})
        for require_adjacency in (True, False):
            dataword = self._craft_miscorrection_prone(target_bit, known, require_adjacency)
            if dataword is not None:
                return dataword, True
        return self._bootstrap_pattern(target_bit, phase), False

    def _craft_miscorrection_prone(
        self, target_bit: int, known_errors: Sequence[int], require_adjacency: bool
    ) -> Optional[int]:
        max_size = min(self._max_combination_size, len(known_errors))
        for combination_size in range(1, max_size + 1):
            for combination in itertools.combinations(known_errors, combination_size):
                syndrome_value = self._code.column_int(target_bit)
                for error in combination:
                    syndrome_value ^= self._code.column_int(error)
                miscorrection_target = self._syndrome_to_data_bit(syndrome_value)
                if miscorrection_target is None:
                    continue
                if miscorrection_target == target_bit or miscorrection_target in combination:
                    continue
                charge_constraints = {target_bit: 1}
                for error in combination:
                    charge_constraints[error] = 1
                charge_constraints[miscorrection_target] = 0
                if require_adjacency:
                    for neighbour in (target_bit - 1, target_bit + 1):
                        if 0 <= neighbour < self._code.codeword_length:
                            charge_constraints.setdefault(neighbour, 0)
                dataword = self._solve_charge_constraints(charge_constraints)
                if dataword is not None:
                    return dataword
        return None

    def _bootstrap_pattern(self, target_bit: int, phase: int = 0) -> int:
        """Pattern used while no error cells are known yet.

        The target is CHARGED, its neighbours DISCHARGED, and the remaining
        data bits alternate CHARGED/DISCHARGED.  Charging roughly half of the
        word gives unknown error-prone cells a chance to fail together, while
        keeping roughly half of the data bits DISCHARGED so that the resulting
        miscorrections stay observable.  ``phase`` selects which half is
        CHARGED so repeated passes cover complementary cell sets.
        """
        num_data_bits = self._code.num_data_bits
        data_mask = (1 << num_data_bits) - 1
        charges = sum(1 << index for index in range(phase % 2, num_data_bits, 2))
        if target_bit < num_data_bits:
            neighbours = (1 << target_bit + 1 | 1 << target_bit >> 1) & data_mask
            charges = charges & ~neighbours | 1 << target_bit
        dataword = charges if self._charged_value == 1 else charges ^ data_mask
        if target_bit < num_data_bits:
            return dataword
        # Parity-bit target: its charge is an affine function of the dataword.
        # If the alternating pattern leaves the target parity cell not CHARGED,
        # toggle the lowest data bit in that parity row's support.
        row = self._generator_rows[target_bit]
        if (row & dataword).bit_count() & 1 != self._charged_value:
            if not row:
                raise PatternCraftingError(
                    f"parity bit {target_bit} does not depend on any data bit"
                )
            dataword ^= row & -row
        return dataword

    def _solve_charge_constraints(self, charge_by_position: dict) -> Optional[int]:
        """Solve for a dataword whose codeword has the requested charge states.

        Charge states translate into bit values through the cell convention;
        each codeword bit is a linear function of the dataword, so the
        constraints form a GF(2) system ``A d = b`` over the generator rows.
        Returns the int dataword, or None if the system is infeasible.
        """
        flip = 1 - self._charged_value
        positions = list(charge_by_position)
        return solve_affine(
            [self._generator_rows[position] for position in positions],
            [charge_by_position[position] ^ flip for position in positions],
        )

    def _syndrome_to_data_bit(self, syndrome_value: int) -> Optional[int]:
        position = self._code.syndrome_to_position(syndrome_value)
        if position is None or position >= self._code.num_data_bits:
            return None
        return position

    # -- phase 3: inference ------------------------------------------------------
    def infer_errors_from_observation(
        self, pattern: CraftedPattern, observed_dataword: np.ndarray
    ) -> FrozenSet[int]:
        """Translate one observed read into pre-correction error positions.

        Every post-correction error at a DISCHARGED data bit is a
        miscorrection; its position reveals the syndrome of the pre-correction
        codeword, from which the full pre-correction error pattern follows.
        """
        errors = self._infer(
            bits_to_int(pattern.dataword), self._read_int(observed_dataword)
        )
        return frozenset(_positions(errors))

    def _read_int(self, observed_dataword: np.ndarray) -> int:
        return bits_to_int(
            as_bits(observed_dataword, self._code.num_data_bits, "observed dataword")
        )

    def _infer(self, written: int, observed: int) -> int:
        """The mask of pre-correction errors one int read reveals (Equation 4)."""
        code = self._code
        written_codeword = code.encode_int(written)
        discharged = ~written if self._charged_value == 1 else written
        errors = 0
        for position in _positions((observed ^ written) & discharged):
            pre_correction = code.encode_int(observed ^ 1 << position) ^ (
                code.column_int(position) << code.num_data_bits
            )
            errors |= pre_correction ^ written_codeword
        return errors

    # -- full profiling loop -------------------------------------------------------
    def profile(
        self,
        word: WordUnderTest,
        num_passes: int = 1,
        trials_per_pattern: int = 1,
    ) -> BeepResult:
        """Profile one ECC word: iterate over codeword bits, craft, test, infer."""
        if num_passes < 1 or trials_per_pattern < 1:
            raise PatternCraftingError("passes and trials must be at least 1")
        known_errors: Set[int] = set()
        patterns_tested = 0
        miscorrections_observed = 0
        for pass_index in range(num_passes):
            for target_bit in range(self._code.codeword_length):
                dataword, _ = self._craft(target_bit, known_errors, pass_index)
                written = int_to_bits(dataword, self._code.num_data_bits)
                for _ in range(trials_per_pattern):
                    patterns_tested += 1
                    inferred = self._infer(dataword, self._read_int(word.test(written)))
                    if inferred:
                        miscorrections_observed += 1
                        known_errors.update(_positions(inferred))
        return BeepResult(
            identified_errors=tuple(sorted(known_errors)),
            passes_used=num_passes,
            patterns_tested=patterns_tested,
            miscorrections_observed=miscorrections_observed,
        )


def _positions(mask: int) -> List[int]:
    """The set bits of an int mask, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions
