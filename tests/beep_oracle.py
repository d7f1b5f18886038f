"""BEEP on 0/1 ``uint8`` arrays and a numpy RREF solve, kept as a test oracle.

:mod:`repro.core.beep` crafts, encodes and infers on integer bit masks.
This is the profiler it replaced, with its GF(2) elimination crafter, and
the simulated word it was tested against; ``tests/test_core_beep.py``
requires identical patterns, results and random draws from both.
"""

import itertools
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from gf2_oracle import gf2_mul, gf2_solve
from repro.core.beep import BeepResult, CraftedPattern, WordUnderTest
from repro.dram.cell import CellType
from repro.ecc.code import SystematicLinearCode
from repro.ecc.decoder import SyndromeDecoder
from repro.exceptions import DimensionError, PatternCraftingError, SingularMatrixError
from repro.gf2.bits import as_bits, int_to_bits


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
        self._decoder = SyndromeDecoder(code)
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
        codeword = self._code.encode(dataword)
        charged_value = 1 if self._cell_type is CellType.TRUE_CELL else 0
        for position in self._error_prone:
            if codeword[position] != charged_value:
                continue
            if self._rng.random() < self._per_bit_probability:
                codeword[position] ^= 1
        return self._decoder.decode_dataword(codeword)


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
        if not 0 <= target_bit < self._code.codeword_length:
            raise PatternCraftingError(
                f"target bit {target_bit} out of range for n={self._code.codeword_length}"
            )
        known = sorted(set(int(e) for e in known_errors) - {target_bit})

        for require_adjacency in (True, False):
            dataword = self._craft_miscorrection_prone(target_bit, known, require_adjacency)
            if dataword is not None:
                return CraftedPattern(
                    dataword=dataword,
                    codeword=self._code.encode(dataword),
                    target_bit=target_bit,
                    miscorrection_armed=True,
                )
        dataword = self._bootstrap_pattern(target_bit, phase)
        return CraftedPattern(
            dataword=dataword,
            codeword=self._code.encode(dataword),
            target_bit=target_bit,
            miscorrection_armed=False,
        )

    def _craft_miscorrection_prone(
        self, target_bit: int, known_errors: Sequence[int], require_adjacency: bool
    ) -> Optional[np.ndarray]:
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
                    for neighbour in self._neighbours(target_bit):
                        charge_constraints.setdefault(neighbour, 0)
                dataword = self._solve_charge_constraints(charge_constraints)
                if dataword is not None:
                    return dataword
        return None

    def _bootstrap_pattern(self, target_bit: int, phase: int = 0) -> np.ndarray:
        """Pattern used while no error cells are known yet.

        The target is CHARGED, its neighbours DISCHARGED, and the remaining
        data bits alternate CHARGED/DISCHARGED.  Charging roughly half of the
        word gives unknown error-prone cells a chance to fail together, while
        keeping roughly half of the data bits DISCHARGED so that the resulting
        miscorrections stay observable.  ``phase`` selects which half is
        CHARGED so repeated passes cover complementary cell sets.
        """
        num_data_bits = self._code.num_data_bits
        parity = phase % 2
        if target_bit < num_data_bits:
            charges = []
            for index in range(num_data_bits):
                if index == target_bit:
                    charges.append(1)
                elif abs(index - target_bit) == 1:
                    charges.append(0)
                else:
                    charges.append(1 if index % 2 == parity else 0)
            bits = [
                charge if self._charged_value == 1 else 1 - charge for charge in charges
            ]
            return np.array(bits, dtype=np.uint8)

        # Parity-bit target: its charge is an affine function of the dataword.
        # Start from the alternating pattern and, if the target parity cell is
        # not CHARGED, toggle one data bit in that parity row's support.
        charges = [1 if index % 2 == parity else 0 for index in range(num_data_bits)]
        bits = [charge if self._charged_value == 1 else 1 - charge for charge in charges]
        dataword = np.array(bits, dtype=np.uint8)
        codeword = self._code.encode(dataword)
        if codeword[target_bit] != self._charged_value:
            parity_row = self._code.parity_submatrix[target_bit - num_data_bits]
            support = np.flatnonzero(parity_row)
            if not support.size:
                raise PatternCraftingError(
                    f"parity bit {target_bit} does not depend on any data bit"
                )
            dataword[support[0]] ^= 1
        return dataword

    def _neighbours(self, position: int) -> List[int]:
        neighbours = []
        if position > 0:
            neighbours.append(position - 1)
        if position < self._code.codeword_length - 1:
            neighbours.append(position + 1)
        return neighbours

    def _solve_charge_constraints(self, charge_by_position: dict) -> Optional[np.ndarray]:
        bit_by_position = {
            position: charge if self._charged_value == 1 else 1 - charge
            for position, charge in charge_by_position.items()
        }
        generator = self._code.generator_matrix
        rows = generator[list(bit_by_position)]
        rhs = np.array(list(bit_by_position.values()), dtype=np.uint8)
        try:
            return gf2_solve(rows, rhs)
        except SingularMatrixError:
            return None

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
        observed = as_bits(observed_dataword, self._code.num_data_bits, "observed dataword")
        written_data = pattern.dataword
        written_codeword = pattern.codeword
        discharged_value = 1 - self._charged_value

        errors: Set[int] = set()
        difference = np.flatnonzero(observed ^ written_data)
        for position in difference:
            if written_data[position] != discharged_value:
                continue  # ambiguous: could be an uncorrected retention error
            syndrome = int_to_bits(
                self._code.column_int(int(position)), self._code.num_parity_bits
            )
            pre_correction_data = observed.copy()
            pre_correction_data[position] ^= 1
            parity_from_data = gf2_mul(self._code.parity_submatrix, pre_correction_data)
            pre_correction_parity = parity_from_data ^ syndrome
            pre_correction_codeword = np.concatenate(
                [pre_correction_data, pre_correction_parity]
            )
            error_pattern = pre_correction_codeword ^ written_codeword
            errors.update(np.flatnonzero(error_pattern).tolist())
        return frozenset(errors)

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
                pattern = self.craft_pattern(target_bit, known_errors, phase=pass_index)
                for _ in range(trials_per_pattern):
                    patterns_tested += 1
                    observed = word.test(pattern.dataword)
                    inferred = self.infer_errors_from_observation(pattern, observed)
                    if inferred:
                        miscorrections_observed += 1
                        known_errors.update(inferred)
        return BeepResult(
            identified_errors=tuple(sorted(known_errors)),
            passes_used=num_passes,
            patterns_tested=patterns_tested,
            miscorrections_observed=miscorrections_observed,
        )
