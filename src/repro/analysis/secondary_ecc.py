"""Secondary (rank-level) ECC co-design using a known on-die ECC function.

Use case 7.2.1 of the paper: once BEER has revealed the on-die ECC function, a
system designer can predict which data bits the on-die ECC makes *more*
error-prone (through miscorrections) and bias a second level of protection —
e.g. rank-level ECC in the memory controller — towards those bits.

The designer here produces a simple, quantitative artefact: the per-bit
post-correction error probability under a given raw bit error rate, and a
recommended set of bits to cover with the strongest secondary protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.ecc.code import SystematicLinearCode
from repro.einsim import EinsimSimulator, UniformRandomInjector


@dataclass(frozen=True)
class SecondaryEccPlan:
    """Recommendation for a secondary error-mitigation mechanism."""

    #: Per-data-bit post-correction error probability under the studied RBER.
    per_bit_error_probability: List[float]
    #: Data bits ranked from most to least error-prone.
    bits_by_vulnerability: List[int]
    #: The bits recommended for asymmetric (stronger) protection.
    protected_bits: List[int]
    #: Fraction of all observed post-correction errors covered by the plan.
    coverage: float

    @property
    def num_protected_bits(self) -> int:
        """Number of bits receiving stronger protection."""
        return len(self.protected_bits)


class SecondaryEccDesigner:
    """Derives an asymmetric secondary-protection plan from an on-die ECC function."""

    def __init__(self, code: SystematicLinearCode, seed: Optional[int] = 0):
        self._code = code
        self._seed = seed

    @property
    def code(self) -> SystematicLinearCode:
        """The on-die ECC function (e.g. recovered by BEER)."""
        return self._code

    def characterise(
        self,
        bit_error_rate: float,
        num_words: int = 100_000,
        dataword: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Monte-Carlo estimate of the per-data-bit post-correction error probability.

        ``dataword`` is a 0/1 sequence of ``k`` bits (all ones by default).
        """
        simulator = EinsimSimulator(self._code, seed=self._seed)
        word = np.ones(self._code.num_data_bits, dtype=np.uint8) if dataword is None else dataword
        result = simulator.simulate(word, num_words, UniformRandomInjector(bit_error_rate))
        return result.post_correction_error_probabilities

    def plan(
        self,
        bit_error_rate: float,
        protection_budget_bits: int,
        num_words: int = 100_000,
    ) -> SecondaryEccPlan:
        """Recommend which data bits the secondary ECC should protect most strongly.

        ``protection_budget_bits`` is how many data bits the secondary
        mechanism can afford to cover asymmetrically (e.g. how many bits map
        onto the strongest symbols of a rank-level Reed-Solomon layout).
        """
        if protection_budget_bits < 0 or protection_budget_bits > self._code.num_data_bits:
            raise ValidationError("protection budget must lie within the dataword length")
        probabilities = self.characterise(bit_error_rate, num_words)
        ranked = list(np.argsort(-probabilities))
        protected = sorted(int(bit) for bit in ranked[:protection_budget_bits])
        total = float(probabilities.sum())
        coverage = (
            float(probabilities[protected].sum()) / total if total > 0 else 0.0
        )
        return SecondaryEccPlan(
            per_bit_error_probability=[float(p) for p in probabilities],
            bits_by_vulnerability=[int(bit) for bit in ranked],
            protected_bits=protected,
            coverage=coverage,
        )
