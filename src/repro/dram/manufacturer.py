"""Manufacturer profiles for simulated DRAM chips.

The paper studies chips from three anonymised manufacturers (A, B, C) and
observes that:

* all three use on-die ECC with the same dataword layout but apparently
  *different* ECC functions (Figure 3);
* manufacturer A's miscorrection profile looks unstructured, while B's and
  C's show repeating patterns, suggesting systematically organised
  parity-check matrices;
* A and B use only true-cells, while C alternates blocks of true- and
  anti-cell rows (Section 5.1.1).

The profiles below bake these qualitative differences into chip factories so
that the reproduction's "real-chip" experiments (Section 5) have three
distinct vendors to discriminate between.  The actual matrices are of course
not the confidential production functions — they are representative stand-ins
with the same structural flavour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.ecc.code import SystematicLinearCode
from repro.ecc.family import get_family
from repro.dram.cell import CellType
from repro.dram.chip import ChipGeometry, SimulatedDramChip
from repro.dram.faults import TransientFaultModel
from repro.dram.layout import CellTypeLayout
from repro.dram.retention import DataRetentionModel


def _unstructured_columns(
    num_data_bits: int, available: Sequence[int], seed: int
) -> List[int]:
    """Vendor-A style: a pseudo-random arrangement of legal columns."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(available))[:num_data_bits]
    return [available[int(i)] for i in order]


def _ascending_columns(
    num_data_bits: int, available: Sequence[int], seed: int
) -> List[int]:
    """Vendor-B style: columns in ascending numeric order (regular structure)."""
    del seed
    return list(available[:num_data_bits])


def _weight_grouped_columns(
    num_data_bits: int, available: Sequence[int], seed: int
) -> List[int]:
    """Vendor-C style: columns grouped by Hamming weight (a different regularity)."""
    del seed
    grouped = sorted(available, key=lambda value: (bin(value).count("1"), value))
    return grouped[:num_data_bits]


@dataclass(frozen=True)
class ManufacturerProfile:
    """A recipe for building simulated chips from one (anonymised) manufacturer."""

    name: str
    column_strategy: Callable[[int, Sequence[int], int], List[int]]
    cell_blocks: Optional[Sequence[int]] = None  # None => all true-cells
    default_dataword_bits: int = 32
    description: str = ""
    extra_seed: int = field(default=0)

    def ecc_function(
        self,
        num_data_bits: Optional[int] = None,
        num_parity_bits: Optional[int] = None,
        code_family: str = "sec-hamming",
    ) -> SystematicLinearCode:
        """Return this manufacturer's on-die ECC function for the given width.

        ``code_family`` selects the design space the vendor's column strategy
        arranges (any registered family with a searchable column space, e.g.
        ``"secded-extended-hamming"``); the strategy itself — unstructured,
        ascending, weight-grouped — stays a vendor property.
        """
        family = get_family(code_family)
        data_bits = num_data_bits if num_data_bits is not None else self.default_dataword_bits
        parity_bits = (
            num_parity_bits
            if num_parity_bits is not None
            else family.min_parity_bits(data_bits)
        )
        available = family.candidate_columns(parity_bits)
        columns = self.column_strategy(data_bits, available, self.extra_seed)
        return family.construct(data_bits, parity_bits, columns=columns)

    def cell_layout(self) -> CellTypeLayout:
        """Return this manufacturer's true/anti-cell row organisation."""
        if self.cell_blocks is None:
            return CellTypeLayout.uniform(CellType.TRUE_CELL)
        return CellTypeLayout.alternating(list(self.cell_blocks), first=CellType.TRUE_CELL)

    def make_chip(
        self,
        num_data_bits: Optional[int] = None,
        geometry: Optional[ChipGeometry] = None,
        seed: int = 0,
        transient_fault_probability: float = 0.0,
        retention_model: Optional[DataRetentionModel] = None,
        code_family: str = "sec-hamming",
    ) -> SimulatedDramChip:
        """Build a simulated chip of this manufacturer.

        ``seed`` selects the chip instance (its per-cell retention times); the
        ECC function and layouts are manufacturer properties and do not change
        between chips of the same model, matching the paper's observation that
        chips of the same model share one ECC function.  ``code_family``
        selects which family the on-die ECC function is drawn from.
        """
        return SimulatedDramChip(
            code=self.ecc_function(num_data_bits, code_family=code_family),
            geometry=geometry,
            cell_layout=self.cell_layout(),
            retention_model=retention_model,
            transient_faults=TransientFaultModel(transient_fault_probability),
            seed=seed,
        )


#: Manufacturer A: true-cells only, unstructured parity-check matrix.
VENDOR_A = ManufacturerProfile(
    name="A",
    column_strategy=_unstructured_columns,
    cell_blocks=None,
    description="True-cells only; apparently unstructured parity-check matrix.",
    extra_seed=0xA,
)

#: Manufacturer B: true-cells only, regular ascending-column matrix.
VENDOR_B = ManufacturerProfile(
    name="B",
    column_strategy=_ascending_columns,
    cell_blocks=None,
    description="True-cells only; regular ascending-syndrome parity-check matrix.",
    extra_seed=0xB,
)

#: Manufacturer C: alternating true/anti-cell row blocks, weight-grouped matrix.
VENDOR_C = ManufacturerProfile(
    name="C",
    column_strategy=_weight_grouped_columns,
    cell_blocks=(8, 8, 12),
    description=(
        "50/50 true-/anti-cells in alternating row blocks; weight-grouped "
        "parity-check matrix."
    ),
    extra_seed=0xC,
)


def all_vendors() -> List[ManufacturerProfile]:
    """Return the three manufacturer profiles in order A, B, C."""
    return [VENDOR_A, VENDOR_B, VENDOR_C]
