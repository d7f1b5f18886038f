"""Reverse engineering of cell encodings and ECC dataword layout.

Before BEER can craft k-CHARGED patterns it must know (paper Section 5.1):

* **which cells are true-cells and which are anti-cells** (Section 5.1.1) —
  discovered by writing all-ones and all-zeros patterns, pausing refresh long
  enough to induce retention errors, and observing which rows fail under
  which pattern (true-cells fail when storing 1, anti-cells when storing 0);
* **which addresses share an ECC dataword** (Section 5.1.2) — discovered by
  charging a single byte per region, inducing uncorrectable errors, and
  observing that miscorrections stay confined to the bytes of the same ECC
  word.

Both procedures treat the chip as a black box: they only write, pause refresh
and read, exactly like the paper's experiments on real hardware.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.cell import CellType
from repro.dram.chip import SimulatedDramChip


def discover_cell_types(
    chip: SimulatedDramChip,
    refresh_pause_s: float = 1800.0,
    temperature_c: float = 80.0,
) -> Dict[int, CellType]:
    """Determine each row's cell encoding (true- vs anti-cell).

    Writes the all-ones pattern (only CHARGED true-cells can fail), then the
    all-zeros pattern (only CHARGED anti-cells can fail), pausing refresh for
    ``refresh_pause_s`` each time, and classifies each row by which pattern
    produced data-retention errors.  Rows that never fail are reported as
    true-cells (the common default), matching how a real experiment would treat
    inconclusive rows until longer pauses are tested.
    """
    ones = np.ones(chip.num_data_bits, dtype=np.uint8)
    ones_errors = _row_error_counts(chip, ones, refresh_pause_s, temperature_c)
    zeros_errors = _row_error_counts(chip, ones ^ 1, refresh_pause_s, temperature_c)

    classification: Dict[int, CellType] = {}
    for row in range(chip.geometry.num_rows):
        if zeros_errors[row] > ones_errors[row]:
            classification[row] = CellType.ANTI_CELL
        else:
            classification[row] = CellType.TRUE_CELL
    return classification


def _row_error_counts(
    chip: SimulatedDramChip,
    dataword: np.ndarray,
    refresh_pause_s: float,
    temperature_c: float,
) -> np.ndarray:
    chip.fill(dataword)
    chip.pause_refresh(refresh_pause_s, temperature_c)
    observed = chip.read_all_datawords()
    per_word_errors = np.count_nonzero(observed != dataword, axis=1)
    # Words are numbered row by row, so each row's words are one run.
    geometry = chip.geometry
    return per_word_errors.reshape(geometry.num_rows, geometry.words_per_row).sum(
        axis=1, dtype=np.int64
    )


def discover_dataword_layout(
    chip: SimulatedDramChip,
    region_bytes: Optional[int] = None,
    refresh_pause_s: float = 1800.0,
    temperature_c: float = 80.0,
    regions_to_test: Optional[Sequence[int]] = None,
    cell_types: Optional[Dict[int, CellType]] = None,
) -> List[List[int]]:
    """Group the byte offsets of an addressing region into ECC datawords.

    For every byte offset within a region, the procedure charges only that
    byte while every other byte in the region stays DISCHARGED, induces
    retention errors, and records which byte offsets exhibit errors.
    Miscorrections can only land inside the same ECC word as the charged byte,
    so offsets that co-fail across trials belong together.  The result is a
    partition of ``range(region_bytes)`` into ECC-word groups.

    ``cell_types`` (as produced by :func:`discover_cell_types`) selects the
    correct CHARGED byte value per row — 0xFF for true-cell rows, 0x00 for
    anti-cell rows.  Without it every row is assumed to use true-cells.
    """
    layout = chip.word_layout
    if region_bytes is None:
        region_bytes = layout.region_bytes if layout is not None else chip.row_size_bytes
    num_regions_on_chip = (chip.num_words * (chip.num_data_bits // 8)) // region_bytes
    if regions_to_test is None:
        regions_to_test = range(num_regions_on_chip)
    row_size_bytes = chip.row_size_bytes

    affinity = defaultdict(set)
    for offset in range(region_bytes):
        for region in regions_to_test:
            base = region * region_bytes
            row = base // row_size_bytes
            cell_type = (cell_types or {}).get(row, CellType.TRUE_CELL)
            charged_byte = 0xFF if cell_type is CellType.TRUE_CELL else 0x00
            discharged_byte = 0xFF ^ charged_byte
            payload = bytearray([discharged_byte] * region_bytes)
            payload[offset] = charged_byte
            chip.write_bytes(base, bytes(payload))
            chip.pause_refresh(refresh_pause_s, temperature_c)
            observed = chip.read_bytes(base, region_bytes)
            for other_offset, value in enumerate(observed):
                expected = charged_byte if other_offset == offset else discharged_byte
                if value != expected:
                    affinity[offset].add(other_offset)
                    affinity[other_offset].add(offset)

    return _connected_components(region_bytes, affinity)


def _connected_components(size: int, affinity: Dict[int, set]) -> List[List[int]]:
    """Group offsets into connected components of the co-failure graph."""
    visited = set()
    groups: List[List[int]] = []
    for start in range(size):
        if start in visited:
            continue
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            component.append(node)
            stack.extend(affinity.get(node, ()))
        groups.append(sorted(component))
    return groups


def estimate_dataword_bits(layout_groups: Sequence[Sequence[int]]) -> int:
    """Infer the ECC dataword length in bits from discovered byte groups."""
    sizes = {len(group) for group in layout_groups}
    if len(sizes) != 1:
        # Ambiguous grouping (some words never showed co-failures); report the
        # largest consistent group, which is the best available estimate.
        return max(sizes) * 8
    return sizes.pop() * 8
