"""Behavioural DRAM-chip substrate with on-die ECC.

The paper's experiments run on 80 real LPDDR4 chips; this package provides the
simulated equivalent used by the reproduction.  It models exactly the
properties BEER relies on:

* each cell is a *true-cell* or *anti-cell* (:mod:`repro.dram.cell`); only
  cells in the CHARGED state can suffer data-retention errors, and they fail
  unidirectionally towards DISCHARGED;
* per-cell retention times are fixed per chip (errors are repeatable), their
  spatial distribution is uniform-random, and the failure probability grows
  with the refresh window and with temperature
  (:mod:`repro.dram.retention`);
* datawords are scrambled into ECC words by an address layout — two
  byte-interleaved 16 B words per 32 B region for the profiled chips
  (:mod:`repro.dram.layout`);
* every write is encoded and every read decoded by an on-die SEC Hamming code
  that is invisible at the chip interface (:mod:`repro.dram.chip`);
* occasional transient faults can corrupt reads independently of retention
  behaviour (:mod:`repro.dram.faults`), which exercises BEER's threshold
  filtering.

Manufacturer profiles A/B/C (:mod:`repro.dram.manufacturer`) bundle these
choices the way the paper describes the three anonymised vendors.
"""

from repro.dram.cell import CellType, ChargeState, charge_state_for_bit, bit_for_charge_state
from repro.dram.retention import DataRetentionModel, RetentionCalibration
from repro.dram.layout import ByteInterleavedWordLayout, SequentialWordLayout, CellTypeLayout
from repro.dram.faults import TransientFaultModel, StuckAtFaultModel
from repro.dram.chip import SimulatedDramChip, ChipGeometry
from repro.dram.manufacturer import (
    ManufacturerProfile,
    VENDOR_A,
    VENDOR_B,
    VENDOR_C,
    all_vendors,
)

__all__ = [
    "CellType",
    "ChargeState",
    "charge_state_for_bit",
    "bit_for_charge_state",
    "DataRetentionModel",
    "RetentionCalibration",
    "ByteInterleavedWordLayout",
    "SequentialWordLayout",
    "CellTypeLayout",
    "TransientFaultModel",
    "StuckAtFaultModel",
    "SimulatedDramChip",
    "ChipGeometry",
    "ManufacturerProfile",
    "VENDOR_A",
    "VENDOR_B",
    "VENDOR_C",
    "all_vendors",
]
