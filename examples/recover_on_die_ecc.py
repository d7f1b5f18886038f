"""Full BEER campaign against a simulated LPDDR4-style chip (paper Section 5).

The script treats the chip as a black box — exactly what a third-party test
engineer sees — and walks through the complete methodology:

1. discover which rows use true-cells vs anti-cells (Section 5.1.1),
2. discover how byte addresses map onto ECC datawords (Section 5.1.2),
3. run the {1,2}-CHARGED pattern campaign over a refresh-window sweep and
   build the miscorrection profile (Section 5.1.3, 5.2),
4. solve for the on-die ECC function and check its uniqueness (Section 5.3),
5. compare against the chip's ground-truth function (only possible here
   because the chip is simulated).

Run with::

    python examples/recover_on_die_ecc.py [vendor]   # vendor in {A, B, C}
"""

import sys

from repro import (
    BeerExperiment,
    ChipGeometry,
    DataRetentionModel,
    ExperimentConfig,
    codes_equivalent,
)
from repro.core import discover_dataword_layout
from repro.core.layout_re import estimate_dataword_bits
from repro.dram import CellType, all_vendors
from repro.dram.retention import RetentionCalibration


#: The simulated chips compress the paper's minutes-long refresh windows into
#: seconds so the campaign runs quickly at laptop scale.
FAST_RETENTION = DataRetentionModel(RetentionCalibration(1.0, 0.02, 60.0, 0.5))


def main(vendor_name: str = "B") -> None:
    vendor = next(v for v in all_vendors() if v.name == vendor_name.upper())
    chip = vendor.make_chip(
        num_data_bits=16,
        geometry=ChipGeometry(num_rows=84, words_per_row=8),
        seed=7,
        retention_model=FAST_RETENTION,
    )
    print(f"Simulated a chip from manufacturer {vendor.name}: {vendor.description}")
    print(f"The chip holds {chip.num_words} ECC words of {chip.num_data_bits} data bits.\n")

    # The {1,2}-CHARGED set for a 16-bit dataword has 136 patterns, so the
    # campaign sweeps several windows and rounds to give every pattern enough
    # word-observations to expose all of its possible miscorrections.
    config = ExperimentConfig(
        pattern_weights=(1, 2),
        refresh_windows_s=(30.0, 45.0, 60.0, 75.0),
        rounds_per_window=10,
        threshold=0.0,
        discover_cell_encoding=True,
        discovery_pause_s=60.0,
    )
    experiment = BeerExperiment(chip, config)

    # Step 1: cell-encoding discovery (Section 5.1.1).
    cell_types = experiment.discover_cell_types()
    num_anti = sum(1 for value in cell_types.values() if value is CellType.ANTI_CELL)
    print(f"Step 1  cell encodings: {len(cell_types) - num_anti} true-cell rows, "
          f"{num_anti} anti-cell rows.")

    # Step 2: dataword-layout discovery (Section 5.1.2).
    groups = discover_dataword_layout(
        chip, refresh_pause_s=75.0, cell_types=cell_types,
        regions_to_test=range(0, 24),
    )
    print(f"Step 2  dataword layout: byte groups per region = {groups} "
          f"(≈{estimate_dataword_bits(groups)}-bit datawords).")

    # Steps 3-4: miscorrection profiling + solving.
    result = BeerExperiment(chip, config).run(solve=True)
    profile = result.profile
    print(f"Step 3  miscorrection profile: {len(profile.patterns)} patterns, "
          f"{profile.total_miscorrections} miscorrection entries.")
    solution = result.solution
    print(f"Step 4  BEER solve: {solution.num_solutions} candidate function(s) "
          f"in {solution.runtime_seconds:.2f} s "
          f"({solution.nodes_visited} search nodes).")

    # Step 5: ground-truth comparison (simulation-only luxury).
    recovered = result.recovered_code
    matches = codes_equivalent(recovered, chip.code)
    print(f"Step 5  ground truth check: recovered function "
          f"{'MATCHES' if matches else 'DOES NOT MATCH'} the chip's real function.\n")
    print("Recovered parity-check matrix H = [P | I]:")
    for row in recovered.parity_check_matrix:
        print(" ".join(str(bit) for bit in row))
    if not matches:
        raise SystemExit(1)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "B")
