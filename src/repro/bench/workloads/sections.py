"""Workloads: the paper's section studies (5.1.x, 5.3, 6.3) and the solver
backend ablation, through the harness.

As with the figure workloads, each study runs as one ``default`` condition
(or one condition per compared backend) whose oracles encode the paper's
claim; seeds and scales are fixed per tier.
"""

from __future__ import annotations

from typing import Mapping

from repro.bench.registry import BenchContext, WorkloadResult, register_workload

SECTION_TAGS = ("section",)


def _fast_retention():
    from repro.dram import DataRetentionModel
    from repro.dram.retention import FAST_RETENTION

    return DataRetentionModel(FAST_RETENTION)


# ---------------------------------------------------------------------------
# Section 5.1.1 — true-/anti-cell layout discovery
# ---------------------------------------------------------------------------
def _run_sec511(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.core import discover_cell_types
    from repro.dram import CellType, ChipGeometry, VENDOR_A, VENDOR_C

    geometry = ChipGeometry(*params["geometry"])
    retention = _fast_retention()
    chips = {
        vendor.name: vendor.make_chip(
            num_data_bits=params["num_data_bits"],
            geometry=geometry,
            seed=params["seed"],
            retention_model=retention,
        )
        for vendor in (VENDOR_A, VENDOR_C)
    }
    timing = context.control.time_once(
        lambda: discover_cell_types(
            chips["C"], refresh_pause_s=params["refresh_pause_s"]
        )
    )
    classification_c = timing.last_result
    classification_a = discover_cell_types(
        chips["A"], refresh_pause_s=params["refresh_pause_s"]
    )

    ground_truth = VENDOR_C.cell_layout()
    matches = sum(
        1
        for row, value in classification_c.items()
        if value is ground_truth.cell_type_for_row(row)
    )
    accuracy = matches / geometry.num_rows
    result = WorkloadResult()
    result.artifacts.update(
        {
            "vendor_c_accuracy": accuracy,
            "vendor_c_anti_rows": sum(
                1 for v in classification_c.values() if v is CellType.ANTI_CELL
            ),
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds, "layout_accuracy": accuracy},
        oracles={
            "vendor_a_all_true_cells": all(
                value is CellType.TRUE_CELL for value in classification_a.values()
            ),
            "vendor_c_uses_anti_cells": (
                CellType.ANTI_CELL in classification_c.values()
            ),
            "vendor_c_layout_recovered": accuracy >= 0.9,
        },
    )
    return result


register_workload(
    name="sec511-cell-layout",
    description=(
        "section 5.1.1: data-0/data-1 retention tests reveal each row's "
        "true-/anti-cell encoding"
    ),
    tiers={
        "smoke": dict(num_data_bits=8, geometry=(16, 8), refresh_pause_s=90.0, seed=0),
        "quick": dict(num_data_bits=16, geometry=(20, 8), refresh_pause_s=90.0, seed=0),
        "full": dict(num_data_bits=16, geometry=(28, 8), refresh_pause_s=90.0, seed=0),
    },
    run=_run_sec511,
    tags=SECTION_TAGS,
)


# ---------------------------------------------------------------------------
# Section 5.1.2 — ECC dataword layout discovery
# ---------------------------------------------------------------------------
def _run_sec512(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.core import discover_dataword_layout
    from repro.core.layout_re import estimate_dataword_bits
    from repro.dram import ChipGeometry, DataRetentionModel, SimulatedDramChip
    from repro.dram.layout import ByteInterleavedWordLayout
    from repro.dram.retention import RetentionCalibration
    from repro.ecc import hamming_code

    chip = SimulatedDramChip(
        hamming_code(params["num_data_bits"]),
        ChipGeometry(*params["geometry"]),
        word_layout=ByteInterleavedWordLayout(
            dataword_bytes=params["dataword_bytes"],
            words_per_region=params["words_per_region"],
        ),
        retention_model=DataRetentionModel(
            RetentionCalibration(1.0, 0.02, 60.0, 0.6)
        ),
        seed=params["seed"],
    )
    timing = context.control.time_once(
        lambda: discover_dataword_layout(
            chip, refresh_pause_s=params["refresh_pause_s"]
        )
    )
    groups = timing.last_result
    multi_byte_groups = [set(group) for group in groups if len(group) > 1]
    interleaving_clean = bool(multi_byte_groups) and all(
        group in ({0, 2}, {1, 3}) for group in multi_byte_groups
    )
    result = WorkloadResult()
    result.artifacts.update(
        {
            "groups": [sorted(group) for group in groups],
            "estimated_dataword_bits": estimate_dataword_bits(groups),
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={"byte_interleaving_recovered": interleaving_clean},
    )
    return result


register_workload(
    name="sec512-dataword-layout",
    description=(
        "section 5.1.2: uncorrectable-error injection confines miscorrections "
        "to one ECC word, revealing the byte-interleaved dataword layout"
    ),
    tiers={
        "smoke": dict(
            num_data_bits=16, geometry=(12, 8), dataword_bytes=2,
            words_per_region=2, refresh_pause_s=95.0, seed=4,
        ),
        "quick": dict(
            num_data_bits=16, geometry=(16, 8), dataword_bytes=2,
            words_per_region=2, refresh_pause_s=95.0, seed=4,
        ),
        "full": dict(
            num_data_bits=16, geometry=(16, 8), dataword_bytes=2,
            words_per_region=2, refresh_pause_s=95.0, seed=4,
        ),
    },
    run=_run_sec512,
    tags=SECTION_TAGS,
)


# ---------------------------------------------------------------------------
# Section 5.3 — end-to-end BEER recovery per manufacturer
# ---------------------------------------------------------------------------
def _run_sec53(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.core import BeerExperiment, ExperimentConfig
    from repro.dram import ChipGeometry, all_vendors
    from repro.ecc import codes_equivalent

    config = ExperimentConfig(
        pattern_weights=(1, 2),
        refresh_windows_s=tuple(params["refresh_windows_s"]),
        rounds_per_window=params["rounds_per_window"],
        threshold=0.0,
        discover_cell_encoding=True,
        discovery_pause_s=60.0,
    )
    retention = _fast_retention()
    geometry = ChipGeometry(*params["geometry"])

    def campaigns():
        outcomes = []
        for vendor in all_vendors():
            for chip_seed in params["chip_seeds"]:
                chip = vendor.make_chip(
                    num_data_bits=params["num_data_bits"],
                    geometry=geometry,
                    seed=chip_seed,
                    retention_model=retention,
                )
                solution = BeerExperiment(chip, config).run(solve=True).solution
                outcomes.append(
                    {
                        "vendor": vendor.name,
                        "chip_seed": chip_seed,
                        "solutions": solution.num_solutions,
                        "matches_ground_truth": any(
                            codes_equivalent(candidate, chip.code)
                            for candidate in solution.codes
                        ),
                        "recovered_code": solution.codes[0]
                        if solution.codes
                        else None,
                    }
                )
        return outcomes

    timing = context.control.time_once(campaigns)
    outcomes = timing.last_result
    by_vendor = {}
    for outcome in outcomes:
        by_vendor.setdefault(outcome["vendor"], []).append(outcome["recovered_code"])
    same_model_agree = all(
        all(
            code is not None and codes_equivalent(codes[0], code)
            for code in codes[1:]
        )
        for codes in by_vendor.values()
        if codes[0] is not None
    ) and all(codes[0] is not None for codes in by_vendor.values())

    result = WorkloadResult()
    result.artifacts["campaigns"] = [
        {k: v for k, v in outcome.items() if k != "recovered_code"}
        for outcome in outcomes
    ]
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds, "campaigns": len(outcomes)},
        oracles={
            "every_campaign_unique": all(o["solutions"] == 1 for o in outcomes),
            "every_recovery_correct": all(
                o["matches_ground_truth"] for o in outcomes
            ),
            "same_model_chips_agree": same_model_agree,
        },
    )
    return result


register_workload(
    name="sec53-end-to-end-recovery",
    description=(
        "section 5.3: the full BEER methodology recovers exactly one ECC "
        "function per manufacturer, identical across chips of one model"
    ),
    tiers={
        # Unique recovery needs the full pattern/window/round budget — smaller
        # campaigns leave the profile under-constrained — and the whole study
        # runs in well under a second, so every tier uses the paper's setup.
        tier: dict(
            num_data_bits=8, geometry=(32, 8),
            refresh_windows_s=(30.0, 45.0, 60.0), rounds_per_window=8,
            chip_seeds=(0, 1),
        )
        for tier in ("smoke", "quick", "full")
    },
    run=_run_sec53,
    tags=SECTION_TAGS,
)


# ---------------------------------------------------------------------------
# Section 6.3 — analytical experiment runtime
# ---------------------------------------------------------------------------
def _run_sec63(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import ExperimentRuntimeModel

    model = ExperimentRuntimeModel()
    windows = [60.0 * minutes for minutes in range(2, 23)]
    timing = context.control.time_once(lambda: model.sweep_seconds(windows))
    serial_seconds = timing.last_result
    fully_parallel = model.parallel_sweep_seconds(windows, params["num_chips"])

    result = WorkloadResult()
    result.artifacts.update(
        {
            "serial_hours": serial_seconds / 3600.0,
            "parallel_hours": fully_parallel / 3600.0,
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "serial_sweep_about_4_2_hours": (
                abs(serial_seconds / 3600.0 - 4.2) < 0.2
            ),
            "parallelism_bounded_by_longest_window": (
                fully_parallel >= 22 * 60.0
            ),
            "parallelism_helps": fully_parallel < serial_seconds,
        },
    )
    return result


register_workload(
    name="sec63-experiment-runtime",
    description=(
        "section 6.3: analytical real-chip campaign runtime — ~4.2 hours "
        "serial, parallelism bounded by the longest refresh window"
    ),
    tiers={tier: dict(num_chips=21) for tier in ("smoke", "quick", "full")},
    run=_run_sec63,
    tags=SECTION_TAGS,
)


# ---------------------------------------------------------------------------
# Ablation — specialised constraint-propagation solver vs CNF/CDCL SAT
# ---------------------------------------------------------------------------
def _run_ablation(params: Mapping, context: BenchContext) -> WorkloadResult:
    import numpy as np

    from repro.core import (
        BeerSolver,
        SatBeerSolver,
        charged_patterns,
        expected_miscorrection_profile,
    )
    from repro.ecc import codes_equivalent, random_hamming_code

    num_data_bits = params["num_data_bits"]
    seed = params["seed"]
    code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
    profile = expected_miscorrection_profile(
        code, list(charged_patterns(num_data_bits, [1, 2]))
    )

    result = WorkloadResult()
    outcomes = {}
    for label, factory in (
        ("specialised", BeerSolver),
        ("sat", SatBeerSolver),
    ):
        timing = context.control.time_once(
            lambda f=factory: f(num_data_bits).solve(profile)
        )
        solution = timing.last_result
        outcomes[label] = solution
        result.add(
            label,
            metrics={
                "seconds": timing.best_seconds,
                "num_solutions": solution.num_solutions,
            },
            oracles={
                "unique": solution.unique,
                "matches_ground_truth": codes_equivalent(solution.code, code),
            },
        )
    result.artifacts["backends_agree"] = bool(
        codes_equivalent(outcomes["specialised"].code, outcomes["sat"].code)
    )
    return result


register_workload(
    name="ablation-solver-backends",
    description=(
        "ablation: the specialised constraint-propagation solver and the "
        "CNF/CDCL SAT backend recover the same unique ECC function"
    ),
    tiers={
        tier: dict(num_data_bits=8, seed=0) for tier in ("smoke", "quick", "full")
    },
    run=_run_ablation,
    tags=("section", "ablation"),
)
