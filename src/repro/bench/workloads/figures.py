"""Workloads: the paper's figure/table reproductions through the harness.

Each workload wraps one :mod:`repro.analysis` data generator, times the
generation as a single ``default`` condition, and turns the figure's
expected *shape* (the paper's claim) into named oracles.  Seeds are fixed
per tier so every tier is deterministic.  The figure data itself lands in
the record's ``artifacts`` in summarised form.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.bench.registry import BenchContext, WorkloadResult, register_workload

FIGURE_TAGS = ("figure",)


# ---------------------------------------------------------------------------
# Figure 1 — per-bit post-correction error probability per ECC function
# ---------------------------------------------------------------------------
def _run_fig1(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure1_error_probability_data

    timing = context.control.time_once(
        lambda: figure1_error_probability_data(**params)
    )
    data = timing.last_result
    shapes = [tuple(e["relative_error_probability"]) for e in data["post_correction"]]
    result = WorkloadResult()
    result.artifacts.update(
        {
            "distinct_post_correction_shapes": len(set(shapes)),
            "num_functions": len(shapes),
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={"functions_produce_distinct_shapes": len(set(shapes)) > 1},
    )
    return result


register_workload(
    name="fig1-error-probability",
    description=(
        "figure 1: per-bit post-correction error probability differs between "
        "ECC functions of the same (n, k) under identical injected errors"
    ),
    tiers={
        "smoke": dict(
            num_data_bits=8, num_functions=3, bit_error_rate=2e-2,
            num_words=4_000, num_bootstrap=10, seed=0,
        ),
        "quick": dict(
            num_data_bits=16, num_functions=3, bit_error_rate=5e-3,
            num_words=30_000, num_bootstrap=25, seed=0,
        ),
        "full": dict(
            num_data_bits=32, num_functions=3, bit_error_rate=1e-3,
            num_words=150_000, num_bootstrap=100, seed=0,
        ),
    },
    run=_run_fig1,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Tables 1 and 2 — the worked (7, 4) example code
# ---------------------------------------------------------------------------
def _run_table1(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import table1_outcome_data

    timing = context.control.time_once(lambda: table1_outcome_data(**params))
    rows = timing.last_result
    outcomes = [row["outcome"] for row in rows]
    result = WorkloadResult()
    result.artifacts["outcome_counts"] = {
        outcome: outcomes.count(outcome)
        for outcome in ("no error", "correctable", "uncorrectable")
    }
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "one_no_error_case": outcomes.count("no error") == 1,
            "three_correctable_cases": outcomes.count("correctable") == 3,
            "four_uncorrectable_cases": outcomes.count("uncorrectable") == 4,
        },
    )
    return result


register_workload(
    name="table1-outcomes",
    description=(
        "table 1: the 2^3 retention-error patterns of one stored codeword "
        "split into no-error / correctable / uncorrectable outcomes"
    ),
    tiers={tier: {} for tier in ("smoke", "quick", "full")},
    run=_run_table1,
    tags=FIGURE_TAGS,
)


def _run_table2(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import table2_miscorrection_profile_data

    timing = context.control.time_once(
        lambda: table2_miscorrection_profile_data(**params)
    )
    rows = timing.last_result
    by_pattern = {row["pattern_id"]: row["possible_miscorrections"] for row in rows}
    result = WorkloadResult()
    result.artifacts["profile"] = {str(k): v for k, v in sorted(by_pattern.items())}
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "pattern0_miscorrects_bits_123": by_pattern[0] == [1, 2, 3],
            "other_patterns_clean": all(
                by_pattern[p] == [] for p in (1, 2, 3)
            ),
        },
    )
    return result


register_workload(
    name="table2-miscorrection-profile",
    description=(
        "table 2: only the pattern charging data bit 0 of the (7, 4) example "
        "code can miscorrect (at bits 1, 2, 3)"
    ),
    tiers={tier: {} for tier in ("smoke", "quick", "full")},
    run=_run_table2,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Figure 3 — per-manufacturer error maps
# ---------------------------------------------------------------------------
def _run_fig3(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure3_manufacturer_profile_data
    from repro.dram import ChipGeometry

    kwargs = dict(params)
    kwargs["geometry"] = ChipGeometry(*kwargs.pop("geometry"))
    timing = context.control.time_once(
        lambda: figure3_manufacturer_profile_data(**kwargs)
    )
    data = timing.last_result
    flattened = {
        name: tuple(d["error_count_matrix"].flatten()) for name, d in data.items()
    }
    traces = {
        name: int(np.trace(d["error_count_matrix"])) for name, d in data.items()
    }
    result = WorkloadResult()
    result.artifacts.update(
        {
            "total_error_counts": {
                name: int(sum(values)) for name, values in flattened.items()
            },
            "diagonal_counts": traces,
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "manufacturer_maps_differ": (
                flattened["A"] != flattened["B"] and flattened["B"] != flattened["C"]
            ),
            "charged_bit_errors_observed": all(t > 0 for t in traces.values()),
        },
    )
    return result


register_workload(
    name="fig3-manufacturer-profiles",
    description=(
        "figure 3: 1-CHARGED error maps differ between manufacturers (they "
        "use different ECC functions)"
    ),
    tiers={
        "smoke": dict(
            num_data_bits=8, geometry=(16, 8), refresh_windows_s=(45.0, 60.0),
            rounds_per_window=3, seed=0,
        ),
        "quick": dict(
            num_data_bits=16, geometry=(32, 8), refresh_windows_s=(30.0, 60.0),
            rounds_per_window=3, seed=0,
        ),
        "full": dict(
            num_data_bits=16, geometry=(32, 8),
            refresh_windows_s=(30.0, 45.0, 60.0), rounds_per_window=6, seed=0,
        ),
    },
    run=_run_fig3,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Figure 4 — threshold filter separating miscorrections from noise
# ---------------------------------------------------------------------------
def _run_fig4(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure4_threshold_data

    timing = context.control.time_once(lambda: figure4_threshold_data(**params))
    data = timing.last_result
    medians = np.array(data["per_bit_median"])
    susceptible = sorted(data["analytically_susceptible_bits"])
    non_susceptible = [b for b in range(len(medians)) if b not in susceptible]
    separable = True
    if susceptible and non_susceptible:
        separable = bool(
            medians[susceptible].max() > medians[non_susceptible].max()
        )
    result = WorkloadResult()
    result.artifacts.update(
        {
            "susceptible_bits": susceptible,
            "max_susceptible_median": float(medians[susceptible].max())
            if susceptible
            else None,
            "max_non_susceptible_median": float(medians[non_susceptible].max())
            if non_susceptible
            else None,
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={"susceptible_bits_separable": separable},
    )
    return result


register_workload(
    name="fig4-threshold-filter",
    description=(
        "figure 4: per-bit miscorrection probabilities separate into a "
        "near-zero and a clearly non-zero group (the threshold filter works)"
    ),
    tiers={
        "smoke": dict(
            num_data_bits=8, refresh_windows_s=(40.0, 60.0),
            rounds_per_window=2, transient_fault_probability=2e-4, seed=1,
        ),
        "quick": dict(
            num_data_bits=16, refresh_windows_s=(30.0, 45.0, 60.0),
            rounds_per_window=2, transient_fault_probability=2e-4, seed=1,
        ),
        "full": dict(
            num_data_bits=16, refresh_windows_s=(20.0, 30.0, 40.0, 50.0, 60.0),
            rounds_per_window=4, transient_fault_probability=2e-4, seed=1,
        ),
    },
    run=_run_fig4,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Figure 5 — uniqueness per test-pattern set
# ---------------------------------------------------------------------------
#: Dataword lengths of unshortened SEC Hamming codes (k = 2^r - r - 1).
FULL_LENGTH_DATAWORDS = frozenset({4, 11, 26, 57, 120, 247})


def _run_fig5(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure5_uniqueness_data

    timing = context.control.time_once(lambda: figure5_uniqueness_data(**params))
    data = timing.last_result
    counts = data["solution_counts"]
    lengths = data["dataword_lengths"]
    combined_unique = all(
        counts["{1,2}-CHARGED"][k]["max"] == 1.0 for k in lengths
    )
    full_length_unique = all(
        counts["1-CHARGED"][k]["max"] == 1.0
        for k in lengths
        if k in FULL_LENGTH_DATAWORDS
    )
    result = WorkloadResult()
    result.artifacts["max_candidates"] = {
        set_name: {str(k): counts[set_name][k]["max"] for k in lengths}
        for set_name in counts
    }
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "combined_pattern_set_always_unique": combined_unique,
            "full_length_codes_unique_with_1charged": full_length_unique,
        },
    )
    return result


register_workload(
    name="fig5-uniqueness",
    description=(
        "figure 5: the {1,2}-CHARGED pattern set always identifies the ECC "
        "function uniquely; full-length codes are unique for every set"
    ),
    tiers={
        "smoke": dict(
            dataword_lengths=(4, 6), codes_per_length=1, max_solutions=25, seed=0,
        ),
        "quick": dict(
            dataword_lengths=(4, 6, 8, 11), codes_per_length=2,
            max_solutions=25, seed=0,
        ),
        "full": dict(
            dataword_lengths=(4, 6, 8, 11, 16, 32), codes_per_length=3,
            max_solutions=25, seed=0,
        ),
    },
    run=_run_fig5,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Figure 6 — BEER solver runtime/memory scaling
# ---------------------------------------------------------------------------
#: The paper's word: 128 data bits in a (136,128) SEC code (Section 1).
PAPER_DATA_BITS = 128


def _run_fig6(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure6_runtime_data

    params = dict(params)
    paper_word_weights = params.pop("paper_word_weights", ())
    timing = context.control.time_once(lambda: figure6_runtime_data(**params))
    rows = timing.last_result["rows"]
    result = WorkloadResult()
    result.artifacts["rows"] = rows
    result.add(
        "default",
        metrics={
            "seconds": timing.best_seconds,
            "largest_total_seconds": rows[-1]["total_seconds"],
        },
        oracles={
            "runtime_grows_with_length": (
                rows[-1]["total_seconds"] >= rows[0]["total_seconds"]
            ),
            "uniqueness_check_dominates": all(
                row["check_uniqueness_seconds"]
                >= 0.5 * row["determine_function_seconds"]
                for row in rows
            ),
        },
    )
    if paper_word_weights:
        _add_paper_word(result, paper_word_weights, params["seed"], context)
    return result


def _add_paper_word(
    result: WorkloadResult, weight_sets, seed: int, context: BenchContext
) -> None:
    """Recover one random (136,128) code from each exact profile; each must be unique."""
    from repro.core import BeerSolver, charged_patterns, expected_miscorrection_profile
    from repro.ecc import codes_equivalent, random_hamming_code

    code = random_hamming_code(PAPER_DATA_BITS, rng=np.random.default_rng(seed))
    metrics, oracles = {}, {}
    for weights in weight_sets:
        label = "".join(str(weight) for weight in weights)
        profile = expected_miscorrection_profile(
            code, list(charged_patterns(PAPER_DATA_BITS, weights))
        )
        timing = context.control.time_once(
            lambda profile=profile: BeerSolver(PAPER_DATA_BITS).solve(profile)
        )
        solution = timing.last_result
        metrics[f"seconds_{label}charged"] = timing.best_seconds
        metrics[f"nodes_{label}charged"] = solution.nodes_visited
        oracles[f"recovered_uniquely_from_{label}charged"] = solution.unique and (
            codes_equivalent(solution.code, code)
        )
    result.add("paper-word", metrics=metrics, oracles=oracles)


register_workload(
    name="fig6-solver-runtime",
    description=(
        "figure 6: BEER solver runtime grows with code length and the "
        "uniqueness check dominates total runtime; the paper's (136,128) "
        "word is recovered uniquely from its exact profile"
    ),
    tiers={
        "smoke": dict(dataword_lengths=(4, 8), codes_per_length=1, seed=0),
        "quick": dict(
            dataword_lengths=(4, 8, 16), codes_per_length=1, seed=0,
            paper_word_weights=((1,),),
        ),
        "full": dict(
            dataword_lengths=(4, 8, 16, 32, 64), codes_per_length=2, seed=0,
            paper_word_weights=((1,), (1, 2)),
        ),
    },
    run=_run_fig6,
    tags=FIGURE_TAGS,
)


# ---------------------------------------------------------------------------
# Figures 8 and 9 — BEEP success rates
# ---------------------------------------------------------------------------
def _run_fig8(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure8_beep_pass_data

    timing = context.control.time_once(lambda: figure8_beep_pass_data(**params))
    rows = timing.last_result["rows"]
    lengths = sorted({row["codeword_length"] for row in rows})
    passes = sorted({row["passes"] for row in rows})
    mean_by_passes = {
        p: float(np.mean([r["success_rate"] for r in rows if r["passes"] == p]))
        for p in passes
    }
    two_pass_by_length = {
        n: float(
            np.mean(
                [
                    r["success_rate"]
                    for r in rows
                    if r["codeword_length"] == n and r["passes"] == passes[-1]
                ]
            )
        )
        for n in lengths
    }
    result = WorkloadResult()
    result.artifacts.update(
        {
            "mean_success_by_passes": {str(p): v for p, v in mean_by_passes.items()},
            "final_pass_success_by_length": {
                str(n): v for n, v in two_pass_by_length.items()
            },
        }
    )
    result.add(
        "default",
        metrics={
            "seconds": timing.best_seconds,
            "mean_success_final_pass": mean_by_passes[passes[-1]],
        },
        oracles={
            "second_pass_helps": (
                mean_by_passes[passes[-1]] >= mean_by_passes[passes[0]] - 1e-9
            ),
            "longer_codewords_profile_well": (
                two_pass_by_length[lengths[-1]]
                >= two_pass_by_length[lengths[0]] - 0.15
            ),
            "success_substantial": mean_by_passes[passes[-1]] >= 0.5,
        },
    )
    return result


register_workload(
    name="fig8-beep-passes",
    description=(
        "figure 8: BEEP success rate improves with a second profiling pass "
        "and with longer codewords"
    ),
    tiers={
        "smoke": dict(
            codeword_lengths=(31,), error_counts=(2, 3), passes=(1, 2),
            codewords_per_point=4, seed=0,
        ),
        "quick": dict(
            codeword_lengths=(31, 63), error_counts=(2, 3), passes=(1, 2),
            codewords_per_point=8, seed=0,
        ),
        "full": dict(
            codeword_lengths=(31, 63, 127), error_counts=(2, 3, 4, 5),
            passes=(1, 2), codewords_per_point=16, seed=0,
        ),
    },
    run=_run_fig8,
    tags=FIGURE_TAGS,
)


def _run_fig9(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.analysis import figure9_beep_probability_data

    timing = context.control.time_once(
        lambda: figure9_beep_probability_data(**params)
    )
    rows = timing.last_result["rows"]
    lengths = sorted({row["codeword_length"] for row in rows})
    probabilities = sorted({row["per_bit_error_probability"] for row in rows})
    mean_by_probability = {
        p: float(
            np.mean(
                [
                    r["success_rate"]
                    for r in rows
                    if r["per_bit_error_probability"] == p
                ]
            )
        )
        for p in probabilities
    }
    mean_by_length = {
        n: float(
            np.mean([r["success_rate"] for r in rows if r["codeword_length"] == n])
        )
        for n in lengths
    }
    result = WorkloadResult()
    result.artifacts.update(
        {
            "mean_success_by_probability": {
                str(p): v for p, v in mean_by_probability.items()
            },
            "mean_success_by_length": {str(n): v for n, v in mean_by_length.items()},
        }
    )
    result.add(
        "default",
        metrics={"seconds": timing.best_seconds},
        oracles={
            "deterministic_failures_easiest": (
                mean_by_probability[probabilities[-1]]
                >= mean_by_probability[probabilities[0]] - 1e-9
            ),
            "longer_codewords_more_resilient": (
                mean_by_length[lengths[-1]] >= mean_by_length[lengths[0]] - 1e-9
            ),
        },
    )
    return result


register_workload(
    name="fig9-beep-error-probability",
    description=(
        "figure 9: BEEP stays effective with probabilistic cell failures; "
        "success degrades as per-bit failure probability drops"
    ),
    tiers={
        "smoke": dict(
            codeword_lengths=(31,), error_counts=(3,),
            per_bit_probabilities=(1.0, 0.25), codewords_per_point=4, seed=0,
        ),
        "quick": dict(
            codeword_lengths=(31, 63), error_counts=(3,),
            per_bit_probabilities=(1.0, 0.5, 0.25), codewords_per_point=6, seed=0,
        ),
        "full": dict(
            codeword_lengths=(31, 63, 127), error_counts=(2, 3, 4, 5),
            per_bit_probabilities=(1.0, 0.75, 0.5, 0.25),
            codewords_per_point=15, seed=0,
        ),
    },
    run=_run_fig9,
    tags=FIGURE_TAGS,
)
