"""Workload: incremental vs one-shot SAT-based BEER model enumeration.

Port of the PR 3 ``bench_sat.py`` writer.  Both solver paths must enumerate
identical canonical code sets, and the row-order symmetry break must make one
model per code: ``models_enumerated == canonical_codes`` and
``solve_calls == canonical_codes + 1``.  The model, code and solve-call
counts are deterministic for a fixed seed, so the comparator pins them
exactly, while the incremental speedup is gated with a tolerance.
"""

from __future__ import annotations

from typing import Mapping

from repro.bench.registry import (
    BenchContext,
    MetricGate,
    WorkloadResult,
    register_workload,
)
from repro.bench.schema import ORACLE_SKIPPED


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    import numpy as np

    from repro.core import (
        SatBeerSolver,
        expected_miscorrection_profile,
        one_charged_patterns,
    )
    from repro.ecc import random_hamming_code
    from repro.ecc.codespace import canonical_form

    seed = params["seed"]
    floor = params["speedup_floor"]
    cases = [tuple(case) for case in params["cases"]]
    gate_case = params["gate_case"]

    result = WorkloadResult()
    result.artifacts["quick"] = not context.is_full
    result.artifacts["cases"] = []
    for num_data_bits, num_pinned in cases:
        code = random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))
        profile = expected_miscorrection_profile(
            code, list(one_charged_patterns(num_data_bits))
        )
        pinned = {
            index: code.parity_column_ints[index] for index in range(num_pinned)
        }
        solver = SatBeerSolver(num_data_bits)

        # Incremental solves mutate persistent solver state (learned clauses
        # survive), so each path is timed exactly once — repeating would
        # measure a different problem.
        incremental_timing = context.control.time_once(
            lambda: solver.solve(profile, known_columns=pinned or None)
        )
        incremental = incremental_timing.last_result
        one_shot_timing = context.control.time_once(
            lambda: solver.solve(
                profile, known_columns=pinned or None, incremental=False
            )
        )
        one_shot = one_shot_timing.last_result

        identical = {canonical_form(c) for c in incremental.codes} == {
            canonical_form(c) for c in one_shot.codes
        }
        speedup = one_shot_timing.best_seconds / max(
            incremental_timing.best_seconds, 1e-12
        )
        result.artifacts["cases"].append(
            {
                "num_data_bits": num_data_bits,
                "num_parity_bits": solver.num_parity_bits,
                "pinned_columns": num_pinned,
                "solver_stats": incremental.solver_stats,
            }
        )
        result.add(
            f"k{num_data_bits}:one-shot",
            metrics={"seconds": one_shot_timing.best_seconds},
        )
        solve_calls = incremental.solver_stats["solve_calls"]
        oracles = {
            "identical_canonical_sets": bool(identical),
            # One model per equivalence class, then one UNSAT call.
            "one_model_per_code": (
                incremental.nodes_visited == incremental.num_solutions
                and solve_calls == incremental.num_solutions + 1
            ),
        }
        if num_data_bits == gate_case:
            oracles["speedup_floor"] = (
                ORACLE_SKIPPED if floor is None else speedup >= floor
            )
        result.add(
            f"k{num_data_bits}:incremental",
            metrics={
                "seconds": incremental_timing.best_seconds,
                "speedup": speedup,
                "models_enumerated": incremental.nodes_visited,
                "canonical_codes": incremental.num_solutions,
                "solve_calls": solve_calls,
            },
            oracles=oracles,
        )
    return result


def _exact(metric: str):
    # Two opposite-direction zero-tolerance gates pin a deterministic count
    # to the baseline exactly.
    return (
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=True),
        MetricGate(metric=metric, rel_tol=0.0, higher_is_better=False),
    )


register_workload(
    name="sat-solver",
    description=(
        "incremental vs one-shot BEER model enumeration on analytic "
        "miscorrection profiles (persistent CDCL solver vs fresh-solver oracle)"
    ),
    tiers={
        # The speedup floor applies to the k=16 unpinned case (the paper-scale
        # enumeration where incrementality pays off most); the pinned k=32
        # case mostly exercises known-column clamping, not enumeration.
        "smoke": dict(cases=((8, 0),), gate_case=8, seed=0, speedup_floor=None),
        "quick": dict(
            cases=((8, 0), (16, 3)), gate_case=16, seed=0, speedup_floor=1.0
        ),
        "full": dict(
            cases=((8, 0), (16, 0), (32, 4)),
            gate_case=16,
            seed=0,
            speedup_floor=3.0,
        ),
    },
    run=_run,
    gates=(
        *_exact("models_enumerated"),
        *_exact("canonical_codes"),
        *_exact("solve_calls"),
        MetricGate(metric="speedup", rel_tol=0.6, higher_is_better=True),
    ),
    tags=("core", "perf"),
)
