"""Workload: GF(2) backend comparison (reference vs packed kernels).

Port of the PR 1 ``bench_gf2_backends.py`` writer: the 10k-word (136, 128)
bulk-decode acceptance microbenchmark plus fig6-style solver-input
generation, decomposed into merged-schema conditions.
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
    from repro.analysis import gf2_backend_comparison_data

    data = gf2_backend_comparison_data(
        num_words=params["num_words"],
        num_data_bits=params["num_data_bits"],
        dataword_lengths=tuple(params["dataword_lengths"]),
        words_per_pattern=params["words_per_pattern"],
        repeats=params["repeats"],
        seed=params["seed"],
    )
    floor = params["speedup_floor"]
    result = WorkloadResult()

    micro = data["bulk_decode"]
    result.artifacts["bulk_decode"] = {
        "codeword_length": micro["codeword_length"],
        "num_data_bits": micro["num_data_bits"],
        "num_words": micro["num_words"],
        "repeats": micro["repeats"],
    }
    result.add(
        "bulk-decode:reference", metrics={"seconds": micro["reference_seconds"]}
    )
    result.add(
        "bulk-decode:packed",
        metrics={"seconds": micro["packed_seconds"], "speedup": micro["speedup"]},
        oracles={
            "outputs_identical": bool(micro["outputs_identical"]),
            "speedup_floor": (
                ORACLE_SKIPPED if floor is None else micro["speedup"] >= floor
            ),
        },
    )

    result.artifacts["solver_input"] = []
    for row in data["solver_input"]["rows"]:
        length = row["dataword_length"]
        result.artifacts["solver_input"].append(
            {
                "dataword_length": length,
                "codeword_length": row["codeword_length"],
                "num_patterns": row["num_patterns"],
                "words_per_pattern": row["words_per_pattern"],
            }
        )
        result.add(
            f"solver-input-k{length}:reference",
            metrics={"seconds": row["reference_seconds"]},
        )
        result.add(
            f"solver-input-k{length}:packed",
            metrics={"seconds": row["packed_seconds"], "speedup": row["speedup"]},
            oracles={"profiles_identical": bool(row["profiles_identical"])},
        )
    return result


register_workload(
    name="gf2-backends",
    description=(
        "reference vs bit-packed GF(2) kernels: bulk-decode microbenchmark "
        "and fig6-style solver-input generation"
    ),
    tiers={
        "smoke": dict(
            num_words=200,
            num_data_bits=32,
            dataword_lengths=(8,),
            words_per_pattern=100,
            repeats=1,
            seed=0,
            speedup_floor=None,
        ),
        "quick": dict(
            num_words=1_000,
            num_data_bits=128,
            dataword_lengths=(8,),
            words_per_pattern=200,
            repeats=3,
            seed=0,
            speedup_floor=1.0,
        ),
        "full": dict(
            num_words=10_000,
            num_data_bits=128,
            dataword_lengths=(8, 16, 32),
            words_per_pattern=2_000,
            repeats=5,
            seed=0,
            speedup_floor=5.0,
        ),
    },
    run=_run,
    gates=(
        MetricGate(
            metric="speedup",
            condition="bulk-decode:packed",
            rel_tol=0.6,
            higher_is_better=True,
        ),
    ),
    tags=("core", "perf"),
)
