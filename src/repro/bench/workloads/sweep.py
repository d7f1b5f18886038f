"""Workload: serial vs process-parallel sweep execution (store byte identity).

Port of the PR 4 ``bench_sweep.py`` writer.  The campaign stores written by
the serial and ``jobs=N`` runs must be byte-identical in every tier; the
wall-time speedup floor only applies on full-tier runs with enough usable
CPUs — when it cannot apply, the skip is recorded explicitly as the
``skipped_speedup_gate`` metric (and an ``ORACLE_SKIPPED`` oracle) instead
of silently passing.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Mapping

from repro.bench.environment import usable_cpus
from repro.bench.registry import (
    BenchContext,
    MetricGate,
    WorkloadResult,
    register_workload,
)
from repro.bench.schema import ORACLE_SKIPPED


def _sweep_payload(params: Mapping) -> dict:
    """A multi-cell einsim spec: error-rate points of one 32-bit code."""
    return {
        "name": "bench-parallel-sweep",
        "num_words": params["num_words"],
        "chunk_size": params["chunk_size"],
        "seeds": [0],
        "backends": ["packed"],
        "codes": [{"data_bits": 32}],
        "scenarios": [
            {
                "name": "uniform-random",
                "params": {"bit_error_rate": list(params["bit_error_rates"])},
            }
        ],
    }


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.scenarios import SweepRunner, SweepSpec
    from repro.store import CampaignStore

    spec = SweepSpec.from_dict(_sweep_payload(params))
    jobs = params["jobs"]
    floor = params["speedup_floor"]
    cpus = usable_cpus()
    workdir = Path(tempfile.mkdtemp(prefix="bench_sweep_"))
    try:
        timings = {}
        stores = {}
        for label, n_jobs in (("serial", 1), ("parallel", jobs)):
            directory = workdir / label
            store = CampaignStore(directory)
            runner = SweepRunner(store=store, jobs=n_jobs)
            timing = context.control.time_once(lambda: runner.run(spec))
            report = timing.last_result
            assert report.simulated == spec.num_cells, report.to_dict()
            timings[label] = timing
            stores[label] = (directory / "records.jsonl").read_bytes()

        identical = stores["serial"] == stores["parallel"]
        speedup = timings["serial"].best_seconds / max(
            timings["parallel"].best_seconds, 1e-12
        )
        gate_applies = floor is not None and cpus >= jobs
        skipped = not gate_applies

        result = WorkloadResult()
        result.artifacts.update(
            {
                "quick": not context.is_full,
                "available_cpus": cpus,
                "num_cells": spec.num_cells,
                "num_words_per_cell": spec.cells[0].config()["num_words"],
                "skip_reason": (
                    None
                    if gate_applies
                    else (
                        f"only {cpus} usable CPU(s) for jobs={jobs}"
                        if floor is not None
                        else f"{context.tier} tier does not gate wall time"
                    )
                ),
            }
        )
        result.add(
            "serial",
            metrics={
                "seconds": timings["serial"].best_seconds,
                "store_bytes": len(stores["serial"]),
            },
        )
        result.add(
            "parallel",
            metrics={
                "seconds": timings["parallel"].best_seconds,
                "speedup": speedup,
                "skipped_speedup_gate": skipped,
            },
            oracles={
                "stores_byte_identical": bool(identical),
                "speedup_floor": (
                    ORACLE_SKIPPED if skipped else speedup >= floor
                ),
            },
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _exact(metric: str, condition: str):
    return (
        MetricGate(metric=metric, condition=condition, rel_tol=0.0, higher_is_better=True),
        MetricGate(metric=metric, condition=condition, rel_tol=0.0, higher_is_better=False),
    )


register_workload(
    name="sweep-parallel",
    description=(
        "serial vs process-parallel sweep executor over one multi-cell spec; "
        "campaign stores must stay byte-identical"
    ),
    tiers={
        "smoke": dict(
            num_words=1_000,
            chunk_size=512,
            bit_error_rates=(0.005, 0.02),
            jobs=2,
            speedup_floor=None,
        ),
        "quick": dict(
            num_words=6_000,
            chunk_size=2_048,
            bit_error_rates=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
            jobs=4,
            speedup_floor=None,
        ),
        "full": dict(
            num_words=250_000,
            chunk_size=16_384,
            bit_error_rates=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
            jobs=4,
            speedup_floor=1.5,
        ),
    },
    run=_run,
    # The store byte count is fully deterministic for a given spec — any
    # serialization drift shows up here before it corrupts caches.
    gates=_exact("store_bytes", "serial"),
    tags=("core", "perf"),
)
