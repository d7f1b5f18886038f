"""Benchmark driver: run registered workloads at a tier into one merged run.

The driver resolves each workload's tier parameters, hands the runner a
:class:`~repro.bench.registry.BenchContext` (tier + measurement control)
and collects the per-condition records into a :class:`~repro.bench.schema.BenchRun`
stamped with the environment fingerprint.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.environment import environment_fingerprint
from repro.bench.registry import BenchContext, Workload, all_workloads, get_workload
from repro.bench.schema import BenchRun, WorkloadRecord
from repro.bench.timing import control_for_tier


def repo_root() -> Path:
    """The repository root (``benchmarks/baselines/`` lives below it)."""
    return Path(__file__).resolve().parents[3]


def baselines_dir(root: Optional[Path] = None) -> Path:
    return (root or repo_root()) / "benchmarks" / "baselines"


def baseline_path(tier: str, root: Optional[Path] = None) -> Path:
    return baselines_dir(root) / f"{tier}.json"


def run_workload(workload: Workload, tier: str) -> WorkloadRecord:
    """Run one workload at ``tier`` and return its merged-schema record.

    Each workload runs with the tracer in metrics-only mode (unless the
    caller already enabled a full trace), so every condition record carries
    the ``obs.*`` counter deltas its measurements moved — cache hits,
    conflicts, words decoded — without writing any trace file.
    """
    from repro.obs import TRACER

    params = workload.params_for(tier)
    context = BenchContext(tier=tier, control=control_for_tier(tier))
    owns_tracer = not TRACER.enabled
    if owns_tracer:
        TRACER.enable(sink_path=None, record_events=False)
    try:
        result = workload.run(params, context)
    finally:
        if owns_tracer:
            TRACER.disable()
    return WorkloadRecord(
        workload=workload.name,
        params=params,
        conditions=result.conditions,
        artifacts=result.artifacts,
    )


def run_bench(
    names: Optional[Sequence[str]] = None,
    tier: str = "quick",
) -> BenchRun:
    """Run the named workloads (default: all registered) into one BenchRun."""
    control_for_tier(tier)  # validate the tier before doing any work
    workloads = (
        [get_workload(name) for name in names] if names else all_workloads()
    )
    records = [run_workload(workload, tier) for workload in workloads]
    return BenchRun(
        tier=tier,
        environment=environment_fingerprint(),
        workloads=records,
    )


def workload_listing() -> List[Dict]:
    """A serialisable description of every registered workload."""
    listing = []
    for workload in all_workloads():
        listing.append(
            {
                "name": workload.name,
                "description": workload.description,
                "tags": list(workload.tags),
                "tiers": {tier: dict(params) for tier, params in workload.tiers.items()},
                "gated_metrics": [
                    {
                        "metric": gate.metric,
                        "condition": gate.condition,
                        "rel_tol": gate.rel_tol,
                        "higher_is_better": gate.higher_is_better,
                    }
                    for gate in workload.gates
                ],
            }
        )
    return listing
