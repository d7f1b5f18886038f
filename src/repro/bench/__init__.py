"""Unified parametric benchmark harness (the ``repro.bench`` suite).

The harness replaces the four ad-hoc ``benchmarks/bench_*.py`` writers with
one registry of named workloads.  Every workload declares per-tier scale
parameters (``smoke`` / ``quick`` / ``full``), runs named conditions with
warmup/repeat/min-time control, reports metrics plus bit-identity oracles,
and serialises into a single merged schema.  A comparator diffs runs against
committed baselines with per-metric tolerances and hard-fails on regressions
or identity violations.
"""

from __future__ import annotations

from repro.bench.compare import (
    ComparatorReport,
    Finding,
    compare_runs,
    metric_within_tolerance,
)
from repro.bench.driver import (
    baseline_path,
    baselines_dir,
    repo_root,
    run_bench,
    run_workload,
    workload_listing,
)
from repro.bench.environment import environment_fingerprint, usable_cpus
from repro.bench.registry import (
    BenchContext,
    MetricGate,
    Workload,
    WorkloadResult,
    all_workloads,
    gates_by_workload,
    get_workload,
    register_workload,
    workload_names,
)
from repro.bench.schema import (
    ORACLE_SKIPPED,
    SCHEMA_VERSION,
    BenchRun,
    ConditionRecord,
    SchemaError,
    WorkloadRecord,
    canonical_json,
)
from repro.bench.timing import TIERS, Measurement, RunControl, control_for_tier

__all__ = [
    "ORACLE_SKIPPED",
    "SCHEMA_VERSION",
    "TIERS",
    "BenchContext",
    "BenchRun",
    "ComparatorReport",
    "ConditionRecord",
    "Finding",
    "Measurement",
    "MetricGate",
    "RunControl",
    "SchemaError",
    "Workload",
    "WorkloadRecord",
    "WorkloadResult",
    "all_workloads",
    "baseline_path",
    "baselines_dir",
    "canonical_json",
    "compare_runs",
    "control_for_tier",
    "environment_fingerprint",
    "gates_by_workload",
    "get_workload",
    "metric_within_tolerance",
    "register_workload",
    "repo_root",
    "run_bench",
    "run_workload",
    "usable_cpus",
    "workload_listing",
    "workload_names",
]
