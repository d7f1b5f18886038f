"""Human-readable rendering of benchmark runs and comparator reports.

An ASCII table primitive prints workload artifacts (paper figures), and a
generic per-workload renderer prints the merged schema uniformly.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.bench.compare import ComparatorReport
from repro.bench.schema import BenchRun, WorkloadRecord


def print_header(title: str) -> None:
    """Print a banner identifying which artefact follows."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_table(headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print an ASCII table with aligned columns."""
    materialised: List[List[str]] = [[_format(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in materialised:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def _format(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 1e-3 or abs(cell) >= 1e4):
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)


def print_workload_record(record: WorkloadRecord, tier: str) -> None:
    """Print one workload's conditions, metrics, and oracle outcomes.

    A workload that could not apply some of its gates says why in its
    ``skip_reason`` artifact, printed after the table.
    """
    print_header(f"{record.workload} [{tier} tier]")
    if record.params:
        rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(record.params.items()))
        print(f"params: {rendered}")
    metric_names = sorted({m for c in record.conditions for m in c.metrics})
    oracle_names = sorted({o for c in record.conditions for o in c.oracles})
    headers = ["condition"] + metric_names + [f"[{name}]" for name in oracle_names]
    rows = []
    for condition in record.conditions:
        row = [condition.condition]
        row += [condition.metrics.get(name, "") for name in metric_names]
        row += [_oracle_cell(condition.oracles.get(name)) for name in oracle_names]
        rows.append(row)
    print_table(headers, rows)
    skip_reason = record.artifacts.get("skip_reason")
    if skip_reason:
        print(f"gates not applied: {skip_reason}")


def _oracle_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "pass"
    if value is False:
        return "FAIL"
    return str(value)


def print_run(run: BenchRun) -> None:
    for record in run.workloads:
        print_workload_record(record, run.tier)


def print_comparator_report(report: ComparatorReport) -> None:
    print_header("comparator report")
    print(report.summary())
    for finding in report.failures:
        print(f"  FAIL [{finding.kind}] {finding.location()}: {finding.message}")
    for finding in report.warnings:
        print(f"  warn [{finding.kind}] {finding.location()}: {finding.message}")
