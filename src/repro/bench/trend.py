"""Trend reports over a directory of merged bench-run files.

``beer-tool bench trend DIR`` answers "how have the numbers moved across
runs?" without any plotting dependency: it loads every merged-schema JSON
file in a directory (one per historical ``bench run``), orders them by
filename — the natural convention for dated or numbered result files —
and renders one row per (workload, condition, metric) series with the
value at every run plus the relative change from the first run to the
last.

By default only *gated* metrics are tracked (the ones the comparator
checks against baselines); ``--metric`` selects explicit metric names
instead, which is how ``obs.*`` counter deltas attached by the tracer can
be trended over time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.registry import gates_by_workload
from repro.bench.schema import BenchRun, SchemaError


def load_runs(directory) -> List[Tuple[str, BenchRun]]:
    """Load every merged bench-run JSON in ``directory``, filename-ordered.

    Files that are not valid merged-schema documents are skipped (a results
    directory often also holds comparator reports).
    """
    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"{root} is not a directory")
    runs: List[Tuple[str, BenchRun]] = []
    for path in sorted(root.glob("*.json")):
        try:
            runs.append((path.name, BenchRun.read(path)))
        except SchemaError:
            continue
    return runs


def _tracked_metrics(
    workload: str, metrics: Optional[Sequence[str]]
) -> Optional[set]:
    """The metric names to track for ``workload``; ``None`` means "any"."""
    if metrics:
        return set(metrics)
    gates = gates_by_workload().get(workload, ())
    return {gate.metric for gate in gates}


def trend_data(
    runs: Sequence[Tuple[str, BenchRun]],
    workloads: Optional[Sequence[str]] = None,
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Build the trend document: one series per (workload, condition, metric).

    A series holds one value per run (``None`` where the run lacks that
    measurement) and, when both endpoints exist and the first is non-zero,
    the relative change ``(last - first) / |first|``.
    """
    labels = [label for label, _ in runs]
    tiers = sorted({run.tier for _, run in runs})
    series: Dict[Tuple[str, str, str], List[Optional[float]]] = {}
    for run_index, (_, run) in enumerate(runs):
        for record in run.workloads:
            if workloads and record.workload not in workloads:
                continue
            tracked = _tracked_metrics(record.workload, metrics)
            for condition in record.conditions:
                for name, value in condition.metrics.items():
                    if tracked and name not in tracked:
                        continue
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        continue
                    key = (record.workload, condition.condition, name)
                    values = series.setdefault(key, [None] * len(runs))
                    values[run_index] = float(value)

    rows = []
    for (workload, condition, metric) in sorted(series):
        values = series[(workload, condition, metric)]
        present = [v for v in values if v is not None]
        first = present[0] if present else None
        last = present[-1] if present else None
        change = None
        if first is not None and last is not None and first != 0:
            change = (last - first) / abs(first)
        rows.append(
            {
                "workload": workload,
                "condition": condition,
                "metric": metric,
                "values": values,
                "first": first,
                "last": last,
                "rel_change": change,
            }
        )
    return {
        "num_runs": len(runs),
        "runs": labels,
        "tiers": tiers,
        "series": rows,
    }


def _render_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def format_trend_text(data: Dict[str, Any]) -> str:
    """Render the trend document as an aligned text table."""
    lines = [
        f"bench trend: {data['num_runs']} runs "
        f"[tier(s): {', '.join(data['tiers']) or '-'}]"
    ]
    if not data["series"]:
        lines.append("no tracked metrics found (pass --metric to select some)")
        return "\n".join(lines)
    header = ["workload", "condition", "metric", *data["runs"], "change"]
    rows = []
    for entry in data["series"]:
        change = entry["rel_change"]
        rows.append(
            [
                entry["workload"],
                entry["condition"],
                entry["metric"],
                *(_render_value(v) for v in entry["values"]),
                f"{change:+.1%}" if change is not None else "-",
            ]
        )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
