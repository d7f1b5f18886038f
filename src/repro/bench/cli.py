"""``repro bench`` subcommand: list / run / compare / trend / update-baseline.

The subcommand is the single entry point CI uses: ``run`` produces the
merged-schema JSON, ``compare`` gates a result file against the committed
baseline for its tier, ``trend`` renders a text report over a directory of
historical result files, and ``update-baseline`` regenerates that baseline
intentionally (the policy in README.md requires a justification line in
CHANGES.md alongside).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench.compare import compare_runs
from repro.bench.driver import baseline_path, run_bench, workload_listing
from repro.bench.report import (
    print_comparator_report,
    print_header,
    print_run,
    print_table,
)
from repro.bench.schema import BenchRun, canonical_json
from repro.bench.timing import TIERS


def add_bench_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "bench",
        help="run the unified benchmark suite and gate against baselines",
        description=(
            "Parametric benchmark harness: named workloads x named conditions "
            "with bit-identity oracles, merged-schema results, and a "
            "tolerance-based comparator against committed baselines."
        ),
    )
    commands = parser.add_subparsers(dest="bench_command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered workloads, tiers, and gated metrics"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )

    run_parser = commands.add_parser(
        "run", help="run workloads at a tier and write the merged result file"
    )
    run_parser.add_argument(
        "--tier", choices=list(TIERS), default="quick", help="scale tier"
    )
    run_parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        metavar="NAME",
        help="run only this workload (repeatable; default: all)",
    )
    run_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="merged result file (default: BENCH_merged_<tier>.json)",
    )
    run_parser.add_argument(
        "--check-oracles",
        action="store_true",
        help="exit nonzero if any bit-identity oracle fails",
    )

    compare_parser = commands.add_parser(
        "compare", help="diff a merged result file against a baseline"
    )
    compare_parser.add_argument(
        "result", type=Path, help="merged result file produced by `bench run`"
    )
    compare_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: benchmarks/baselines/<tier>.json)",
    )
    compare_parser.add_argument(
        "--report",
        type=Path,
        default=None,
        help="also write the comparator findings as JSON",
    )
    compare_parser.add_argument(
        "--allow-subset",
        action="store_true",
        help="accept a run covering only some baseline workloads "
             "(partial `bench run --workload ...` results)",
    )

    trend_parser = commands.add_parser(
        "trend",
        help="text trend report over a directory of merged bench-run files",
    )
    trend_parser.add_argument(
        "directory", type=Path,
        help="directory of merged result JSON files (ordered by filename)",
    )
    trend_parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        metavar="NAME",
        help="track only this workload (repeatable; default: all)",
    )
    trend_parser.add_argument(
        "--metric",
        action="append",
        dest="metrics",
        metavar="NAME",
        help="track this metric instead of the gated ones "
             "(repeatable; e.g. obs.einsim.words_decoded)",
    )
    trend_parser.add_argument(
        "--json", action="store_true", help="emit the trend document as JSON"
    )

    update_parser = commands.add_parser(
        "update-baseline",
        help="re-run workloads and overwrite the committed baseline for a tier",
    )
    update_parser.add_argument(
        "--tier", choices=list(TIERS), default="quick", help="scale tier"
    )
    update_parser.add_argument(
        "--from-result",
        type=Path,
        default=None,
        metavar="FILE",
        help="promote an existing merged result file instead of re-running",
    )


def handle_bench(args) -> int:
    handlers = {
        "list": _handle_list,
        "run": _handle_run,
        "compare": _handle_compare,
        "trend": _handle_trend,
        "update-baseline": _handle_update_baseline,
    }
    return handlers[args.bench_command](args)


def _handle_trend(args) -> int:
    from repro.bench.trend import format_trend_text, load_runs, trend_data

    runs = load_runs(args.directory)
    if not runs:
        print(f"no merged bench-run files in {args.directory}", file=sys.stderr)
        return 2
    data = trend_data(runs, workloads=args.workloads, metrics=args.metrics)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(format_trend_text(data))
    return 0


def _handle_list(args) -> int:
    listing = workload_listing()
    if args.json:
        print(json.dumps(listing, indent=2))
        return 0
    print_header(f"repro.bench — {len(listing)} registered workloads")
    print_table(
        ["workload", "tags", "gated metrics"],
        [
            [
                entry["name"],
                ",".join(entry["tags"]),
                len(entry["gated_metrics"]),
            ]
            for entry in listing
        ],
    )
    return 0


def _handle_run(args) -> int:
    run = run_bench(args.workloads, tier=args.tier)
    print_run(run)
    output = args.output or Path(f"BENCH_merged_{args.tier}.json")
    run.write(output)
    print(f"wrote {output}")
    if args.check_oracles:
        failures = [
            f"{record.workload}/{condition.condition}: {oracle}"
            for record in run.workloads
            for condition in record.conditions
            for oracle, value in condition.oracles.items()
            if value is False
        ]
        if failures:
            print("ORACLE FAILURES: " + ", ".join(failures), file=sys.stderr)
            return 1
    return 0


def _handle_compare(args) -> int:
    run = BenchRun.read(args.result)
    baseline_file = args.baseline or baseline_path(run.tier)
    if not baseline_file.exists():
        print(f"no baseline at {baseline_file}", file=sys.stderr)
        return 2
    baseline = BenchRun.read(baseline_file)
    report = compare_runs(run, baseline, allow_subset=args.allow_subset)
    print_comparator_report(report)
    if args.report is not None:
        args.report.write_text(canonical_json(report.to_dict()))
        print(f"wrote {args.report}")
    return 0 if report.ok else 1


def _handle_update_baseline(args) -> int:
    if args.from_result is not None:
        run = BenchRun.read(args.from_result)
        if run.tier != args.tier:
            print(
                f"result file is tier {run.tier!r}, refusing to promote it "
                f"to the {args.tier!r} baseline",
                file=sys.stderr,
            )
            return 2
    else:
        run = run_bench(tier=args.tier)
        print_run(run)
    target = baseline_path(args.tier)
    target.parent.mkdir(parents=True, exist_ok=True)
    run.write(target)
    print(f"wrote {target}")
    print(
        "baseline updated — commit it together with a justification line in "
        "CHANGES.md (see README.md, 'Updating baselines')"
    )
    return 0
