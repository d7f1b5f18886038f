"""Pytest and standalone-script glue for benchmark workloads.

The 19 ``benchmarks/bench_*.py`` modules are thin declarations: each calls
:func:`bench_workload_test` to get a pytest-collectable test function, and
:func:`standalone_main` to keep its historical ``python benchmarks/...``
entry point.  Tier selection is environment-driven so CI and local runs can
share the same files:

* ``REPRO_BENCH_TIER`` — explicit tier name (``smoke``/``quick``/``full``);
* ``REPRO_BENCH_QUICK=1`` — legacy switch, maps to ``quick``;
* otherwise the default passed by the caller (``quick`` for pytest runs).
"""

from __future__ import annotations

import argparse
import os
from typing import Callable

from repro.exceptions import ValidationError
from repro.bench.driver import run_workload
from repro.bench.registry import get_workload
from repro.bench.report import print_workload_record
from repro.bench.schema import ORACLE_SKIPPED
from repro.bench.timing import TIERS


def resolve_tier(default: str = "quick") -> str:
    """The benchmark tier selected by the environment, else *default*."""
    tier = os.environ.get("REPRO_BENCH_TIER", "").strip().lower()
    if tier:
        if tier not in TIERS:
            raise ValidationError(f"REPRO_BENCH_TIER must be one of {TIERS}, got {tier!r}")
        return tier
    if os.environ.get("REPRO_BENCH_QUICK", "") == "1":
        return "quick"
    return default


def check_record(record, skip=None) -> None:
    """Assert every oracle in *record* holds; report skipped gates via *skip*.

    ``skip`` is called with a reason string when any oracle is ``"skipped"``
    (e.g. ``pytest.skip`` to surface the reason in the test report) after all
    hard oracles have been checked — a skipped gate never masks a failure.
    """
    failures = []
    skipped = []
    for condition in record.conditions:
        for name, value in condition.oracles.items():
            if value is False:
                failures.append(f"{record.workload}/{condition.condition}: {name}")
            elif value == ORACLE_SKIPPED:
                skipped.append(f"{condition.condition}: {name}")
    assert not failures, "oracle violations: " + ", ".join(failures)
    if skipped and skip is not None:
        reason = record.artifacts.get("skip_reason") or ", ".join(skipped)
        skip(f"gate(s) not applicable: {reason}")


def bench_workload_test(name: str, default_tier: str = "quick") -> Callable:
    """A pytest test function running workload *name* at the resolved tier.

    The test prints the workload report, asserts every oracle and surfaces
    skipped gates as pytest skips.
    """

    def test() -> None:
        import pytest

        tier = resolve_tier(default_tier)
        workload = get_workload(name)
        record = run_workload(workload, tier)
        print()
        print_workload_record(record, tier)
        check_record(record, skip=pytest.skip)

    test.__name__ = f"test_bench_{name.replace('-', '_')}"
    test.__doc__ = get_workload(name).description
    return test


def standalone_main(name: str, argv=None) -> int:
    """CLI entry point preserved for ``python benchmarks/bench_*.py``."""
    parser = argparse.ArgumentParser(description=get_workload(name).description)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the reduced quick tier instead of the full tier",
    )
    parser.add_argument(
        "--tier",
        choices=list(TIERS),
        default=None,
        help="explicit tier (overrides --quick)",
    )
    args = parser.parse_args(argv)
    tier = args.tier or ("quick" if args.quick else resolve_tier("full"))

    workload = get_workload(name)
    record = run_workload(workload, tier)
    print_workload_record(record, tier)
    failures = [
        f"{condition.condition}: {oracle}"
        for condition in record.conditions
        for oracle, value in condition.oracles.items()
        if value is False
    ]
    if failures:
        print("ORACLE FAILURES: " + ", ".join(failures))
        return 1
    return 0
