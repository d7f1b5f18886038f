"""``repro lint`` — the command-line front end of :mod:`repro.lint`.

Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule code, bad
path).  ``--json`` emits a stable machine-readable report (sorted
findings, per-code counts) for the CI artifact.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional, TextIO

from repro.lint.engine import LintError, counts_by_code, lint_paths, select_rules
from repro.lint.rules import ALL_RULES

#: Default lint target when no PATHS are given: the library, whose
#: determinism is load-bearing.
DEFAULT_PATHS = ("src",)


def add_lint_parser(subparsers: Any) -> None:
    """Register the ``lint`` subcommand on an argparse subparsers object."""
    lint = subparsers.add_parser(
        "lint",
        help="run the determinism & invariant linter (RPR1xx rules)",
        description=(
            "AST-based static analysis for the invariants the repro "
            "pipeline depends on: deterministic iteration, no hidden "
            "entropy, guarded instrumentation, store write discipline, "
            "pool safety, exception discipline."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS), metavar="PATHS",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report",
    )
    lint.add_argument(
        "--select", action="append", default=None, metavar="RPRxxx",
        help="run only these rule codes (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", default=None, metavar="RPRxxx",
        help="skip these rule codes (repeatable)",
    )
    lint.add_argument(
        "--explain", default=None, metavar="RPRxxx",
        help="print the rationale and examples for one rule code, then exit",
    )
    lint.add_argument(
        "--no-suppression-checks", action="store_true",
        help="skip unused-suppression / missing-reason hygiene findings",
    )


def _explain(code: str, stream: TextIO) -> int:
    for rule in ALL_RULES:
        if rule.code == code:
            stream.write(f"{rule.code} ({rule.name}): {rule.summary}\n\n")
            stream.write(rule.explanation.rstrip() + "\n")
            return 0
    known = ", ".join(rule.code for rule in ALL_RULES)
    stream.write(f"unknown rule code {code!r}; known codes: {known}\n")
    return 2


def handle_lint(args: Any, stream: Optional[TextIO] = None) -> int:
    """Run the linter per parsed CLI ``args``; returns the process exit code."""
    out: TextIO = stream if stream is not None else sys.stdout
    if args.explain is not None:
        return _explain(args.explain, out)
    try:
        rules = select_rules(ALL_RULES, select=args.select, ignore=args.ignore)
        findings, files_checked = lint_paths(
            args.paths,
            rules,
            check_suppressions=not args.no_suppression_checks,
        )
    except LintError as error:
        out.write(f"repro lint: {error}\n")
        return 2
    if args.json:
        report = {
            "files_checked": files_checked,
            "rules": [rule.code for rule in rules],
            "counts": counts_by_code(findings),
            "findings": [finding.to_dict() for finding in findings],
        }
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 1 if findings else 0
    for finding in findings:
        out.write(finding.format() + "\n")
    if findings:
        counts = counts_by_code(findings)
        summary = ", ".join(f"{code}: {n}" for code, n in counts.items())
        out.write(
            f"{len(findings)} finding(s) in {files_checked} file(s) "
            f"({summary})\n"
        )
        return 1
    out.write(f"{files_checked} file(s) clean\n")
    return 0
