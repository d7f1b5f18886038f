"""Command-line interface: the reproduction's analogue of the open-source BEER tool.

The paper releases a C++ application that takes an experimentally measured
miscorrection profile and determines the ECC function(s) that explain it.
This module provides the same workflow as a console script::

    beer-tool simulate-profile --vendor B --data-bits 8 --output profile.json
    beer-tool solve --profile profile.json [--backend fast|sat] [--max-solutions N]
    beer-tool verify --profile profile.json --columns 7,11,19,...
    beer-tool beep --data-bits 16 --error-positions 2,9 [--passes 2]
    beer-tool einsim --data-bits 32 --num-words 100000 --backend packed

The ``scenario`` command group drives the declarative fault-scenario
subsystem (:mod:`repro.scenarios`) with its persistent, content-addressed
campaign store (:mod:`repro.store`)::

    beer-tool scenario list
    beer-tool scenario run --scenario burst --param burst_probability=0.05 ...
    beer-tool scenario sweep --spec sweep.json --store campaign/ [--resume] [--jobs N]
    beer-tool scenario report --store campaign/

Monte-Carlo commands (``einsim``, ``scenario``) accept ``--backend
{reference,packed}`` selecting the GF(2) kernel implementation (``fused``
and ``auto`` are aliases of ``packed``, the default); both produce
bit-identical output for the same seed, ``packed`` is simply faster.
``simulate-profile`` takes no ``--backend``: the simulated chip has one
codec.  ``solve``, ``simulate-profile``,
``einsim``, ``beep`` and ``scenario run`` accept ``--code-family`` choosing
the ECC code family (:mod:`repro.ecc.family`): SEC Hamming (default),
SEC-DED extended Hamming, parity-detect, or repetition.  Result-producing
commands accept ``--json`` to emit a single machine-readable JSON document
on stdout.

Simulation- and solver-heavy commands (``solve``, ``beep``, ``einsim``,
``scenario run``, ``scenario sweep``) accept ``--trace PATH`` writing a
structured JSONL trace (:mod:`repro.obs`: spans, counters, metric events;
multi-process sweeps merge worker segments deterministically).  The
``trace`` command group post-processes trace files::

    beer-tool trace summary trace.jsonl [--json]
    beer-tool trace report trace.jsonl [--json]
    beer-tool trace export trace.jsonl --output chrome.json
    beer-tool trace validate trace.jsonl

Profiles are exchanged as JSON in the format produced by
:meth:`repro.core.profile.MiscorrectionProfile.to_dict`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import (
    CodeConstructionError, ProfileError, ReproError, SolverError, ValidationError,
)
from repro.ecc import FAMILY_NAMES, SystematicLinearCode, get_family
from repro.dram import ChipGeometry, DataRetentionModel, all_vendors
from repro.dram.retention import FAST_RETENTION
from repro.core import (
    BeerExperiment,
    BeerSolver,
    ExperimentConfig,
    MiscorrectionProfile,
    SatBeerSolver,
)
from repro.core.beep import BeepProfiler, SimulatedWordUnderTest
from repro.einsim.engine import BACKEND_CHOICES


def _add_trace_argument(parser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured JSONL trace of this invocation (spans, "
             "counters, metric events; see `beer-tool trace summary`)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``beer-tool`` console script."""
    parser = argparse.ArgumentParser(
        prog="beer-tool",
        description="BEER: determine DRAM on-die ECC functions from miscorrection profiles.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="solve a miscorrection profile for the ECC function(s)"
    )
    solve.add_argument("--profile", required=True, help="path to a profile JSON file")
    solve.add_argument("--parity-bits", type=int, default=None,
                       help="number of parity bits (default: minimum for the dataword length)")
    solve.add_argument("--max-solutions", type=int, default=None,
                       help="stop after this many candidate functions")
    solve.add_argument("--backend", choices=("fast", "sat"), default="fast",
                       help="constraint-propagation backend (fast) or CNF/CDCL backend (sat)")
    solve.add_argument("--code-family", choices=FAMILY_NAMES, default="sec-hamming",
                       help="code family whose design space is searched "
                            "(families with a fixed structure cannot be solved for)")
    solve.add_argument("--output", default=None, help="write the solutions to a JSON file")
    solve.add_argument("--sat-stats", action="store_true",
                       help="report incremental CDCL solver statistics "
                            "(requires --backend sat)")
    solve.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON document instead of text")
    _add_trace_argument(solve)

    verify = subparsers.add_parser(
        "verify", help="check that a parity-check matrix reproduces a profile"
    )
    verify.add_argument("--profile", required=True, help="path to a profile JSON file")
    verify.add_argument("--columns", required=True,
                        help="comma-separated integer columns of P (LSB = parity row 0)")
    verify.add_argument("--parity-bits", type=int, default=None)

    simulate = subparsers.add_parser(
        "simulate-profile",
        help="run a BEER campaign against a simulated chip and export its profile",
    )
    simulate.add_argument("--vendor", choices=("A", "B", "C"), default="A")
    simulate.add_argument("--data-bits", type=int, default=8)
    simulate.add_argument("--code-family", choices=FAMILY_NAMES, default="sec-hamming",
                          help="code family of the simulated chip's on-die ECC "
                               "(must have a searchable design space)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--rounds", type=int, default=8)
    simulate.add_argument("--output", required=True, help="where to write the profile JSON")
    simulate.add_argument("--json", action="store_true",
                          help="print a machine-readable JSON document instead of text")

    einsim = subparsers.add_parser(
        "einsim",
        help="run a Monte-Carlo ECC-word simulation and emit per-bit error statistics",
    )
    einsim.add_argument("--data-bits", type=int, default=32)
    einsim.add_argument("--code-family", choices=FAMILY_NAMES, default="sec-hamming",
                        help="code family to simulate (detect-only families "
                             "report DUEs instead of corrections)")
    einsim.add_argument("--num-words", type=int, default=100_000)
    einsim.add_argument("--ber", type=float, default=1e-3,
                        help="uniform-random pre-correction bit error rate")
    einsim.add_argument("--seed", type=int, default=0)
    einsim.add_argument("--backend",
                        choices=BACKEND_CHOICES,
                        default="packed",
                        help="GF(2) kernel backend for encode/decode")
    einsim.add_argument("--chunk-size", type=int, default=65536,
                        help="ECC words simulated per batch")
    einsim.add_argument("--processes", type=int, default=1,
                        help="worker processes for the chunked campaign runner")
    einsim.add_argument("--output", default=None,
                        help="write the per-bit figure data to a JSON file")
    einsim.add_argument("--json", action="store_true",
                        help="print the figure data as JSON on stdout instead of text")
    _add_trace_argument(einsim)

    beep = subparsers.add_parser(
        "beep", help="demonstrate BEEP on a simulated ECC word with known weak cells"
    )
    beep.add_argument("--data-bits", type=int, default=16)
    beep.add_argument("--code-family", choices=FAMILY_NAMES, default="sec-hamming",
                      help="code family of the word under test (BEEP needs a "
                           "correcting family: miscorrections are its signal)")
    beep.add_argument("--error-positions", required=True,
                      help="comma-separated codeword positions of the weak cells")
    beep.add_argument("--passes", type=int, default=2)
    beep.add_argument("--probability", type=float, default=1.0,
                      help="per-bit failure probability of the weak cells")
    beep.add_argument("--seed", type=int, default=0)
    beep.add_argument("--json", action="store_true",
                      help="print a machine-readable JSON document instead of text")
    _add_trace_argument(beep)

    _add_scenario_parser(subparsers)
    _add_store_parser(subparsers)
    _add_trace_parser(subparsers)

    from repro.bench.cli import add_bench_parser

    add_bench_parser(subparsers)
    _add_lint_parser(subparsers)

    return parser


def _add_scenario_parser(subparsers) -> None:
    scenario = subparsers.add_parser(
        "scenario",
        help="declarative fault-scenario sweeps with a persistent campaign store",
    )
    commands = scenario.add_subparsers(dest="scenario_command", required=True)

    listing = commands.add_parser("list", help="list the registered fault scenarios")
    listing.add_argument("--json", action="store_true",
                         help="print the registry as JSON")

    run = commands.add_parser(
        "run", help="run a single scenario cell (optionally cached in a store)"
    )
    run.add_argument("--scenario", required=True, help="registered scenario name")
    run.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                     help="scenario parameter (repeatable; values parsed as JSON)")
    run.add_argument("--data-bits", type=int, default=16)
    run.add_argument("--code-family", choices=FAMILY_NAMES, default="sec-hamming",
                     help="code family of the simulated ECC (participates in "
                          "the cell's content-addressed store key)")
    run.add_argument("--code-seed", type=int, default=None,
                     help="sample a random code with this seed (default: deterministic code)")
    run.add_argument("--dataword", default="ones",
                     help="dataword pattern: ones, zeros or alternating")
    run.add_argument("--num-words", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--backend",
                     choices=BACKEND_CHOICES,
                     default="packed")
    run.add_argument("--chunk-size", type=int, default=65536)
    run.add_argument("--processes", type=int, default=1,
                     help="worker processes for the cell's chunked campaign runner")
    run.add_argument("--store", default=None,
                     help="campaign directory; hits are served from the cache")
    _add_layout_argument(run)
    run.add_argument("--json", action="store_true",
                     help="print the cell result as JSON")
    _add_trace_argument(run)

    sweep = commands.add_parser(
        "sweep", help="expand a sweep spec and run its full experiment matrix"
    )
    sweep.add_argument("--spec", required=True, help="path to a sweep-spec JSON file")
    sweep.add_argument("--store", required=True, help="campaign directory")
    _add_layout_argument(sweep)
    sweep.add_argument("--resume", action="store_true",
                       help="continue a partially-completed sweep (sweeps are "
                            "content-addressed, so completed cells are never re-run)")
    sweep.add_argument("--processes", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="cells executed concurrently, one worker process "
                            "each (results are byte-identical for any value)")
    sweep.add_argument("--max-cells", type=int, default=None,
                       help="stop after this many fresh simulations (checkpointing; "
                            "exits 3 when the sweep is left incomplete)")
    sweep.add_argument("--json", action="store_true",
                       help="print the sweep report as JSON")
    sweep.add_argument("--progress", action="store_true",
                       help="render a live progress line (cells/sec, ETA) on stderr")
    _add_trace_argument(sweep)

    report = commands.add_parser(
        "report", help="summarise the contents of a campaign store"
    )
    report.add_argument("--store", required=True, help="campaign directory")
    report.add_argument("--json", action="store_true",
                        help="print the report as JSON")


def _add_layout_argument(parser) -> None:
    parser.add_argument(
        "--layout", choices=("auto", "single-file", "sharded"), default="auto",
        help="store layout for a *new* campaign directory: single-file "
             "(v1 records.jsonl) or sharded (v2 key-prefix segments with a "
             "compacted index); existing directories are auto-detected and "
             "a conflicting explicit layout fails (use `repro store "
             "migrate` to convert)")


def _add_store_parser(subparsers) -> None:
    store = subparsers.add_parser(
        "store",
        help="campaign-store lifecycle: stat, verify, compact, gc, migrate",
    )
    commands = store.add_subparsers(dest="store_command", required=True)

    stat = commands.add_parser(
        "stat", help="summarise a store: layout, records, bytes, segments"
    )
    stat.add_argument("directory", help="campaign store directory")
    stat.add_argument("--json", action="store_true",
                      help="print the summary as JSON")

    verify = commands.add_parser(
        "verify",
        help="deep-verify every record byte and index entry (exit 1 on "
             "problems)",
    )
    verify.add_argument("directory", help="campaign store directory")
    verify.add_argument("--json", action="store_true",
                        help="print the verification report as JSON")

    compact = commands.add_parser(
        "compact",
        help="rewrite segments canonically, dropping index garbage and "
             "stray bytes",
    )
    compact.add_argument("directory", help="campaign store directory")
    compact.add_argument("--json", action="store_true",
                         help="print the compaction summary as JSON")

    gc = commands.add_parser(
        "gc",
        help="remove dead artefacts: tmp files, stale locks, interrupted-"
             "migration leftovers",
    )
    gc.add_argument("directory", help="campaign store directory")
    gc.add_argument("--json", action="store_true",
                    help="print the removed artefacts as JSON")

    migrate = commands.add_parser(
        "migrate",
        help="convert a store between layouts (v1 single-file <-> v2 "
             "sharded) with a proven record round-trip",
    )
    migrate.add_argument("directory", help="campaign store directory")
    migrate.add_argument("--to", required=True, dest="to_layout",
                         choices=("single-file", "sharded"),
                         help="target layout")
    migrate.add_argument("--json", action="store_true",
                         help="print the migration summary as JSON")


def _add_trace_parser(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace", help="inspect, aggregate and export structured trace files"
    )
    commands = trace.add_subparsers(dest="trace_command", required=True)

    summary = commands.add_parser(
        "summary", help="aggregate span/counter totals of a trace file"
    )
    summary.add_argument("path", help="trace JSONL file (from --trace)")
    summary.add_argument("--json", action="store_true",
                         help="print the aggregate summary as JSON")

    report = commands.add_parser(
        "report",
        help="full report: summary plus per-process totals and slowest spans",
    )
    report.add_argument("path", help="trace JSONL file (from --trace)")
    report.add_argument("--limit", type=int, default=10,
                        help="slowest span instances to list")
    report.add_argument("--json", action="store_true",
                        help="print the report as JSON")

    export = commands.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    export.add_argument("path", help="trace JSONL file (from --trace)")
    export.add_argument("--output", required=True,
                        help="where to write the Chrome trace JSON")

    validate = commands.add_parser(
        "validate", help="schema-validate a trace file (exit 1 on violations)"
    )
    validate.add_argument("path", help="trace JSONL file (from --trace)")
    validate.add_argument("--json", action="store_true",
                          help="print the validation outcome as JSON")


def _add_lint_parser(subparsers) -> None:
    from repro.lint.cli import add_lint_parser

    add_lint_parser(subparsers)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``beer-tool`` console script."""
    args = build_parser().parse_args(argv)
    from repro.lint.cli import handle_lint

    handlers = {
        "solve": _run_solve,
        "verify": _run_verify,
        "simulate-profile": _run_simulate_profile,
        "beep": _run_beep,
        "einsim": _run_einsim,
        "scenario": _run_scenario,
        "store": _run_store,
        "bench": _run_bench,
        "trace": _run_trace,
        "lint": handle_lint,
    }
    handler = handlers[args.command]
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return handler(args)
    return _run_traced(handler, args, trace_path)


def _run_traced(handler, args, trace_path: str) -> int:
    """Run a subcommand with the process-wide tracer writing to ``trace_path``."""
    import os

    from repro.obs import TRACER

    TRACER.enable(sink_path=trace_path, meta={"command": args.command})
    try:
        with TRACER.span(f"cli.{args.command}"):
            exit_code = handler(args)
        TRACER.flush()
    finally:
        TRACER.disable()
    # Sweeps create a segment directory for worker trace files; every segment
    # is adopted and removed at commit, so an empty leftover is just noise.
    try:
        os.rmdir(trace_path + ".segments")
    except OSError:
        pass
    print(f"wrote trace to {trace_path}", file=sys.stderr)
    return exit_code


def _run_bench(args) -> int:
    from repro.bench.cli import handle_bench

    return handle_bench(args)


# -- trace command group ------------------------------------------------------------
def _run_trace(args) -> int:
    handlers = {
        "summary": _run_trace_summary,
        "report": _run_trace_report,
        "export": _run_trace_export,
        "validate": _run_trace_validate,
    }
    return handlers[args.trace_command](args)


def _run_trace_summary(args) -> int:
    from repro.obs import format_summary_text, summarize_trace

    summary = summarize_trace(args.path)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary_text(summary))
    return 0


def _run_trace_report(args) -> int:
    from repro.obs import (
        format_summary_text,
        per_process_totals,
        read_trace,
        slowest_spans,
        summarize_events,
    )

    events = read_trace(args.path)
    summary = summarize_events(events)
    processes = per_process_totals(events)
    slowest = slowest_spans(events, limit=args.limit)
    if args.json:
        print(json.dumps(
            {"summary": summary, "per_process": processes, "slowest_spans": slowest},
            indent=2, sort_keys=True,
        ))
        return 0
    print(format_summary_text(summary))
    print("\nper-process span time:")
    for row in processes:
        print(f"  pid {row['pid']}: {row['events']} events, {row['spans']} spans, "
              f"{row['span_s']:.3f}s total span time")
    print(f"\nslowest {len(slowest)} span instances:")
    for row in slowest:
        print(f"  {row['dur_s']:.4f}s  {row['name']}  [{row['id']}]")
    return 0


def _run_trace_export(args) -> int:
    from repro.obs import write_chrome_trace

    count = write_chrome_trace(args.path, args.output)
    print(f"wrote {count} Chrome trace events to {args.output} "
          "(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _run_trace_validate(args) -> int:
    from repro.obs import TraceValidationError, read_trace, validate_events

    try:
        events = read_trace(args.path)
        violations = validate_events(events)
    except TraceValidationError as error:
        events, violations = [], [str(error)]
    if args.json:
        print(json.dumps(
            {"valid": not violations, "num_events": len(events),
             "violations": violations},
            indent=2,
        ))
    elif violations:
        for violation in violations:
            print(f"INVALID: {violation}")
    else:
        print(f"OK: {len(events)} events")
    return 1 if violations else 0


# -- subcommand implementations -------------------------------------------------
def _run_solve(args) -> int:
    if args.sat_stats and args.backend != "sat":
        print("--sat-stats requires --backend sat", file=sys.stderr)
        return 2
    backend = SatBeerSolver if args.backend == "sat" else BeerSolver
    try:
        profile = _load_profile(args.profile)
        solver = backend(profile.num_data_bits, args.parity_bits, family=args.code_family)
        solution = solver.solve(profile, max_solutions=args.max_solutions)
    except (ProfileError, SolverError, ValidationError) as error:
        print(str(error), file=sys.stderr)
        return 2

    payload = {
        "num_data_bits": profile.num_data_bits,
        "num_parity_bits": solver.num_parity_bits,
        "backend": args.backend,
        "code_family": solver.family.name,
        "design_space_columns": solution.design_space_columns,
        "truncated": solution.truncated,
        "num_solutions": solution.num_solutions,
        "candidates": [list(code.parity_column_ints) for code in solution.codes],
    }
    if args.sat_stats:
        payload["solver_stats"] = solution.solver_stats
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"profile: k={profile.num_data_bits}, {len(profile.patterns)} patterns, "
              f"{profile.total_miscorrections} miscorrection entries")
        print(f"solver backend: {args.backend}")
        print(f"code family: {solver.family.name} "
              f"({solution.design_space_columns} legal column values)")
        print(f"candidate ECC functions found: {solution.num_solutions}"
              + (" (search truncated)" if solution.truncated else ""))
        for index, code in enumerate(solution.codes):
            print(f"\ncandidate {index}: parity columns {list(code.parity_column_ints)}")
            for row in code.parity_check_matrix:
                print(" ".join(str(bit) for bit in row))
        if args.sat_stats:
            _print_sat_stats(solution.solver_stats)

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        if not args.json:
            print(f"\nwrote solutions to {args.output}")
    return 0 if solution.num_solutions > 0 else 1


def _run_verify(args) -> int:
    try:
        profile = _load_profile(args.profile)
    except ProfileError as error:
        print(str(error), file=sys.stderr)
        return 2
    parity_bits = (
        args.parity_bits
        if args.parity_bits is not None
        else get_family("sec-hamming").min_parity_bits(profile.num_data_bits)
    )
    try:
        columns = _parse_int_list(args.columns, "--columns")
        if len(columns) != profile.num_data_bits:
            raise ValidationError(
                f"--columns gives {len(columns)} columns, the profile has "
                f"k={profile.num_data_bits} data bits"
            )
        code = SystematicLinearCode.from_parity_columns(columns, parity_bits)
    except (ReproError, ValueError) as error:
        print(f"invalid code: {error}", file=sys.stderr)
        return 2
    matches = BeerSolver.verify(code, profile)
    print("MATCH" if matches else "MISMATCH")
    return 0 if matches else 1


def _run_simulate_profile(args) -> int:
    family = get_family(args.code_family)
    if not family.supports_beer:
        print(f"code family {family.name!r} has a fixed structure; a BEER "
              "campaign against it has nothing to recover", file=sys.stderr)
        return 2
    vendor = next(v for v in all_vendors() if v.name == args.vendor)
    chip = vendor.make_chip(
        num_data_bits=args.data_bits,
        geometry=ChipGeometry(num_rows=32, words_per_row=8),
        seed=args.seed,
        retention_model=DataRetentionModel(FAST_RETENTION),
        code_family=family.name,
    )
    config = ExperimentConfig(
        pattern_weights=(1, 2),
        refresh_windows_s=(30.0, 45.0, 60.0),
        rounds_per_window=args.rounds,
        threshold=0.0,
        discover_cell_encoding=True,
        discovery_pause_s=60.0,
    )
    result = BeerExperiment(chip, config).run(solve=False)
    with open(args.output, "w") as handle:
        json.dump(result.profile.to_dict(), handle, indent=2)
    if args.json:
        print(json.dumps({
            "vendor": vendor.name,
            "num_data_bits": args.data_bits,
            "code_family": family.name,
            "num_entries": len(result.profile.patterns),
            "output": args.output,
        }, indent=2))
    else:
        print(f"simulated a vendor-{vendor.name} chip with k={args.data_bits} "
              f"({family.name} on-die ECC) and wrote "
              f"{len(result.profile.patterns)} pattern entries to {args.output}")
    return 0


def _run_beep(args) -> int:
    family = get_family(args.code_family)
    try:
        code = family.random(args.data_bits, rng=np.random.default_rng(args.seed))
    except CodeConstructionError as error:
        print(str(error), file=sys.stderr)
        return 2
    if code.detect_only:
        print(f"code family {family.name!r} is detect-only; BEEP needs a "
              "correcting family (miscorrections are its signal)",
              file=sys.stderr)
        return 2
    try:
        positions = _parse_int_list(args.error_positions, "--error-positions")
        outside = [p for p in positions if not 0 <= p < code.codeword_length]
        if outside:
            raise ValidationError(f"--error-positions {outside} lie outside the "
                             f"{code.codeword_length}-bit codeword")
        if not 0.0 <= args.probability <= 1.0:
            raise ValidationError(f"--probability must lie in [0, 1], got {args.probability}")
        if args.passes < 1:
            raise ValidationError(f"--passes must be at least 1, got {args.passes}")
    except ValidationError as error:
        print(str(error), file=sys.stderr)
        return 2
    word = SimulatedWordUnderTest(
        code, positions, per_bit_probability=args.probability,
        rng=np.random.default_rng(args.seed + 1),
    )
    result = BeepProfiler(code).profile(word, num_passes=args.passes)
    identified = sorted(result.identified_errors)
    fully_identified = set(identified) == set(positions)
    if args.json:
        print(json.dumps({
            "codeword_length": code.codeword_length,
            "num_data_bits": code.num_data_bits,
            "code_family": code.family_name,
            "true_positions": sorted(positions),
            "identified_positions": identified,
            "patterns_tested": result.patterns_tested,
            "miscorrections_observed": result.miscorrections_observed,
            "fully_identified": fully_identified,
        }, indent=2))
    else:
        print(f"ECC function: ({code.codeword_length}, {code.num_data_bits}) "
              f"{code.family_name} code")
        print(f"true weak cells:       {sorted(positions)}")
        print(f"identified weak cells: {identified}")
        print(f"patterns tested: {result.patterns_tested}, "
              f"miscorrections observed: {result.miscorrections_observed}")
    return 0 if fully_identified else 1


def _print_sat_stats(stats) -> None:
    print("\nSAT solver statistics (incremental CDCL):")
    for key, value in sorted((stats or {}).items()):
        print(f"  {key}: {value}")


def _run_einsim(args) -> int:
    from repro.core import MonteCarloCampaign
    from repro.einsim import UniformRandomInjector

    family = get_family(args.code_family)
    try:
        code = family.random(args.data_bits, rng=np.random.default_rng(args.seed))
    except CodeConstructionError as error:
        print(str(error), file=sys.stderr)
        return 2
    campaign = MonteCarloCampaign(
        code,
        chunk_size=args.chunk_size,
        processes=args.processes,
        backend=args.backend,
        base_seed=args.seed,
    )
    injector = UniformRandomInjector(args.ber)
    result = campaign.simulate(
        np.ones(code.num_data_bits, dtype=np.uint8), injector, args.num_words
    )

    payload = {
        "codeword_length": code.codeword_length,
        "num_data_bits": code.num_data_bits,
        "code_family": code.family_name,
        "parity_columns": list(code.parity_column_ints),
        "num_words": result.num_words,
        "bit_error_rate": args.ber,
        "backend": campaign.backend,
        "post_correction_error_counts": [
            int(c) for c in result.post_correction_error_counts
        ],
        "pre_correction_error_counts": [
            int(c) for c in result.pre_correction_error_counts
        ],
        "uncorrectable_words": result.uncorrectable_words,
        "miscorrected_words": result.miscorrected_words,
        "detected_words": result.detected_words,
        "miscorrection_positions": list(result.miscorrection_positions),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"simulated {result.num_words} words of a "
              f"({code.codeword_length}, {code.num_data_bits}) {code.family_name} "
              f"code [{campaign.backend} backend]")
        print(f"uncorrectable words: {result.uncorrectable_words}, "
              f"miscorrected words: {result.miscorrected_words}, "
              f"detected (DUE) words: {result.detected_words}")
        print("per-data-bit post-correction error counts: "
              + ",".join(str(int(c)) for c in result.post_correction_error_counts))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        if not args.json:
            print(f"wrote figure data to {args.output}")
    return 0


# -- scenario command group ---------------------------------------------------------
def _run_scenario(args) -> int:
    handlers = {
        "list": _run_scenario_list,
        "run": _run_scenario_run,
        "sweep": _run_scenario_sweep,
        "report": _run_scenario_report,
    }
    return handlers[args.scenario_command](args)


def _run_scenario_list(args) -> int:
    from repro.scenarios import all_scenarios, REQUIRED

    definitions = all_scenarios()
    if args.json:
        print(json.dumps([
            {
                "name": definition.name,
                "description": definition.description,
                "parameters": {
                    key: ("<required>" if value is REQUIRED else value)
                    for key, value in sorted(definition.defaults.items())
                },
            }
            for definition in definitions
        ], indent=2))
        return 0
    for definition in definitions:
        print(f"{definition.name}: {definition.description}")
        for key, value in sorted(definition.defaults.items()):
            rendered = "<required>" if value is REQUIRED else repr(value)
            print(f"    {key} = {rendered}")
    return 0


def _run_scenario_run(args) -> int:
    from repro.scenarios import SweepRunner, make_einsim_cell
    from repro.store import CampaignStore

    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"--param expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, _, raw = item.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw

    code_spec = {"data_bits": args.data_bits}
    if args.code_family != "sec-hamming":
        # Only a non-default family is recorded, keeping historical cell
        # configurations (and their content-addressed keys) unchanged.
        code_spec["code_family"] = args.code_family
    if args.code_seed is not None:
        code_spec["code_seed"] = args.code_seed
    try:
        cell = make_einsim_cell(
            scenario=args.scenario,
            params=params,
            code=code_spec,
            num_words=args.num_words,
            seed=args.seed,
            backend=args.backend,
            dataword=args.dataword,
            chunk_size=args.chunk_size,
        )
    except ReproError as error:
        print(f"invalid scenario cell: {error}", file=sys.stderr)
        return 2
    store = (
        CampaignStore(args.store, layout=args.layout) if args.store else None
    )
    runner = SweepRunner(store=store, processes=args.processes)
    outcome = runner.run_one(cell)
    cached, result = outcome.cached, outcome.record.result

    if args.json:
        print(json.dumps(
            {"key": cell.key(), "cached": cached, "config": cell.config(),
             "result": result},
            indent=2, sort_keys=True,
        ))
    else:
        source = "cache" if cached else "simulation"
        print(f"scenario {args.scenario} [{source}]: "
              f"{result['num_words']} words of a "
              f"({result['codeword_length']}, {result['num_data_bits']}) code")
        print(f"uncorrectable words: {result['uncorrectable_words']}, "
              f"miscorrected words: {result['miscorrected_words']}")
        print(f"store key: {cell.key()}")
    return 0


def _run_scenario_sweep(args) -> int:
    from repro.scenarios import SweepRunner, SweepSpec
    from repro.store import CampaignStore

    try:
        spec = SweepSpec.from_json_file(args.spec)
    except (ReproError, OSError, TypeError, ValueError) as error:
        # A spec is only parsed and validated here; nothing has run yet.
        print(f"invalid sweep spec {args.spec}: {error}", file=sys.stderr)
        return 2
    store = CampaignStore(args.store, layout=args.layout)
    runner = SweepRunner(store=store, processes=args.processes, jobs=args.jobs)
    progress_line = None
    progress = None
    if args.progress:
        from repro.obs import ProgressLine

        progress_line = ProgressLine(spec.name, spec.num_cells)

        def progress(outcome, line=progress_line):
            line.update(outcome.cached)
    try:
        report = runner.run(
            spec, max_new_simulations=args.max_cells, progress=progress
        )
    finally:
        if progress_line is not None:
            progress_line.finish()

    if args.json:
        payload = report.to_dict()
        payload["store"] = store.directory
        print(json.dumps(payload, indent=2))
    else:
        status = "completed" if report.completed else "interrupted (resume to finish)"
        print(f"sweep {report.spec_name}: {report.total_cells} cells, "
              f"{report.simulated} simulated, {report.cached} served from cache")
        print(f"store: {store.directory} [{status}]")
        if report.cached and not args.resume:
            print("note: cells already present in the store were served from "
                  "cache (pass --resume to mark this as an intentional "
                  "continuation)")
    return 0 if report.completed else 3


def _run_scenario_report(args) -> int:
    from repro.analysis import campaign_report_data
    from repro.store import CampaignStore

    store = CampaignStore(args.store)
    data = campaign_report_data(store)
    if args.json:
        print(json.dumps(data, indent=2))
        return 0
    print(f"campaign store {store.directory}: {data['num_records']} records")
    for row in data["scenarios"]:
        families = ",".join(row["code_families"]) or "sec-hamming"
        print(f"  scenario {row['scenario']}: {row['cells']} cells, "
              f"{row['num_words']} words, "
              f"post-correction BER {row['post_correction_ber']:.3e}, "
              f"uncorrectable {row['uncorrectable_fraction']:.3%}, "
              f"DUE {row['detected_fraction']:.3%} [{families}]")
    for row in data["beer_campaigns"]:
        print(f"  BEER vendor {row['vendor']}: {row['cells']} campaigns, "
              f"{row['num_patterns']} patterns, "
              f"{row['total_miscorrections']} miscorrection entries")
        if row["solved_cells"]:
            print(f"    SAT ({row['solved_cells']} solved cells): "
                  f"{row['sat_conflicts']} conflicts, "
                  f"{row['sat_decisions']} decisions, "
                  f"{row['sat_propagations']} propagations")
    return 0


def _run_store(args) -> int:
    handlers = {
        "stat": _run_store_stat,
        "verify": _run_store_verify,
        "compact": _run_store_compact,
        "gc": _run_store_gc,
        "migrate": _run_store_migrate,
    }
    return handlers[args.store_command](args)


def _run_store_stat(args) -> int:
    from repro.store import store_stat

    stat = store_stat(args.directory)
    if args.json:
        print(json.dumps(stat, indent=2, sort_keys=True))
        return 0
    print(f"store {stat['directory']}: layout {stat['layout']}, "
          f"{stat['records']} records, {stat['bytes']} bytes in "
          f"{stat['segments']} segment(s)")
    for row in stat.get("segment_detail", []):
        print(f"  segment {row['segment']}: {row['records']} records, "
              f"{row['bytes']} bytes (+{row['index_bytes']} index)")
    return 0


def _run_store_verify(args) -> int:
    from repro.store import store_verify

    report = store_verify(args.directory)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    if report["ok"]:
        print(f"store {report['directory']}: OK "
              f"({report['records']} records verified, layout "
              f"{report['layout']})")
        return 0
    print(f"store {report['directory']}: {len(report['problems'])} problem(s)")
    for problem in report["problems"]:
        print(f"  {problem}")
    return 1


def _run_store_compact(args) -> int:
    from repro.store import store_compact

    summary = store_compact(args.directory)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    reclaimed = summary["bytes_before"] - summary["bytes_after"]
    print(f"store {summary['directory']}: compacted "
          f"{summary['segments_compacted']} segment(s), "
          f"{summary['records']} records, {reclaimed} bytes reclaimed")
    return 0


def _run_store_gc(args) -> int:
    from repro.store import store_gc

    summary = store_gc(args.directory)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    removed = summary["removed"]
    total = sum(len(paths) for paths in removed.values())
    print(f"store {summary['directory']}: removed {total} dead artefact(s)")
    for kind in sorted(removed):
        for path in removed[kind]:
            print(f"  [{kind}] {path}")
    return 0


def _run_store_migrate(args) -> int:
    from repro.store import store_migrate

    summary = store_migrate(args.directory, args.to_layout)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if not summary["migrated"]:
        print(f"store {summary['directory']}: already {summary['to']} "
              f"({summary['records']} records); nothing to do")
        return 0
    print(f"store {summary['directory']}: migrated {summary['from']} -> "
          f"{summary['to']} ({summary['records']} records, round-trip "
          "verified)")
    return 0


# -- helpers -----------------------------------------------------------------------
def _load_profile(path: str) -> MiscorrectionProfile:
    """The profile stored in ``path``; :class:`ProfileError` if unreadable or malformed."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProfileError(f"cannot read profile {path}: {error}") from error
    return MiscorrectionProfile.from_dict(payload)


def _parse_int_list(text: str, option: str) -> List[int]:
    try:
        return [int(token) for token in text.split(",") if token.strip() != ""]
    except ValueError:
        raise ValidationError(
            f"{option} takes comma-separated integers, got {text!r}"
        ) from None


if __name__ == "__main__":
    sys.exit(main())
