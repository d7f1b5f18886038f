"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload beer-recovery --seed 1 --seconds 12 --trace 0

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The library is
imported from ``src/`` of the same checkout; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Thread pools that numpy's BLAS or OpenMP could start; pinned to one thread
#: before numpy is imported, so that one process uses one core.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [SRC, ROOT]
    start = time.perf_counter()
    try:
        import repro
        from perfbench import bench
    except ImportError as error:
        print(f"cannot import the library from {SRC}: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro was imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
