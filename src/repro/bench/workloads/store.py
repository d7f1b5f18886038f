"""Workload: store open + full cache-hit check, and append scaling.

The synthetic campaign has deliberately small configs and fat result
payloads — the shape of a real einsim sweep — so the cost a layout pays
to answer "is this key committed?" is what the timer sees.  Opening a v1
single-file store parses and content-verifies every payload before the
first membership test; a v2 sharded store reads only its compacted
sidecar indexes and answers membership from a dict.  The full tier runs
the ISSUE-9 acceptance scale (>=20k cells) and gates the speedup at 10x;
smoke/quick record the speedup but skip the floor (small stores measure
filesystem latency, not layout behaviour).

The ``append`` condition times further puts into both layouts, once into
stores of ``append_base`` records and once into the tier's ``records``.
A put must cost the same however large the store is, so ``put_growth``
(mean put time, large store over small) is gated at the full tier
(25,000 vs 2,000 records) alongside the speedup floor.  The first put of
each store is timed on its own: it pays the one-off pass over the index
that finds the next commit sequence number, which belongs with opening
the store rather than with the steady per-put cost.

Correctness oracles in every tier: exact record counts through both
layouts (opened and appended), identical key sets, and a byte-identity
proof that ``migrate(v1 -> v2)`` -> ``compact`` -> ``migrate(v2 -> v1)``
reproduces the original ``records.jsonl`` bit for bit.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.bench.registry import (
    BenchContext,
    MetricGate,
    WorkloadResult,
    register_workload,
)
from repro.bench.schema import ORACLE_SKIPPED


def _synthetic_cell(
    index: int, result_ints: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The ``(config, result)`` of synthetic cell ``index``."""
    config = {"cell": index, "kind": "bench-store", "seed": index % 7}
    result = {
        "counts": [(index * 31 + slot) % 997 for slot in range(result_ints)],
        "num_words": 1000 + index,
    }
    return config, result


def _write_synthetic_v1(directory: Path, records: int, result_ints: int) -> bytes:
    """Write a canonical v1 ``records.jsonl`` of ``records`` synthetic cells."""
    from repro.store import ResultRecord, content_key

    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for index in range(records):
        config, result = _synthetic_cell(index, result_ints)
        record = ResultRecord(
            key=content_key(config), config=config, result=result
        )
        lines.append(record.to_json_line() + "\n")
    payload = "".join(lines).encode("utf-8")
    (directory / "records.jsonl").write_bytes(payload)
    return payload


def _write_store_pair(
    workdir: Path, name: str, records: int, result_ints: int
) -> Tuple[Path, Path, bytes, int]:
    """A v1 store of ``records`` synthetic cells and its v2 twin.

    The twin holds the same record set, migrated through the real path;
    the migration's record count comes last.
    """
    from repro.store import SHARDED, store_migrate

    v1_dir = workdir / f"{name}-v1"
    v1_bytes = _write_synthetic_v1(v1_dir, records, result_ints)
    v2_dir = workdir / f"{name}-v2"
    shutil.copytree(v1_dir, v2_dir)
    migrated = store_migrate(v2_dir, SHARDED)["records"]
    return v1_dir, v2_dir, v1_bytes, migrated


def _time_appends(
    directories: Sequence[Path], puts: int, result_ints: int
) -> List[Tuple[float, float, int]]:
    """Open each store and put ``puts`` new cells into it, one at a time.

    Puts alternate between the stores, so a disk that slows down or speeds
    up mid-run does so for all of them alike.  Returns, per store, the
    first put's seconds, the mean seconds of the rest, and how many
    records a reopen finds beyond the ones the store started with.
    """
    from repro.store import CampaignStore

    stores = [CampaignStore(directory) for directory in directories]
    before = [len(store) for store in stores]
    seconds: List[List[float]] = [[] for _ in stores]
    for index in range(puts):
        for store, start, spent in zip(stores, before, seconds):
            config, result = _synthetic_cell(start + index, result_ints)
            began = time.perf_counter()
            store.put(config, result)
            spent.append(time.perf_counter() - began)
    return [
        (
            spent[0],
            sum(spent[1:]) / (puts - 1),
            len(CampaignStore(directory)) - start,
        )
        for directory, start, spent in zip(directories, before, seconds)
    ]


def _open_and_hit_check(directory: Path, keys: list) -> int:
    """Open a store and membership-test every key; return the hit count."""
    from repro.store import CampaignStore

    store = CampaignStore(directory)
    return sum(1 for key in keys if key in store)


def _run(params: Mapping, context: BenchContext) -> WorkloadResult:
    from repro.store import (
        SHARDED,
        SINGLE_FILE,
        CampaignStore,
        store_compact,
        store_migrate,
    )

    records = params["records"]
    floor = params["speedup_floor"]
    ceiling = params["growth_ceiling"]
    puts = params["append_puts"]
    result_ints = params["result_ints"]
    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    try:
        v1_dir, v2_dir, v1_bytes, migrated = _write_store_pair(
            workdir, "large", records, result_ints
        )
        keys = CampaignStore(v1_dir).keys()

        # Round-trip proof on a third copy: v1 -> v2 -> compact -> v1 must
        # reproduce the original records.jsonl byte for byte.
        rt_dir = workdir / "roundtrip"
        shutil.copytree(v1_dir, rt_dir)
        store_migrate(rt_dir, SHARDED)
        store_compact(rt_dir)
        store_migrate(rt_dir, SINGLE_FILE)
        round_trip_identical = (
            rt_dir / "records.jsonl"
        ).read_bytes() == v1_bytes

        timings = {}
        hits = {}
        for label, directory in (("single-file", v1_dir), ("sharded", v2_dir)):
            timing = context.control.time_once(
                lambda d=directory: _open_and_hit_check(d, keys)
            )
            timings[label] = timing
            hits[label] = timing.last_result

        speedup = timings["single-file"].best_seconds / max(
            timings["sharded"].best_seconds, 1e-12
        )
        skipped = floor is None
        sharded_keys = CampaignStore(v2_dir).keys()

        # Append scaling: the same number of puts into small and large
        # stores of each layout.
        small_v1, small_v2, _, _ = _write_store_pair(
            workdir, "small", params["append_base"], result_ints
        )
        timed = _time_appends(
            (small_v1, v1_dir, small_v2, v2_dir), puts, result_ints
        )
        appends: Dict[str, Any] = {}
        growths: List[float] = []
        for label, small, large in (
            ("single_file", timed[0], timed[1]),
            ("sharded", timed[2], timed[3]),
        ):
            growth = large[1] / max(small[1], 1e-12)
            growths.append(growth)
            appends.update(
                {
                    f"{label}_appended": small[2] + large[2],
                    f"{label}_first_put_seconds_large": large[0],
                    f"{label}_put_seconds_small": small[1],
                    f"{label}_put_seconds_large": large[1],
                    f"{label}_put_growth": growth,
                }
            )

        result = WorkloadResult()
        result.artifacts.update(
            {
                "quick": not context.is_full,
                "records": records,
                "v1_bytes": len(v1_bytes),
                "skip_reason": (
                    None if floor is not None
                    else f"{context.tier} tier does not gate the speedup "
                    "floor or the put-growth ceiling"
                ),
            }
        )
        result.add(
            "single-file",
            metrics={
                "open_hit_seconds": timings["single-file"].best_seconds,
                "record_count": hits["single-file"],
                "store_bytes": len(v1_bytes),
            },
            oracles={
                "record_count_exact": hits["single-file"] == records,
            },
        )
        result.add(
            "sharded",
            metrics={
                "open_hit_seconds": timings["sharded"].best_seconds,
                "record_count": hits["sharded"],
                "speedup": speedup,
                "skipped_speedup_gate": skipped,
            },
            oracles={
                "record_count_exact": (
                    hits["sharded"] == records and migrated == records
                ),
                "key_order_identical": sharded_keys == keys,
                "migrate_round_trip_byte_identical": round_trip_identical,
                "speedup_floor": (
                    ORACLE_SKIPPED if skipped else speedup >= floor
                ),
            },
        )
        result.add(
            "append",
            metrics={**appends, "skipped_growth_gate": ceiling is None},
            oracles={
                "appended_count_exact": all(
                    appended == puts for _, _, appended in timed
                ),
                "put_growth_ceiling": (
                    ORACLE_SKIPPED if ceiling is None
                    else max(growths) <= ceiling
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
    name="store-layouts",
    description=(
        "campaign-store open + full cache-hit check and append scaling, "
        "v2 sharded vs v1 single-file, with migrate round-trip byte identity"
    ),
    tiers={
        "smoke": dict(
            records=64, result_ints=32, speedup_floor=None,
            append_base=32, append_puts=16, growth_ceiling=None,
        ),
        "quick": dict(
            records=2_000, result_ints=64, speedup_floor=None,
            append_base=2_000, append_puts=1_000, growth_ceiling=None,
        ),
        "full": dict(
            records=25_000, result_ints=64, speedup_floor=10.0,
            append_base=2_000, append_puts=1_000, growth_ceiling=1.5,
        ),
    },
    run=_run,
    # Record counts are fully deterministic for a given tier — any layout
    # losing or duplicating records shows up here before it poisons caches.
    gates=(
        _exact("record_count", "single-file")
        + _exact("record_count", "sharded")
        + _exact("single_file_appended", "append")
        + _exact("sharded_appended", "append")
    ),
    tags=("core", "perf", "store"),
)
