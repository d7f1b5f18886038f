"""Store lifecycle operations: stat, verify, compact, gc, migrate.

These are the administrative verbs behind the ``repro store`` CLI group.
Each operates on a campaign *directory* (not an open store), detects the
layout with :func:`repro.store.layout.detect_layout`, and returns a plain
dict the CLI renders as text or JSON.

Migration is the delicate one; both directions go through the layouts'
``create``, which writes every segment with the same canonical rewrite
``compact`` uses.  ``v1 -> v2`` routes every record to its segment in
store order, stamping each index entry with its original line position as
the commit sequence number, then writes ``MANIFEST.json`` as the commit
point — only after re-opening the sharded store and **proving** that its
reconstructed record stream matches the v1 file is the old
``records.jsonl`` removed (an interrupted migration therefore leaves
either a valid v1 store, or a valid v2 store plus a dead v1 file that
``repro store gc`` sweeps).  ``v2 -> v1`` durably writes the records in
global iteration order to ``records.jsonl`` beside the still-authoritative
manifest, re-opens it (parsing and verifying every line) as proof, and
only then removes the manifest and segment directories.  For a
canonically written store the round trip ``v1 -> v2 -> v1`` is
byte-identical.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, Iterable, List, Optional

from repro.exceptions import StoreError
from repro.obs import TRACER
from repro.store.layout import (
    INDEX_DIRNAME,
    MANIFEST_FILENAME,
    RECORDS_FILENAME,
    SEGMENTS_DIRNAME,
    SHARDED,
    SINGLE_FILE,
    ShardedLayout,
    SingleFileLayout,
    StoreLayout,
    detect_layout,
    make_layout,
)
from repro.store.records import ResultRecord


def _open_detected(
    directory: str, lock_timeout_s: Optional[float] = None
) -> StoreLayout:
    detected = detect_layout(directory)
    if detected is None:
        raise StoreError(
            f"{directory} holds no campaign store (no "
            f"{RECORDS_FILENAME} and no {MANIFEST_FILENAME})"
        )
    return make_layout(detected, directory, lock_timeout_s)


def store_stat(directory: str) -> Dict[str, Any]:
    """Summarise a store: layout, record count, bytes, segment breakdown."""
    layout = _open_detected(directory)
    segments = [
        {"segment": segment.name, "records": len(segment),
         "bytes": segment.size(), "index_bytes": segment.index_size()}
        for segment in layout.segments()
    ]
    stat: Dict[str, Any] = {
        "directory": layout.directory,
        "layout": layout.name,
        "records": len(layout),
        "bytes": sum(row["bytes"] for row in segments),
        "segments": len(segments),
    }
    if isinstance(layout, ShardedLayout):
        stat["segment_detail"] = segments
        stat["shard_prefix_chars"] = layout.prefix_chars
    return stat


def store_verify(directory: str) -> Dict[str, Any]:
    """Deep-verify every record byte; list problems instead of raising.

    Integrity failures that abort even *opening* the store (mid-file
    corruption, conflicting duplicates) are reported as problems too, so
    ``repro store verify`` always renders a verdict rather than a
    traceback.
    """
    try:
        layout = _open_detected(directory)
    except StoreError as error:
        return {
            "directory": str(directory), "layout": detect_layout(directory),
            "ok": False, "problems": [str(error)],
        }
    problems = layout.verify()
    return {
        "directory": layout.directory,
        "layout": layout.name,
        "records": len(layout),
        "ok": not problems,
        "problems": problems,
    }


def store_compact(directory: str) -> Dict[str, Any]:
    """Rewrite segments canonically, dropping index garbage."""
    layout = _open_detected(directory)
    summary = layout.compact()
    summary["directory"] = layout.directory
    return summary


def store_gc(directory: str) -> Dict[str, Any]:
    """Remove dead artefacts: tmp files, stale locks, migration leftovers."""
    layout = _open_detected(directory)
    summary = layout.gc()
    summary["directory"] = layout.directory
    return summary


def store_migrate(
    directory: str,
    to_layout: str,
    lock_timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Convert a store between layouts with a proven record round-trip."""
    detected = detect_layout(directory)
    if detected is None:
        raise StoreError(f"{directory} holds no campaign store to migrate")
    if to_layout not in (SINGLE_FILE, SHARDED):
        raise StoreError(
            f"unknown migration target {to_layout!r}; "
            f"expected {SINGLE_FILE!r} or {SHARDED!r}"
        )
    if detected == to_layout:
        return {
            "directory": str(directory), "from": detected, "to": to_layout,
            "records": len(_open_detected(directory)), "migrated": False,
        }
    if to_layout == SHARDED:
        records = _migrate_v1_to_v2(directory, lock_timeout_s)
    else:
        records = _migrate_v2_to_v1(directory, lock_timeout_s)
    if TRACER.enabled:
        TRACER.add("store.migrations")
        TRACER.event(
            "store.migrate",
            {"directory": str(directory), "from": detected,
             "to": to_layout, "records": records},
        )
    return {
        "directory": str(directory), "from": detected, "to": to_layout,
        "records": records, "migrated": True,
    }


def _migrate_v1_to_v2(
    directory: str, lock_timeout_s: Optional[float]
) -> int:
    records = list(SingleFileLayout(directory, lock_timeout_s).iter_records())
    # Each record's v1 line position becomes its commit sequence number, so
    # the v2 global iteration order *is* the v1 file order.  Writing the
    # manifest commits the store as v2.
    migrated = ShardedLayout.create(directory, records, lock_timeout_s)
    # Proof before dropping v1: the sharded store must reconstruct the
    # exact record stream (same records, same order, same bytes).
    actual = _record_lines(migrated.iter_records())
    if actual != _record_lines(records):
        os.unlink(os.path.join(directory, MANIFEST_FILENAME))
        shutil.rmtree(os.path.join(directory, SEGMENTS_DIRNAME))
        shutil.rmtree(os.path.join(directory, INDEX_DIRNAME))
        raise StoreError(
            f"migration of {directory} to sharded failed verification "
            f"({len(actual)} reconstructed records vs {len(records)} "
            "source records); the v1 store is intact"
        )
    os.unlink(os.path.join(directory, RECORDS_FILENAME))
    return len(records)


def _migrate_v2_to_v1(
    directory: str, lock_timeout_s: Optional[float]
) -> int:
    records = list(ShardedLayout(directory, lock_timeout_s).iter_records())
    # records.jsonl lands next to the still-authoritative manifest; reopening
    # it parses and content-verifies every line it holds.
    migrated = SingleFileLayout.create(directory, records, lock_timeout_s)
    # Proof before committing: the installed file must hold exactly the
    # records the sharded store holds, in its iteration order.
    actual = _record_lines(migrated.iter_records())
    if actual != _record_lines(records):
        os.unlink(os.path.join(directory, RECORDS_FILENAME))
        raise StoreError(
            f"migration of {directory} to single-file failed verification "
            f"({len(actual)} serialised records vs {len(records)} in the "
            "store); the sharded store is intact"
        )
    # records.jsonl is now authoritative; removing the manifest commits
    # the layout switch, then the segment dirs are dead weight.
    os.unlink(os.path.join(directory, MANIFEST_FILENAME))
    for dirname in (SEGMENTS_DIRNAME, INDEX_DIRNAME):
        path = os.path.join(directory, dirname)
        if os.path.isdir(path):
            shutil.rmtree(path)
    return len(records)


def _record_lines(records: Iterable[ResultRecord]) -> List[str]:
    return [record.to_json_line() for record in records]
