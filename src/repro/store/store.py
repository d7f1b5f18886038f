"""Content-addressed campaign store, safe for crashes and co-writers.

:class:`CampaignStore` is the facade the rest of the repository talks to;
the on-disk engine behind it is one record-file primitive, the
:class:`~repro.store.layout.Segment` (a record file, its advisory lock,
and an optional sidecar index), arranged by a
:class:`~repro.store.layout.StoreLayout`:

* **single-file (v1)** — one segment without a sidecar:
  ``records.jsonl`` under ``records.lock``.  The historical layout; every
  pre-existing campaign directory opens, resumes, and re-serialises
  byte-identically.
* **sharded (v2)** — one segment with a sidecar per content-key prefix
  (``segments/<hex-prefix>.jsonl``, its own lock, and a compacted
  ``index/<hex-prefix>.idx``), so membership/cache-hit checks are O(1)
  over the index and open never parses result payloads.  Created with
  ``layout="sharded"`` (or ``repro scenario sweep --layout sharded``);
  converted to and from v1 with ``repro store migrate``.

The layout of an existing directory is auto-detected (``MANIFEST.json``
marks v2); asking for a layout that contradicts what is on disk raises
:class:`~repro.exceptions.StoreError` pointing at ``repro store
migrate`` instead of silently forking the campaign.

Each record is one completed experiment cell::

    {"key": "<sha256>", "config": {...}, "result": {...}}

serialised canonically (sorted keys, compact separators) so a
deterministic campaign produces byte-identical store files run after
run.  The key is the SHA-256 of the canonical JSON of ``config`` — the
content address every cache/resume decision is made on.

Durability model (every segment, in both layouts)
-------------------------------------------------

* **Atomic appends** — every record is one ``write``/``fsync`` to a file
  opened ``O_APPEND`` while holding an exclusive advisory lock, so
  concurrent writer processes never interleave bytes within a record.
* **Multi-writer dedupe** — before appending, a store stats the segment
  (under the same lock) and, if the file grew since its last look,
  re-scans whatever other writers appended, so two processes racing on
  the same cell commit exactly one line.
* **Crash repair** — a process killed mid-append can leave a torn
  trailing line; opening the store truncates it (or restores its missing
  newline) and resumes.  Torn bytes anywhere *except* a tail raise
  :class:`StoreIntegrityError`.
* **Verification** — every record's ``key`` is re-derived from its
  ``config`` when its bytes are parsed: on open for a segment without a
  sidecar (v1), on first load for one with a sidecar (v2; ``repro store
  verify`` forces the full check and compares every sidecar row's
  config with its record's).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.exceptions import StoreError
from repro.store.layout import (
    LAYOUT_NAMES,
    LOCK_FILENAME,
    RECORDS_FILENAME,
    SINGLE_FILE,
    StoreLayout,
    detect_layout,
    make_layout,
)
from repro.store.locks import resolve_lock_timeout
from repro.store.records import (
    ResultRecord,
    StoreIntegrityError,
    canonical_json,
    key_of_json,
    record_line,
)

__all__ = [
    "CampaignStore",
    "StoreIntegrityError",
]


class CampaignStore:
    """Append-only, content-addressed result store under a directory.

    The facade over a :class:`~repro.store.layout.StoreLayout`: opening
    auto-detects the on-disk layout (defaulting to single-file for new
    directories), :meth:`put` appends and fsyncs one line per completed
    cell — the per-cell checkpoint that makes interrupted sweeps
    resumable — and reads go through the layout's index, loading record
    payloads lazily where the layout supports it.  Multiple processes may
    write to the same directory concurrently: appends are serialised by
    advisory locks and deduplicated by content address.
    """

    RECORDS_FILENAME = RECORDS_FILENAME
    LOCK_FILENAME = LOCK_FILENAME

    def __init__(
        self,
        directory: str,
        lock_timeout_s: Optional[float] = None,
        layout: Optional[str] = None,
    ):
        self._directory = str(directory)
        #: Seconds to wait for an advisory lock before raising
        #: :class:`~repro.exceptions.StoreLockTimeoutError`; ``None`` defers
        #: to ``REPRO_STORE_LOCK_TIMEOUT`` / the generous default.
        self._lock_timeout_s = (
            None if lock_timeout_s is None
            else resolve_lock_timeout(lock_timeout_s)
        )
        os.makedirs(self._directory, exist_ok=True)
        detected = detect_layout(self._directory)
        if layout is None or layout == "auto":
            chosen = detected if detected is not None else SINGLE_FILE
        else:
            if layout not in LAYOUT_NAMES:
                raise StoreError(
                    f"unknown store layout {layout!r}; "
                    f"known layouts: {LAYOUT_NAMES}"
                )
            if detected is not None and detected != layout:
                raise StoreError(
                    f"{self._directory} already holds a {detected} store; "
                    f"run `repro store migrate --to {layout}` instead of "
                    f"opening it with layout={layout!r}"
                )
            chosen = layout
        self._layout = make_layout(
            chosen, self._directory, self._lock_timeout_s
        )

    # -- basic properties ---------------------------------------------------
    @property
    def directory(self) -> str:
        """The campaign directory this store persists under."""
        return self._directory

    @property
    def layout(self) -> StoreLayout:
        """The storage engine behind this store."""
        return self._layout

    @property
    def layout_name(self) -> str:
        """The active layout's public name (``single-file``/``sharded``)."""
        return self._layout.name

    @property
    def records_path(self) -> str:
        """Path of the v1 JSONL records file (meaningful for single-file)."""
        return os.path.join(self._directory, self.RECORDS_FILENAME)

    def __len__(self) -> int:
        return len(self._layout)

    def __contains__(self, key: str) -> bool:
        return self._layout.has(key)

    def keys(self) -> List[str]:
        """All stored keys, in deterministic global commit order."""
        return self._layout.keys()

    # -- read API -----------------------------------------------------------
    def get(self, key: str) -> Optional[ResultRecord]:
        """Return the record stored under ``key`` (loaded lazily), or ``None``."""
        return self._layout.get(key)

    def records(self) -> Iterator[ResultRecord]:
        """Iterate over every record in commit order."""
        return self._layout.iter_records()

    def query(
        self,
        predicate: Optional[Callable[[ResultRecord], bool]] = None,
        **config_equals: Any,
    ) -> List[ResultRecord]:
        """Return records whose config matches every ``field=value`` filter.

        Config-equality filters are evaluated against the layout's index
        (which carries each record's config), so on a sharded store a
        filtered query deserialises only the *matching* records' payloads
        — unmatched segments are never read.  ``predicate`` (if given)
        additionally filters on the full, lazily-loaded record.
        """
        matches = []
        for key, config in self._layout.iter_configs():
            if any(
                config.get(field) != value
                for field, value in config_equals.items()
            ):
                continue
            record = self._layout.get(key)
            assert record is not None  # the index only lists committed keys
            if predicate is not None and not predicate(record):
                continue
            matches.append(record)
        return matches

    # -- write API ----------------------------------------------------------
    def put(self, config: Dict[str, Any], result: Dict[str, Any]) -> ResultRecord:
        """Store one completed cell (checkpointing it to disk immediately).

        Idempotent for identical results; storing a *different* result under
        an existing key raises :class:`StoreIntegrityError` — that means the
        simulation is not deterministic in something the key does not cover.
        Safe against concurrent writers: the append happens under the
        layout's advisory lock, after indexing whatever other processes
        committed meanwhile.

        The config and the result are each encoded once: the key hashes
        the config's canonical text, and the record line and the sidecar
        row reuse it.  The store keeps none of the caller's objects (a
        later :meth:`get` reads the committed line back), so mutating
        ``config`` or ``result`` afterwards changes nothing stored; the
        returned record wraps the caller's own dicts.
        """
        config_json = canonical_json(config)
        key = key_of_json(config_json)
        self._layout.append(
            key, config_json,
            record_line(key, config_json, canonical_json(result)),
        )
        return ResultRecord(key=key, config=config, result=result)
