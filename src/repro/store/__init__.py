"""Persistent, content-addressed result store for experiment campaigns.

Every simulated experiment cell is identified by a canonical hash of its full
configuration (scenario, code, simulation config, seed, backend); results are
appended durably under a campaign directory as they complete.  This gives
four properties the scenario subsystem is built on:

* **cache hits** — re-running a sweep never recomputes a cell whose key is
  already in the store;
* **resumability** — an interrupted sweep checkpoints per cell, so rerunning
  it completes exactly the missing cells and yields a store byte-identical
  to an uninterrupted run;
* **queryability** — typed load/query APIs for :mod:`repro.analysis` and the
  CLI's ``scenario report``;
* **crash/concurrency safety** — appends are atomic under advisory locks
  (so multiple writer processes can share one store), a torn trailing line
  left by a killed writer is repaired on open, and every record's content
  address is verified when its bytes are parsed.

The package is layered: :mod:`repro.store.records` defines the canonical
record model, :mod:`repro.store.locks` the advisory-lock primitive,
:mod:`repro.store.layout` the on-disk engine — one ``Segment`` type (a
record file, its lock, an optional sidecar index) and the two layouts
that arrange segments: single-file **v1** is one segment without a
sidecar, sharded **v2** one segment with a sidecar per key prefix —
:mod:`repro.store.lifecycle` the administrative operations behind
``repro store`` (stat/verify/compact/gc/migrate), and
:mod:`repro.store.store` the :class:`CampaignStore` facade everything
else consumes.
"""

from repro.exceptions import StoreError, StoreLockTimeoutError
from repro.store.layout import (
    LAYOUT_NAMES,
    MANIFEST_FILENAME,
    SHARD_PREFIX_CHARS,
    SHARDED,
    SINGLE_FILE,
    ShardedLayout,
    SingleFileLayout,
    StoreLayout,
    detect_layout,
    make_layout,
)
from repro.store.lifecycle import (
    store_compact,
    store_gc,
    store_migrate,
    store_stat,
    store_verify,
)
from repro.store.locks import (
    DEFAULT_LOCK_TIMEOUT_S,
    LOCK_TIMEOUT_ENV,
    backoff_delays,
    file_lock,
    is_stale_lockfile,
    resolve_lock_timeout,
)
from repro.store.records import (
    ResultRecord,
    StoreIntegrityError,
    canonical_json,
    content_key,
)
from repro.store.store import CampaignStore

__all__ = [
    "DEFAULT_LOCK_TIMEOUT_S",
    "LAYOUT_NAMES",
    "LOCK_TIMEOUT_ENV",
    "MANIFEST_FILENAME",
    "SHARD_PREFIX_CHARS",
    "SHARDED",
    "SINGLE_FILE",
    "CampaignStore",
    "ResultRecord",
    "ShardedLayout",
    "SingleFileLayout",
    "StoreError",
    "StoreIntegrityError",
    "StoreLayout",
    "StoreLockTimeoutError",
    "backoff_delays",
    "canonical_json",
    "content_key",
    "detect_layout",
    "file_lock",
    "is_stale_lockfile",
    "make_layout",
    "resolve_lock_timeout",
    "store_compact",
    "store_gc",
    "store_migrate",
    "store_stat",
    "store_verify",
]
