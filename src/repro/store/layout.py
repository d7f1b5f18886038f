"""Store layouts: the on-disk engine behind :class:`CampaignStore`.

One engine, :class:`Segment`, does all the record I/O: a record file, its
advisory lock, and an optional sidecar index.  The two layouts
(:class:`StoreLayout` is their contract) only arrange segments:

* :class:`SingleFileLayout` (**v1**) — one segment at ``records.jsonl``
  under ``records.lock``, without a sidecar, so opening parses and
  verifies every record.  Kept bit-for-bit compatible with every store
  the repository has ever written: a pre-existing campaign directory
  opens, resumes, and re-serialises byte-identically.
* :class:`ShardedLayout` (**v2**) — one segment per leading hex prefix of
  the content key (``segments/<prefix>.jsonl`` under
  ``segments/<prefix>.lock``), each with a compacted JSONL sidecar
  (``index/<prefix>.idx``) mapping ``key -> (offset, length, seq,
  config)``.  Concurrent writers on different shards never contend;
  membership checks and config-equality queries are O(1) dictionary
  lookups over the index and never parse result payloads; record bodies
  load lazily on first access.  The layout adds routing, the global
  commit order, the ``MANIFEST.json`` format marker
  (:func:`detect_layout` auto-detects it on open) and ``gc``.

Determinism contract
--------------------

v1 guarantees a byte-identical ``records.jsonl`` for a deterministic
spec-order commit sequence.  v2 guarantees the same **per segment**: each
segment's bytes are a deterministic function of the committed record
sequence (spec-order commits land in spec order within their shard).
Global iteration order is the commit sequence number (``seq``) recorded
in the index — exactly the v1 insertion order for a single committer —
with ties across co-writing processes broken by ``(shard, offset)``,
which keeps iteration deterministic for any fixed record set.

Durability contract
-------------------

Every segment, in either layout: appends are one ``write``+``fsync`` to
an ``O_APPEND`` fd under the segment's lock, co-writers are deduplicated
by content key after re-scanning the segment tail (read only when a
``stat`` shows the file grew past what the segment has indexed), a torn
trailing line left by a crashed writer is repaired on open, and every
record's content address is verified when its bytes are parsed — eagerly
on open without a sidecar, lazily on first load with one (``repro store
verify`` forces the full check, sidecar rows' configs included).  A
sidecar index is *derived* state: a torn, stale, or corrupt index is
rebuilt from the segment bytes, never trusted over them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import shutil
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import StoreError
from repro.obs import TRACER
from repro.store.locks import file_lock
from repro.store.records import (
    ResultRecord,
    StoreIntegrityError,
    canonical_json,
    content_key,
    parse_record_line,
    reconcile,
)

#: v1 artefacts (also the facade's historical class-attribute values).
RECORDS_FILENAME = "records.jsonl"
LOCK_FILENAME = "records.lock"

#: v2 artefacts.
MANIFEST_FILENAME = "MANIFEST.json"
SEGMENTS_DIRNAME = "segments"
INDEX_DIRNAME = "index"
MANIFEST_FORMAT = "repro-campaign-store"
SHARDED_LAYOUT_VERSION = 2

#: Hex characters of the content key that route a record to its segment
#: (2 -> up to 256 segments, plenty of lock granularity for one campaign).
SHARD_PREFIX_CHARS = 2

#: Public layout names (CLI values, ``CampaignStore(layout=...)``).
SINGLE_FILE = "single-file"
SHARDED = "sharded"
LAYOUT_NAMES = (SINGLE_FILE, SHARDED)


def detect_layout(directory: str) -> Optional[str]:
    """Auto-detect the layout of a campaign directory, ``None`` if empty.

    A ``MANIFEST.json`` marks a sharded (v2) store and wins over a stray
    ``records.jsonl`` (an interrupted migration's leftover; ``repro store
    gc`` removes it).  A bare ``records.jsonl`` is a v1 store.
    """
    if os.path.exists(os.path.join(directory, MANIFEST_FILENAME)):
        read_manifest(directory)  # validate loudly before claiming sharded
        return SHARDED
    if os.path.exists(os.path.join(directory, RECORDS_FILENAME)):
        return SINGLE_FILE
    return None


def read_manifest(directory: str) -> Optional[Dict[str, Any]]:
    """Load and validate ``MANIFEST.json``; ``None`` when absent."""
    path = os.path.join(directory, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise StoreError(f"{path} is not valid JSON ({error})") from error
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise StoreError(
            f"{path} is not a {MANIFEST_FORMAT} manifest; refusing to guess"
        )
    if payload.get("layout") != SHARDED or payload.get("version") != (
        SHARDED_LAYOUT_VERSION
    ):
        raise StoreError(
            f"{path} declares unsupported layout "
            f"{payload.get('layout')!r} v{payload.get('version')!r}; this "
            f"build supports {SHARDED!r} v{SHARDED_LAYOUT_VERSION}"
        )
    chars = payload.get("shard_prefix_chars")
    if not isinstance(chars, int) or not 1 <= chars <= 8:
        raise StoreError(f"{path} has invalid shard_prefix_chars {chars!r}")
    return payload


def write_manifest(
    directory: str, shard_prefix_chars: int = SHARD_PREFIX_CHARS
) -> None:
    """Atomically write the sharded-layout manifest (the v2 commit point)."""
    payload = {
        "format": MANIFEST_FORMAT,
        "layout": SHARDED,
        "version": SHARDED_LAYOUT_VERSION,
        "shard_prefix_chars": shard_prefix_chars,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_durably(
        os.path.join(directory, MANIFEST_FILENAME), text.encode("utf-8")
    )


#: Structural prefix of an index line: the key always leads, so opening a
#: store can slice keys out of sidecar lines without a JSON parse per row.
_INDEX_LINE_PREFIX = b'{"k":"'
_KEY_HEX_CHARS = 64  # SHA-256

#: Everything of a canonical index row before its config: the key, then
#: offset, length and seq in plain decimal (no sign, no leading zero).
_ROW_HEADER = re.compile(
    rb'\{"k":"([^"\\]*)","o":(0|[1-9][0-9]*),"l":(0|[1-9][0-9]*),'
    rb'"q":(0|[1-9][0-9]*),"c":'
)

#: The fields a lazy :class:`IndexEntry` decodes from the row header alone.
_HEADER_FIELDS = frozenset(("offset", "length", "seq"))


def _index_row(
    key: str, offset: int, length: int, seq: int, config_json: str
) -> str:
    """Assemble an index row; ``config_json`` is the config's canonical text.

    Fixed field order with the key first: it matches
    ``_INDEX_LINE_PREFIX``, so open slices keys without parsing, and
    ``_ROW_HEADER``, so lookups decode positions without the config.
    """
    return (
        f'{{"k":"{key}","o":{offset},"l":{length},"q":{seq},'
        f'"c":{config_json}}}'
    )


class IndexEntry:
    """One compacted-index row: where a record lives and what configured it.

    ``length`` is the record line's byte length *excluding* its newline;
    ``seq`` is the commit sequence number ordering global iteration;
    ``config`` rides along so config-equality queries never touch payloads.

    Entries are **lazily parsed**: opening a store materialises only the
    ``key``/``shard`` of each row (sliced straight out of the sidecar
    bytes — the O(1)-membership hot path never runs a JSON parse per
    record).  ``offset``/``length``/``seq`` decode on first access from
    the row's fixed header, without parsing the config, and ``config``
    — the bulk of the row — is JSON-decoded only when it is read.  A row
    whose header is not in canonical form takes the full JSON decode.  A
    row that turns out to be garbage when finally decoded raises
    :class:`StoreIntegrityError` at that point — mid-file sidecar damage
    cannot be crash fallout (appends only ever tear the tail, which open
    reconciles), so it fails loudly like any other corruption.
    """

    __slots__ = ("key", "shard", "offset", "length", "seq", "config", "_raw")

    def __init__(
        self,
        key: str,
        shard: str,
        offset: int,
        length: int,
        seq: int,
        config: Dict[str, Any],
    ) -> None:
        self.key = key
        self.shard = shard
        self.offset = offset
        self.length = length
        self.seq = seq
        self.config = config
        self._raw: Optional[bytes] = None

    @classmethod
    def lazy(cls, key: str, shard: str, raw: bytes) -> "IndexEntry":
        """An entry backed by its raw sidecar line, decoded on first use."""
        entry = cls.__new__(cls)
        entry.key = key
        entry.shard = shard
        entry._raw = raw
        return entry

    @classmethod
    def committed(
        cls, key: str, shard: str, offset: int, length: int, seq: int,
        raw: bytes,
    ) -> "IndexEntry":
        """The entry of a line just appended.

        Its positions are known; its config decodes from ``raw``, its
        index row, on first use.
        """
        entry = cls.lazy(key, shard, raw)
        entry.offset, entry.length, entry.seq = offset, length, seq
        return entry

    def __getattr__(self, name: str) -> Any:
        # Reached only for unset slots: the fields of a lazy entry that have
        # not been decoded yet (anything else fails the normal lookup).
        raw = self._raw
        if raw is not None:
            if name in _HEADER_FIELDS:
                self._decode_header(raw)
            elif name == "config":
                self._decode(raw)
        return object.__getattribute__(self, name)

    def decoded(self) -> "IndexEntry":
        """This entry, its whole row decoded and checked (config included)."""
        if self._raw is not None:
            self._decode(self._raw)
        return self

    def _decode_header(self, raw: bytes) -> None:
        header = _ROW_HEADER.match(raw)
        if header is None:
            self._decode(raw)  # not canonical: the full parse decides
            return
        offset, length, seq = (int(field) for field in header.group(2, 3, 4))
        self._adopt(
            header.group(1) == self.key.encode("utf-8"), offset, length, seq
        )

    def _decode(self, raw: bytes) -> None:
        try:
            payload = json.loads(raw)
            fields = (payload["o"], payload["l"], payload["q"])
            key, config = payload.get("k"), payload["c"]
        except (ValueError, KeyError, TypeError) as error:
            raise self._corrupt(f"is unparseable ({error})") from error
        header = _ROW_HEADER.match(raw)
        if (
            not all(type(field) is int for field in fields)
            or not isinstance(config, dict)
            # A row the header decode can read must read the same to both.
            or (
                header is not None
                and tuple(int(f) for f in header.group(2, 3, 4)) != fields
            )
        ):
            raise self._corrupt("is inconsistent")
        self._adopt(key == self.key, *fields)
        self.config = config
        self._raw = None

    def _adopt(
        self, key_matches: bool, offset: int, length: int, seq: int
    ) -> None:
        if (
            not key_matches
            or offset < 0
            or length <= 0
            or seq < 0
            or not self.key.startswith(self.shard)
        ):
            raise self._corrupt("is inconsistent")
        self.offset, self.length, self.seq = offset, length, seq

    def _corrupt(self, problem: str) -> StoreIntegrityError:
        return StoreIntegrityError(
            f"index entry for key {self.key} (segment {self.shard}) "
            f"{problem}; rebuild the index with `repro store compact`"
        )

    def end(self) -> int:
        """First segment byte past this record (its newline included)."""
        return self.offset + self.length + 1

    def to_json_line(self) -> str:
        return _index_row(
            self.key, self.offset, self.length, self.seq,
            canonical_json(self.config),
        )

    @classmethod
    def from_json_line(cls, line: str, shard: str) -> "IndexEntry":
        """Decode and check a whole row, whatever its field order."""
        key = str(json.loads(line)["k"])  # a non-string key fails the check
        return cls.lazy(key, shard, line.encode("utf-8")).decoded()


# ---------------------------------------------------------------------------
# the engine: one record file, its lock, an optional sidecar index
# ---------------------------------------------------------------------------

class Segment:
    """One append-only record file, its advisory lock and optional sidecar.

    The only copy of the store's record I/O: the locked ``O_APPEND``
    write+fsync with ``ftruncate`` rollback, the tail scan with
    content-key verification and torn-tail repair, the key ->
    :class:`IndexEntry` map with the byte coverage it accounts for, lazy
    record loads, and the canonical rewrite behind ``compact`` and
    ``migrate``.  Refreshes, dedupe checks and sidecar rewrites look at
    this segment's own map only, so a put costs the same however many
    records other segments hold.

    A put (:meth:`append`) takes the line its caller encoded once, stats
    the file under the lock and reads the tail only if another writer
    grew it, appends the line, and appends the sidecar row (built from
    the same config text) with one unbuffered ``O_APPEND`` write.  It
    keeps nothing of the caller's: a later :meth:`get` reads the stored
    line back and verifies it.

    ``name`` is the key prefix every record here carries (empty for the
    v1 segment, which holds every key).  ``take_seq`` hands out commit
    sequence numbers for records the segment indexes; a layout passes its
    store-wide counter so iteration follows commit order across segments
    (without one, the segment numbers its records itself).  ``members``
    and ``loaded``, if given, are store-wide maps shared with the other
    segments: key -> entry, kept in step with this segment's own map (the
    sharded layout's flat map for O(1) cache-hit checks), and key ->
    parsed record (the record cache).  ``counter_prefix`` names the
    tracer counters of the lock (``<prefix>.lock_*``) and, for
    per-segment totals beside the store-wide ``store.appends``, of the
    appends.
    """

    def __init__(
        self,
        path: str,
        lock_path: str,
        lock_timeout_s: Optional[float] = None,
        name: str = "",
        sidecar_path: Optional[str] = None,
        counter_prefix: str = "store",
        take_seq: Optional[Callable[[], int]] = None,
        members: Optional[Dict[str, IndexEntry]] = None,
        loaded: Optional[Dict[str, ResultRecord]] = None,
    ) -> None:
        self.path = path
        self.name = name
        self.sidecar_path = sidecar_path
        self._lock_path = lock_path
        self._lock_timeout_s = lock_timeout_s
        self._counter_prefix = counter_prefix
        self._take_seq = (
            take_seq if take_seq is not None else itertools.count().__next__
        )
        #: key -> index entry, in segment byte order (the membership map).
        self.index: Dict[str, IndexEntry] = {}
        #: A store-wide key -> entry map kept in step with ``index``, if any.
        self._members = members
        #: Parsed records, cached by key.
        self._loaded: Dict[str, ResultRecord] = {} if loaded is None else loaded
        #: Segment bytes accounted for by ``index``; bytes past it were
        #: appended by other writers since our last look.
        self.coverage = 0

    def lock(self) -> Any:
        """The exclusive advisory lock every write to this segment holds."""
        return file_lock(
            self._lock_path,
            timeout_s=self._lock_timeout_s,
            counter_prefix=self._counter_prefix + ".lock",
        )

    # -- read side ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    def size(self) -> int:
        """Bytes in the record file (0 while it does not exist)."""
        return _file_size(self.path)

    def index_size(self) -> int:
        """Bytes in the sidecar index (0 without one)."""
        return 0 if self.sidecar_path is None else _file_size(self.sidecar_path)

    def get(self, key: str) -> Optional[ResultRecord]:
        """The record stored under ``key`` (loaded lazily, then cached)."""
        entry = self.index.get(key)
        if entry is None:
            return None
        record = self._loaded.get(key)
        if record is None:
            record = self._loaded[key] = self._read(entry)
        return record

    def _load(self, entry: IndexEntry) -> ResultRecord:
        """``entry``'s record, from the cache or read (uncached) from disk."""
        cached = self._loaded.get(entry.key)
        return cached if cached is not None else self._read(entry)

    def _read(self, entry: IndexEntry) -> ResultRecord:
        with open(self.path, "rb") as handle:
            handle.seek(entry.offset)
            line = handle.read(entry.length)
        record = parse_record_line(line, self.path, entry.offset)
        if record.key != entry.key:
            raise StoreIntegrityError(
                f"{self.path}: index entry for key {entry.key} points at a "
                f"record with key {record.key} (byte {entry.offset}); the "
                "sidecar index is stale — run `repro store compact`"
            )
        if TRACER.enabled:
            TRACER.add("store.lazy_record_loads")
        return record

    # -- open ---------------------------------------------------------------
    def load_index(self) -> bool:
        """Adopt the sidecar rows, lock-free; True when they cover the file.

        The hot path of a sharded open: no lock, no segment read, no
        payload parse.  A segment they do not cover — no sidecar, a stale
        one (a writer crashed between segment and index append), or one
        distrusted as torn or corrupt — needs :meth:`recover`.
        """
        size = self.size()
        adopted: Optional[Tuple[Dict[str, IndexEntry], int]] = ({}, 0)
        if self.sidecar_path is not None:
            adopted = self._read_sidecar(self.sidecar_path, size)
            if adopted is None and TRACER.enabled:
                TRACER.add("store.index.rebuilds")
        self._replace_index(*(adopted or ({}, 0)))
        return adopted is not None and self.coverage == size

    def recover(self) -> None:
        """Index what the sidecar misses under the lock; rewrite the sidecar."""
        with self.lock():
            self._scan_tail_locked()
            self._write_index()

    def _read_sidecar(
        self, path: str, segment_size: int
    ) -> Optional[Tuple[Dict[str, IndexEntry], int]]:
        """Parse the sidecar at ``path`` into ``(index, coverage)``.

        ``None`` demands a full rebuild.  A torn *final* line (a writer
        crashed mid index append) is dropped — the segment tail scan
        recovers the records it covered — but damage anywhere else
        distrusts the whole sidecar.
        """
        if not os.path.exists(path):
            return ({}, 0) if segment_size == 0 else None
        raw = _read_bytes(path)
        shard = self.name
        index: Dict[str, IndexEntry] = {}
        prefix_len = len(_INDEX_LINE_PREFIX)
        key_end = prefix_len + _KEY_HEX_CHARS
        lines = raw.split(b"\n")
        # A final chunk with no terminating newline is a torn index append;
        # drop it — the segment tail scan recovers the record it covered.
        lines.pop()
        last = len(lines) - 1
        make_lazy = IndexEntry.lazy
        for position, line in enumerate(lines):
            # Fast structural check: the fixed field order puts the key
            # first, so membership needs only a slice, not a JSON parse.
            if (
                line[:prefix_len] == _INDEX_LINE_PREFIX
                and line[key_end:key_end + 2] == b'",'
            ):
                key = line[prefix_len:key_end].decode("ascii")
                entry = make_lazy(key, shard, line)
            else:
                if not line.strip():
                    continue
                try:
                    entry = IndexEntry.from_json_line(
                        line.decode("utf-8"), shard
                    )
                except (
                    ValueError, KeyError, TypeError, StoreIntegrityError,
                ):
                    if position == last:
                        break  # unparseable *final* line: torn-append case
                    return None
                key = entry.key
            if not key.startswith(shard) or key in index:
                return None
            index[key] = entry
        # Coverage comes from the final entry alone, decoded in full; interior
        # rows decode lazily and are deep-checked by `verify`.  A final row
        # that fails to decode is the torn-append case one more time: drop
        # it and let the locked tail scan recover its record from the
        # segment — but only the final row earns that forgiveness.
        if not index:
            return index, 0
        try:
            coverage = next(reversed(index.values())).decoded().end()
        except StoreIntegrityError:
            index.popitem()
            if not index:
                return index, 0
            try:
                coverage = next(reversed(index.values())).decoded().end()
            except StoreIntegrityError:
                return None
        return (index, coverage) if coverage <= segment_size else None

    # -- tail scan and repair -----------------------------------------------
    def refresh_locked(self) -> None:
        """Index records other writers appended since our last look.

        Caller holds the lock.  The sidecar is kept ahead of what the scan
        learned, so the next open takes the lock-free fast path.
        """
        if self._scan_tail_locked():
            self._write_index()

    def _scan_tail_locked(self) -> bool:
        """Index bytes past ``coverage``; True if new records turned up.

        Caller holds the lock.  Because every writer appends only while
        holding it, a file no longer than ``coverage`` holds nothing new,
        and one ``stat`` settles that without opening it; the tail is read
        only when the file grew.  A trailing line without its newline
        observed *under the lock* can only be a crash artifact, repaired
        by :meth:`_repair_tail_locked`; blank lines are absorbed, and
        damage anywhere else raises :class:`StoreIntegrityError`.
        """
        start = self.coverage
        if self.size() <= start:
            return False
        if TRACER.enabled:
            TRACER.add("store.tail_reads")
        with open(self.path, "rb") as handle:
            handle.seek(start)
            data = handle.read()
        known = len(self.index)
        position = 0
        while position < len(data):
            newline = data.find(b"\n", position)
            if newline == -1:
                self._repair_tail_locked(data[position:], start + position)
                break
            line = data[position:newline]
            if line.strip():
                self._index_line(line, start + position)
            position = newline + 1
            self.coverage = start + position
        return len(self.index) > known

    def _index_line(self, line: bytes, offset: int) -> None:
        record = parse_record_line(line, self.path, offset)
        if not record.key.startswith(self.name):
            raise StoreIntegrityError(
                f"{self.path} is corrupt at byte {offset}: record key "
                f"{record.key} does not belong to segment {self.name!r}"
            )
        existing = self.index.get(record.key)
        if existing is not None:
            if self._load(existing).to_json_line() != record.to_json_line():
                raise StoreIntegrityError(
                    f"{self.path} holds two different results for key "
                    f"{record.key} (second at byte {offset}); refusing to "
                    "pick one silently"
                )
            return
        self._add(
            IndexEntry(
                key=record.key,
                shard=self.name,
                offset=offset,
                length=len(line),
                seq=self._take_seq(),
                config=record.config,
            )
        )
        self._loaded[record.key] = record

    def _repair_tail_locked(self, fragment: bytes, offset: int) -> None:
        """Handle a trailing line with no newline (a crashed writer's append).

        A crash-torn append is a strict prefix of one JSON object and can
        never parse, so an unparseable fragment is truncated away (the cell
        is re-simulated on resume).  A fragment that *does* parse is a
        complete record missing only its newline: it is verified exactly
        like any other line — failing loudly on a bad content address —
        and then completed in place.
        """
        if not fragment.strip():
            self.coverage = offset + len(fragment)  # stray whitespace
            return
        try:
            ResultRecord.from_json_line(fragment.decode("utf-8"))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            fd = os.open(self.path, os.O_RDWR)
            try:
                os.ftruncate(fd, offset)
                os.fsync(fd)
            finally:
                os.close(fd)
            self.coverage = offset
            if TRACER.enabled:
                TRACER.add("store.torn_tail_repairs")
                TRACER.event(
                    "store.torn_tail_repair",
                    {"path": self.path, "offset": offset,
                     "truncated_bytes": len(fragment)},
                )
            return
        self._index_line(fragment, offset)  # raises on key/config mismatch
        with open(self.path, "ab") as handle:  # repro-lint: ignore[RPR104] -- tail repair runs with the segment lock already held by its caller
            handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.coverage = offset + len(fragment) + 1
        if TRACER.enabled:
            TRACER.add("store.torn_tail_repairs")
            TRACER.event(
                "store.torn_tail_repair",
                {"path": self.path, "offset": offset,
                 "restored_newline": True},
            )

    # -- write side ---------------------------------------------------------
    def append(self, key: str, config_json: str, line: str) -> None:
        """Durably commit ``line``, the canonical record line of ``key``.

        ``config_json`` is the canonical config text inside ``line``; the
        sidecar row reuses it.  A key already stored is not appended again:
        its stored record must serialise to ``line`` (:func:`reconcile`).
        Nothing is kept from the caller: the new entry decodes its config
        from its own row, and :meth:`get` reads the stored line back.
        """
        if key in self.index:
            reconcile(self._load(self.index[key]), line)
            return
        with self.lock():
            # Another process may have committed this cell (or others) since
            # we last looked; index the new tail before deciding to append.
            self.refresh_locked()
            if key in self.index:
                reconcile(self._load(self.index[key]), line)
                return
            payload = (line + "\n").encode("utf-8")
            offset = self._append_locked(payload)
            length, seq = len(payload) - 1, self._take_seq()
            raw = _index_row(key, offset, length, seq, config_json).encode(
                "utf-8"
            )
            if self.sidecar_path is not None:
                # Unfsynced on purpose: the index is derived state, rebuilt
                # from the segment if a crash tears it.
                fd = os.open(
                    self.sidecar_path,
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644,
                )
                try:
                    _write_all(fd, raw + b"\n", self.sidecar_path)
                finally:
                    os.close(fd)
            entry = IndexEntry.committed(
                key, self.name, offset, length, seq, raw
            )
            self._add(entry)
            self.coverage = entry.end()

    def _append_locked(self, payload: bytes) -> int:
        """One write+fsync to the O_APPEND fd.  Caller holds the lock.

        Returns the byte offset the payload landed at.
        """
        append_start = time.perf_counter() if TRACER.enabled else 0.0
        fd = os.open(  # repro-lint: ignore[RPR104] -- leaf of append(), which holds the segment lock around this call
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            start = os.fstat(fd).st_size
            try:
                _write_all(fd, payload, self.path)
                fsync_start = time.perf_counter() if TRACER.enabled else 0.0
                os.fsync(fd)
                if TRACER.enabled:
                    now = time.perf_counter()
                    TRACER.add("store.appends")
                    TRACER.add("store.bytes_appended", len(payload))
                    if self._counter_prefix != "store":
                        TRACER.add(self._counter_prefix + ".appends")
                        TRACER.add(
                            self._counter_prefix + ".bytes_appended",
                            len(payload),
                        )
                    TRACER.add("store.fsync_s", now - fsync_start)
                    TRACER.add("store.append_s", now - append_start)
            except BaseException:
                # A short/failed write leaves a torn fragment that later
                # appends would turn into unrepairable *mid-file*
                # corruption; roll it back while we still hold the lock.
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, start)
                raise
        finally:
            os.close(fd)
        return start

    def rewrite(self, records: Iterable[Tuple[int, ResultRecord]]) -> int:
        """Durably replace the file with ``records`` as canonical lines.

        Each ``(seq, record)`` pair keeps its commit sequence number, in the
        given order; the sidecar, if any, is rewritten to match.  Returns
        the new size in bytes.  Callers other than a migration building a
        fresh store hold the lock.
        """
        pieces: List[bytes] = []
        entries: Dict[str, IndexEntry] = {}
        offset = 0
        for seq, record in records:
            line = record.to_json_line().encode("utf-8")
            pieces.append(line + b"\n")
            entries[record.key] = IndexEntry(
                key=record.key,
                shard=self.name,
                offset=offset,
                length=len(line),
                seq=seq,
                config=record.config,
            )
            offset += len(line) + 1
        _write_durably(self.path, b"".join(pieces))
        self._replace_index(entries, offset)
        self._write_index()
        return offset

    def forget_damaged_index(self) -> None:
        """Drop the whole map if any of its rows fails to decode.

        Such a row cannot say where its record lives, so the next locked
        tail scan re-indexes the segment from its own bytes, as open does
        for a sidecar it distrusts; its records take fresh sequence
        numbers.
        """
        try:
            for entry in self.index.values():
                entry.decoded()
        except StoreIntegrityError:
            self._forget_index()

    def _forget_index(self) -> None:
        self._replace_index({}, 0)
        if TRACER.enabled:
            TRACER.add("store.index.rebuilds")

    def compact_locked(self) -> Tuple[int, int]:
        """Rewrite canonically in byte order, every ``seq`` kept.

        Caller holds the lock.  Drops stray whitespace from the file and
        stale or duplicate rows from the sidecar, which afterwards covers
        the file exactly.  Returns ``(bytes_before, bytes_after)``.

        A row whose record does not load — its offset well-formed but
        wrong, say — is the sidecar's fault when the segment's own bytes
        parse in full (:meth:`_parses_in_full`): the segment is then
        re-indexed from those bytes, as :meth:`forget_damaged_index` does
        for a row that fails to decode, and its records take fresh
        sequence numbers.  Otherwise the load's corruption error stands.
        """
        before = self.size()
        try:
            # ``rewrite`` writes nothing until it holds every record.
            return before, self.rewrite(self._records_by_offset())
        except StoreIntegrityError:
            if not self._parses_in_full():
                raise
        self._forget_index()
        self._scan_tail_locked()
        return before, self.rewrite(self._records_by_offset())

    def _records_by_offset(self) -> Iterator[Tuple[int, ResultRecord]]:
        for entry in sorted(self.index.values(), key=lambda entry: entry.offset):
            yield entry.seq, self._load(entry)

    def _parses_in_full(self) -> bool:
        """True when every complete line of the file is a record of this segment.

        The trailing fragment after the last newline is left out: it is a
        torn append, which the locked tail scan repairs.
        """
        lines = _read_bytes(self.path).split(b"\n")
        lines.pop()
        offset = 0
        for line in lines:
            if line.strip():
                try:
                    record = parse_record_line(line, self.path, offset)
                except StoreIntegrityError:
                    return False
                if not record.key.startswith(self.name):
                    return False
            offset += len(line) + 1
        return True

    def _add(self, entry: IndexEntry) -> None:
        self.index[entry.key] = entry
        if self._members is not None:
            self._members[entry.key] = entry

    def _replace_index(
        self, index: Dict[str, IndexEntry], coverage: int
    ) -> None:
        if self._members is not None:
            for key in self.index.keys() - index.keys():
                self._members.pop(key, None)
            self._members.update(index)
        self.index, self.coverage = index, coverage

    def _write_index(self) -> None:
        """Atomically replace the sidecar (if any) with the current map."""
        if self.sidecar_path is None:
            return
        ordered = sorted(self.index.values(), key=lambda entry: entry.offset)
        payload = "".join(entry.to_json_line() + "\n" for entry in ordered)
        _write_durably(self.sidecar_path, payload.encode("utf-8"))

    # -- lifecycle ----------------------------------------------------------
    def verify(self) -> List[str]:
        """Load and content-verify every record; cross-check the map.

        Every index entry is decoded in full, and its config must be its
        record's: lookups decode only a row's positions, so nothing else
        checks the config that config-equality queries filter on.
        """
        problems: List[str] = []
        size = self.size()
        if size != self.coverage:
            problems.append(
                f"{self.path}: {size - self.coverage} bytes beyond index "
                "coverage (reopen or compact to reconcile)"
            )
        elif size and _last_byte(self.path) != b"\n":
            problems.append(
                f"{self.path}: missing trailing newline (compact rewrites it)"
            )
        spans: List[Tuple[int, int]] = []
        intact: Optional[bool] = None
        for entry in self.index.values():
            try:
                config = entry.decoded().config
            except StoreIntegrityError as error:
                problems.append(str(error))
                continue
            try:
                self._load(entry)
            except StoreIntegrityError as error:
                if intact is None:
                    intact = self._parses_in_full()
                problems.append(
                    f"{self.path}: the index entry for key {entry.key} "
                    f"(segment {self.name!r}) points at byte {entry.offset}, "
                    "where its record does not start; the segment's own "
                    "bytes are intact, so rebuild the index with "
                    "`repro store compact`"
                    if intact
                    else str(error)
                )
                continue
            # The loaded record's config hashes to entry.key, so this holds
            # exactly when the entry carries the record's config.
            if content_key(config) != entry.key:
                problems.append(
                    f"{self.path}: the index entry for key {entry.key} "
                    f"(segment {self.name!r}) carries a config other than "
                    f"its record's at byte {entry.offset}; rebuild the "
                    "index with `repro store compact`"
                )
            spans.append((entry.offset, entry.end()))
        spans.sort()
        position = 0
        for start, stop in spans:
            if start < position:
                problems.append(
                    f"{self.path}: index entries overlap at byte {start}"
                )
            position = stop
        return problems


# ---------------------------------------------------------------------------
# layouts: how segments are arranged under a campaign directory
# ---------------------------------------------------------------------------

class _CommitSeq:
    """A store's next commit sequence number, shared with its segments.

    A holder rather than a layout method, so segments keep no reference
    back to their layout: such a cycle would hold every loaded record
    until the cyclic garbage collector happened to run.
    """

    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next: Optional[int] = None

    def take(self) -> int:
        seq = self.next
        assert seq is not None  # layouts start the sequence before scans
        self.next = seq + 1
        return seq


class StoreLayout:
    """Contract a storage layout implements for :class:`CampaignStore`.

    A layout arranges :class:`Segment` objects under one campaign
    directory: which segment a key routes to, the deterministic iteration
    order (:meth:`_ordered`), and the lifecycle operations.  Membership,
    loading, ``verify`` and ``compact`` are the segments' own.
    """

    name: str = "abstract"

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        self._directory = str(directory)
        self._lock_timeout_s = lock_timeout_s
        #: Next commit sequence number, shared with every segment.
        self._seq = _CommitSeq()
        os.makedirs(self._directory, exist_ok=True)

    @property
    def directory(self) -> str:
        """The campaign directory this layout persists under."""
        return self._directory

    def segments(self) -> List[Segment]:
        """Every segment, in a deterministic order."""
        raise NotImplementedError

    def _ordered(self) -> Iterable[IndexEntry]:
        """Every index entry in the layout's deterministic iteration order."""
        raise NotImplementedError

    def _open_segments(self, segments: Sequence[Segment]) -> None:
        # Every sidecar is adopted before any segment is scanned, so records
        # a scan indexes take sequence numbers after all committed ones.
        stale = [segment for segment in segments if not segment.load_index()]
        if stale:
            self._start_seq()
        for segment in stale:
            segment.recover()

    def _start_seq(self) -> None:
        """Materialise the next commit sequence number, once.

        It decodes every index entry, which a read-only open never needs
        to pay for, so it runs only before a segment may index a record.
        """
        if self._seq.next is None:
            self._seq.next = 1 + max(
                (
                    entry.seq
                    for segment in self.segments()
                    for entry in segment.index.values()
                ),
                default=-1,
            )

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments())

    def has(self, key: str) -> bool:
        """O(1) membership: is ``key`` committed? (the cache-hit check)"""
        raise NotImplementedError

    def keys(self) -> List[str]:
        """All stored keys in the layout's deterministic iteration order."""
        return [entry.key for entry in self._ordered()]

    def get(self, key: str) -> Optional[ResultRecord]:
        """The record stored under ``key`` (loaded lazily), or ``None``."""
        raise NotImplementedError

    def iter_records(self) -> Iterator[ResultRecord]:
        """Every record, in :meth:`keys` order."""
        for key in self.keys():
            record = self.get(key)
            assert record is not None  # keys() only lists committed records
            yield record

    def iter_configs(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``(key, config)`` pairs in :meth:`keys` order, payload-free.

        The index-resident path config-equality queries filter on without
        deserialising result payloads.
        """
        for entry in self._ordered():
            yield entry.key, entry.config

    def append(self, key: str, config_json: str, line: str) -> None:
        """Durably commit a record line (see :meth:`Segment.append`)."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Deep-check every byte; return human-readable problem strings."""
        return [
            problem
            for segment in self.segments()
            for problem in segment.verify()
        ]

    def compact(self) -> Dict[str, Any]:
        """Rewrite every segment canonically; return a summary dict.

        Records are rewritten in byte order with every ``seq`` kept (hence
        the iteration order), dropping stray whitespace and stale or
        duplicate sidecar rows; afterwards every sidecar exactly covers
        its segment, so subsequent opens take the lock-free fast path.  A
        segment with a sidecar row that fails to decode is re-indexed from
        its own bytes first (:meth:`Segment.forget_damaged_index`).
        """
        for segment in self.segments():
            segment.forget_damaged_index()
        self._start_seq()
        segments = 0
        bytes_before = 0
        bytes_after = 0
        for segment in self.segments():
            with segment.lock():
                segment.refresh_locked()
                if not len(segment) and not segment.size():
                    continue
                before, after = segment.compact_locked()
            segments += 1
            bytes_before += before
            bytes_after += after
        if TRACER.enabled:
            TRACER.add("store.compactions")
            TRACER.add("store.compaction.segments", segments)
            TRACER.add(
                "store.compaction.bytes_reclaimed", bytes_before - bytes_after
            )
        return {
            "layout": self.name,
            "segments_compacted": segments,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "records": len(self),
        }

    def gc(self) -> Dict[str, Any]:
        """Remove dead artefacts (stale locks, tmp files, orphans)."""
        raise NotImplementedError


class SingleFileLayout(StoreLayout):
    """v1: one segment at ``records.jsonl``, no sidecar, indexed in memory.

    Opening scans the whole file under the store lock, verifying every
    record's content address and repairing a torn trailing line left by a
    crashed writer, so every existing campaign directory keeps its
    byte-for-byte guarantees.  The records that scan parsed stay cached;
    records put afterwards are read back from the file when first read.
    """

    name = SINGLE_FILE

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        super().__init__(directory, lock_timeout_s)
        self._segment = _single_file_segment(
            self._directory, lock_timeout_s, self._seq.take
        )
        self._open_segments([self._segment])

    @classmethod
    def create(
        cls,
        directory: str,
        records: Sequence[ResultRecord],
        lock_timeout_s: Optional[float] = None,
    ) -> "SingleFileLayout":
        """Write ``records``, in order, as ``records.jsonl``, then reopen it.

        Reopening parses and content-verifies every line it wrote.
        """
        _single_file_segment(directory, lock_timeout_s, None).rewrite(
            enumerate(records)
        )
        return cls(directory, lock_timeout_s)

    def segments(self) -> List[Segment]:
        return [self._segment]

    def has(self, key: str) -> bool:
        return key in self._segment.index

    def get(self, key: str) -> Optional[ResultRecord]:
        return self._segment.get(key)

    def _ordered(self) -> Iterable[IndexEntry]:
        return list(self._segment.index.values())

    def append(self, key: str, config_json: str, line: str) -> None:
        self._start_seq()
        self._segment.append(key, config_json, line)

    def gc(self) -> Dict[str, Any]:
        removed: Dict[str, List[str]] = {
            "stale_locks": [], "tmp_files": [], "migration_leftovers": [],
        }
        _gc_stale_lock(os.path.join(self._directory, LOCK_FILENAME), removed)
        _gc_tmp_files(self._directory, removed)
        # An interrupted sharded->single-file migration removes the manifest
        # (making v1 authoritative) before the segment dirs; sweep them up.
        for dirname in (SEGMENTS_DIRNAME, INDEX_DIRNAME):
            path = os.path.join(self._directory, dirname)
            if os.path.isdir(path):
                _gc_tmp_files(path, removed)
                for name in sorted(os.listdir(path)):
                    os.unlink(os.path.join(path, name))
                    removed["migration_leftovers"].append(
                        os.path.join(path, name)
                    )
                os.rmdir(path)
                removed["migration_leftovers"].append(path)
        return {"layout": self.name, "removed": removed}


class ShardedLayout(StoreLayout):
    """v2: one segment with a sidecar index per content-key prefix.

    See the module docstring for the determinism and durability contracts.
    """

    name = SHARDED

    def __init__(self, directory: str, lock_timeout_s: Optional[float] = None):
        super().__init__(directory, lock_timeout_s)
        manifest = read_manifest(self._directory)
        if manifest is None:
            if os.path.exists(os.path.join(self._directory, RECORDS_FILENAME)):
                raise StoreError(
                    f"{self._directory} holds a v1 single-file store; run "
                    "`repro store migrate --to sharded` instead of opening "
                    "it as sharded"
                )
            write_manifest(self._directory)
            self.prefix_chars = SHARD_PREFIX_CHARS
        else:
            self.prefix_chars = int(manifest["shard_prefix_chars"])
        os.makedirs(self._segments_dir, exist_ok=True)
        os.makedirs(self._index_dir, exist_ok=True)
        #: Shard name -> its segment (created on first append to a new one).
        self._segments: Dict[str, Segment] = {}
        #: Every key -> its index entry, across segments: the flat map the
        #: O(1) cache-hit check reads, kept in step by the segments.
        self._members: Dict[str, IndexEntry] = {}
        #: One record cache for every segment, so records are freed in the
        #: order they were loaded: per-segment caches freed shard by shard
        #: left ~20 MB of allocator arenas pinned after reading back 5,000
        #: records.
        self._loaded: Dict[str, ResultRecord] = {}
        if TRACER.enabled:
            TRACER.add("store.index.loads")
        self._open_segments(
            [self._segment(shard) for shard in self._shard_names()]
        )

    @classmethod
    def create(
        cls,
        directory: str,
        records: Sequence[ResultRecord],
        lock_timeout_s: Optional[float] = None,
    ) -> "ShardedLayout":
        """Write ``records`` as a fresh sharded store and commit it.

        Record ``i`` gets commit sequence number ``i``, so the store
        iterates in ``records`` order.  Segments and sidecars are written
        durably first and ``MANIFEST.json`` — the commit point — last; the
        committed store is then reopened.
        """
        for dirname in (SEGMENTS_DIRNAME, INDEX_DIRNAME):
            path = os.path.join(directory, dirname)
            if os.path.isdir(path):
                shutil.rmtree(path)  # debris from an interrupted attempt
            os.makedirs(path)
        shards: Dict[str, List[Tuple[int, ResultRecord]]] = {}
        for seq, record in enumerate(records):
            shard = _shard_of(record.key, SHARD_PREFIX_CHARS)
            shards.setdefault(shard, []).append((seq, record))
        for shard in sorted(shards):
            _shard_segment(
                directory, shard, lock_timeout_s, None, None, None
            ).rewrite(shards[shard])
        write_manifest(directory)
        return cls(directory, lock_timeout_s)

    # -- routing ------------------------------------------------------------
    @property
    def _segments_dir(self) -> str:
        return os.path.join(self._directory, SEGMENTS_DIRNAME)

    @property
    def _index_dir(self) -> str:
        return os.path.join(self._directory, INDEX_DIRNAME)

    def shard_of(self, key: str) -> str:
        """The segment a content key routes to (its leading hex chars)."""
        return _shard_of(key, self.prefix_chars)

    def _shard_names(self) -> List[str]:
        names = []
        for filename in sorted(os.listdir(self._segments_dir)):
            if not filename.endswith(".jsonl"):
                continue
            shard = filename[: -len(".jsonl")]
            if len(shard) == self.prefix_chars and _is_hex(shard):
                names.append(shard)
        return names

    def _segment(self, shard: str) -> Segment:
        segment = self._segments.get(shard)
        if segment is None:
            segment = self._segments[shard] = _shard_segment(
                self._directory,
                shard,
                self._lock_timeout_s,
                self._seq.take,
                self._members,
                self._loaded,
            )
        return segment

    def segments(self) -> List[Segment]:
        return [self._segments[shard] for shard in sorted(self._segments)]

    def has(self, key: str) -> bool:
        return key in self._members

    def get(self, key: str) -> Optional[ResultRecord]:
        entry = self._members.get(key)
        return None if entry is None else self._segments[entry.shard].get(key)

    # -- commit order -------------------------------------------------------
    def _ordered(self) -> Iterable[IndexEntry]:
        return sorted(
            self._members.values(),
            key=lambda entry: (entry.seq, entry.shard, entry.offset),
        )

    # -- write side ---------------------------------------------------------
    def append(self, key: str, config_json: str, line: str) -> None:
        segment = self._segment(self.shard_of(key))
        self._start_seq()
        segment.append(key, config_json, line)

    # -- lifecycle ----------------------------------------------------------
    def gc(self) -> Dict[str, Any]:
        removed: Dict[str, List[str]] = {
            "stale_locks": [], "tmp_files": [], "migration_leftovers": [],
            "orphan_sidecars": [], "empty_segments": [],
        }
        for base in (self._directory, self._segments_dir, self._index_dir):
            _gc_tmp_files(base, removed)
        for name in sorted(os.listdir(self._segments_dir)):
            if name.endswith(".lock"):
                _gc_stale_lock(
                    os.path.join(self._segments_dir, name), removed
                )
        _gc_stale_lock(os.path.join(self._directory, LOCK_FILENAME), removed)
        # A records.jsonl next to a manifest is an interrupted migration's
        # leftover: the manifest is authoritative, the v1 file is dead.
        stale_v1 = os.path.join(self._directory, RECORDS_FILENAME)
        if os.path.exists(stale_v1):
            os.unlink(stale_v1)
            removed["migration_leftovers"].append(stale_v1)
        shards = self._shard_names()
        for name in sorted(os.listdir(self._index_dir)):
            if name.endswith(".idx") and name[: -len(".idx")] not in shards:
                os.unlink(os.path.join(self._index_dir, name))
                removed["orphan_sidecars"].append(
                    os.path.join(self._index_dir, name)
                )
        for shard in shards:
            segment = self._segment(shard)
            if segment.size() == 0:
                os.unlink(segment.path)
                removed["empty_segments"].append(segment.path)
                sidecar = segment.sidecar_path
                if sidecar is not None and os.path.exists(sidecar):
                    os.unlink(sidecar)
                    removed["empty_segments"].append(sidecar)
        return {"layout": self.name, "removed": removed}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def make_layout(
    name: str, directory: str, lock_timeout_s: Optional[float] = None
) -> StoreLayout:
    """Instantiate the layout registered under ``name``."""
    if name == SINGLE_FILE:
        return SingleFileLayout(directory, lock_timeout_s)
    if name == SHARDED:
        return ShardedLayout(directory, lock_timeout_s)
    raise StoreError(
        f"unknown store layout {name!r}; known layouts: {LAYOUT_NAMES}"
    )


def _shard_of(key: str, prefix_chars: int) -> str:
    if len(key) <= prefix_chars:
        raise StoreIntegrityError(f"content key {key!r} is too short to shard")
    return key[:prefix_chars]


def _single_file_segment(
    directory: str,
    lock_timeout_s: Optional[float],
    take_seq: Optional[Callable[[], int]],
) -> Segment:
    return Segment(
        os.path.join(directory, RECORDS_FILENAME),
        os.path.join(directory, LOCK_FILENAME),
        lock_timeout_s,
        take_seq=take_seq,
    )


def _shard_segment(
    directory: str,
    shard: str,
    lock_timeout_s: Optional[float],
    take_seq: Optional[Callable[[], int]],
    members: Optional[Dict[str, IndexEntry]],
    loaded: Optional[Dict[str, ResultRecord]],
) -> Segment:
    segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
    return Segment(
        os.path.join(segments_dir, f"{shard}.jsonl"),
        os.path.join(segments_dir, f"{shard}.lock"),
        lock_timeout_s,
        name=shard,
        sidecar_path=os.path.join(directory, INDEX_DIRNAME, f"{shard}.idx"),
        counter_prefix="store.segment",
        take_seq=take_seq,
        members=members,
        loaded=loaded,
    )


def _is_hex(text: str) -> bool:
    return all(char in "0123456789abcdef" for char in text)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def _last_byte(path: str) -> bytes:
    with open(path, "rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_all(fd: int, payload: bytes, path: str) -> None:
    """Write every byte of ``payload`` to the append fd ``fd`` of ``path``."""
    written = 0
    while written < len(payload):
        chunk = os.write(fd, payload[written:])  # repro-lint: ignore[RPR104] -- leaf of Segment.append, which holds the segment lock around every call
        if chunk == 0:
            raise StoreError(f"zero-byte write appending to {path}")
        written += chunk


def _write_durably(path: str, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload`` (tmp + fsync + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _gc_stale_lock(lock_path: str, removed: Dict[str, List[str]]) -> None:
    from repro.store.locks import is_stale_lockfile

    if os.path.exists(lock_path) and is_stale_lockfile(lock_path):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(lock_path)
        removed["stale_locks"].append(lock_path)


def _gc_tmp_files(directory: str, removed: Dict[str, List[str]]) -> None:
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.endswith(".tmp"):
            path = os.path.join(directory, name)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            removed["tmp_files"].append(path)
