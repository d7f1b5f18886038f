"""Canonical record model shared by every store layout.

A campaign store — whatever its on-disk layout — holds
:class:`ResultRecord` values: one completed experiment cell, serialised as
a single canonical JSON line ``{"config": ..., "key": ..., "result": ...}``
(sorted keys, compact separators) so a deterministic campaign produces
byte-identical store files run after run.  The ``key`` is the SHA-256 of
the canonical JSON of ``config`` — the content address every cache/resume
decision is made on.

This module is layout-agnostic: :mod:`repro.store.layout` builds the
segment engine, and the v1 single-file and v2 sharded layouts that
arrange segments, on top of it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict

from repro.exceptions import StoreError


class StoreIntegrityError(StoreError):
    """A store record is corrupt or conflicts with what is being written."""


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` to a canonical JSON string (sorted, compact).

    Canonical form makes hashing and byte-level store comparison meaningful:
    two equal configurations always serialise identically.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(config: Dict[str, Any]) -> str:
    """Return the SHA-256 content address of a cell configuration."""
    return key_of_json(canonical_json(config))


def key_of_json(config_json: str) -> str:
    """The content address of a config already in canonical JSON form."""
    return hashlib.sha256(config_json.encode("utf-8")).hexdigest()


def record_line(key: str, config_json: str, result_json: str) -> str:
    """Assemble a canonical store line from its canonically encoded parts.

    The one place a record line is built: ``CampaignStore.put`` passes the
    texts it already encoded, :meth:`ResultRecord.to_json_line` encodes
    its fields first.  The bytes equal ``canonical_json`` of the whole
    ``{"config", "key", "result"}`` object, whose keys already sort in
    that order.
    """
    return (
        '{"config":' + config_json + ',"key":' + json.dumps(key)
        + ',"result":' + result_json + "}"
    )


@dataclass(frozen=True)
class ResultRecord:
    """One completed experiment cell: its key, configuration, and result."""

    key: str
    config: Dict[str, Any]
    result: Dict[str, Any]

    def to_json_line(self) -> str:
        """Serialise to the canonical single-line store representation."""
        return record_line(
            self.key, canonical_json(self.config), canonical_json(self.result)
        )

    @classmethod
    def from_json_line(cls, line: str) -> "ResultRecord":
        """Parse a store line back into a record."""
        payload = json.loads(line)
        return cls(key=payload["key"], config=payload["config"], result=payload["result"])


def parse_record_line(line: bytes, source: str, offset: int) -> ResultRecord:
    """Parse one record line of ``source`` and verify its content address.

    Both layouts funnel every on-disk line through here, so bit rot and hand
    edits fail loudly (:class:`StoreIntegrityError`) instead of silently
    poisoning the cache.
    """
    try:
        record = ResultRecord.from_json_line(line.decode("utf-8"))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
        raise StoreIntegrityError(
            f"{source} is corrupt at byte {offset}: "
            f"unparseable record line ({error}); only a *trailing* torn "
            "line can be crash damage, so this needs manual inspection"
        ) from error
    derived = content_key(record.config)
    if record.key != derived:
        raise StoreIntegrityError(
            f"{source} is corrupt at byte {offset}: stored key "
            f"{record.key} does not match the content address {derived} "
            "of its config"
        )
    return record


def reconcile(existing: ResultRecord, incoming_line: str) -> None:
    """Resolve a duplicate ``put``: idempotent for identical results.

    ``incoming_line`` is the canonical line the put would append.  Storing
    a *different* result under an existing key raises
    :class:`StoreIntegrityError` — it means the simulation is not
    deterministic in something the content key does not cover.
    """
    if existing.to_json_line() != incoming_line:
        raise StoreIntegrityError(
            f"key {existing.key} already stored with a different result; "
            "the configuration hash does not capture all sources of "
            "variation"
        )
