"""Cross-layout contract tests for the campaign store.

Two guards on the shared segment engine behind both layouts:

* an **on-disk format pin** — a fixed put sequence must leave exactly
  these bytes in ``records.jsonl``, in every ``segments/*.jsonl`` and
  ``index/*.idx``, and in ``MANIFEST.json``; migrating the v1 store must
  produce the very same v2 bytes;
* a **v1 vs v2 state machine** — one random sequence of puts (repeats
  and conflicting results included), reopens, compactions and torn
  trailing lines, driven through a single-file and a sharded store side
  by side, must give the same keys, lengths, records and errors.
"""

import hashlib
import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs import TRACER
from repro.store import (
    SHARDED,
    SINGLE_FILE,
    CampaignStore,
    ResultRecord,
    StoreError,
    content_key,
    store_migrate,
)

# Cells 2, 47 and 58 share segment "35", cells 39, 52 and 72 share "b3" and
# cell 0 lands in "aa", so segments hold several records and commits
# interleave across them.
_PIN_PUTS = [
    (
        {"cell": cell, "kind": "format-pin"},
        {
            "counts": [cell, cell * cell % 7],
            "label": "é" * (cell % 3),
            "ok": cell % 2 == 0,
        },
    )
    for cell in (2, 39, 47, 0, 52, 58, 72)
]

_V1_DIGESTS = {
    "records.jsonl": (
        "0637d9468556c88c1738faad784bb3d659ebed2db1f250a1f0e90c4f2b0ca4f2"
    ),
}

_V2_DIGESTS = {
    "MANIFEST.json": (
        "25018dc25c6e65d16b5c348c645137cb6dbb1658a353c1cc5b326be23b332c75"
    ),
    "index/35.idx": (
        "08ea857148ae762d6fa96eec6a5f2ee38580c0829ab0f6adeb9d2f95c9b8885e"
    ),
    "index/aa.idx": (
        "41efc0642c5cbf6864f39352d40285a8561c83dd92450be98d2d64e9fd770eaf"
    ),
    "index/b3.idx": (
        "0bab6436869159ac0543237e53f2c9dd0373bd10a5880fe20a0cbac8806eeaa3"
    ),
    "segments/35.jsonl": (
        "898a554b3ec486ddb8cf4f9c0b5f31af02a12a4bbd9188bd33ebe9abe25ec8d8"
    ),
    "segments/aa.jsonl": (
        "55f8bc237cfa321177929f94c84439972c80685cbd404848c69505992d578c33"
    ),
    "segments/b3.jsonl": (
        "412ed7b2f116e4ebbc76a2c5bab3477262d480e04465e22973f6d067c9cbedd0"
    ),
}


def _run_pin_sequence(directory, layout):
    """Five puts, one repeat, a reopen, then two more puts."""
    store = CampaignStore(directory, layout=layout)
    for config, result in _PIN_PUTS[:5]:
        store.put(config, result)
    store.put(*_PIN_PUTS[1])
    reopened = CampaignStore(directory)
    for config, result in _PIN_PUTS[5:]:
        reopened.put(config, result)


def _digests(directory):
    """sha256 of every store file except the (empty) lockfiles."""
    digests = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.suffix != ".lock":
            relative = path.relative_to(directory).as_posix()
            digests[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestOnDiskFormatPin:
    def test_single_file_bytes_are_pinned(self, tmp_path):
        _run_pin_sequence(tmp_path, SINGLE_FILE)
        assert _digests(tmp_path) == _V1_DIGESTS

    def test_sharded_bytes_are_pinned_and_reopen_takes_the_fast_path(
        self, tmp_path
    ):
        _run_pin_sequence(tmp_path, SHARDED)
        assert _digests(tmp_path) == _V2_DIGESTS
        TRACER.enable()
        try:
            reopened = CampaignStore(tmp_path)
            keys = reopened.keys()
            assert all(key in reopened for key in keys)
            counters = TRACER.counter_totals()
            assert counters.get("store.index.rebuilds", 0) == 0
            assert counters.get("store.lazy_record_loads", 0) == 0
            reopened.get(keys[0])
            assert TRACER.counter_totals()["store.lazy_record_loads"] == 1
        finally:
            TRACER.disable()
        assert keys == [content_key(config) for config, _ in _PIN_PUTS]

    def test_migration_writes_the_same_bytes_both_ways(self, tmp_path):
        _run_pin_sequence(tmp_path, SINGLE_FILE)
        store_migrate(str(tmp_path), SHARDED)
        assert _digests(tmp_path) == _V2_DIGESTS
        store_migrate(str(tmp_path), SINGLE_FILE)
        assert _digests(tmp_path) == _V1_DIGESTS


# -- v1 vs v2 state machine ---------------------------------------------------

_CONFIGS = [{"cell": cell, "kind": "state-machine"} for cell in range(10)]
_RESULTS = [{"r": value} for value in range(3)]


def _outcome(action):
    """A put's observable outcome: the stored record or the error type."""
    try:
        return action()
    except StoreError as error:
        return type(error)


class SingleFileVersusSharded(RuleBasedStateMachine):
    """Drive a v1 and a v2 store through one sequence; they must agree."""

    @initialize()
    def open_stores(self):
        self.workdir = tempfile.mkdtemp(prefix="store_sm_")
        self.dirs = {
            layout: os.path.join(self.workdir, layout)
            for layout in (SINGLE_FILE, SHARDED)
        }
        self.stores = {
            layout: CampaignStore(directory, layout=layout)
            for layout, directory in self.dirs.items()
        }

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _reopen(self):
        self.stores = {
            layout: CampaignStore(directory)
            for layout, directory in self.dirs.items()
        }

    @rule(config=st.sampled_from(_CONFIGS), result=st.sampled_from(_RESULTS))
    def put(self, config, result):
        outcomes = [
            _outcome(lambda store=store: store.put(config, result))
            for store in self.stores.values()
        ]
        assert outcomes[0] == outcomes[1]

    @rule()
    def reopen(self):
        self._reopen()

    @rule()
    def compact(self):
        summaries = [store.layout.compact() for store in self.stores.values()]
        assert summaries[0]["records"] == summaries[1]["records"]

    @precondition(
        lambda self: any(
            content_key(config) not in self.stores[SINGLE_FILE]
            for config in _CONFIGS
        )
    )
    @rule(data=st.data())
    def crash_mid_append(self, data):
        """A writer died after writing part (or all but the newline) of a line."""
        config = data.draw(
            st.sampled_from(
                [
                    config for config in _CONFIGS
                    if content_key(config) not in self.stores[SINGLE_FILE]
                ]
            )
        )
        key = content_key(config)
        line = ResultRecord(key, config, _RESULTS[0]).to_json_line().encode()
        # Half the crashes lose only the newline, so the restore path runs
        # as often as the truncate path.
        cut = data.draw(
            st.one_of(
                st.just(len(line)),
                st.integers(min_value=1, max_value=len(line) - 1),
            )
        )
        targets = {
            SINGLE_FILE: os.path.join(self.dirs[SINGLE_FILE], "records.jsonl"),
            SHARDED: os.path.join(
                self.dirs[SHARDED], "segments", f"{key[:2]}.jsonl"
            ),
        }
        for path in targets.values():
            with open(path, "ab") as handle:
                handle.write(line[:cut])
        self._reopen()
        # Only a complete line survives (its newline restored); any shorter
        # fragment is truncated away.
        assert (key in self.stores[SINGLE_FILE]) == (cut == len(line))

    @invariant()
    def stores_agree(self):
        if not hasattr(self, "stores"):
            return
        single, sharded = self.stores[SINGLE_FILE], self.stores[SHARDED]
        keys = single.keys()
        assert sharded.keys() == keys
        assert len(single) == len(sharded) == len(keys)
        for key in keys:
            assert single.get(key) == sharded.get(key)
        assert single.get("0" * 64) is None and sharded.get("0" * 64) is None


SingleFileVersusSharded.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestSingleFileVersusSharded = SingleFileVersusSharded.TestCase
