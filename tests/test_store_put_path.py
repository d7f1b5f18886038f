"""Tests for the campaign store's put and lookup hot path.

A put encodes its config and its result once, reads the segment tail only
when another writer appended to it, and appends its sidecar row with one
os-level append; a lazy index entry decodes a row's offset, length and
seq from the row's fixed header and parses its config only when the
config is read.  These tests pin that:

* the bytes a put appends are the canonical record line and index row,
  checked against one canonical encode of the whole record;
* the store keeps none of the caller's objects, so mutating them after a
  put changes nothing stored;
* the header decode agrees with the full decode and rejects the same
  doctored rows, and ``keys()`` decodes no config;
* a single writer never reads its own tail, while a co-writer's append is
  still read, indexed and deduplicated (``store.tail_reads`` counts the
  reads);
* ``repro store verify`` checks every sidecar row's config against its
  record.
"""

import copy
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.layout as layout_module
from repro.obs import TRACER
from repro.store import (
    SHARDED,
    SINGLE_FILE,
    CampaignStore,
    ResultRecord,
    StoreIntegrityError,
    canonical_json,
    content_key,
    store_compact,
    store_verify,
)
from repro.store.layout import IndexEntry

LAYOUTS = [SINGLE_FILE, SHARDED]


@pytest.fixture(params=LAYOUTS)
def layout(request):
    return request.param


@pytest.fixture
def traced():
    TRACER.enable()
    try:
        yield TRACER
    finally:
        TRACER.disable()


def _segment_path(directory, key):
    """The record file a key's line lands in, for either layout."""
    directory = str(directory)
    if os.path.isdir(os.path.join(directory, "segments")):
        return os.path.join(directory, "segments", f"{key[:2]}.jsonl")
    return os.path.join(directory, "records.jsonl")


def _all_record_lines(directory):
    segments = directory / "segments"
    paths = (
        sorted(segments.glob("*.jsonl")) if segments.is_dir()
        else [directory / "records.jsonl"]
    )
    return [line for path in paths for line in path.read_bytes().splitlines()]


def _colliding_cells(count):
    """The first ``count`` cells whose ``{"cell": n}`` keys share a shard."""
    groups = {}
    cell = 0
    while True:
        shard = content_key({"cell": cell})[:2]
        groups.setdefault(shard, []).append(cell)
        if len(groups[shard]) == count:
            return groups[shard]
        cell += 1


def _config_decoded(entry):
    """Has ``entry`` decoded its config yet?  (Reads the slot directly.)"""
    try:
        IndexEntry.config.__get__(entry, IndexEntry)
    except AttributeError:
        return False
    return True


def _rewrite_row_config(directory, config, config_text):
    """Give the index row of ``config``'s record another config, in place."""
    key = content_key(config)
    sidecar = directory / "index" / f"{key[:2]}.idx"
    rows = sidecar.read_bytes().splitlines(keepends=True)
    [position] = [
        index for index, row in enumerate(rows)
        if row.startswith(b'{"k":"' + key.encode())
    ]
    header, marker, _ = rows[position].partition(b'"c":')
    rows[position] = header + marker + config_text + b"}\n"
    sidecar.write_bytes(b"".join(rows))


# -- random JSON documents ---------------------------------------------------

#: Field names include the record line's and the index row's own keys, so
#: nesting them inside a config or result cannot confuse either format.
_FIELDS = st.one_of(
    st.sampled_from(["config", "key", "result", "k", "o", "l", "q", "c"]),
    st.text(max_size=5),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_FIELDS, children, max_size=3),
    ),
    max_leaves=12,
)
_DOCUMENTS = st.dictionaries(_FIELDS, _VALUES, max_size=4)


class TestPutBytes:
    @pytest.mark.parametrize("layout_name", LAYOUTS)
    @settings(max_examples=40, deadline=None)
    @given(cells=st.lists(st.tuples(_DOCUMENTS, _DOCUMENTS), min_size=1,
                          max_size=5))
    def test_put_appends_the_canonical_line_and_index_row(
        self, layout_name, cells
    ):
        workdir = tempfile.mkdtemp(prefix="store_put_")
        try:
            store = CampaignStore(workdir, layout=layout_name)
            committed = set()
            for config, result in cells:
                key = content_key(config)
                if key in committed:
                    continue
                seq = len(committed)
                committed.add(key)
                path = _segment_path(workdir, key)
                offset = os.path.getsize(path) if os.path.exists(path) else 0
                store.put(config, result)
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    appended = handle.read()
                line = ResultRecord(key, config, result).to_json_line()
                assert appended == (line + "\n").encode("utf-8")
                # An independent oracle: the whole record, encoded at once.
                assert line == canonical_json(
                    {"config": config, "key": key, "result": result}
                )
                if layout_name == SHARDED:
                    sidecar = os.path.join(
                        workdir, "index", f"{key[:2]}.idx"
                    )
                    with open(sidecar, "rb") as handle:
                        last_row = handle.read().splitlines()[-1]
                    row = IndexEntry(
                        key, key[:2], offset, len(appended) - 1, seq, config
                    ).to_json_line()
                    assert last_row == row.encode("utf-8")
                stored = store.get(key)
                assert (stored.config, stored.result) == (config, result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class TestPutKeepsNoCallerObjects:
    def test_mutating_put_arguments_changes_nothing_stored(
        self, tmp_path, layout
    ):
        store = CampaignStore(tmp_path, layout=layout)
        config = {"cell": 0, "params": {"bit_error_rate": 0.01}}
        result = {"counts": [1, 2, 3]}
        original_config = copy.deepcopy(config)
        original_result = copy.deepcopy(result)
        key = store.put(config, result).key
        line = ResultRecord(
            key, original_config, original_result
        ).to_json_line()

        result["counts"].append(4)
        with pytest.raises(StoreIntegrityError, match="different result"):
            store.put(config, result)
        assert store.get(key).result == original_result
        assert CampaignStore(tmp_path).get(key).result == original_result

        config["params"]["bit_error_rate"] = 0.5
        record = store.get(key)
        assert record.config == original_config
        assert content_key(record.config) == key
        # The index entry decodes its config from its own row, not from
        # the caller's dict, so queries still see what is stored.
        assert [r.key for r in store.query(cell=0)] == [key]
        assert store.query(params={"bit_error_rate": 0.5}) == []
        assert _all_record_lines(tmp_path) == [line.encode("utf-8")]


_KEY = "ab" + "0" * 62
_ROW = IndexEntry(_KEY, "ab", 10, 20, 3, {"cell": 1}).to_json_line()


class TestHeaderDecode:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
        offset=st.integers(min_value=0, max_value=2**40),
        length=st.integers(min_value=1, max_value=2**31),
        seq=st.integers(min_value=0, max_value=2**40),
        config=_DOCUMENTS,
    )
    def test_header_fields_equal_the_full_decode(
        self, key, offset, length, seq, config
    ):
        raw = IndexEntry(
            key, key[:2], offset, length, seq, config
        ).to_json_line().encode("utf-8")
        header_only = IndexEntry.lazy(key, key[:2], raw)
        full = IndexEntry.lazy(key, key[:2], raw).decoded()
        positions = (header_only.offset, header_only.length, header_only.seq)
        assert positions == (full.offset, full.length, full.seq)
        assert positions == (offset, length, seq)
        assert not _config_decoded(header_only)
        assert header_only.config == full.config == config

    @pytest.mark.parametrize(
        "field, doctored",
        [
            ('"o":10', '"o":-10'),
            ('"l":20', '"l":0'),
            ('"q":3', '"q":-3'),
            ('"o":10', '"o":010'),
            ('"q":3', '"q":03'),
            ('"o":10', '"o":10.0'),
            ('"l":20', '"l":"20"'),
            ('"q":3', '"q":true'),
        ],
    )
    def test_header_faults_raise_on_header_access(self, field, doctored):
        raw = _ROW.replace(field, doctored).encode("utf-8")
        for name in ("offset", "length", "seq"):
            entry = IndexEntry.lazy(_KEY, "ab", raw)
            with pytest.raises(StoreIntegrityError, match="store compact"):
                getattr(entry, name)

    def test_key_faults_raise_on_header_access(self):
        raw = _ROW.encode("utf-8")
        for key, shard in (("ab" + "1" * 62, "ab"), (_KEY, "cd")):
            with pytest.raises(StoreIntegrityError, match="inconsistent"):
                IndexEntry.lazy(key, shard, raw).offset

    @pytest.mark.parametrize(
        "doctored",
        [
            _ROW.replace('"c":{"cell":1}', '"c":{"cell":}'),
            _ROW.replace('"c":{"cell":1}', '"c":[1]'),
            # A second "o" the header decode does not see.
            _ROW[:-1] + ',"o":11}',
        ],
    )
    def test_faults_past_the_header_raise_on_config_access(self, doctored):
        entry = IndexEntry.lazy(_KEY, "ab", doctored.encode("utf-8"))
        assert (entry.offset, entry.length, entry.seq) == (10, 20, 3)
        with pytest.raises(StoreIntegrityError, match="store compact"):
            entry.config

    def test_keys_on_a_reopened_sharded_store_decode_no_config(self, tmp_path):
        store = CampaignStore(tmp_path, layout=SHARDED)
        for cell in range(40):
            store.put({"cell": cell}, {"r": cell})
        reopened = CampaignStore(tmp_path)
        assert reopened.keys() == store.keys()
        for segment in reopened.layout.segments():
            *interior, final = segment.index.values()
            # Open decodes each sidecar's final row in full (that is how a
            # torn final row is forgiven); keys() decodes no config at all.
            assert _config_decoded(final)
            assert not any(_config_decoded(entry) for entry in interior)

    def test_non_canonical_row_with_a_string_offset_is_rebuilt(
        self, tmp_path, traced
    ):
        cells = _colliding_cells(3)
        store = CampaignStore(tmp_path, layout=SHARDED)
        for cell in cells:
            store.put({"cell": cell}, {"r": cell})
        key = content_key({"cell": cells[0]})
        sidecar = tmp_path / "index" / f"{key[:2]}.idx"
        rows = sidecar.read_text().splitlines()
        # Key no longer first (the full-parse path) and an offset that is
        # a string: the sidecar is distrusted and rebuilt from the segment.
        rows[0] = rows[0].replace('{"k":"' + key + '",', "{").replace(
            '"o":0,', '"o":"0","k":"' + key + '",'
        )
        sidecar.write_text("".join(row + "\n" for row in rows))
        reopened = CampaignStore(tmp_path)
        assert traced.counter_totals()["store.index.rebuilds"] == 1
        assert sorted(reopened.keys()) == sorted(store.keys())


class TestTailReads:
    def test_single_writer_puts_never_read_the_tail(
        self, tmp_path, layout, traced, monkeypatch
    ):
        CampaignStore(tmp_path, layout=layout).put({"cell": -1}, {"r": 0})
        store = CampaignStore(tmp_path)  # coverage > 0: the stat path
        opened = []
        real_open = open

        def spy(path, mode="r", *args, **kwargs):
            opened.append((os.fspath(path), mode))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(layout_module, "open", spy, raising=False)
        before = traced.counter_totals().get("store.tail_reads", 0)
        for cell in range(20):
            store.put({"cell": cell}, {"r": cell})
        assert [path for path, mode in opened if "r" in mode] == []
        counters = traced.counter_totals()
        assert counters.get("store.tail_reads", 0) == before
        assert counters["store.appends"] == 21
        assert len(CampaignStore(tmp_path)) == 21

    def test_a_co_writers_append_is_read_indexed_and_deduplicated(
        self, tmp_path, layout, traced
    ):
        first, second = _colliding_cells(2)
        writer = CampaignStore(tmp_path, layout=layout)
        co_writer = CampaignStore(tmp_path)  # its own index and coverage
        writer.put({"cell": first}, {"r": 1})
        assert traced.counter_totals().get("store.tail_reads", 0) == 0

        # The co-writer has not seen that line: its put must read it under
        # the lock, index it and commit nothing.
        co_writer.put({"cell": first}, {"r": 1})
        assert traced.counter_totals()["store.tail_reads"] == 1
        assert content_key({"cell": first}) in co_writer
        with pytest.raises(StoreIntegrityError, match="different result"):
            co_writer.put({"cell": first}, {"r": 999})
        co_writer.put({"cell": second}, {"r": 2})
        writer.put({"cell": second}, {"r": 2})
        assert traced.counter_totals()["store.tail_reads"] == 2
        assert len(_all_record_lines(tmp_path)) == 2
        assert writer.keys() == co_writer.keys()
        assert co_writer.get(content_key({"cell": first})).result == {"r": 1}


class TestVerifyChecksSidecarRows:
    @staticmethod
    def _populated(directory):
        cells = _colliding_cells(2)
        store = CampaignStore(directory, layout=SHARDED)
        for cell in [0, *cells, 5, 6]:
            store.put({"cell": cell}, {"r": cell})
        return cells

    def test_a_row_with_another_config_is_reported_and_compacted(
        self, tmp_path
    ):
        self._populated(tmp_path)
        key = content_key({"cell": 0})
        _rewrite_row_config(tmp_path, {"cell": 0}, b'{"cell":99}')
        doctored = CampaignStore(tmp_path)
        # The fault: queries filter on the row's config, not the record's.
        assert doctored.query(cell=0) == []
        [wrong] = doctored.query(cell=99)
        assert wrong.config == {"cell": 0}

        report = store_verify(str(tmp_path))
        assert not report["ok"]
        [problem] = report["problems"]
        assert key in problem
        assert f"segment '{key[:2]}'" in problem
        assert "repro store compact" in problem

        store_compact(str(tmp_path))
        assert store_verify(str(tmp_path))["ok"]
        repaired = CampaignStore(tmp_path)
        assert [r.key for r in repaired.query(cell=0)] == [key]
        assert repaired.query(cell=99) == []

    def test_a_garbage_row_config_fails_on_access_and_in_verify(
        self, tmp_path
    ):
        first, _ = self._populated(tmp_path)
        key = content_key({"cell": first})
        # Not the sidecar's final row, so open does not decode it.
        _rewrite_row_config(tmp_path, {"cell": first}, b'{"cell":}')
        store = CampaignStore(tmp_path)
        assert store.get(key).result == {"r": first}  # positions decode
        with pytest.raises(StoreIntegrityError, match="store compact"):
            store.query(cell=first)
        report = store_verify(str(tmp_path))
        [problem] = report["problems"]
        assert key in problem and "unparseable" in problem
