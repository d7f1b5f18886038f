"""Span recording for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around its calls into the
library: a proxy stands in for the DRAM chip, another for the campaign
store, and :meth:`Recorder.span` wraps calls to public functions.  Nothing
inside ``repro`` is instrumented by this module.

Each span keeps its name, start, end, parent and the id of the op it
belongs to.  Spans stay in memory until the run ends; :meth:`Recorder.breakdown`
then turns one op's spans into per-name totals and self times, where a
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span in the recorder."""

    name: str
    op: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps every span of a run in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._op = -1
        self._op_ranges: Dict[int, range] = {}

    def span(self, name: str, **attrs: Any) -> "_OpenSpan":
        """Time a ``with`` block as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        return _OpenSpan(self, Span(name, self._op, parent, attrs=attrs))

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[Span]:
        """Open the root span of one op; every span inside carries ``op_id``."""
        self._op = op_id
        first = len(self.spans)
        try:
            with self.span("op") as root:
                yield root
        finally:
            self._op_ranges[op_id] = range(first, len(self.spans))

    def breakdown(self, op_id: int) -> "Breakdown":
        """Totals and self times for one op.

        Raises ``AssertionError`` unless every span nests inside its parent
        and the self times of all spans, the root's included, add up to the
        op time.
        """
        indices = self._op_ranges[op_id]
        spans = self.spans[indices.start:indices.stop]
        child_seconds: Dict[int, float] = defaultdict(float)
        for span in spans[1:]:
            parent = self.spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                raise AssertionError(f"span {span.name} escapes its parent {parent.name}")
            child_seconds[span.parent] += span.seconds
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        for index, span in zip(indices, spans):
            total[span.name] += span.seconds
            self_time[span.name] += span.seconds - child_seconds[index]
        op_seconds = spans[0].seconds
        if abs(sum(self_time.values()) - op_seconds) > 1e-6:
            raise AssertionError("per-layer seconds do not add up to the op time")
        return Breakdown(op_seconds, total, self_time, spans)

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "op": span.op,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class _OpenSpan:
    """Context manager that records one span (a class: cheaper than a generator)."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: Recorder, span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        recorder = self._recorder
        recorder._open.append(len(recorder.spans))
        recorder.spans.append(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._span.end = time.perf_counter()
        self._recorder._open.pop()


@dataclass
class Breakdown:
    """Per-name totals and self times of one op's spans."""

    op_seconds: float
    total: Dict[str, float]
    self_time: Dict[str, float]
    spans: List[Span]

    @property
    def unattributed_s(self) -> float:
        """Op time covered by no top-level span (the root's self time)."""
        return self.self_time["op"]

    def attr_sum(self, name: str, attr: str) -> float:
        """Sum ``attr`` over the spans called ``name``."""
        return sum(span.attrs[attr] for span in self.spans if span.name == name)

    def seconds_where(self, name: str, attr: str, value: Any) -> float:
        """Total seconds of the spans called ``name`` whose ``attr`` is ``value``."""
        return sum(
            span.seconds
            for span in self.spans
            if span.name == name and span.attrs.get(attr) == value
        )


class ChipProxy:
    """Stands in for a ``SimulatedDramChip``, timing every write, pause and read.

    Word counts are taken from the arrays passed in and returned.  Every other
    attribute is the chip's own.
    """

    def __init__(self, chip: Any, recorder: Recorder) -> None:
        self._chip = chip
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._chip, name)

    def write_datawords(self, word_indices: Any, datawords: Any) -> None:
        with self._recorder.span("dram.write", words=len(datawords)):
            self._chip.write_datawords(word_indices, datawords)

    def fill(self, dataword: Any) -> None:
        with self._recorder.span("dram.write", words=self._chip.num_words):
            self._chip.fill(dataword)

    def pause_refresh(self, duration_s: float, temperature_c: float = 80.0) -> None:
        with self._recorder.span("dram.pause", pauses=1):
            self._chip.pause_refresh(duration_s, temperature_c)

    def read_datawords(self, word_indices: Any) -> Any:
        with self._recorder.span("dram.read") as span:
            observed = self._chip.read_datawords(word_indices)
            span.attrs["words"] = len(observed)
        return observed

    def read_all_datawords(self) -> Any:
        with self._recorder.span("dram.read") as span:
            observed = self._chip.read_all_datawords()
            span.attrs["words"] = len(observed)
        return observed


class StoreProxy:
    """Stands in for a ``CampaignStore``, timing membership, reads and writes.

    Span names are ``<prefix>.contains``, ``.get``, ``.put`` and ``.keys``.
    """

    def __init__(self, store: Any, recorder: Recorder, prefix: str) -> None:
        self._store = store
        self._recorder = recorder
        self._prefix = prefix

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)

    def __contains__(self, key: str) -> bool:
        with self._recorder.span(self._prefix + ".contains"):
            return key in self._store

    def get(self, key: str) -> Any:
        with self._recorder.span(self._prefix + ".get"):
            return self._store.get(key)

    def put(self, config: Dict[str, Any], result: Dict[str, Any]) -> Any:
        with self._recorder.span(self._prefix + ".put"):
            return self._store.put(config, result)

    def keys(self) -> List[str]:
        with self._recorder.span(self._prefix + ".keys"):
            return self._store.keys()
