"""Fused Monte-Carlo decode pipeline over packed error masks.

The staged kernels (:mod:`repro.einsim.engine`) materialize every
intermediate of a Monte-Carlo round as a full ``(num_words, n)`` ``uint8``
batch: tiled codewords, injected words, corrected words.  The fused pipeline,
which the ``packed`` backend of the one Monte-Carlo runner
(:func:`repro.einsim.simulator.simulate_segments`) runs, never does.  It
exploits two identities:

* every stored word of a round is the *same* codeword ``c`` with
  ``H·c = 0``, so the syndrome of a received word equals the syndrome of its
  error mask — decode outcomes are a function of the mask alone;
* all of :class:`~repro.einsim.simulator.SimulationResult` is derivable from
  the mask and the decode action: the post-correction data-bit error at
  position ``j`` is ``mask[j] XOR (action == j)``, so per-bit counts follow
  from mask column counts plus a ±1 adjustment at each acted-on position.

Injectors draw their masks directly in packed form, through their one
``error_mask_packed`` method (:mod:`repro.einsim.injectors`), in one of two
representations:

* ``coords`` — a coordinate list: the word index of every set bit, in
  nondecreasing order, with its column, at most once per (word, column).
  Every injector but the BEEP weak-cell case emits it: the Bernoulli-style
  models through :meth:`PackedErrorBatch.from_indices`, the injectors that
  draw whole boolean masks (per-bit probabilities, row stripes, fault
  models) through :meth:`PackedErrorBatch.from_mask`, and composites as the
  union of their members' coordinates.  The kernel classifies it in
  O(errors), and a word without coordinates is clean by construction;
* ``subset`` — a single integer per word indexing the fired subset of a
  small shared candidate list (the BEEP weak-cell case), classified entirely
  through ``2**c``-entry lookup tables and one histogram.

Classification is segment-aware so one kernel call covers many profile
patterns or campaign chunks (:func:`FusedKernel.classify_segments`); the
runner decides which batches share a call.  Coordinates take their
syndromes from one XOR-reduction of column integers per word.

Both backends draw through :func:`packed_error_batch`, which counts each
draw under ``einsim.sample_*`` when tracing, beside the kernels'
``einsim.decode_*`` counters.  The ``reference`` backend densifies the
batch and decodes it with the staged kernels, so both backends see the same
errors by construction, and the differential tests
(``tests/test_differential_fused.py``, ``tests/test_einsim_coordinates.py``)
compare how each classifies them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2.bitpack import popcount_u64
from repro.obs import TRACER
from repro.ecc.code import SystematicLinearCode

#: Widest shared candidate list stored as subset integers; beyond this the
#: ``2**c`` per-subset tables stop paying for themselves and injectors fall
#: back to the coordinate representation.
SUBSET_WIDTH_LIMIT = 16


@dataclass
class PackedErrorBatch:
    """One Monte-Carlo round's error masks, in packed form.

    Exactly one representation is populated; ``kind`` reports which.  Both
    describe the same logical object — a boolean ``(num_words, num_bits)``
    mask — and :meth:`coordinates` lists its set bits from either.
    """

    num_words: int
    num_bits: int
    #: Coordinate representation: bit ``columns[i]`` of word ``rows[i]`` is
    #: set; ``rows`` is nondecreasing and no (row, column) pair repeats.
    rows: Optional[np.ndarray] = None
    columns: Optional[np.ndarray] = None
    #: Subset representation: shared candidate positions ``(c,)`` plus one
    #: integer per word whose bit ``j`` fires ``candidates[j]``.
    candidates: Optional[np.ndarray] = None
    subsets: Optional[np.ndarray] = None

    @property
    def kind(self) -> str:
        """``"coords"`` or ``"subset"``."""
        return "coords" if self.subsets is None else "subset"

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "PackedErrorBatch":
        """The coordinates of a dense boolean ``(num_words, num_bits)`` mask."""
        num_words, num_bits = mask.shape
        rows, columns = np.divmod(np.flatnonzero(mask), num_bits)
        return cls.from_indices(rows, columns, num_words, num_bits)

    @classmethod
    def from_indices(
        cls, rows: np.ndarray, columns: np.ndarray, num_words: int, num_bits: int
    ) -> "PackedErrorBatch":
        """Coordinates: bit ``columns[i]`` of word ``rows[i]`` is set.

        ``rows`` must be nondecreasing and no (row, column) pair may repeat;
        the order and the ranges are checked, the repeats are not.
        """
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        if rows.ndim != 1 or rows.shape != columns.shape:
            raise DimensionError(
                f"rows {rows.shape} and columns {columns.shape} must be "
                "matching 1-D arrays"
            )
        if rows.size and (
            rows[0] < 0
            or rows[-1] >= num_words
            or bool((rows[1:] < rows[:-1]).any())
            or columns.min() < 0
            or columns.max() >= num_bits
        ):
            raise ValidationError(
                f"coordinates must name {num_words} words in order and "
                f"columns below {num_bits}"
            )
        return cls(num_words=num_words, num_bits=num_bits, rows=rows, columns=columns)

    @classmethod
    def from_subset(
        cls, candidates: np.ndarray, subsets: np.ndarray, num_bits: int
    ) -> "PackedErrorBatch":
        """Shared candidate list plus one fired-subset integer per word."""
        candidates = np.asarray(candidates, dtype=np.int64)
        subsets = np.asarray(subsets, dtype=np.int64)
        if candidates.ndim != 1 or candidates.size > SUBSET_WIDTH_LIMIT:
            raise DimensionError(
                f"candidate list of shape {candidates.shape} exceeds the "
                f"subset width limit ({SUBSET_WIDTH_LIMIT})"
            )
        if subsets.ndim != 1:
            raise DimensionError(f"subsets must be 1-D, got {subsets.shape}")
        return cls(
            num_words=subsets.shape[0],
            num_bits=num_bits,
            candidates=candidates,
            subsets=subsets,
        )

    # -- conversions ------------------------------------------------------
    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, columns)`` of every set bit, rows in nondecreasing order."""
        if self.subsets is None:
            assert self.rows is not None and self.columns is not None
            return self.rows, self.columns
        assert self.candidates is not None
        fired = (self.subsets[:, np.newaxis] >> np.arange(self.candidates.size)) & 1
        rows, slots = np.nonzero(fired)
        return rows, self.candidates[slots]

    def num_errors(self) -> int:
        """Total number of set mask bits over every word."""
        if self.subsets is not None:
            return int(popcount_u64(self.subsets).sum())
        assert self.rows is not None
        return int(self.rows.size)


def batches_compatible(first: PackedErrorBatch, second: PackedErrorBatch) -> bool:
    """Whether two batches can be concatenated into one classify call."""
    if first.num_bits != second.num_bits or first.kind != second.kind:
        return False
    if first.kind == "subset":
        assert first.candidates is not None and second.candidates is not None
        return np.array_equal(first.candidates, second.candidates)
    return True


def concat_batches(batches: Sequence[PackedErrorBatch]) -> PackedErrorBatch:
    """Concatenate compatible batches along the word axis."""
    if not batches:
        raise ValidationError("cannot concatenate an empty batch list")
    head = batches[0]
    if len(batches) == 1:
        return head
    for other in batches[1:]:
        if not batches_compatible(head, other):
            raise ValidationError(
                "cannot concatenate incompatible packed error batches"
            )
    total = sum(batch.num_words for batch in batches)
    if head.kind == "subset":
        return PackedErrorBatch(
            num_words=total,
            num_bits=head.num_bits,
            candidates=head.candidates,
            subsets=np.concatenate(
                [batch.subsets for batch in batches]  # type: ignore[misc]
            ),
        )
    offsets = np.cumsum([0] + [batch.num_words for batch in batches[:-1]])
    return PackedErrorBatch(
        num_words=total,
        num_bits=head.num_bits,
        rows=np.concatenate(
            [batch.rows + offset for batch, offset in zip(batches, offsets)]
        ),
        columns=np.concatenate([batch.columns for batch in batches]),
    )


def packed_error_batch(
    injector, codeword: np.ndarray, num_words: int, rng: np.random.Generator
) -> PackedErrorBatch:
    """Draw one round's error masks from ``injector`` in packed form.

    Returns ``injector.error_mask_packed(codeword, num_words, rng)``, counted
    under ``einsim.sample_*`` when tracing, so a trace splits inject time
    from decode time.
    """
    start = time.perf_counter() if TRACER.enabled else 0.0
    batch = injector.error_mask_packed(
        np.asarray(codeword, dtype=np.uint8), num_words, rng
    )
    if TRACER.enabled:
        TRACER.add("einsim.sample_batches")
        TRACER.add("einsim.errors_sampled", batch.num_errors())
        TRACER.add("einsim.sample_s", time.perf_counter() - start)
    return batch


@dataclass
class FusedStats:
    """Classification aggregates for one segment of a packed round.

    Field-for-field the payload of a
    :class:`~repro.einsim.simulator.SimulationResult` (minus the dataword).
    """

    num_words: int
    pre_correction_error_counts: np.ndarray
    post_correction_error_counts: np.ndarray
    uncorrectable_words: int
    miscorrected_words: int
    detected_words: int
    miscorrection_positions: Tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def zero(cls, num_bits: int, num_data_bits: int) -> "FusedStats":
        """An empty accumulator for the given code dimensions."""
        return cls(
            num_words=0,
            pre_correction_error_counts=np.zeros(num_bits, dtype=np.int64),
            post_correction_error_counts=np.zeros(num_data_bits, dtype=np.int64),
            uncorrectable_words=0,
            miscorrected_words=0,
            detected_words=0,
        )

    def merge(self, other: "FusedStats") -> "FusedStats":
        """Combine two segments' aggregates."""
        return FusedStats(
            num_words=self.num_words + other.num_words,
            pre_correction_error_counts=(
                self.pre_correction_error_counts
                + other.pre_correction_error_counts
            ),
            post_correction_error_counts=(
                self.post_correction_error_counts
                + other.post_correction_error_counts
            ),
            uncorrectable_words=self.uncorrectable_words + other.uncorrectable_words,
            miscorrected_words=self.miscorrected_words + other.miscorrected_words,
            detected_words=self.detected_words + other.detected_words,
            miscorrection_positions=tuple(
                sorted(
                    set(self.miscorrection_positions)
                    | set(other.miscorrection_positions)
                )
            ),
        )


@dataclass
class _SubsetTables:
    """Per-subset-value lookup tables for one shared candidate list."""

    detect: np.ndarray
    too_many: np.ndarray
    miscorrect: np.ndarray
    bit_matrix: np.ndarray
    plus_targets: np.ndarray
    minus_targets: np.ndarray
    plus_values: np.ndarray
    minus_values: np.ndarray


class FusedKernel:
    """Per-code classifier turning packed error batches into statistics.

    Construction reads only the code's cached artefacts (decode-action
    table, column integers); :func:`get_kernel` memoizes one kernel per code
    object.
    """

    def __init__(self, code: SystematicLinearCode):
        self._code = code
        self._n = code.codeword_length
        self._k = code.num_data_bits
        self._action_table = code.decode_action_table()
        self._column_ints = np.asarray(code.column_ints, dtype=np.int64)
        self._correctable = 0 if code.detect_only else 1
        self._subset_tables: Dict[bytes, _SubsetTables] = {}

    @property
    def code(self) -> SystematicLinearCode:
        """The code this kernel classifies for."""
        return self._code

    # -- public API -------------------------------------------------------
    def classify(self, batch: PackedErrorBatch) -> FusedStats:
        """Classify one batch as a single segment."""
        return self.classify_segments(batch, (batch.num_words,))[0]

    def classify_segments(
        self, batch: PackedErrorBatch, segment_words: Sequence[int]
    ) -> List[FusedStats]:
        """Classify a batch whose words form consecutive segments.

        ``segment_words`` are per-segment word counts summing to
        ``batch.num_words`` (e.g. one segment per profile pattern or per
        campaign chunk); one kernel pass serves them all.
        """
        segment_words = [int(count) for count in segment_words]
        if any(count < 0 for count in segment_words) or sum(
            segment_words
        ) != batch.num_words:
            raise DimensionError(
                f"segment word counts {segment_words} do not partition "
                f"{batch.num_words} words"
            )
        if batch.num_bits != self._n:
            raise DimensionError(
                f"batch carries {batch.num_bits}-bit masks, code expects "
                f"{self._n}"
            )
        start = time.perf_counter() if TRACER.enabled else 0.0
        if batch.kind == "subset":
            results = self._classify_subset(batch, segment_words)
        else:
            results = self._classify_coords(batch, segment_words)
        if TRACER.enabled:
            seconds = time.perf_counter() - start
            due_words = sum(stats.detected_words for stats in results)
            TRACER.add("einsim.decode_batches")
            TRACER.add("einsim.words_decoded", batch.num_words)
            TRACER.add("einsim.due_words", due_words)
            TRACER.add("einsim.decode_s", seconds)
            TRACER.event(
                "einsim.fused.classify",
                {
                    "kind": batch.kind,
                    "words": batch.num_words,
                    "segments": len(segment_words),
                    "due_words": due_words,
                    "seconds": seconds,
                },
            )
        return results

    # -- coordinates --------------------------------------------------------
    def _classify_coords(
        self, batch: PackedErrorBatch, segment_words: List[int]
    ) -> List[FusedStats]:
        """O(errors): only the words holding a coordinate are looked at."""
        rows, columns = batch.rows, batch.columns
        assert rows is not None and columns is not None
        # Each word's coordinates form one run of ``rows``.
        starts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
        if rows.size:
            starts = np.concatenate(([0], starts))
        err_counts = np.diff(np.append(starts, rows.size))
        syndromes = np.bitwise_xor.reduceat(self._column_ints[columns], starts)
        actions = self._action_table[syndromes]
        # A correction hits an injected error when one of its word's
        # coordinates is the acted-on column (sentinels never match); a word
        # holds each column once, so the OR over its run is a scatter.
        matches = np.flatnonzero(columns == np.repeat(actions, err_counts))
        hit = np.zeros(starts.size, dtype=bool)
        hit[np.searchsorted(starts, matches, side="right") - 1] = True
        # Segment ``s`` owns coordinates ``coord_bounds[s]:coord_bounds[s + 1]``
        # and runs ``run_bounds[s]:run_bounds[s + 1]``.
        offsets = np.cumsum([0] + segment_words)
        coord_bounds = np.searchsorted(rows, offsets)
        run_bounds = np.searchsorted(rows[starts], offsets)
        results: List[FusedStats] = []
        for index, count in enumerate(segment_words):
            lo, hi = run_bounds[index], run_bounds[index + 1]
            pre = np.bincount(
                columns[coord_bounds[index] : coord_bounds[index + 1]],
                minlength=self._n,
            )
            seg_actions = actions[lo:hi]
            acted = seg_actions >= 0
            seg_acts = seg_actions[acted]
            seg_hit = hit[lo:hi][acted]
            # A correction of data bit j clears an injected error there (a
            # hit) or adds one (a miscorrection).
            data_sel = seg_acts < self._k
            plus = np.bincount(seg_acts[data_sel & ~seg_hit], minlength=self._k)
            minus = np.bincount(seg_acts[data_sel & seg_hit], minlength=self._k)
            results.append(
                FusedStats(
                    num_words=count,
                    pre_correction_error_counts=pre,
                    post_correction_error_counts=pre[: self._k] + plus - minus,
                    uncorrectable_words=int(
                        (err_counts[lo:hi] > self._correctable).sum()
                    ),
                    miscorrected_words=int((~seg_hit).sum()),
                    detected_words=int(
                        (seg_actions == SystematicLinearCode.ACTION_DETECT).sum()
                    ),
                    miscorrection_positions=tuple(np.flatnonzero(plus).tolist()),
                )
            )
        return results

    # -- subset histogram -------------------------------------------------
    def _classify_subset(
        self, batch: PackedErrorBatch, segment_words: List[int]
    ) -> List[FusedStats]:
        candidates, subsets = batch.candidates, batch.subsets
        assert candidates is not None and subsets is not None
        tables = self._tables_for(candidates)
        size = 1 << candidates.size
        results: List[FusedStats] = []
        offset = 0
        for count in segment_words:
            histogram = np.bincount(subsets[offset : offset + count], minlength=size)
            offset += count
            pre = np.zeros(self._n, dtype=np.int64)
            pre[candidates] = histogram @ tables.bit_matrix
            post = pre[: self._k].copy()
            plus_hist = histogram[tables.plus_values]
            np.add.at(post, tables.plus_targets, plus_hist)
            np.subtract.at(
                post, tables.minus_targets, histogram[tables.minus_values]
            )
            results.append(
                FusedStats(
                    num_words=count,
                    pre_correction_error_counts=pre,
                    post_correction_error_counts=post,
                    uncorrectable_words=int(histogram @ tables.too_many),
                    miscorrected_words=int(histogram @ tables.miscorrect),
                    detected_words=int(histogram @ tables.detect),
                    miscorrection_positions=tuple(
                        int(p)
                        for p in np.unique(tables.plus_targets[plus_hist > 0])
                    ),
                )
            )
        return results

    def _tables_for(self, candidates: np.ndarray) -> _SubsetTables:
        key = candidates.tobytes()
        cached = self._subset_tables.get(key)
        if cached is not None:
            return cached
        width = candidates.size
        size = 1 << width
        syndrome = np.zeros(size, dtype=np.int64)
        candidate_cols = self._column_ints[candidates]
        for j in range(width):
            block = 1 << j
            syndrome[block : 2 * block] = syndrome[:block] ^ candidate_cols[j]
        counts = popcount_u64(np.arange(size, dtype=np.uint64)).astype(np.int64)
        act = self._action_table[syndrome]
        vbits = ((np.arange(size)[:, np.newaxis] >> np.arange(width)) & 1) != 0
        hit = np.zeros(size, dtype=bool)
        for j in range(width):
            hit |= (act == candidates[j]) & vbits[:, j]
        miscorrect = (act >= 0) & ~hit
        plus = miscorrect & (act < self._k)
        minus = (act >= 0) & hit & (act < self._k)
        tables = _SubsetTables(
            detect=(act == SystematicLinearCode.ACTION_DETECT).astype(np.int64),
            too_many=(counts > self._correctable).astype(np.int64),
            miscorrect=miscorrect.astype(np.int64),
            bit_matrix=vbits.astype(np.int64),
            plus_targets=act[plus],
            minus_targets=act[minus],
            plus_values=np.flatnonzero(plus),
            minus_values=np.flatnonzero(minus),
        )
        self._subset_tables[key] = tables
        return tables


def get_kernel(code: SystematicLinearCode) -> FusedKernel:
    """Return the memoized :class:`FusedKernel` for a code object."""
    kernel = getattr(code, "_fused_kernel", None)
    if kernel is None or kernel.code is not code:
        kernel = FusedKernel(code)
        code._fused_kernel = kernel  # type: ignore[attr-defined]
    return kernel
