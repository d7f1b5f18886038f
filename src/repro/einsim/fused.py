"""Fused Monte-Carlo decode pipeline over bit-packed ``uint64`` lanes.

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

Injectors emit masks directly in packed form via the ``error_mask_packed``
protocol (:mod:`repro.einsim.injectors`), in one of three representations:

* ``lanes`` — dense ``uint64`` lanes, for Bernoulli-style models (built from
  the sampled word and bit indices by :meth:`PackedErrorBatch.from_indices`);
* ``sparse`` — per-word candidate positions plus fire flags, for
  fixed-error-count draws over many candidates;
* ``subset`` — a single integer per word indexing the fired subset of a
  small shared candidate list (the BEEP weak-cell case), classified entirely
  through ``2**c``-entry lookup tables and one histogram.

Injectors without the protocol fall back to the unpacked
``error_mask`` + pack.  Classification is segment-aware so one kernel call
covers many profile patterns or campaign chunks
(:func:`FusedKernel.classify_segments`); the runner decides which batches
share a call.  Dense masks take the byte-fold syndrome tables, or the
AND/XOR-parity routine :func:`repro.einsim.engine.tiny_syndromes` for codes
with one or two parity bits, exactly like the staged packed kernels.

Bit-identity with the reference backend rests on the injectors, not on this
module: an injector's ``error_mask`` and ``error_mask_packed`` call the same
O(errors) sampler with the same arguments, so both backends see the same
masks, and the kernel computes the same statistics from them
(``tests/test_differential_fused.py``).  Both backends draw through
:func:`traced_draw`, which counts each draw under ``einsim.sample_*`` when
tracing, beside the kernels' ``einsim.decode_*`` counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.exceptions import DimensionError, ValidationError
from repro.gf2.bitpack import (
    LANE_BITS,
    fold_bytes,
    lanes_to_bytes,
    num_lanes,
    pack_bool_rows,
    packed_column_counts,
    popcount_u64,
)
from repro.obs import TRACER
from repro.ecc.code import SystematicLinearCode
from repro.einsim.engine import TINY_SYNDROME_PARITY_BITS, tiny_syndromes

#: Widest shared candidate list stored as subset integers; beyond this the
#: ``2**c`` per-subset tables stop paying for themselves and injectors fall
#: back to the sparse representation.
SUBSET_WIDTH_LIMIT = 16

_Drawn = TypeVar("_Drawn")


@dataclass
class PackedErrorBatch:
    """One Monte-Carlo round's error masks, in packed form.

    Exactly one representation is populated; ``kind`` reports which.  All
    representations describe the same logical object — a boolean
    ``(num_words, num_bits)`` mask — and :meth:`to_lanes` converts any of
    them to dense lanes without unpacking.
    """

    num_words: int
    num_bits: int
    #: Dense representation: ``(num_words, lanes)`` ``uint64``.
    lanes: Optional[np.ndarray] = None
    #: Sparse representation: ``(num_words, e)`` positions and fire flags.
    positions: Optional[np.ndarray] = None
    fires: Optional[np.ndarray] = None
    #: Subset representation: shared candidate positions ``(c,)`` plus one
    #: integer per word whose bit ``j`` fires ``candidates[j]``.
    candidates: Optional[np.ndarray] = None
    subsets: Optional[np.ndarray] = None

    @property
    def kind(self) -> str:
        """One of ``"lanes"``, ``"sparse"``, ``"subset"``."""
        if self.lanes is not None:
            return "lanes"
        if self.subsets is not None:
            return "subset"
        return "sparse"

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_bool_mask(cls, mask: np.ndarray) -> "PackedErrorBatch":
        """Pack a dense boolean ``(num_words, num_bits)`` mask into lanes."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise DimensionError(f"expected a 2-D mask, got shape {mask.shape}")
        return cls(
            num_words=mask.shape[0],
            num_bits=mask.shape[1],
            lanes=pack_bool_rows(mask),
        )

    @classmethod
    def from_lanes(cls, lanes: np.ndarray, num_bits: int) -> "PackedErrorBatch":
        """Wrap an already-packed ``(num_words, lanes)`` ``uint64`` array."""
        lanes = np.ascontiguousarray(np.asarray(lanes, dtype=np.uint64))
        if lanes.ndim != 2 or lanes.shape[1] != num_lanes(num_bits):
            raise DimensionError(
                f"lane array of shape {lanes.shape} cannot hold {num_bits} bits"
            )
        return cls(num_words=lanes.shape[0], num_bits=num_bits, lanes=lanes)

    @classmethod
    def from_indices(
        cls, rows: np.ndarray, columns: np.ndarray, num_words: int, num_bits: int
    ) -> "PackedErrorBatch":
        """Dense lanes with bit ``columns[i]`` of word ``rows[i]`` set."""
        return cls(
            num_words=num_words,
            num_bits=num_bits,
            lanes=_scatter_sparse(rows, columns, num_words, num_bits),
        )

    @classmethod
    def from_sparse(
        cls, positions: np.ndarray, fires: np.ndarray, num_bits: int
    ) -> "PackedErrorBatch":
        """Per-word distinct positions ``(m, e)`` with boolean fire flags."""
        positions = np.asarray(positions, dtype=np.int64)
        fires = np.asarray(fires, dtype=bool)
        if positions.ndim != 2 or positions.shape != fires.shape:
            raise DimensionError(
                f"positions {positions.shape} and fires {fires.shape} must be "
                "matching 2-D arrays"
            )
        return cls(
            num_words=positions.shape[0],
            num_bits=num_bits,
            positions=positions,
            fires=fires,
        )

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
    def to_lanes(self) -> np.ndarray:
        """Densify into ``(num_words, lanes)`` ``uint64`` (never unpacks)."""
        if self.lanes is not None:
            return self.lanes
        if self.subsets is not None:
            assert self.candidates is not None
            width = self.candidates.size
            vbits = ((self.subsets[:, np.newaxis] >> np.arange(width)) & 1) != 0
            rows, slots = np.nonzero(vbits)
            return _scatter_sparse(
                rows, self.candidates[slots], self.num_words, self.num_bits
            )
        assert self.positions is not None and self.fires is not None
        rows, slots = np.nonzero(self.fires)
        return _scatter_sparse(
            rows, self.positions[rows, slots], self.num_words, self.num_bits
        )

    def num_errors(self) -> int:
        """Total number of set mask bits over every word."""
        if self.lanes is not None:
            return int(popcount_u64(self.lanes).sum())
        if self.subsets is not None:
            return int(popcount_u64(self.subsets).sum())
        assert self.fires is not None
        return int(np.count_nonzero(self.fires))


def _scatter_sparse(
    rows: np.ndarray, columns: np.ndarray, num_words: int, num_bits: int
) -> np.ndarray:
    """Dense lanes with bit ``columns[i]`` of word ``rows[i]`` set."""
    lanes = np.zeros((num_words, num_lanes(num_bits)), dtype=np.uint64)
    if rows.size == 0:
        return lanes
    np.bitwise_or.at(
        lanes,
        (rows, columns // LANE_BITS),
        np.uint64(1) << (columns % LANE_BITS).astype(np.uint64),
    )
    return lanes


def batches_compatible(first: PackedErrorBatch, second: PackedErrorBatch) -> bool:
    """Whether two batches can be concatenated into one classify call."""
    if first.num_bits != second.num_bits or first.kind != second.kind:
        return False
    if first.kind == "sparse":
        assert first.positions is not None and second.positions is not None
        return first.positions.shape[1] == second.positions.shape[1]
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
    if head.kind == "lanes":
        return PackedErrorBatch(
            num_words=total,
            num_bits=head.num_bits,
            lanes=np.vstack([batch.to_lanes() for batch in batches]),
        )
    if head.kind == "subset":
        return PackedErrorBatch(
            num_words=total,
            num_bits=head.num_bits,
            candidates=head.candidates,
            subsets=np.concatenate(
                [batch.subsets for batch in batches]  # type: ignore[misc]
            ),
        )
    return PackedErrorBatch(
        num_words=total,
        num_bits=head.num_bits,
        positions=np.vstack([batch.positions for batch in batches]),
        fires=np.vstack([batch.fires for batch in batches]),
    )


def packed_error_batch(
    injector, codeword: np.ndarray, num_words: int, rng: np.random.Generator
) -> PackedErrorBatch:
    """Draw one round's error masks from ``injector`` in packed form.

    Uses the injector's ``error_mask_packed`` protocol when available; any
    other injector falls back to tiling the codeword and packing its dense
    ``error_mask`` — the same sampler call, so both routes are bit-exact.
    """
    return traced_draw(draw_packed_errors, injector, codeword, num_words, rng)


def draw_packed_errors(
    injector, codeword: np.ndarray, num_words: int, rng: np.random.Generator
) -> PackedErrorBatch:
    """:func:`packed_error_batch` without the tracing (composite members use it)."""
    codeword = np.asarray(codeword, dtype=np.uint8)
    packed = getattr(injector, "error_mask_packed", None)
    if packed is not None:
        return packed(codeword, num_words, rng)
    stored = np.tile(codeword, (num_words, 1))
    mask = np.asarray(injector.error_mask(stored, rng), dtype=bool)
    return PackedErrorBatch.from_bool_mask(mask)


def traced_draw(draw: Callable[..., _Drawn], *args: Any) -> _Drawn:
    """Return ``draw(*args)``, counting it under ``einsim.sample_*`` when tracing.

    ``draw`` returns a dense boolean error mask or a
    :class:`PackedErrorBatch`.  Both backends draw their errors through
    here, beside the decode counters, so a trace splits inject time from
    decode time.
    """
    start = time.perf_counter() if TRACER.enabled else 0.0
    drawn = draw(*args)
    if TRACER.enabled:
        seconds = time.perf_counter() - start
        if isinstance(drawn, PackedErrorBatch):
            errors = drawn.num_errors()
        else:
            errors = int(np.count_nonzero(drawn))
        TRACER.add("einsim.sample_batches")
        TRACER.add("einsim.errors_sampled", errors)
        TRACER.add("einsim.sample_s", seconds)
    return drawn


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
    table, fold tables, column integers); :func:`get_kernel` memoizes one
    kernel per code object.
    """

    def __init__(self, code: SystematicLinearCode):
        self._code = code
        self._n = code.codeword_length
        self._k = code.num_data_bits
        self._num_bytes = (self._n + 7) // 8
        self._action_table = code.decode_action_table()
        self._column_ints = np.asarray(code.column_ints, dtype=np.int64)
        self._correctable = 0 if code.detect_only else 1
        # Tiny-r codes take the AND/XOR-parity route; everything else folds.
        if code.num_parity_bits <= TINY_SYNDROME_PARITY_BITS:
            self._tiny_h_lanes: Optional[np.ndarray] = code.packed_h_lanes()
            self._fold_table: Optional[np.ndarray] = None
        else:
            self._tiny_h_lanes = None
            self._fold_table = code.syndrome_fold_table()
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
            results = self._classify_per_word(batch, segment_words)
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

    # -- dense / sparse ---------------------------------------------------
    def _classify_per_word(
        self, batch: PackedErrorBatch, segment_words: List[int]
    ) -> List[FusedStats]:
        if batch.kind == "lanes":
            lanes = batch.lanes
            assert lanes is not None
            mask_bytes = lanes_to_bytes(lanes, self._n)
            syndromes, err_counts = self._dense_syndromes(lanes, mask_bytes)
            actions = self._action_table[syndromes]
            flip_rows = np.flatnonzero(actions >= 0)
            acts = actions[flip_rows]
            mask_at_action = (
                (
                    lanes[flip_rows, acts // LANE_BITS]
                    >> (acts % LANE_BITS).astype(np.uint64)
                )
                & np.uint64(1)
            ) != 0

            def pre_counts(lo: int, hi: int) -> np.ndarray:
                return packed_column_counts(mask_bytes[lo:hi], self._n)

        else:
            positions, fires = batch.positions, batch.fires
            assert positions is not None and fires is not None
            syndromes = np.zeros(batch.num_words, dtype=np.int64)
            for j in range(positions.shape[1]):
                syndromes ^= np.where(
                    fires[:, j], self._column_ints[positions[:, j]], 0
                )
            err_counts = fires.sum(axis=1, dtype=np.int64)
            actions = self._action_table[syndromes]
            flip_rows = np.flatnonzero(actions >= 0)
            acts = actions[flip_rows]
            if flip_rows.size:
                mask_at_action = (
                    (positions[flip_rows] == acts[:, np.newaxis])
                    & fires[flip_rows]
                ).any(axis=1)
            else:
                mask_at_action = np.zeros(0, dtype=bool)

            def pre_counts(lo: int, hi: int) -> np.ndarray:
                fired = fires[lo:hi]
                return np.bincount(
                    positions[lo:hi][fired], minlength=self._n
                ).astype(np.int64)

        return self._aggregate_segments(
            segment_words, actions, err_counts, flip_rows, acts,
            mask_at_action, pre_counts,
        )

    def _dense_syndromes(
        self, lanes: np.ndarray, mask_bytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        err_counts = popcount_u64(lanes).sum(axis=1, dtype=np.int64)
        if self._tiny_h_lanes is not None:
            return tiny_syndromes(lanes, self._tiny_h_lanes), err_counts
        assert self._fold_table is not None
        return fold_bytes(self._fold_table, mask_bytes), err_counts

    def _aggregate_segments(
        self,
        segment_words: List[int],
        actions: np.ndarray,
        err_counts: np.ndarray,
        flip_rows: np.ndarray,
        acts: np.ndarray,
        mask_at_action: np.ndarray,
        pre_counts,
    ) -> List[FusedStats]:
        results: List[FusedStats] = []
        offset = 0
        for count in segment_words:
            lo, hi = offset, offset + count
            offset = hi
            seg_actions = actions[lo:hi]
            lo_i, hi_i = np.searchsorted(flip_rows, (lo, hi))
            seg_acts = acts[lo_i:hi_i]
            seg_hit = mask_at_action[lo_i:hi_i]
            pre = pre_counts(lo, hi)
            post = pre[: self._k].copy()
            data_sel = seg_acts < self._k
            plus = seg_acts[data_sel & ~seg_hit]
            minus = seg_acts[data_sel & seg_hit]
            if plus.size:
                post += np.bincount(plus, minlength=self._k)
            if minus.size:
                post -= np.bincount(minus, minlength=self._k)
            results.append(
                FusedStats(
                    num_words=count,
                    pre_correction_error_counts=pre,
                    post_correction_error_counts=post,
                    uncorrectable_words=int(
                        (err_counts[lo:hi] > self._correctable).sum()
                    ),
                    miscorrected_words=int((~seg_hit).sum()),
                    detected_words=int(
                        (seg_actions == SystematicLinearCode.ACTION_DETECT).sum()
                    ),
                    miscorrection_positions=tuple(
                        int(p) for p in np.unique(plus)
                    ),
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
