"""The coordinate representation of packed error batches.

Every injector but fixed-error-count draws over at most
``SUBSET_WIDTH_LIMIT`` candidates hands the fused kernel a coordinate list:
the word index of every error, in nondecreasing order, with its column.
The Bernoulli-style injectors, fixed-count draws over more candidates and
bursts list the errors they draw; per-bit, row-stripe and fault-model
injectors list the set bits of the boolean mask they draw; composites list
the union of their members' coordinates.  The kernel classifies a list in
O(errors), and a word without coordinates is clean by construction.  These
tests hold that path to the ``reference`` oracle and to the staged
statistics of the same mask, pin the invariants every coordinate-emitting
draw keeps, and pin a digest of results over a fixed grid to the one the
dense scatter, the fixed-width sparse representation and the dense lanes of
the per-bit, row-stripe, fault-model and composite draws gave before the
coordinate path replaced them.
"""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MonteCarloCampaign, charged_patterns
from repro.core.profile import monte_carlo_observation_counts
from repro.dram import CellType, StuckAtFaultModel, TransientFaultModel
from repro.ecc import get_family
from repro.einsim import (
    BurstErrorInjector,
    CompositeInjector,
    DataRetentionInjector,
    EinsimSimulator,
    FaultModelInjector,
    FixedErrorCountInjector,
    MixedCellRetentionInjector,
    PackedErrorBatch,
    PerBitBernoulliInjector,
    RowStripeInjector,
    UniformRandomInjector,
    get_kernel,
    packed_error_batch,
)
from repro.einsim.fused import SUBSET_WIDTH_LIMIT, concat_batches
from repro.einsim.simulator import simulate_segments
from repro.exceptions import DimensionError, ValidationError

BACKENDS = ("reference", "packed")

#: Every family, with one- and two-parity-bit codes, the three-bit codes
#: whose fixed-count draws over every bit stay subsets, and the paper's
#: (136, 128) word.
CODES = {
    "sec": ("sec-hamming", (16,)),
    "secded": ("secded-extended-hamming", (16,)),
    "parity-r1": ("parity-detect", (16,)),
    "rep3": ("repetition", (8,)),
    "rep2-detect": ("repetition", (8, 8)),
    "sec-r2": ("sec-hamming", (1,)),
    "rep3-r2": ("repetition", (1,)),
    "paper": ("sec-hamming", (128,)),
}

RATES = (0.0, 1e-4, 0.5, 1.0)


@lru_cache(maxsize=None)
def _code(name):
    family, args = CODES[name]
    if name == "paper":
        return get_family(family).random(*args, rng=np.random.default_rng(5))
    return get_family(family).construct(*args)


@st.composite
def coordinate_injectors(draw, n):
    """One injector whose packed draw on ``n``-bit codewords is a coordinate list.

    Fixed-count draws take every codeword bit as a candidate, which is more
    than ``SUBSET_WIDTH_LIMIT`` on every code here but the three-bit ones.
    Composites overlay members that can flip the same bit: the transient and
    stuck-at fault models, or a uniform draw and a fixed-count draw over a
    short candidate list, which hands over subset integers.
    """
    kind = draw(
        st.sampled_from(
            ["uniform", "retention-true", "retention-anti", "mixed", "fixed",
             "burst", "per-bit", "row-stripe", "fault-model", "overlay", "composite"]
        )
    )
    rate = draw(st.sampled_from(RATES))
    if kind == "uniform":
        return UniformRandomInjector(rate)
    if kind == "retention-true":
        return DataRetentionInjector(rate, CellType.TRUE_CELL)
    if kind == "retention-anti":
        return DataRetentionInjector(rate, CellType.ANTI_CELL)
    if kind == "mixed":
        return MixedCellRetentionInjector(rate)
    if kind == "fixed":
        probability = draw(st.sampled_from(RATES[:-1]))
        return FixedErrorCountInjector(draw(st.integers(0, 3)), None, probability)
    if kind == "burst":
        return BurstErrorInjector(
            rate, draw(st.integers(1, 6)), draw(st.sampled_from(RATES))
        )
    if kind == "per-bit":
        pattern = draw(st.lists(st.sampled_from(RATES), min_size=1, max_size=8))
        return PerBitBernoulliInjector(np.resize(pattern, n))
    if kind == "row-stripe":
        period = draw(st.integers(1, 4))
        return RowStripeInjector(
            rate, period, draw(st.integers(0, period - 1)), draw(st.sampled_from(RATES))
        )
    if kind in ("fault-model", "overlay"):
        transient = TransientFaultModel(rate)
        stuck = StuckAtFaultModel(
            draw(st.sampled_from(RATES)), draw(st.integers(0, 1)), seed=draw(st.integers(0, 99))
        )
        if kind == "overlay":
            return CompositeInjector(
                [FaultModelInjector(transient), FaultModelInjector(stuck)]
            )
        return FaultModelInjector(draw(st.sampled_from([transient, stuck])))
    small = list(range(0, n, 2))[: draw(st.integers(1, 6))]
    return CompositeInjector(
        [
            UniformRandomInjector(rate),
            FixedErrorCountInjector(
                draw(st.integers(0, len(small))), small, draw(st.sampled_from(RATES))
            ),
        ]
    )


def _dataword(seed, num_data_bits):
    return np.random.default_rng(seed).integers(0, 2, num_data_bits)


def _dense(batch):
    """The boolean ``(num_words, num_bits)`` mask a packed batch describes."""
    mask = np.zeros((batch.num_words, batch.num_bits), dtype=bool)
    mask[batch.coordinates()] = True
    return mask


def _assert_results_equal(expected, actual):
    assert expected.dataword == actual.dataword
    assert expected.num_words == actual.num_words
    assert np.array_equal(
        expected.post_correction_error_counts, actual.post_correction_error_counts
    )
    assert np.array_equal(
        expected.pre_correction_error_counts, actual.pre_correction_error_counts
    )
    assert expected.uncorrectable_words == actual.uncorrectable_words
    assert expected.miscorrected_words == actual.miscorrected_words
    assert expected.miscorrection_positions == actual.miscorrection_positions
    assert expected.detected_words == actual.detected_words


def _assert_stats_equal(expected, actual):
    assert expected.num_words == actual.num_words
    assert np.array_equal(
        expected.pre_correction_error_counts, actual.pre_correction_error_counts
    )
    assert np.array_equal(
        expected.post_correction_error_counts, actual.post_correction_error_counts
    )
    assert expected.uncorrectable_words == actual.uncorrectable_words
    assert expected.miscorrected_words == actual.miscorrected_words
    assert expected.detected_words == actual.detected_words
    assert expected.miscorrection_positions == actual.miscorrection_positions


class TestAgainstTheReference:
    @settings(max_examples=120, deadline=None)
    @given(
        code_name=st.sampled_from(sorted(CODES)),
        data=st.data(),
        batch_size=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_equals_reference_on_every_field(
        self, code_name, data, batch_size, seed
    ):
        # Word counts of 0 give zero-word segments, rates of 0 zero-error
        # blocks, and counts below batch_size buffered flushes that join
        # several segments in one kernel call.
        code = _code(code_name)
        segments = data.draw(
            st.lists(
                st.tuples(
                    coordinate_injectors(code.codeword_length),
                    st.integers(0, 40),
                    st.integers(0, 2**16),
                ),
                min_size=1,
                max_size=5,
            )
        )
        results = {}
        for backend in BACKENDS:
            runs = [
                (
                    _dataword(dataword_seed, code.num_data_bits),
                    injector,
                    words,
                    np.random.default_rng([seed, index]),
                )
                for index, (injector, words, dataword_seed) in enumerate(segments)
            ]
            results[backend] = simulate_segments(code, runs, backend, batch_size)
        for expected, actual in zip(results["reference"], results["packed"]):
            _assert_results_equal(expected, actual)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("code_name", sorted(CODES))
    def test_one_large_block_per_rate(self, code_name, rate):
        code = _code(code_name)
        dataword = _dataword(1, code.num_data_bits)
        injectors = [
            UniformRandomInjector(rate),
            DataRetentionInjector(rate, CellType.ANTI_CELL),
            BurstErrorInjector(rate, 3, 0.5),
        ]
        if rate < 1.0:
            injectors.append(FixedErrorCountInjector(2, None, rate))
        for index, injector in enumerate(injectors):
            expected, actual = (
                EinsimSimulator(code, seed=[index, 7], backend=backend).simulate(
                    dataword, 700, injector, batch_size=256
                )
                for backend in BACKENDS
            )
            _assert_results_equal(expected, actual)


class _FixedMask:
    """An injector whose draw is always the one given mask."""

    def __init__(self, mask):
        self._mask = mask

    def error_mask(self, stored_codewords, rng):
        return self._mask


class TestAgainstTheStagedStatistics:
    """The kernel's statistics of a mask's coordinates are the staged oracle's."""

    @settings(max_examples=60, deadline=None)
    @given(
        code_name=st.sampled_from(sorted(CODES)),
        density=st.sampled_from((0.0, 0.01, 0.1, 0.5, 1.0)),
        segment_words=st.lists(st.integers(0, 12), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_statistics_per_segment(self, code_name, density, segment_words, seed):
        code = _code(code_name)
        rng = np.random.default_rng(seed)
        mask = rng.random((sum(segment_words), code.codeword_length)) < density
        rows, columns = np.nonzero(mask)
        coords = PackedErrorBatch.from_indices(rows, columns, *mask.shape)
        bounds = np.cumsum([0] + segment_words)
        dataword = np.zeros(code.num_data_bits, dtype=np.uint8)
        # One block per segment, so each staged draw is its segment's mask.
        staged = simulate_segments(
            code,
            [
                (dataword, _FixedMask(mask[lo:hi]), hi - lo, rng)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ],
            "reference",
            batch_size=max(segment_words + [1]),
        )
        for expected, actual in zip(
            staged, get_kernel(code).classify_segments(coords, segment_words)
        ):
            _assert_stats_equal(expected, actual)

    def test_concatenated_coordinates_keep_their_words(self):
        first = PackedErrorBatch.from_indices([0, 0, 2], [1, 4, 0], 3, 7)
        empty = PackedErrorBatch.from_indices([], [], 2, 7)
        last = PackedErrorBatch.from_indices([1], [6], 2, 7)
        joined = concat_batches([first, empty, last])
        assert joined.kind == "coords"
        assert joined.num_words == 7
        assert joined.rows.tolist() == [0, 0, 2, 6]
        assert joined.columns.tolist() == [1, 4, 0, 6]
        assert np.array_equal(
            _dense(joined), np.vstack([_dense(first), _dense(empty), _dense(last)])
        )


class TestCoordinateInvariants:
    @settings(max_examples=150, deadline=None)
    @given(
        code_name=st.sampled_from(sorted(CODES)),
        data=st.data(),
        num_words=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_coordinate_draw(self, code_name, data, num_words, seed):
        code = _code(code_name)
        n = code.codeword_length
        injector = data.draw(coordinate_injectors(n))
        assume(
            not isinstance(injector, FixedErrorCountInjector)
            or injector.num_errors == 0
            or n > SUBSET_WIDTH_LIMIT
        )
        codeword = code.encode(_dataword(seed, code.num_data_bits)).to_numpy()
        batch = packed_error_batch(
            injector, codeword, num_words, np.random.default_rng(seed)
        )
        assert batch.kind == "coords"
        assert (batch.num_words, batch.num_bits) == (num_words, n)
        rows, columns = batch.rows, batch.columns
        assert rows.shape == columns.shape and rows.ndim == 1
        assert (np.diff(rows) >= 0).all()
        if rows.size:
            assert 0 <= rows.min() and rows.max() < num_words
            assert 0 <= columns.min() and columns.max() < n
        keys = rows * n + columns
        assert np.unique(keys).size == keys.size
        assert batch.num_errors() == rows.size
        # The same errors the unpacked draw places, from the same stream.
        mask = injector.error_mask(
            np.tile(codeword, (num_words, 1)), np.random.default_rng(seed)
        )
        assert np.array_equal(_dense(batch), mask)

    @pytest.mark.parametrize(
        "rows, columns, error",
        [
            ([1, 0], [0, 0], ValidationError),
            ([0, 3], [0, 0], ValidationError),
            ([-1, 0], [0, 0], ValidationError),
            ([0, 1], [0, 7], ValidationError),
            ([0, 1], [-1, 0], ValidationError),
            ([0, 1], [0], DimensionError),
            ([[0, 1]], [[0, 1]], DimensionError),
        ],
        ids=["unsorted", "word-past-end", "negative-word", "column-past-end",
             "negative-column", "length-mismatch", "two-dimensional"],
    )
    def test_from_indices_rejects_bad_coordinates(self, rows, columns, error):
        with pytest.raises(error):
            PackedErrorBatch.from_indices(rows, columns, 3, 7)


# ---------------------------------------------------------------------------
# Results over a fixed grid, pinned
# ---------------------------------------------------------------------------

#: sha256 of :func:`_grid_results` as the dense scatter, the fixed-width
#: sparse representation and the dense lanes computed it, on both backends.
GRID_DIGEST = "472c6daed3fe0ec3d304407cd99a7cf65c962680c90fd335e8ec8cbb20d1bf7b"


class _StuckHighModel:
    """A fault model that only the tile-and-pack fallback can draw."""

    def corrupt(self, bits, rng):
        corrupted = bits.copy()
        corrupted[:, 0] = 1
        corrupted[rng.random(bits.shape) < 0.02] ^= 1
        return corrupted


def _grid_codes():
    return [
        get_family("sec-hamming").construct(16),
        get_family("secded-extended-hamming").construct(16),
        get_family("parity-detect").construct(16),
        get_family("repetition").construct(8),
        get_family("repetition").construct(8, 8),
        get_family("sec-hamming").construct(1),
        get_family("sec-hamming").random(128, rng=np.random.default_rng(5)),
    ]


def _grid_injectors(n):
    small = list(range(0, n, 2))[:5]
    return [
        UniformRandomInjector(0.0),
        UniformRandomInjector(1e-4),
        UniformRandomInjector(0.02),
        UniformRandomInjector(0.5),
        UniformRandomInjector(1.0),
        DataRetentionInjector(0.05),
        DataRetentionInjector(0.05, CellType.ANTI_CELL),
        MixedCellRetentionInjector(0.05),
        FixedErrorCountInjector(0),
        FixedErrorCountInjector(2),
        FixedErrorCountInjector(min(3, n), list(range(n)), 0.75),
        FixedErrorCountInjector(min(2, len(small)), small, 0.5),
        BurstErrorInjector(0.3, 4, 0.7),
        PerBitBernoulliInjector(np.linspace(0.0, 0.1, n)),
        RowStripeInjector(0.2, 2, 1, 0.5),
        FaultModelInjector(_StuckHighModel()),
        CompositeInjector([UniformRandomInjector(0.01), FixedErrorCountInjector(1)]),
    ]


def _row(result):
    return [
        int(result.num_words),
        [int(c) for c in result.post_correction_error_counts],
        [int(c) for c in result.pre_correction_error_counts],
        int(result.uncorrectable_words),
        int(result.miscorrected_words),
        [int(p) for p in result.miscorrection_positions],
        int(result.detected_words),
    ]


def _grid_results(backend):
    """Simulator, runner, campaign and profile results over a fixed grid."""
    rows = []
    for code_index, code in enumerate(_grid_codes()):
        k = code.num_data_bits
        dataword = np.arange(k) % 2
        members = _grid_injectors(code.codeword_length)
        for index, injector in enumerate(members):
            for batch_size in (7, 256, 65536):
                simulator = EinsimSimulator(
                    code, seed=[code_index, index, batch_size], backend=backend
                )
                rows.append(_row(simulator.simulate(dataword, 300, injector, batch_size)))
        shared = np.random.default_rng([code_index, 99])
        segments = [
            ((np.arange(k) + s) % 3 == 0, members[s % len(members)], words, shared)
            for s, words in enumerate((5, 0, 40, 17, 0, 3, 64, 1, 29, 12, 0, 8))
        ]
        for batch_size in (6, 50):
            rows.extend(
                _row(result)
                for result in simulate_segments(code, segments, backend, batch_size)
            )
        campaign = MonteCarloCampaign(
            code, chunk_size=128, processes=1, backend=backend, base_seed=code_index
        )
        for injector in (members[2], members[5], members[10], members[12]):
            rows.extend(
                _row(result)
                for result in campaign.simulate_many(
                    [np.ones(k, dtype=np.uint8), np.zeros(k, dtype=np.uint8)],
                    injector,
                    500,
                )
            )
    code = _grid_codes()[0]
    patterns = list(charged_patterns(16, (1, 2)))[:40]
    for cell_type in (CellType.TRUE_CELL, CellType.ANTI_CELL):
        counts = monte_carlo_observation_counts(
            code, patterns, 0.05, 200, cell_type,
            rng=np.random.default_rng(7), backend=backend,
        )
        for pattern in patterns:
            rows.append([int(c) for c in counts.counts_for(pattern)])
            rows.append(int(counts.words_observed(pattern)))
    return rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_grid_results_match_the_pinned_digest(backend):
    text = json.dumps(_grid_results(backend), separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GRID_DIGEST
