"""Differential test suite: the fused round vs the staged reference oracle.

The fused pipeline (:mod:`repro.einsim.fused`), which the ``packed`` backend
runs for every Monte-Carlo simulation, reimplements an entire round —
inject, decode, classify — over packed representations, so every statistic
it produces is checked for bit-exact equality against the ``reference``
oracle across all code families, all injector types and both packed mask
representations, at the simulator, profile and campaign layers.  The
packed injector protocol is additionally checked mask-for-mask and
RNG-state-for-RNG-state against the unpacked draw it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import CellType
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
    bulk_syndrome_values,
    get_kernel,
    packed_error_batch,
)
from repro.einsim.engine import bulk_decode_outcomes
from repro.core import MonteCarloCampaign, charged_patterns
from repro.core.profile import monte_carlo_observation_counts

#: (family, construct args) spanning every decode policy: SEC correction,
#: SEC-DED correction+detection, detect-only single parity (r=1, the tiny-r
#: syndrome path), correcting 3-repetition, and detect-only 2-repetition.
FAMILY_CASES = [
    ("sec-hamming", (16,)),
    ("secded-extended-hamming", (16,)),
    ("parity-detect", (16,)),
    ("repetition", (8,)),
    ("repetition", (8, 8)),
]

FAMILY_IDS = ["sec", "secded", "parity", "rep3", "rep2-detect"]


def _construct(family, args):
    return get_family(family).construct(*args)


class _StuckHighModel:
    """Minimal fault model driving the FaultModelInjector fallback path."""

    def corrupt(self, bits, rng):
        corrupted = bits.copy()
        corrupted[:, 0] = 1
        corrupted[rng.random(bits.shape) < 0.02] ^= 1
        return corrupted


def _dense(batch):
    """The boolean ``(num_words, num_bits)`` mask a packed batch describes."""
    mask = np.zeros((batch.num_words, batch.num_bits), dtype=bool)
    mask[batch.coordinates()] = True
    return mask


def _injectors(code):
    """One injector per packed representation and per protocol branch."""
    n = code.codeword_length
    wide = list(range(0, n, 1))  # > SUBSET_WIDTH_LIMIT for every family size
    return [
        UniformRandomInjector(0.02),
        DataRetentionInjector(0.05),
        DataRetentionInjector(0.05, CellType.ANTI_CELL),
        FixedErrorCountInjector(2),
        FixedErrorCountInjector(0),
        FixedErrorCountInjector(
            3, candidate_positions=[0, 2, 5, 7, 9], per_bit_probability=0.5
        ),
        FixedErrorCountInjector(
            2, candidate_positions=wide, per_bit_probability=0.75
        ),
        PerBitBernoulliInjector(np.linspace(0.0, 0.1, n)),
        MixedCellRetentionInjector(0.05),
        BurstErrorInjector(0.3, 4, 0.7),
        RowStripeInjector(0.2, 2, 1, 0.5),
        FaultModelInjector(_StuckHighModel()),
        CompositeInjector(
            [UniformRandomInjector(0.01), FixedErrorCountInjector(1)]
        ),
    ]


def _assert_results_equal(expected, actual):
    assert expected.dataword == actual.dataword
    assert expected.num_words == actual.num_words
    assert np.array_equal(
        expected.post_correction_error_counts,
        actual.post_correction_error_counts,
    )
    assert np.array_equal(
        expected.pre_correction_error_counts,
        actual.pre_correction_error_counts,
    )
    assert expected.uncorrectable_words == actual.uncorrectable_words
    assert expected.miscorrected_words == actual.miscorrected_words
    assert expected.miscorrection_positions == actual.miscorrection_positions
    assert expected.detected_words == actual.detected_words


class TestSimulatorDifferential:
    """Every family x every injector, both backends, field-exact."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES, ids=FAMILY_IDS)
    def test_all_backends_bit_identical(self, family, args):
        code = _construct(family, args)
        dataword = np.arange(code.num_data_bits) % 2
        for index, injector in enumerate(_injectors(code)):
            results = {
                backend: EinsimSimulator(
                    code, seed=100 + index, backend=backend
                ).simulate(dataword, 531, injector, batch_size=128)
                for backend in ("reference", "packed")
            }
            _assert_results_equal(results["reference"], results["packed"])

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(list(range(len(FAMILY_CASES)))),
        ber=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_words=st.integers(min_value=1, max_value=300),
        batch_size=st.integers(min_value=1, max_value=97),
    )
    def test_fuzzed_uniform_rounds(self, case, ber, seed, num_words, batch_size):
        family, args = FAMILY_CASES[case]
        code = _construct(family, args)
        dataword = np.ones(code.num_data_bits, dtype=np.uint8)
        injector = UniformRandomInjector(ber)
        reference = EinsimSimulator(code, seed=seed, backend="reference").simulate(
            dataword, num_words, injector, batch_size=batch_size
        )
        fused = EinsimSimulator(code, seed=seed, backend="packed").simulate(
            dataword, num_words, injector, batch_size=batch_size
        )
        _assert_results_equal(reference, fused)

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(list(range(len(FAMILY_CASES)))),
        num_errors=st.integers(min_value=0, max_value=4),
        probability=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_words=st.integers(min_value=1, max_value=300),
    )
    def test_fuzzed_fixed_count_rounds(
        self, case, num_errors, probability, seed, num_words
    ):
        family, args = FAMILY_CASES[case]
        code = _construct(family, args)
        candidates = list(range(0, code.codeword_length, 2))
        num_errors = min(num_errors, len(candidates))
        dataword = np.zeros(code.num_data_bits, dtype=np.uint8)
        injector = FixedErrorCountInjector(
            num_errors,
            candidate_positions=candidates,
            per_bit_probability=probability,
        )
        reference = EinsimSimulator(code, seed=seed, backend="reference").simulate(
            dataword, num_words, injector, batch_size=128
        )
        fused = EinsimSimulator(code, seed=seed, backend="packed").simulate(
            dataword, num_words, injector, batch_size=128
        )
        _assert_results_equal(reference, fused)


class TestInjectorPackedProtocol:
    """``error_mask_packed`` draws the same masks from the same RNG stream."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES, ids=FAMILY_IDS)
    def test_masks_and_rng_state_match_unpacked(self, family, args):
        code = _construct(family, args)
        dataword = np.arange(code.num_data_bits) % 2
        codeword = code.encode(dataword).to_numpy()
        for index, injector in enumerate(_injectors(code)):
            rng_unpacked = np.random.default_rng(10_000 + index)
            rng_packed = np.random.default_rng(10_000 + index)
            stored = np.tile(codeword, (97, 1))
            mask = np.asarray(injector.error_mask(stored, rng_unpacked), bool)
            batch = packed_error_batch(injector, codeword, 97, rng_packed)
            assert batch.num_words == 97
            assert batch.num_bits == code.codeword_length
            assert np.array_equal(_dense(batch), mask)
            # Identical post-draw states: the packed protocol consumed the
            # stream exactly as the unpacked draw did, so the *next* batch
            # also matches — chunked runs stay aligned forever.
            assert (
                rng_unpacked.bit_generator.state
                == rng_packed.bit_generator.state
            )

    def test_subset_representation_used_for_small_candidate_lists(self):
        code = _construct("sec-hamming", (16,))
        codeword = code.encode(np.zeros(16, dtype=np.uint8)).to_numpy()
        small = FixedErrorCountInjector(
            2, candidate_positions=[1, 3, 5, 8], per_bit_probability=0.5
        )
        wide = FixedErrorCountInjector(
            2,
            candidate_positions=list(range(code.codeword_length)),
            per_bit_probability=0.5,
        )
        rng = np.random.default_rng(0)
        assert packed_error_batch(small, codeword, 8, rng).kind == "subset"
        assert packed_error_batch(wide, codeword, 8, rng).kind == "coords"
        assert (
            packed_error_batch(UniformRandomInjector(0.1), codeword, 8, rng).kind
            == "coords"
        )
        assert (
            packed_error_batch(PerBitBernoulliInjector([0.1] * 21), codeword, 8, rng).kind
            == "coords"
        )

    def test_fallback_used_without_packed_protocol(self):
        injector = FaultModelInjector(_StuckHighModel())
        assert not hasattr(injector, "error_mask_packed")
        code = _construct("sec-hamming", (16,))
        codeword = code.encode(np.zeros(16, dtype=np.uint8)).to_numpy()
        batch = packed_error_batch(injector, codeword, 5, np.random.default_rng(1))
        assert batch.kind == "coords"


class TestSegmentedClassification:
    """classify_segments over a partition equals per-segment classify."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES, ids=FAMILY_IDS)
    def test_segment_partition_matches_whole(self, family, args):
        code = _construct(family, args)
        kernel = get_kernel(code)
        rng = np.random.default_rng(7)
        mask = rng.random((60, code.codeword_length)) < 0.08
        batch = PackedErrorBatch.from_mask(mask)
        whole = kernel.classify(batch)
        parts = kernel.classify_segments(batch, (13, 0, 27, 20))
        assert [p.num_words for p in parts] == [13, 0, 27, 20]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert np.array_equal(
            merged.pre_correction_error_counts, whole.pre_correction_error_counts
        )
        assert np.array_equal(
            merged.post_correction_error_counts,
            whole.post_correction_error_counts,
        )
        assert merged.uncorrectable_words == whole.uncorrectable_words
        assert merged.miscorrected_words == whole.miscorrected_words
        assert merged.detected_words == whole.detected_words
        assert merged.miscorrection_positions == whole.miscorrection_positions

    def test_bad_partition_rejected(self):
        code = _construct("sec-hamming", (16,))
        kernel = get_kernel(code)
        batch = PackedErrorBatch.from_mask(
            np.zeros((4, code.codeword_length), dtype=bool)
        )
        with pytest.raises(Exception):
            kernel.classify_segments(batch, (3, 3))


class TestProfileDifferential:
    """monte_carlo_observation_counts: packed vs reference ``simulate_segments``."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES, ids=FAMILY_IDS)
    @pytest.mark.parametrize(
        "cell_type", [CellType.TRUE_CELL, CellType.ANTI_CELL], ids=["true", "anti"]
    )
    def test_observation_counts_bit_identical(self, family, args, cell_type):
        code = _construct(family, args)
        patterns = list(charged_patterns(code.num_data_bits, [1, 2]))
        results = {}
        for backend in ("reference", "packed"):
            results[backend] = monte_carlo_observation_counts(
                code,
                patterns,
                0.1,
                400,
                cell_type=cell_type,
                rng=np.random.default_rng(21),
                backend=backend,
            )
        reference, packed = results["reference"], results["packed"]
        assert reference.patterns == packed.patterns
        for pattern in reference.patterns:
            assert np.array_equal(
                reference.counts_for(pattern), packed.counts_for(pattern)
            )
            assert reference.words_observed(pattern) == packed.words_observed(
                pattern
            )
            assert reference.due_words_observed(
                pattern
            ) == packed.due_words_observed(pattern)
        assert reference.to_profile() == packed.to_profile()


class TestCampaignDifferential:
    """Chunked campaigns: fused cross-chunk batching vs per-chunk reference."""

    @pytest.mark.parametrize("family,args", FAMILY_CASES, ids=FAMILY_IDS)
    def test_chunked_campaign_bit_identical(self, family, args):
        code = _construct(family, args)
        k = code.num_data_bits
        datawords = [np.zeros(k, np.uint8), np.ones(k, np.uint8), np.arange(k) % 2]
        injector = DataRetentionInjector(0.04)
        # 700 does not divide 1801: the final short chunk is exercised too.
        reference = MonteCarloCampaign(
            code, chunk_size=700, backend="reference", base_seed=5
        ).simulate_many(datawords, injector, 1801)
        fused = MonteCarloCampaign(
            code, chunk_size=700, backend="packed", base_seed=5
        ).simulate_many(datawords, injector, 1801)
        for expected, actual in zip(reference, fused):
            _assert_results_equal(expected, actual)

    def test_mixed_injector_flushes_between_representations(self):
        # Consecutive chunks with incompatible packed representations force
        # the fused runner's mid-stream flush; results must be unaffected.
        code = _construct("secded-extended-hamming", (16,))
        k = code.num_data_bits
        injector = CompositeInjector(
            [FixedErrorCountInjector(1), UniformRandomInjector(0.01)]
        )
        reference = MonteCarloCampaign(
            code, chunk_size=300, backend="reference", base_seed=9
        ).simulate_many([np.ones(k, np.uint8)], injector, 1000)
        fused = MonteCarloCampaign(
            code, chunk_size=300, backend="packed", base_seed=9
        ).simulate_many([np.ones(k, np.uint8)], injector, 1000)
        _assert_results_equal(reference[0], fused[0])

    @settings(max_examples=10, deadline=None)
    @given(
        chunk_size=st.integers(min_value=1, max_value=600),
        num_words=st.integers(min_value=1, max_value=900),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_fuzzed_detect_only_campaign(self, chunk_size, num_words, seed):
        code = _construct("parity-detect", (16,))
        dataword = np.ones(code.num_data_bits, np.uint8)
        injector = UniformRandomInjector(0.03)
        reference = MonteCarloCampaign(
            code, chunk_size=chunk_size, backend="reference", base_seed=seed
        ).simulate(dataword, injector, num_words)
        fused = MonteCarloCampaign(
            code, chunk_size=chunk_size, backend="packed", base_seed=seed
        ).simulate(dataword, injector, num_words)
        _assert_results_equal(reference, fused)


class TestStagedKernelRegressions:
    """Satellite fixes in the staged kernels, pinned down."""

    def test_decode_skips_copy_when_nothing_flips(self):
        # Detect-only family: no action ever flips a bit, so the decode may
        # return its input uncopied.
        code = _construct("parity-detect", (16,))
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2, size=(50, code.codeword_length)).astype(np.uint8)
        corrected, due = bulk_decode_outcomes(code, words, "packed")
        assert corrected is words
        reference_corrected, reference_due = bulk_decode_outcomes(
            code, words, "reference"
        )
        assert np.array_equal(corrected, reference_corrected)
        assert np.array_equal(due, reference_due)

    def test_decode_still_copies_when_correction_happens(self):
        code = _construct("sec-hamming", (16,))
        words = np.zeros((4, code.codeword_length), dtype=np.uint8)
        words[1, 3] = 1  # single-bit error: the decoder must flip it back
        corrected, _ = bulk_decode_outcomes(code, words, "packed")
        assert corrected is not words
        assert words[1, 3] == 1  # input untouched
        assert corrected[1, 3] == 0

    @pytest.mark.parametrize(
        "family,args",
        [
            ("parity-detect", (16,)),  # r=1, detect-only
            ("repetition", (2, 2)),  # r=2, detect-only
            ("repetition", (1,)),  # r=2, correcting
            ("repetition", (8, 8)),  # r=8 control: the fold-table route
        ],
        ids=["parity-r1", "rep2-r2", "rep3-r2", "rep2-r8-fold"],
    )
    def test_tiny_r_syndrome_path_matches_reference(self, family, args):
        code = _construct(family, args)
        assert (code.num_parity_bits <= 2) == (args != (8, 8))
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2, size=(83, code.codeword_length)).astype(np.uint8)
        reference = bulk_syndrome_values(code, words, "reference")
        packed = bulk_syndrome_values(code, words, "packed")
        assert np.array_equal(reference, packed)
