"""Differential test suite: ``packed`` backend vs the ``reference`` oracle.

The bit-packed GF(2) fast path is a correctness-critical rewrite of the
numerical core, so every public batched operation is checked for bit-exact
equivalence against the uint8 reference implementation — across code sizes,
batch shapes and degenerate edge cases, and end to end through miscorrection
profiling and BEER recovery.
"""

import inspect

import numpy as np
import pytest

from repro.gf2 import pack_rows, unpack_rows
from repro.ecc import SystematicLinearCode, get_family, random_hamming_code
from repro.ecc.codespace import codes_equivalent
from repro.ecc.decoder import SyndromeDecoder
from repro.ecc.hamming import min_parity_bits
from repro.einsim import (
    BACKENDS,
    DataRetentionInjector,
    EinsimSimulator,
    FixedErrorCountInjector,
    UniformRandomInjector,
    bulk_decode,
    bulk_encode,
    bulk_syndrome_values,
    resolve_backend,
)
from repro.core import (
    BeerSolver,
    MonteCarloCampaign,
    charged_patterns,
    expected_miscorrection_profile,
    monte_carlo_miscorrection_profile,
)
from repro.einsim.engine import bulk_decode_outcomes, decode_lanes, encode_lanes
from repro.exceptions import ValidationError


#: (k, seed) pairs spanning small codes up to the paper's (136, 128) words.
CODE_SIZES = [(4, 0), (8, 1), (16, 2), (32, 3), (57, 4), (64, 5), (128, 6)]

BATCH_SHAPES = [0, 1, 7, 64, 257]

#: Codes for the lane codec, the chip's one codec: the Hamming sizes above
#: (k = 64 fills two lanes), four whose parity bits straddle two lanes
#: (k % 64 + r > 64; at k = 121 the last bit is alone in a third lane), the
#: perfect codes n = 31 and 255 (every syndrome names a bit) and n = 257
#: (r = 9); SEC-DED codes, whose double errors are DUEs that flip nothing,
#: of one and two lanes, filling exactly one or two (n = 64, 128),
#: straddling (k = 58) and of three lanes (k = 128); single-parity codes
#: whose parity bit ends a lane (n = 64) or is alone in the next (n = 65);
#: and the one- and two-parity-bit codes whose syndromes skip the fold
#: tables, beside the smallest repetition code that takes them.
LANE_CODES = {
    **{
        f"hamming-{k}": lambda k=k, seed=seed: _code(k, seed)
        for k, seed in CODE_SIZES + [
            (58, 7), (60, 8), (122, 9), (121, 10), (26, 11), (247, 12), (248, 13),
        ]
    },
    **{
        f"secded-{k}": lambda k=k: get_family("secded-extended-hamming").construct(k)
        for k in (16, 57, 58, 64, 120, 128)
    },
    "parity-r1": lambda: get_family("parity-detect").construct(16),
    "parity-63": lambda: get_family("parity-detect").construct(63),
    "parity-64": lambda: get_family("parity-detect").construct(64),
    "rep3-r2": lambda: get_family("repetition").construct(1),
    "rep3-r4": lambda: get_family("repetition").construct(2),
}


def _code(num_data_bits, seed):
    return random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))


def _random_words(code, batch, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, code.codeword_length)).astype(np.uint8)


def _with_errors(code, errors, batch, seed):
    """Random codewords, and the same words with exactly ``errors`` bits flipped."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(batch, code.num_data_bits)).astype(np.uint8)
    codewords = bulk_encode(code, data, "reference")
    positions = np.argsort(rng.random(codewords.shape), axis=1)[:, :errors]
    received = codewords.copy()
    received[np.arange(batch)[:, np.newaxis], positions] ^= 1
    return codewords, received


class TestBackendResolution:
    def test_valid_backends(self):
        assert BACKENDS == ("reference", "packed")
        assert resolve_backend("reference") == "reference"
        assert resolve_backend("packed") == "packed"
        assert resolve_backend("auto") == "packed"
        assert resolve_backend("fused") == "packed"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("z3")

    def test_every_default_is_packed(self):
        from repro.cli import build_parser
        from repro.core.profile import monte_carlo_observation_counts
        from repro.einsim.engine import bulk_decode_outcomes
        from repro.scenarios import make_beer_cell, make_einsim_cell

        for target in (
            bulk_encode,
            bulk_syndrome_values,
            bulk_decode,
            bulk_decode_outcomes,
            EinsimSimulator,
            MonteCarloCampaign,
            monte_carlo_miscorrection_profile,
            monte_carlo_observation_counts,
            make_einsim_cell,
            make_beer_cell,
        ):
            parameter = inspect.signature(target).parameters["backend"]
            assert parameter.default == "packed", target.__qualname__
        parser = build_parser()
        for argv in (
            ["einsim"],
            ["scenario", "run", "--scenario", "uniform-random"],
        ):
            assert parser.parse_args(argv).backend == "packed", argv

    def test_the_chip_and_its_lane_codec_take_no_backend(self):
        # The chip has one codec: a tester cannot see how it decodes inside.
        from repro.dram import ManufacturerProfile, SimulatedDramChip

        for target in (
            encode_lanes,
            decode_lanes,
            SimulatedDramChip,
            ManufacturerProfile.make_chip,
        ):
            assert "backend" not in inspect.signature(target).parameters, target
        assert not hasattr(SimulatedDramChip, "backend")


class TestBulkEncodeDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_packed_matches_reference(self, num_data_bits, code_seed, batch):
        code = _code(num_data_bits, code_seed)
        rng = np.random.default_rng(code_seed + batch)
        datawords = rng.integers(0, 2, size=(batch, num_data_bits)).astype(np.uint8)
        reference = bulk_encode(code, datawords, "reference")
        packed = bulk_encode(code, datawords, "packed")
        assert np.array_equal(reference, packed)

    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES[:4])
    def test_both_match_per_word_encode(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        rng = np.random.default_rng(code_seed)
        datawords = rng.integers(0, 2, size=(16, num_data_bits)).astype(np.uint8)
        expected = np.vstack(
            [code.encode(row) for row in datawords]
        )
        for backend in BACKENDS:
            assert np.array_equal(bulk_encode(code, datawords, backend), expected)


class TestLaneCodecDifferential:
    """The lane codec the chip stores through, against the uint8 kernels."""

    @pytest.mark.parametrize("name", sorted(LANE_CODES))
    def test_encode_and_decode_lanes_match_reference(self, name):
        code = LANE_CODES[name]()
        n = code.codeword_length
        rng = np.random.default_rng(len(name))
        data = rng.integers(0, 2, size=(257, code.num_data_bits)).astype(np.uint8)
        codewords = bulk_encode(code, data, "reference")
        lanes = encode_lanes(code, data)
        assert lanes.dtype == np.uint64 and lanes.shape == (257, (n + 63) // 64)
        assert np.array_equal(unpack_rows(lanes, n), codewords)
        received = codewords ^ (rng.random(codewords.shape) < 0.03)
        lanes = pack_rows(received)
        decode_lanes(code, lanes)
        assert np.array_equal(
            unpack_rows(lanes, n), bulk_decode(code, received, "reference")
        )

    @pytest.mark.parametrize("name", sorted(LANE_CODES))
    @pytest.mark.parametrize("errors", range(4))
    def test_exact_error_counts_match_reference(self, name, errors):
        # One error is corrected; two or three miscorrect, are detected
        # (DUEs flip nothing) or go unseen, depending on the family.
        code = LANE_CODES[name]()
        _, received = _with_errors(code, errors, 300, len(name) + errors)
        lanes = pack_rows(received)
        decode_lanes(code, lanes)
        assert np.array_equal(
            unpack_rows(lanes, code.codeword_length),
            bulk_decode(code, received, "reference"),
        )

    @pytest.mark.parametrize("name", ["hamming-16", "secded-16"])
    def test_double_errors_reach_miscorrections_and_dues(self, name):
        # The cases above exercise both non-trivial actions: a SEC code
        # miscorrects some double errors, a SEC-DED code detects them all.
        code = LANE_CODES[name]()
        codewords, received = _with_errors(code, 2, 300, len(name) + 2)
        corrected, due = bulk_decode_outcomes(code, received, "reference")
        miscorrected = (corrected ^ codewords).sum(axis=1) == 3
        if name.startswith("secded"):
            assert due.all() and not miscorrected.any()
        else:
            assert miscorrected.any()

    @pytest.mark.parametrize("name", sorted(LANE_CODES))
    @pytest.mark.parametrize("batch", [0, 1])
    def test_empty_and_single_word_batches(self, name, batch):
        code = LANE_CODES[name]()
        codewords, received = _with_errors(code, 1, batch, batch)
        lanes = encode_lanes(code, codewords[:, : code.num_data_bits])
        assert lanes.shape == (batch, (code.codeword_length + 63) // 64)
        assert np.array_equal(unpack_rows(lanes, code.codeword_length), codewords)
        lanes = pack_rows(received)
        decode_lanes(code, lanes)
        assert np.array_equal(
            unpack_rows(lanes, code.codeword_length),
            bulk_decode(code, received, "reference"),
        )


class TestCorrectionTable:
    """The per-code table the packed lane decode gathers from."""

    @pytest.mark.parametrize("name", sorted(LANE_CODES))
    def test_one_bit_per_position_and_zero_sentinel_rows(self, name):
        code = LANE_CODES[name]()
        n = code.codeword_length
        table = code.correction_table()
        assert table is code.correction_table()
        assert table.dtype == np.uint64 and table.shape == (n + 2, (n + 63) // 64)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
        # Row p flips codeword bit p alone; the last two rows flip nothing.
        assert np.array_equal(unpack_rows(table, n), np.eye(n + 2, n, dtype=np.uint8))
        # Both sentinels of the decode-action table index those zero rows.
        assert SystematicLinearCode.ACTION_NONE == -1
        assert SystematicLinearCode.ACTION_DETECT == -2
        for action in (SystematicLinearCode.ACTION_NONE, SystematicLinearCode.ACTION_DETECT):
            assert not table[action].any()


class TestBulkSyndromeDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_packed_matches_reference(self, num_data_bits, code_seed, batch):
        code = _code(num_data_bits, code_seed)
        words = _random_words(code, batch, code_seed * 13 + batch)
        reference = bulk_syndrome_values(code, words, "reference")
        packed = bulk_syndrome_values(code, words, "packed")
        assert np.array_equal(reference, packed)

    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES[:4])
    def test_both_match_per_word_syndrome(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        words = _random_words(code, 32, code_seed)
        expected = np.array([code.syndrome(w) for w in words], dtype=np.int64)
        for backend in BACKENDS:
            values = bulk_syndrome_values(code, words, backend)
            assert np.array_equal(values, expected)
            # The kernels' int64 syndromes map to positions as ints do.
            assert [code.syndrome_to_position(v) for v in values] == [
                code.syndrome_to_position(int(v)) for v in expected
            ]


class TestBulkDecodeDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES)
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_packed_matches_reference(self, num_data_bits, code_seed, batch):
        code = _code(num_data_bits, code_seed)
        words = _random_words(code, batch, code_seed * 17 + batch)
        reference = bulk_decode(code, words, "reference")
        packed = bulk_decode(code, words, "packed")
        assert np.array_equal(reference, packed)

    @pytest.mark.parametrize("num_data_bits,code_seed", CODE_SIZES[:5])
    def test_both_match_per_word_decoder(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        decoder = SyndromeDecoder(code)
        words = _random_words(code, 64, code_seed * 19)
        expected = np.vstack(
            [decoder.decode(w).corrected_codeword for w in words]
        )
        for backend in BACKENDS:
            assert np.array_equal(bulk_decode(code, words, backend), expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_syndrome_words_untouched(self, backend):
        code = _code(16, 0)
        datawords = np.eye(16, dtype=np.uint8)
        codewords = bulk_encode(code, datawords, backend)
        assert np.array_equal(bulk_decode(code, codewords, backend), codewords)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_errors_all_corrected(self, backend):
        code = _code(32, 2)
        codeword = code.encode(np.ones(32, dtype=np.uint8))
        received = np.tile(codeword, (code.codeword_length, 1))
        for position in range(code.codeword_length):
            received[position, position] ^= 1
        corrected = bulk_decode(code, received, backend)
        assert np.array_equal(corrected, np.tile(codeword, (code.codeword_length, 1)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degenerate_duplicate_column_code(self, backend):
        # A non-SEC code with duplicated H columns: bulk decode must agree
        # with the word-by-word decoder (lowest matching column wins).
        code = SystematicLinearCode([[1, 1, 0], [1, 1, 1]])
        decoder = SyndromeDecoder(code)
        words = _random_words(code, 32, 23)
        expected = np.vstack(
            [decoder.decode(w).corrected_codeword for w in words]
        )
        assert np.array_equal(bulk_decode(code, words, backend), expected)


class TestBulkKernelsRejectNonBinaryInput:
    """Any value but 0 or 1 is refused before any work, on both backends.

    The backends would read it differently: the reference multiplies mod 2,
    while the packed kernels pack any nonzero value as 1 (on the (12, 8)
    code a dataword ``[2, 0, ...]`` used to encode to two different
    codewords).
    """

    #: kernel name -> (kernel, attribute naming its row width)
    KERNELS = {
        "bulk_encode": (bulk_encode, "num_data_bits"),
        "bulk_syndrome_values": (bulk_syndrome_values, "codeword_length"),
        "bulk_decode": (bulk_decode, "codeword_length"),
        "bulk_decode_outcomes": (bulk_decode_outcomes, "codeword_length"),
    }

    @pytest.mark.parametrize(
        "value, dtype",
        [(2, np.uint8), (255, np.uint8), (-1, np.int64), (2, np.int64),
         (0.5, np.float64), (np.nan, np.float64)],
        ids=["two", "uint8-max", "minus-one", "int64-two", "half", "nan"],
    )
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_binary_value_is_refused(self, backend, kernel, value, dtype):
        function, width = self.KERNELS[kernel]
        code = _code(8, 1)
        batch = np.zeros((3, getattr(code, width)), dtype=dtype)
        batch[1, 0] = value
        with pytest.raises(ValidationError, match="only 0s and 1s"):
            function(code, batch, backend)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zeros_and_ones_of_any_dtype_are_accepted(self, backend, kernel, dtype):
        function, width = self.KERNELS[kernel]
        code = _code(8, 1)
        bits = np.random.default_rng(3).integers(0, 2, (5, getattr(code, width)))
        expected = function(code, bits.astype(np.uint8), "reference")
        actual = function(code, bits.astype(dtype), backend)
        if kernel == "bulk_decode_outcomes":
            assert np.array_equal(expected[1], actual[1])
            expected, actual = expected[0], actual[0]
        assert np.array_equal(expected, actual)


class TestSimulatorDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", [(8, 0), (16, 1), (32, 2)])
    @pytest.mark.parametrize(
        "injector",
        [
            UniformRandomInjector(0.01),
            DataRetentionInjector(0.05),
            FixedErrorCountInjector(2),
        ],
        ids=["uniform", "retention", "fixed-count"],
    )
    def test_full_simulation_results_identical(self, num_data_bits, code_seed, injector):
        code = _code(num_data_bits, code_seed)
        results = {}
        for backend in BACKENDS:
            simulator = EinsimSimulator(code, seed=99, backend=backend)
            results[backend] = simulator.simulate(
                np.ones(num_data_bits, dtype=np.uint8), 3000, injector, batch_size=1024
            )
        reference, packed = results["reference"], results["packed"]
        assert np.array_equal(
            reference.post_correction_error_counts, packed.post_correction_error_counts
        )
        assert np.array_equal(
            reference.pre_correction_error_counts, packed.pre_correction_error_counts
        )
        assert reference.uncorrectable_words == packed.uncorrectable_words
        assert reference.miscorrected_words == packed.miscorrected_words
        assert reference.miscorrection_positions == packed.miscorrection_positions


class TestProfileDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", [(8, 3), (16, 4), (32, 5)])
    def test_monte_carlo_profiles_identical(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        patterns = list(charged_patterns(num_data_bits, [1, 2]))[:40]
        profiles = {
            backend: monte_carlo_miscorrection_profile(
                code,
                patterns,
                bit_error_rate=0.3,
                words_per_pattern=400,
                rng=np.random.default_rng(code_seed),
                backend=backend,
            )
            for backend in BACKENDS
        }
        assert profiles["reference"] == profiles["packed"]

    @pytest.mark.parametrize("num_data_bits,code_seed", [(8, 6), (16, 7)])
    def test_campaign_profiles_identical_and_converge(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        patterns = list(charged_patterns(num_data_bits, [1, 2]))[:40]
        profiles = {
            backend: MonteCarloCampaign(
                code, chunk_size=512, backend=backend, base_seed=code_seed
            ).miscorrection_profile(patterns, 0.5, 3000)
            for backend in BACKENDS
        }
        assert profiles["reference"] == profiles["packed"]
        expected = expected_miscorrection_profile(code, patterns)
        assert profiles["packed"] == expected


class TestEndToEndBeerDifferential:
    @pytest.mark.parametrize("num_data_bits,code_seed", [(8, 8), (16, 9)])
    def test_beer_recovers_code_from_packed_profile(self, num_data_bits, code_seed):
        code = _code(num_data_bits, code_seed)
        patterns = list(charged_patterns(num_data_bits, [1, 2]))
        profile = MonteCarloCampaign(
            code, chunk_size=1024, backend="packed", base_seed=code_seed
        ).miscorrection_profile(patterns, 0.5, 4000)
        solver = BeerSolver(num_data_bits, min_parity_bits(num_data_bits))
        solution = solver.solve(profile)
        assert solution.num_solutions == 1
        assert codes_equivalent(solution.codes[0], code)
