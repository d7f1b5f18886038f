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

from repro.gf2 import GF2Matrix, GF2Vector, pack_rows, unpack_rows
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
from repro.dram import ChipGeometry, VENDOR_A, VENDOR_B, VENDOR_C
from repro.dram.retention import DataRetentionModel, RetentionCalibration
from repro.einsim.engine import decode_lanes, encode_lanes


#: (k, seed) pairs spanning small codes up to the paper's (136, 128) words.
CODE_SIZES = [(4, 0), (8, 1), (16, 2), (32, 3), (57, 4), (64, 5), (128, 6)]

BATCH_SHAPES = [0, 1, 7, 64, 257]

#: Codes for the lane codec: the Hamming sizes above, three whose parity
#: bits straddle two lanes (k % 64 + r > 64), and the one- and
#: two-parity-bit codes whose syndromes skip the fold tables.
LANE_CODES = {
    **{
        f"hamming-{k}": lambda k=k, seed=seed: _code(k, seed)
        for k, seed in CODE_SIZES + [(58, 7), (60, 8), (122, 9)]
    },
    "parity-r1": lambda: get_family("parity-detect").construct(16),
    "rep3-r2": lambda: get_family("repetition").construct(1),
}


def _code(num_data_bits, seed):
    return random_hamming_code(num_data_bits, rng=np.random.default_rng(seed))


def _random_words(code, batch, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, code.codeword_length)).astype(np.uint8)


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
        from repro.dram import ManufacturerProfile, SimulatedDramChip
        from repro.einsim.engine import bulk_decode_outcomes
        from repro.scenarios import make_beer_cell, make_einsim_cell

        for target in (
            bulk_encode,
            bulk_syndrome_values,
            bulk_decode,
            bulk_decode_outcomes,
            encode_lanes,
            decode_lanes,
            EinsimSimulator,
            MonteCarloCampaign,
            monte_carlo_miscorrection_profile,
            monte_carlo_observation_counts,
            SimulatedDramChip,
            ManufacturerProfile.make_chip,
            make_einsim_cell,
            make_beer_cell,
        ):
            parameter = inspect.signature(target).parameters["backend"]
            assert parameter.default == "packed", target.__qualname__
        parser = build_parser()
        for argv in (
            ["einsim"],
            ["simulate-profile", "--output", "profile.json"],
            ["scenario", "run", "--scenario", "uniform-random"],
        ):
            assert parser.parse_args(argv).backend == "packed", argv


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
            [code.encode(GF2Vector(row)).to_numpy() for row in datawords]
        )
        for backend in BACKENDS:
            assert np.array_equal(bulk_encode(code, datawords, backend), expected)


class TestLaneCodecDifferential:
    """The lane codec the chip stores through, against the uint8 kernels."""

    @pytest.mark.parametrize("name", sorted(LANE_CODES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_encode_and_decode_lanes_match_reference(self, name, backend):
        code = LANE_CODES[name]()
        n = code.codeword_length
        rng = np.random.default_rng(len(name))
        data = rng.integers(0, 2, size=(257, code.num_data_bits)).astype(np.uint8)
        codewords = bulk_encode(code, data, "reference")
        lanes = encode_lanes(code, data, backend)
        assert lanes.dtype == np.uint64 and lanes.shape == (257, (n + 63) // 64)
        assert np.array_equal(unpack_rows(lanes, n), codewords)
        received = codewords ^ (rng.random(codewords.shape) < 0.03)
        lanes = pack_rows(received)
        decode_lanes(code, lanes, backend)
        assert np.array_equal(
            unpack_rows(lanes, n), bulk_decode(code, received, "reference")
        )


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
        expected = np.array(
            [code.syndrome(GF2Vector(w)).to_int() for w in words], dtype=np.int64
        )
        for backend in BACKENDS:
            assert np.array_equal(bulk_syndrome_values(code, words, backend), expected)


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
            [decoder.decode(GF2Vector(w)).corrected_codeword.to_numpy() for w in words]
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
        codeword = code.encode(GF2Vector.ones(32)).to_numpy()
        received = np.tile(codeword, (code.codeword_length, 1))
        for position in range(code.codeword_length):
            received[position, position] ^= 1
        corrected = bulk_decode(code, received, backend)
        assert np.array_equal(corrected, np.tile(codeword, (code.codeword_length, 1)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degenerate_duplicate_column_code(self, backend):
        # A non-SEC code with duplicated H columns: bulk decode must agree
        # with the word-by-word decoder (lowest matching column wins).
        code = SystematicLinearCode(GF2Matrix([[1, 1, 0], [1, 1, 1]]))
        decoder = SyndromeDecoder(code)
        words = _random_words(code, 32, 23)
        expected = np.vstack(
            [decoder.decode(GF2Vector(w)).corrected_codeword.to_numpy() for w in words]
        )
        assert np.array_equal(bulk_decode(code, words, backend), expected)


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
                GF2Vector.ones(num_data_bits), 3000, injector, batch_size=1024
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

    @pytest.mark.parametrize("vendor", [VENDOR_A, VENDOR_B, VENDOR_C])
    def test_chip_campaign_identical_across_backends(self, vendor):
        fast_retention = DataRetentionModel(RetentionCalibration(1.0, 0.02, 60.0, 0.5))
        readings = {}
        for backend in BACKENDS:
            chip = vendor.make_chip(
                num_data_bits=8,
                geometry=ChipGeometry(num_rows=8, words_per_row=4),
                seed=7,
                retention_model=fast_retention,
                backend=backend,
            )
            assert chip.backend == backend
            chip.fill(GF2Vector.ones(8))
            chip.pause_refresh(120.0, 80.0)
            readings[backend] = chip.read_all_datawords()
        assert np.array_equal(readings["reference"], readings["packed"])
