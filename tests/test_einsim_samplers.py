"""The O(errors) samplers behind the injectors, and the cell configs that version them.

Every injector draws its errors through one of two samplers:
:func:`~repro.einsim.injectors.bernoulli_positions` (geometric gaps between
successes) and :func:`~repro.einsim.injectors.floyd_subsets` (Floyd's
algorithm for an ``e``-of-``c`` subset).  These tests check their exact
distributions on supports small enough to enumerate, compare them with the
per-bit-uniform and ``argpartition`` samplers they replaced (kept here as
distributional oracles, the first also as the retired retention loop of
``monte_carlo_observation_counts``), pin their edge cases, and check that
einsim cells carry :data:`~repro.einsim.injectors.SAMPLER_VERSION`.

Every seed and every critical value below was fixed before the tests first
ran.  The critical values are the 99.9% quantiles of the chi-square
distribution with the stated degrees of freedom, so each test fails a
correct sampler with probability 1e-3 for a fresh seed and never for these.
"""

import itertools
import math

import numpy as np
import pytest

from repro.analysis import campaign_report_data, load_simulation_results
from repro.core import charged_patterns
from repro.core.profile import monte_carlo_observation_counts
from repro.dram import CellType
from repro.ecc import get_family
from repro.einsim import (
    DataRetentionInjector,
    EinsimSimulator,
    FixedErrorCountInjector,
    PerBitBernoulliInjector,
    UniformRandomInjector,
)
from repro.einsim.engine import bulk_decode_outcomes, bulk_encode
from repro.einsim.injectors import (
    SAMPLER_VERSION,
    bernoulli_positions,
    floyd_subsets,
)
from repro.exceptions import ChipConfigurationError, ScenarioError
from repro.scenarios import (
    ExperimentCell,
    SweepSpec,
    execute_cell,
    make_beer_cell,
    make_einsim_cell,
)
from repro.scenarios import runner as sweep_runner
from repro.store import CampaignStore

#: 99.9% quantiles of the chi-square distribution, by degrees of freedom.
CHI2_999 = {3: 16.266, 9: 27.877, 15: 37.697, 19: 43.820}

#: For ``m`` one-degree-of-freedom tests at a 0.1% family-wise level
#: (Bonferroni): the ``1 - 0.001 / m`` quantile of chi-square(1), by ``m``.
CHI2_1_FAMILY_999 = {8: 14.716, 28: 17.087, 64: 18.660, 224: 21.054}

BACKENDS = ("reference", "packed")

#: A 10-bit word whose true-cells storing 1 (columns 1, 4, 5 and 8) are the
#: only cells a true-cell retention injector may flip.
FOUR_CHARGED = np.array([0, 1, 0, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
FOUR_COLUMNS = np.flatnonzero(FOUR_CHARGED)


# ---------------------------------------------------------------------------
# The retired samplers, kept as distributional oracles
# ---------------------------------------------------------------------------

def retired_bernoulli_mask(eligible, p, rng):
    """The per-bit-uniform draw of the Bernoulli injectors before sampler 2."""
    return eligible & (rng.random(eligible.shape) < p)


def retired_subsets(num_words, num_candidates, num_errors, rng):
    """The ``argpartition`` draw of FixedErrorCountInjector before sampler 2."""
    keys = rng.random((num_words, num_candidates))
    return np.argpartition(keys, num_errors - 1, axis=1)[:, :num_errors]


def retired_observation_counts(code, patterns, p, num_words, rng):
    """The staged loop ``monte_carlo_observation_counts`` ran before the runner.

    One per-bit-uniform retention draw per pattern (true-cells), decoded by
    the reference kernels.  Returns ``(per-bit post-correction error
    counts, DUE words)`` per pattern.
    """
    k = code.num_data_bits
    tallies = []
    for pattern in patterns:
        dataword = pattern.dataword(CellType.TRUE_CELL).to_numpy().reshape(1, -1)
        stored = np.tile(bulk_encode(code, dataword, "reference")[0], (num_words, 1))
        failures = retired_bernoulli_mask(stored == 1, p, rng)
        received = np.where(failures, stored ^ 1, stored).astype(np.uint8)
        corrected, due = bulk_decode_outcomes(code, received, "reference")
        data_errors = corrected[:, :k] != stored[:, :k]
        tallies.append((data_errors.sum(axis=0), int(due.sum())))
    return tallies


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def chi_square(observed, expected):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


def two_sample_chi_square(first, second):
    """Homogeneity statistic of two count vectors, and its degrees of freedom."""
    table = np.array([first, second], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = (
        table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
        / table.sum()
    )
    return chi_square(table, expected), table.shape[1] - 1


def two_by_two_chi_square(hits_a, words_a, hits_b, words_b):
    """Pearson statistic of hits against misses in two samples (one dof).

    0 when hits (or misses) are absent from both samples: nothing to test.
    """
    table = np.array(
        [[hits_a, words_a - hits_a], [hits_b, words_b - hits_b]], dtype=float
    )
    if (table.sum(axis=0) == 0).any():
        return 0.0
    expected = (
        table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
        / table.sum()
    )
    return chi_square(table, expected)


def bits_at(mask_or_batch, columns):
    """Boolean ``(words, len(columns))`` view of a mask or a packed batch."""
    if isinstance(mask_or_batch, np.ndarray):
        return mask_or_batch[:, columns]
    mask = np.zeros((mask_or_batch.num_words, mask_or_batch.num_bits), dtype=bool)
    mask[mask_or_batch.coordinates()] = True
    return mask[:, columns]


def draw(injector, codeword, num_words, rng, path):
    """One batch from the staged (``reference``) or packed path."""
    if path == "reference":
        return injector.error_mask(np.tile(codeword, (num_words, 1)), rng)
    return injector.error_mask_packed(codeword, num_words, rng)


def pattern_counts(bits):
    """Histogram of the per-word patterns of a boolean ``(words, c)`` array."""
    width = bits.shape[1]
    values = bits.astype(np.int64) @ (np.int64(1) << np.arange(width))
    return np.bincount(values, minlength=1 << width)


def subset_counts(bitmasks, num_candidates, num_errors):
    """Counts of each ``num_errors``-subset, in ``itertools.combinations`` order."""
    index = np.full(1 << num_candidates, -1)
    subsets = list(itertools.combinations(range(num_candidates), num_errors))
    for position, subset in enumerate(subsets):
        index[sum(1 << member for member in subset)] = position
    positions = index[bitmasks]
    assert (positions >= 0).all(), "a draw is not an e-subset"
    return np.bincount(positions, minlength=len(subsets))


class _UnitGaps:
    """A generator stand-in whose geometric draws are all 1 (every trial hits)."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)


# ---------------------------------------------------------------------------
# Exact supports
# ---------------------------------------------------------------------------

class TestExactSupports:
    @pytest.mark.parametrize("path", BACKENDS)
    def test_bernoulli_on_four_cells_matches_every_pattern(self, path):
        p, num_words = 0.3, 40_000
        batch = draw(
            DataRetentionInjector(p), FOUR_CHARGED, num_words,
            np.random.default_rng(1801), path,
        )
        other = np.setdiff1d(np.arange(FOUR_CHARGED.size), FOUR_COLUMNS)
        assert not bits_at(batch, other).any()
        counts = pattern_counts(bits_at(batch, FOUR_COLUMNS))
        weights = np.array([bin(value).count("1") for value in range(16)])
        expected = num_words * p**weights * (1 - p) ** (4 - weights)
        assert chi_square(counts, expected) < CHI2_999[15]

    @pytest.mark.parametrize("path", BACKENDS)
    @pytest.mark.parametrize(
        "num_candidates,num_errors,seed", [(5, 2, 1802), (6, 3, 1803)]
    )
    def test_floyd_hits_every_subset_uniformly(
        self, path, num_candidates, num_errors, seed
    ):
        num_words = 40_000
        candidates = [1, 2, 4, 7, 8, 11][:num_candidates]
        injector = FixedErrorCountInjector(num_errors, candidates)
        codeword = np.zeros(12, dtype=np.uint8)
        batch = draw(injector, codeword, num_words, np.random.default_rng(seed), path)
        bits = bits_at(batch, candidates)
        bitmasks = bits.astype(np.int64) @ (np.int64(1) << np.arange(num_candidates))
        counts = subset_counts(bitmasks, num_candidates, num_errors)
        expected = np.full(counts.size, num_words / counts.size)
        assert chi_square(counts, expected) < CHI2_999[counts.size - 1]

    def test_per_word_error_counts_at_a_sweep_rate_are_binomial(self):
        # The regime the sweeps run in: a low rate over a 136-bit word.
        p, n, num_words = 5e-3, 136, 20_000
        batch = UniformRandomInjector(p).error_mask_packed(
            np.zeros(n, dtype=np.uint8), num_words, np.random.default_rng(1804)
        )
        per_word = bits_at(batch, np.arange(n)).sum(axis=1)
        counts = np.bincount(np.minimum(per_word, 3), minlength=4)
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(3)]
        expected = num_words * np.array(pmf + [1 - sum(pmf)])
        assert chi_square(counts, expected) < CHI2_999[3]

    def test_floyd_rows_hold_distinct_in_range_indices(self):
        chosen = floyd_subsets(5_000, 9, 4, np.random.default_rng(1805))
        assert chosen.shape == (5_000, 4)
        assert chosen.min() >= 0 and chosen.max() < 9
        assert (np.diff(np.sort(chosen, axis=1), axis=1) > 0).all()

    def test_bernoulli_positions_are_sorted_distinct_and_in_range(self):
        positions = bernoulli_positions(100_000, 0.02, np.random.default_rng(1806))
        assert positions.dtype == np.int64
        assert (np.diff(positions) > 0).all()
        assert positions[0] >= 0 and positions[-1] < 100_000

    def test_walk_continues_across_blocks(self):
        # Gaps of 1 hit every trial, far past the first block of gaps.
        positions = bernoulli_positions(10_000, 0.01, _UnitGaps())
        assert np.array_equal(positions, np.arange(10_000))


# ---------------------------------------------------------------------------
# Two-sample checks against the retired samplers
# ---------------------------------------------------------------------------

class TestAgainstRetiredSamplers:
    def test_bernoulli_matches_per_bit_uniforms(self):
        p, num_words = 0.3, 40_000
        stored = np.tile(FOUR_CHARGED, (num_words, 1))
        new = DataRetentionInjector(p).error_mask(stored, np.random.default_rng(1811))
        old = retired_bernoulli_mask(stored == 1, p, np.random.default_rng(1812))
        statistic, dof = two_sample_chi_square(
            pattern_counts(new[:, FOUR_COLUMNS]), pattern_counts(old[:, FOUR_COLUMNS])
        )
        assert dof == 15
        assert statistic < CHI2_999[15]

    def test_floyd_matches_argpartition(self):
        num_words = 40_000
        new = floyd_subsets(num_words, 6, 3, np.random.default_rng(1813))
        old = retired_subsets(num_words, 6, 3, np.random.default_rng(1814))
        statistic, dof = two_sample_chi_square(
            subset_counts((1 << new).sum(axis=1), 6, 3),
            subset_counts((1 << old).sum(axis=1), 6, 3),
        )
        assert dof == 19
        assert statistic < CHI2_999[19]


class TestProfileAgainstRetiredDraw:
    """``monte_carlo_observation_counts`` against the per-bit-uniform loop.

    Each (pattern, bit) count, and each pattern's DUE count, is a binomial
    over independent words, so each gets its own two-sample 2x2 test at a
    Bonferroni share of the 0.1% family-wise level.  (Errors at different
    bits of one word are correlated, so one homogeneity test over a
    pattern's bits would not be chi-square distributed.)
    """

    @pytest.mark.parametrize(
        "family,weight,seeds",
        [
            ("sec-hamming", 1, (1841, 1842)),
            ("secded-extended-hamming", 1, (1843, 1844)),
            ("sec-hamming", 2, (1845, 1846)),
            ("secded-extended-hamming", 2, (1847, 1848)),
        ],
        ids=["sec-1", "secded-1", "sec-2", "secded-2"],
    )
    def test_counts_match_the_per_bit_uniform_loop(self, family, weight, seeds):
        code = get_family(family).construct(8)
        patterns = list(charged_patterns(8, [weight]))
        p, num_words = 0.2, 5_000
        counts = monte_carlo_observation_counts(
            code, patterns, p, num_words, rng=np.random.default_rng(seeds[0])
        )
        retired = retired_observation_counts(
            code, patterns, p, num_words, np.random.default_rng(seeds[1])
        )
        bit_statistics, due_statistics = [], []
        for pattern, (per_bit, due_words) in zip(patterns, retired):
            new = counts.counts_for(pattern)
            assert new.sum() > 100 and per_bit.sum() > 100
            bit_statistics += [
                two_by_two_chi_square(new[bit], num_words, per_bit[bit], num_words)
                for bit in range(8)
            ]
            due_statistics.append(
                two_by_two_chi_square(
                    counts.due_words_observed(pattern), num_words,
                    due_words, num_words,
                )
            )
        assert len(bit_statistics) == 8 * len(patterns)
        assert max(bit_statistics) < CHI2_1_FAMILY_999[len(bit_statistics)]
        if weight == 2:
            # Miscorrections reach DISCHARGED bits, not just CHARGED ones.
            assert counts.to_profile().total_miscorrections > 0
        if family == "secded-extended-hamming":
            assert counts.total_due_words > 1_000
            assert max(due_statistics) < CHI2_1_FAMILY_999[len(patterns)]


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

class TestEdgeCases:
    def test_zero_rate_draws_nothing(self):
        rng = np.random.default_rng(1821)
        state = rng.bit_generator.state
        assert bernoulli_positions(1_000, 0.0, rng).size == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("path", BACKENDS)
    def test_zero_rate_injector_leaves_the_stream_alone(self, path):
        rng = np.random.default_rng(1822)
        state = rng.bit_generator.state
        batch = draw(UniformRandomInjector(0.0), FOUR_CHARGED, 50, rng, path)
        assert not bits_at(batch, np.arange(FOUR_CHARGED.size)).any()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("path", BACKENDS)
    def test_unit_rate_flips_every_eligible_cell(self, path):
        batch = draw(
            DataRetentionInjector(1.0), FOUR_CHARGED, 50,
            np.random.default_rng(1823), path,
        )
        bits = bits_at(batch, np.arange(FOUR_CHARGED.size))
        assert np.array_equal(bits, np.tile(FOUR_CHARGED == 1, (50, 1)))

    @pytest.mark.parametrize("path", BACKENDS)
    def test_no_eligible_cells_draws_nothing(self, path):
        rng = np.random.default_rng(1824)
        state = rng.bit_generator.state
        batch = draw(
            DataRetentionInjector(0.5), np.zeros(10, dtype=np.uint8), 50, rng, path
        )
        assert not bits_at(batch, np.arange(10)).any()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retention_on_the_zeros_dataword_is_error_free(self, backend):
        cell = make_einsim_cell(
            "data-retention-true", {"bit_error_rate": 0.5}, {"data_bits": 16},
            num_words=1_000, backend=backend, dataword="zeros", chunk_size=256,
        )
        result = execute_cell(cell)
        assert sum(result["pre_correction_error_counts"]) == 0
        assert result["uncorrectable_words"] == 0

    def test_vanishing_rate_terminates_with_no_errors(self):
        # rng.geometric returns INT64_MAX here: the clipped walk must end.
        size = 131_072 * 136
        assert bernoulli_positions(size, 1e-300, np.random.default_rng(1825)).size == 0
        batch = UniformRandomInjector(1e-300).error_mask_packed(
            np.zeros(136, dtype=np.uint8), 131_072, np.random.default_rng(1826)
        )
        assert batch.num_errors() == 0

    def test_zero_of_c_and_c_of_c_draw_nothing(self):
        rng = np.random.default_rng(1827)
        state = rng.bit_generator.state
        assert floyd_subsets(40, 6, 0, rng).shape == (40, 0)
        every = floyd_subsets(40, 6, 6, rng)
        assert np.array_equal(every, np.tile(np.arange(6), (40, 1)))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("path", BACKENDS)
    def test_fixed_count_extremes_through_the_injector(self, path):
        codeword = np.zeros(12, dtype=np.uint8)
        rng = np.random.default_rng(1828)
        none = draw(FixedErrorCountInjector(0), codeword, 30, rng, path)
        assert not bits_at(none, np.arange(12)).any()
        candidates = [1, 3, 5, 7]
        every = draw(FixedErrorCountInjector(4, candidates), codeword, 30, rng, path)
        expected = np.zeros((30, 12), dtype=bool)
        expected[:, candidates] = True
        assert np.array_equal(bits_at(every, np.arange(12)), expected)


# ---------------------------------------------------------------------------
# Cell configs carry the sampler version
# ---------------------------------------------------------------------------

class TestSamplerVersionInCells:
    def test_every_einsim_cell_carries_the_version(self):
        spec = SweepSpec.from_dict(
            {
                "name": "versioned",
                "num_words": 100,
                "backends": ["reference", "packed"],
                "scenarios": [
                    {"name": "uniform-random", "params": {"bit_error_rate": [1e-3, 1e-2]}},
                    {"name": "fixed-error-count", "params": {"num_errors": 2}},
                    {"name": "burst", "params": {"burst_probability": 0.1}},
                ],
                "experiments": [{"vendor": "A", "data_bits": 8}],
            }
        )
        kinds = [cell.kind for cell in spec.cells]
        assert kinds.count("einsim") == 8 and kinds.count("beer") == 2
        for cell in spec.cells:
            if cell.kind == "einsim":
                assert cell.config()["sampler"] == SAMPLER_VERSION
            else:
                assert "sampler" not in cell.config()

    @pytest.mark.parametrize("stale", [None, 1])
    def test_stale_einsim_config_is_refused_before_drawing(self, stale, monkeypatch):
        config = make_einsim_cell(
            "uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, num_words=10
        ).config()
        if stale is None:
            del config["sampler"]
        else:
            config["sampler"] = stale

        def no_campaign(*args, **kwargs):
            raise AssertionError("a stale cell reached the simulator")

        monkeypatch.setattr(sweep_runner, "MonteCarloCampaign", no_campaign)
        with pytest.raises(ScenarioError, match="sampler"):
            execute_cell(ExperimentCell.from_config(config))

    def test_upgraded_store_reports_both_generations(self, tmp_path):
        # Re-running a spec over a store written before the sampler field
        # files a second record per einsim cell under its new key.  The
        # report aggregates every record; filtering on the field selects
        # the current generation.
        cell = make_einsim_cell(
            "uniform-random", {"bit_error_rate": 0.01}, {"data_bits": 8}, num_words=100
        )
        result = execute_cell(cell)
        old_config = cell.config()
        del old_config["sampler"]
        store = CampaignStore(tmp_path / "upgraded")
        store.put(old_config, result)
        store.put(cell.config(), result)
        (row,) = campaign_report_data(store)["scenarios"]
        assert (row["cells"], row["num_words"]) == (2, 200)
        assert len(load_simulation_results(store)) == 2
        ((config, current),) = load_simulation_results(store, sampler=SAMPLER_VERSION)
        assert config == cell.config() and current.num_words == 100

    def test_beer_cell_key_is_unchanged(self):
        assert make_beer_cell("A", 8).key() == (
            "53465958af75a549f0baba25d42b656d2636f8b82a14f32aa4a7b3a84bf60543"
        )

    def test_non_finite_config_values_are_refused(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ExperimentCell.from_config({"kind": "einsim", "rate": float("inf")})


# ---------------------------------------------------------------------------
# Injector input checks
# ---------------------------------------------------------------------------

def _twelve_bit_code():
    code = get_family("sec-hamming").construct(8)
    assert code.codeword_length == 12
    return code


class TestInjectorInputChecks:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, 17])
    def test_out_of_range_candidate_is_refused(self, backend, bad):
        # -1 used to wrap silently to bit 11, doubling up on candidate 11.
        simulator = EinsimSimulator(_twelve_bit_code(), seed=0, backend=backend)
        injector = FixedErrorCountInjector(2, [11, bad])
        with pytest.raises(ChipConfigurationError, match="out of range"):
            simulator.simulate(np.zeros(8, dtype=np.uint8), 1_000, injector)

    @pytest.mark.parametrize("path", BACKENDS)
    def test_candidates_are_checked_before_any_draw(self, path):
        rng = np.random.default_rng(1831)
        state = rng.bit_generator.state
        with pytest.raises(ChipConfigurationError, match="out of range"):
            draw(FixedErrorCountInjector(1, [3, 12]), np.zeros(12, np.uint8), 5, rng, path)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("num_errors", [2.5, 2.0, True])
    def test_non_integral_error_count_is_refused(self, backend, num_errors):
        # A cell builds its injector when it is made, so the refusal comes
        # before any sweep could reach the cell.
        with pytest.raises(ScenarioError, match="must be an integer") as refused:
            make_einsim_cell(
                "fixed-error-count", {"num_errors": num_errors}, {"data_bits": 8},
                num_words=10, backend=backend,
            )
        assert isinstance(refused.value.__cause__, ChipConfigurationError)

    def test_numpy_integer_error_count_is_accepted(self):
        assert FixedErrorCountInjector(np.int64(2)).num_errors == 2

    def test_non_integral_candidate_is_refused(self):
        with pytest.raises(ChipConfigurationError, match="must be integers"):
            FixedErrorCountInjector(1, [1.5, 3])

    def test_nan_per_bit_probability_is_refused(self):
        with pytest.raises(ChipConfigurationError, match=r"\[0, 1\]"):
            PerBitBernoulliInjector([float("nan")] * 12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_never_reaches_a_cell_key(self, backend):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            make_einsim_cell(
                "per-bit-bernoulli", {"probabilities": [float("nan")] * 12},
                {"data_bits": 8}, num_words=10, backend=backend,
            )
        with pytest.raises(ScenarioError, match="not valid JSON"):
            make_einsim_cell(
                "uniform-random", {"bit_error_rate": float("nan")},
                {"data_bits": 8}, num_words=10, backend=backend,
            )

