"""The one Monte-Carlo runner, :func:`repro.einsim.simulator.simulate_segments`.

The simulator, the chunked campaign and the profile helpers all hand it
``(dataword, injector, num_words, rng)`` segments.  These tests pin what the
callers rely on: a segment's result never depends on which other segments
share its kernel calls, the profile helpers draw exactly what one simulator
drawing pattern after pattern would, and every input check runs before the
first draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MonteCarloCampaign, charged_patterns
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
from repro.einsim.simulator import simulate_segments
from repro.exceptions import DimensionError, ProfileError, ValidationError

BACKENDS = ("reference", "packed")

#: Injectors covering both packed representations (coordinates from a
#: Bernoulli walk, a fixed-count draw and a whole boolean mask, and subset
#: integers), so mixed segments force incompatible-batch flushes.
INJECTORS = (
    DataRetentionInjector(0.1),
    FixedErrorCountInjector(2),
    FixedErrorCountInjector(2, [0, 3, 7, 12], 0.5),
    PerBitBernoulliInjector(np.linspace(0.0, 0.2, 22)),
)


def _secded():
    return get_family("secded-extended-hamming").construct(16)


def _assert_results_equal(first, second):
    assert np.array_equal(first.dataword, second.dataword)
    assert first.num_words == second.num_words
    assert np.array_equal(
        first.post_correction_error_counts, second.post_correction_error_counts
    )
    assert np.array_equal(
        first.pre_correction_error_counts, second.pre_correction_error_counts
    )
    assert first.uncorrectable_words == second.uncorrectable_words
    assert first.miscorrected_words == second.miscorrected_words
    assert first.miscorrection_positions == second.miscorrection_positions
    assert first.detected_words == second.detected_words


class TestFlushBoundary:
    @settings(max_examples=60, deadline=None)
    @given(
        backend=st.sampled_from(BACKENDS),
        batch_size=st.integers(1, 6),
        shapes=st.lists(
            st.tuples(st.integers(0, 14), st.integers(0, len(INJECTORS) - 1)),
            min_size=1,
            max_size=7,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_segment_equals_simulating_it_alone(
        self, backend, batch_size, shapes, seed
    ):
        # Word counts from 0 to well past batch_size: full blocks classified
        # alone, short ones buffered across segments until the buffer
        # reaches batch_size words or a batch of another kind arrives.
        code = _secded()
        datawords = [
            (np.arange(16) + index) % 3 == 0 for index in range(len(shapes))
        ]

        def segment(index):
            words, injector = shapes[index]
            rng = np.random.default_rng([seed, index])
            return datawords[index], INJECTORS[injector], words, rng

        together = simulate_segments(
            code, [segment(i) for i in range(len(shapes))], backend, batch_size
        )
        assert len(together) == len(shapes)
        for index, result in enumerate(together):
            [alone] = simulate_segments(code, [segment(index)], backend, batch_size)
            _assert_results_equal(result, alone)
            assert result.num_words == shapes[index][0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_segments_sharing_a_generator_continue_its_stream(self, backend):
        code = _secded()
        injector = UniformRandomInjector(0.05)
        shared = np.random.default_rng(2021)
        results = simulate_segments(
            code,
            [(np.ones(16), injector, words, shared) for words in (5, 40, 0, 17)],
            backend,
            batch_size=8,
        )
        simulator = EinsimSimulator(code, seed=2021, backend=backend)
        for words, result in zip((5, 40, 0, 17), results):
            expected = simulator.simulate(np.ones(16), words, injector, batch_size=8)
            _assert_results_equal(result, expected)


class TestSameAsTheSimulator:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "cell_type", [CellType.TRUE_CELL, CellType.ANTI_CELL], ids=["true", "anti"]
    )
    def test_observation_counts_are_one_simulator_pattern_by_pattern(
        self, backend, cell_type
    ):
        code = get_family("secded-extended-hamming").construct(8)
        patterns = list(charged_patterns(8, [1, 2]))
        rate, words = 0.05, 300
        generator = np.random.default_rng(2031)
        twin = np.random.default_rng(2031)
        counts = monte_carlo_observation_counts(
            code, patterns, rate, words,
            cell_type=cell_type, rng=generator, backend=backend,
        )
        simulator = EinsimSimulator(code, seed=twin, backend=backend)
        for pattern in patterns:
            result = simulator.simulate(
                pattern.dataword(cell_type), words,
                DataRetentionInjector(rate, cell_type),
            )
            assert np.array_equal(
                counts.counts_for(pattern), result.post_correction_error_counts
            )
            assert counts.due_words_observed(pattern) == result.detected_words
            assert counts.words_observed(pattern) == words
        assert counts.total_due_words > 0
        assert generator.bit_generator.state == twin.bit_generator.state


class TestInputChecksBeforeAnyDraw:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "bad,error",
        [
            ((np.ones(16), -1), ValidationError),
            ((np.ones(15), 10), DimensionError),
        ],
        ids=["negative-words", "short-dataword"],
    )
    def test_a_bad_later_segment_stops_the_run_before_drawing(
        self, backend, bad, error
    ):
        rng = np.random.default_rng(2041)
        state = rng.bit_generator.state
        injector = UniformRandomInjector(0.1)
        dataword, words = bad
        with pytest.raises(error):
            simulate_segments(
                _secded(),
                [(np.ones(16), injector, 50, rng), (dataword, injector, words, rng)],
                backend,
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_size_is_checked_before_drawing(self, backend):
        rng = np.random.default_rng(2042)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="batch size"):
            simulate_segments(
                _secded(), [(np.ones(16), UniformRandomInjector(0.1), 5, rng)],
                backend, batch_size=0,
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "rate,words", [(1.5, 10), (-0.1, 10), (float("nan"), 10), (0.1, 0)]
    )
    def test_profile_arguments_are_checked_before_drawing(
        self, backend, rate, words
    ):
        rng = np.random.default_rng(2043)
        state = rng.bit_generator.state
        with pytest.raises(ProfileError):
            monte_carlo_observation_counts(
                _secded(), list(charged_patterns(16, [1])), rate, words,
                rng=rng, backend=backend,
            )
        assert rng.bit_generator.state == state


class TestEmptyInput:
    def test_the_runner_returns_nothing_for_no_segments(self):
        for backend in BACKENDS:
            assert simulate_segments(_secded(), [], backend) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("processes", [1, 2])
    def test_campaign_simulate_many_of_nothing_is_empty(self, backend, processes):
        campaign = MonteCarloCampaign(
            _secded(), chunk_size=64, processes=processes, backend=backend
        )
        assert campaign.simulate_many([], UniformRandomInjector(0.1), 100) == []
