"""Unit tests for the data-retention error model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DataRetentionModel, RetentionCalibration
from repro.dram.retention import FAST_RETENTION, _normal_cdf, _normal_quantile
from repro.exceptions import ValidationError

NAN = float("nan")


class TestCalibration:
    def test_default_calibration_reproduces_anchor_points(self):
        model = DataRetentionModel()
        calibration = model.calibration
        assert model.failure_probability(calibration.window_low_s, 80.0) == pytest.approx(
            calibration.ber_low, rel=1e-6
        )
        assert model.failure_probability(calibration.window_high_s, 80.0) == pytest.approx(
            calibration.ber_high, rel=1e-6
        )

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            RetentionCalibration(ber_low=0.5, ber_high=0.1).lognormal_parameters()
        with pytest.raises(ValueError):
            RetentionCalibration(window_low_s=100, window_high_s=50).lognormal_parameters()
        with pytest.raises(ValueError):
            RetentionCalibration(ber_low=0.0).lognormal_parameters()

    def test_custom_calibration(self):
        calibration = RetentionCalibration(60.0, 1e-6, 600.0, 1e-2)
        model = DataRetentionModel(calibration)
        assert model.failure_probability(60.0, 80.0) == pytest.approx(1e-6, rel=1e-6)
        assert model.failure_probability(600.0, 80.0) == pytest.approx(1e-2, rel=1e-6)


class TestFailureProbability:
    def test_monotonic_in_window(self):
        model = DataRetentionModel()
        windows = [30, 60, 120, 300, 600, 1200, 1800]
        probabilities = [model.failure_probability(w, 80.0) for w in windows]
        assert probabilities == sorted(probabilities)

    def test_monotonic_in_temperature(self):
        model = DataRetentionModel()
        temps = [30, 45, 60, 80, 95]
        probabilities = [model.failure_probability(600, t) for t in temps]
        assert probabilities == sorted(probabilities)

    def test_zero_window_means_no_failures(self):
        model = DataRetentionModel()
        assert model.failure_probability(0.0, 80.0) == 0.0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            DataRetentionModel().failure_probability(-1.0, 80.0)

    def test_temperature_halving_rule(self):
        # +10 degC doubles the effective window.
        model = DataRetentionModel()
        assert model.effective_window(300, 90.0) == pytest.approx(600.0)
        assert model.effective_window(300, 70.0) == pytest.approx(150.0)

    def test_window_for_failure_probability_inverts(self):
        model = DataRetentionModel()
        for ber in [1e-6, 1e-4, 1e-3]:
            window = model.window_for_failure_probability(ber, 80.0)
            assert model.failure_probability(window, 80.0) == pytest.approx(ber, rel=1e-6)

    def test_window_for_failure_probability_temperature_consistency(self):
        model = DataRetentionModel()
        window_80 = model.window_for_failure_probability(1e-4, 80.0)
        window_90 = model.window_for_failure_probability(1e-4, 90.0)
        assert window_90 == pytest.approx(window_80 / 2.0)

    def test_invalid_target_ber(self):
        with pytest.raises(ValueError):
            DataRetentionModel().window_for_failure_probability(0.0, 80.0)
        with pytest.raises(ValueError):
            DataRetentionModel().window_for_failure_probability(1.0, 80.0)

    @pytest.mark.parametrize(
        ("method", "args"),
        [
            ("effective_window", (NAN, 80.0)),
            ("effective_window", (60.0, NAN)),
            ("failure_probability", (NAN, 80.0)),
            ("failure_probability", (60.0, NAN)),
            ("window_for_failure_probability", (NAN, 80.0)),
            ("window_for_failure_probability", (1e-3, NAN)),
            ("cells_failing", (np.ones(1000), NAN, 80.0)),
            ("cells_failing", (np.ones(1000), 60.0, NAN)),
        ],
        ids=[
            "effective_window-window",
            "effective_window-temperature",
            "failure_probability-window",
            "failure_probability-temperature",
            "window_for_failure_probability-ber",
            "window_for_failure_probability-temperature",
            "cells_failing-window",
            "cells_failing-temperature",
        ],
    )
    def test_nan_rejected(self, method, args):
        with pytest.raises(ValidationError, match="NaN|BER"):
            getattr(DataRetentionModel(), method)(*args)

    def test_infinite_window_fails_every_cell(self):
        model = DataRetentionModel()
        assert model.effective_window(float("inf"), 80.0) == float("inf")
        assert model.failure_probability(float("inf"), 80.0) == 1.0
        assert model.cells_failing(np.ones(1000), float("inf"), 80.0).all()


class TestSampling:
    def test_sample_shape_and_positivity(self):
        model = DataRetentionModel()
        times = model.sample_retention_times(1000, np.random.default_rng(0))
        assert times.shape == (1000,)
        assert (times > 0).all()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DataRetentionModel().sample_retention_times(-1, np.random.default_rng(0))

    def test_sampling_is_reproducible(self):
        model = DataRetentionModel()
        first = model.sample_retention_times(100, np.random.default_rng(7))
        second = model.sample_retention_times(100, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_empirical_failure_rate_matches_model(self):
        # At a window giving ~5% failures the empirical rate over many cells
        # should be close to the analytic probability.
        model = DataRetentionModel()
        rng = np.random.default_rng(3)
        times = model.sample_retention_times(200_000, rng)
        window = model.window_for_failure_probability(0.05, 80.0)
        empirical = model.cells_failing(times, window, 80.0).mean()
        assert empirical == pytest.approx(0.05, rel=0.15)

    def test_cells_failing_monotone_in_window(self):
        model = DataRetentionModel()
        times = model.sample_retention_times(10_000, np.random.default_rng(11))
        short = model.cells_failing(times, 300, 80.0)
        long = model.cells_failing(times, 3000, 80.0)
        # Every cell failing at the short window also fails at the long one.
        assert np.all(long[short])


class TestRetentionProperties:
    @given(
        st.floats(min_value=1.0, max_value=10_000.0),
        st.floats(min_value=20.0, max_value=95.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_probability_is_valid(self, window, temperature):
        probability = DataRetentionModel().failure_probability(window, temperature)
        assert 0.0 <= probability <= 1.0

    @given(
        st.floats(min_value=1.0, max_value=5_000.0),
        st.floats(min_value=1.0, max_value=5_000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_longer_window_never_reduces_probability(self, first, second):
        model = DataRetentionModel()
        low, high = sorted([first, second])
        assert model.failure_probability(low, 80.0) <= model.failure_probability(high, 80.0)


class TestScipyValues:
    """The normal quantile and CDF hold the values scipy.stats.norm gave.

    Every chip draws its retention times from ``(mu, sigma)``, so those
    move every simulated cell.  The literals are scipy 1.17.1's
    (``norm.ppf``/``norm.cdf``); the library no longer imports scipy.
    """

    @pytest.mark.parametrize("calibration, mu, sigma", [
        (RetentionCalibration(), 10.698750489201903, 1.1369253588505763),
        (FAST_RETENTION, 4.0943445622221, 1.993595488244228),
    ], ids=["default", "fast"])
    def test_lognormal_parameters(self, calibration, mu, sigma):
        assert calibration.lognormal_parameters() == pytest.approx(
            (mu, sigma), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("z_score, probability", [
        # NormalDist().cdf is 1.3e-10 off at z = -6 and returns 0 below -8.3.
        (-9.0, 1.1285884059538324e-19),
        (-8.5, 9.47953482220325e-18),
        (-7.5, 3.1908916729108844e-14),
        (-6.0, 9.865876450376946e-10),
        (-5.2, 9.96442631693347e-08),
        (-4.0, 3.167124183311986e-05),
        (-2.5, 0.006209665325776132),
        (-1.0, 0.15865525393145707),
        (0.0, 0.5),
        (0.5, 0.6914624612740131),
        (2.0, 0.9772498680518208),
        (5.0, 0.9999997133484281),
    ])
    def test_normal_cdf(self, z_score, probability):
        assert _normal_cdf(z_score) == pytest.approx(probability, rel=1e-12, abs=0)

    @pytest.mark.parametrize("probability, z_score", [
        (1e-15, -7.941345326170998),
        (1e-12, -7.034483825301131),
        (1e-10, -6.361340902404056),
        (1e-08, -5.612001244174789),
        (1e-06, -4.753424308822899),
        (1e-04, -3.7190164854556804),
        (0.02, -2.053748910631823),
        (0.3, -0.5244005127080409),
        (0.5, 0.0),
        (0.75, 0.6744897501960817),
        (0.98, 2.0537489106318225),
        (1 - 1e-06, 4.753424308817087),
        (1 - 1e-12, 7.0344869100478356),
    ])
    def test_normal_quantile(self, probability, z_score):
        assert _normal_quantile(probability) == pytest.approx(z_score, rel=1e-12, abs=0)

    @pytest.mark.parametrize("calibration, window_s, temperature_c, probability", [
        # The 60 s window at 80 degC sits at z = -5.8, deep in the lower tail.
        (RetentionCalibration(), 60.0, 80.0, 3.1422468918814765e-09),
        (RetentionCalibration(), 120.0, 80.0, 9.999999999999959e-08),
        (RetentionCalibration(), 600.0, 85.0, 0.0002517401855164366),
        (RetentionCalibration(), 30.0, 70.0, 1.0450103029042103e-12),
        (FAST_RETENTION, 30.0, 80.0, 0.36403764054892856),
        (FAST_RETENTION, 45.0, 80.0, 0.44263055269591167),
        (FAST_RETENTION, 90.0, 85.0, 0.6469976633121475),
    ])
    def test_failure_probability(self, calibration, window_s, temperature_c, probability):
        model = DataRetentionModel(calibration)
        assert model.failure_probability(window_s, temperature_c) == pytest.approx(
            probability, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("calibration, ber, temperature_c, window_s", [
        (RetentionCalibration(), 1e-7, 80.0, 120.00000000000009),
        (RetentionCalibration(), 1e-9, 85.0, 34.230532401325675),
        (RetentionCalibration(), 0.5, 80.0, 44300.46662182982),
        (FAST_RETENTION, 1e-4, 75.0, 0.051134475925996334),
        (FAST_RETENTION, 0.9, 80.0, 772.1972180881069),
    ])
    def test_window_for_failure_probability(self, calibration, ber, temperature_c, window_s):
        model = DataRetentionModel(calibration)
        assert model.window_for_failure_probability(ber, temperature_c) == pytest.approx(
            window_s, rel=1e-12, abs=0
        )
