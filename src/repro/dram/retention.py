"""Data-retention error model.

The model captures the three experimentally established properties that BEER
relies on (paper Section 3.2):

1. retention errors are easily induced and controlled by lengthening the
   refresh window and raising temperature;
2. they are repeatable and uniformly distributed in space;
3. they fail unidirectionally from CHARGED to DISCHARGED.

Each cell is assigned a fixed *retention time*: the longest refresh window it
can tolerate at the reference temperature before losing its charge.  Retention
times are drawn from a lognormal distribution calibrated so that the chip-wide
raw bit error rate (BER) spans the range the paper reports for its refresh
sweeps (≈1e-7 at a 2-minute window up to ≈1e-3 at 22 minutes, at 80 °C).
Temperature acceleration follows the usual "retention halves every ~10 °C"
rule of thumb used throughout the DRAM retention literature.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

#: The standard normal quantile function.
_normal_quantile = NormalDist().inv_cdf


def _normal_cdf(z_score: float) -> float:
    """The standard normal CDF, accurate deep into the lower tail.

    ``NormalDist().cdf`` computes ``(1 + erf(z / sqrt 2)) / 2``, which loses
    the tail to cancellation (5e-11 relative at z = -5.2, and 0 below
    z ≈ -8.3); the ``erfc`` form keeps full relative precision there.
    """
    return 0.5 * math.erfc(-z_score / math.sqrt(2.0))


#: Reference temperature (°C) at which retention times are specified.
REFERENCE_TEMPERATURE_C = 80.0

#: Temperature increase (°C) that halves every cell's retention time.
TEMPERATURE_HALVING_C = 10.0


@dataclass(frozen=True)
class RetentionCalibration:
    """Two-point calibration of the chip-wide retention-time distribution.

    The distribution is lognormal; the calibration pins the cumulative failure
    probability (raw BER) at two refresh windows, both at the reference
    temperature.  Defaults follow the paper's experimental observations.
    """

    window_low_s: float = 120.0
    ber_low: float = 1e-7
    window_high_s: float = 1320.0
    ber_high: float = 1e-3

    def lognormal_parameters(self) -> tuple:
        """Return ``(mu, sigma)`` of ``ln(retention time)`` for this calibration."""
        if not 0 < self.ber_low < self.ber_high < 1:
            raise ValidationError("calibration BERs must satisfy 0 < low < high < 1")
        if not 0 < self.window_low_s < self.window_high_s:
            raise ValidationError("calibration windows must satisfy 0 < low < high")
        z_low = _normal_quantile(self.ber_low)
        z_high = _normal_quantile(self.ber_high)
        log_low = math.log(self.window_low_s)
        log_high = math.log(self.window_high_s)
        sigma = (log_high - log_low) / (z_high - z_low)
        mu = log_low - sigma * z_low
        return mu, sigma


#: The accelerated calibration of the simulated campaigns (``simulate-profile``,
#: BEER sweep cells, the figure and section studies): 2% of cells fail within a
#: 1 s window and half within 60 s, so refresh windows of tens of seconds give
#: the error rates of the paper's minutes-long windows and a campaign finishes
#: in seconds.
FAST_RETENTION = RetentionCalibration(1.0, 0.02, 60.0, 0.5)


class DataRetentionModel:
    """Per-cell retention times plus window/temperature failure evaluation."""

    def __init__(
        self,
        calibration: Optional[RetentionCalibration] = None,
        reference_temperature_c: float = REFERENCE_TEMPERATURE_C,
        temperature_halving_c: float = TEMPERATURE_HALVING_C,
    ):
        self._calibration = calibration if calibration is not None else RetentionCalibration()
        self._mu, self._sigma = self._calibration.lognormal_parameters()
        self._reference_temperature_c = reference_temperature_c
        self._temperature_halving_c = temperature_halving_c

    @property
    def calibration(self) -> RetentionCalibration:
        """The two-point calibration used to build the distribution."""
        return self._calibration

    # -- population-level statistics ---------------------------------------
    def effective_window(self, refresh_window_s: float, temperature_c: float) -> float:
        """Return the reference-temperature window equivalent to the given conditions.

        Raising the temperature by ``temperature_halving_c`` degrees doubles
        the effective window (i.e. halves every retention time).  A NaN
        window or temperature raises :class:`ValidationError`; an infinite
        window is legal.
        """
        if math.isnan(refresh_window_s) or math.isnan(temperature_c):
            raise ValidationError(
                "refresh window and temperature must be numbers, not NaN"
            )
        if refresh_window_s < 0:
            raise ValidationError("refresh window must be non-negative")
        exponent = (temperature_c - self._reference_temperature_c) / self._temperature_halving_c
        return refresh_window_s * (2.0 ** exponent)

    def failure_probability(self, refresh_window_s: float, temperature_c: float) -> float:
        """Return the probability that a uniformly chosen cell fails.

        This is the expected raw bit error rate among CHARGED cells for a
        refresh pause of the given length at the given temperature.
        """
        window = self.effective_window(refresh_window_s, temperature_c)
        if window <= 0:
            return 0.0
        z_score = (math.log(window) - self._mu) / self._sigma
        return _normal_cdf(z_score)

    def window_for_failure_probability(
        self, target_ber: float, temperature_c: float
    ) -> float:
        """Return the refresh window that produces ``target_ber`` at ``temperature_c``."""
        if not 0 < target_ber < 1:
            raise ValidationError("target BER must lie strictly between 0 and 1")
        if math.isnan(temperature_c):
            raise ValidationError("temperature must be a number, not NaN")
        z_score = _normal_quantile(target_ber)
        window_at_reference = math.exp(self._mu + z_score * self._sigma)
        exponent = (temperature_c - self._reference_temperature_c) / self._temperature_halving_c
        return window_at_reference / (2.0 ** exponent)

    # -- per-cell sampling ---------------------------------------------------
    def sample_retention_times(
        self, num_cells: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one retention time (seconds at reference temperature) per cell.

        The draws are what make a simulated chip's retention errors repeatable:
        the chip keeps the sampled array for its lifetime and re-evaluates it
        against each refresh pause.
        """
        if num_cells < 0:
            raise ValidationError("number of cells must be non-negative")
        return np.exp(rng.normal(self._mu, self._sigma, size=num_cells))

    def cells_failing(
        self,
        retention_times_s: np.ndarray,
        refresh_window_s: float,
        temperature_c: float,
    ) -> np.ndarray:
        """Return a boolean mask of cells whose retention time is exceeded."""
        window = self.effective_window(refresh_window_s, temperature_c)
        return np.asarray(retention_times_s) < window
