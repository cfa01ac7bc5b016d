"""Tests for signal filtering / conditioning primitives."""

import numpy as np
import pytest
from scipy import signal as sps

from repro.signals import filters


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMovingAverage:
    def test_constant_signal_unchanged(self):
        x = np.full(50, 3.0)
        np.testing.assert_allclose(filters.moving_average(x, 5), 3.0)

    def test_window_one_is_identity(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_array_equal(filters.moving_average(x, 1), x)

    def test_output_length_preserved(self, rng):
        x = rng.normal(size=33)
        assert filters.moving_average(x, 7).size == 33

    def test_smooths_noise(self, rng):
        x = np.sin(np.linspace(0, 4 * np.pi, 400)) + 0.5 * rng.normal(size=400)
        smoothed = filters.moving_average(x, 21)
        assert np.std(np.diff(smoothed)) < np.std(np.diff(x))

    def test_invalid_window(self):
        with pytest.raises(ValueError, match="window"):
            filters.moving_average(np.ones(10), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1D"):
            filters.moving_average(np.ones((3, 3)), 2)


class TestDetrendAndTrend:
    def test_removes_linear_trend(self, rng):
        t = np.arange(100, dtype=float)
        x = 2.0 + 0.5 * t + rng.normal(0, 0.01, 100)
        detrended = filters.detrend(x)
        slope = np.polyfit(t, detrended, 1)[0]
        assert abs(slope) < 1e-10

    def test_linear_trend_recovers_slope(self):
        fs = 10.0
        t = np.arange(0, 10, 1 / fs)
        x = 1.0 + 0.3 * t
        assert filters.linear_trend(x, fs) == pytest.approx(0.3, rel=1e-6)

    def test_linear_trend_zero_for_constant(self):
        assert filters.linear_trend(np.full(40, 7.0), 4.0) == pytest.approx(0.0, abs=1e-10)


class TestButterworth:
    def test_lowpass_removes_high_frequency(self):
        fs = 100.0
        t = np.arange(0, 5, 1 / fs)
        low = np.sin(2 * np.pi * 1.0 * t)
        high = np.sin(2 * np.pi * 30.0 * t)
        filtered = filters.butter_lowpass(low + high, 5.0, fs)
        # The 30 Hz component should be crushed; correlation with the
        # 1 Hz component should dominate.
        assert np.corrcoef(filtered, low)[0, 1] > 0.99
        assert np.std(filtered - low) < 0.1

    def test_highpass_removes_dc(self):
        fs = 50.0
        t = np.arange(0, 4, 1 / fs)
        x = 5.0 + np.sin(2 * np.pi * 10.0 * t)
        filtered = filters.butter_highpass(x, 1.0, fs)
        assert abs(filtered.mean()) < 0.05

    def test_bandpass_keeps_band(self):
        fs = 64.0
        t = np.arange(0, 10, 1 / fs)
        cardiac = np.sin(2 * np.pi * 1.2 * t)
        drift = 2.0 + 0.2 * t
        filtered = filters.butter_bandpass(cardiac + drift, 0.5, 8.0, fs)
        assert np.corrcoef(filtered, cardiac)[0, 1] > 0.98

    def test_bandpass_invalid_bounds(self):
        with pytest.raises(ValueError, match="below"):
            filters.butter_bandpass(np.ones(100), 5.0, 1.0, 64.0)

    def test_bandpass_nonpositive_low(self):
        with pytest.raises(ValueError, match="positive"):
            filters.butter_bandpass(np.ones(100), 0.0, 1.0, 64.0)

    @pytest.mark.parametrize(
        "apply, design",
        [
            (lambda x: filters.butter_lowpass(x, 5.0, 100.0), (4, 5.0, "low", 100.0)),
            (lambda x: filters.butter_lowpass(x, 0.05, 4.0, order=2), (2, 0.05, "low", 4.0)),
            (lambda x: filters.butter_highpass(x, 1.0, 50.0), (4, 1.0, "high", 50.0)),
            (lambda x: filters.butter_bandpass(x, 0.5, 8.0, 32.0), (3, (0.5, 8.0), "band", 32.0)),
        ],
    )
    def test_cached_design_equals_fresh_design(self, rng, apply, design):
        order, cutoff, btype, fs = design
        fresh = sps.butter(order, cutoff, btype=btype, fs=fs, output="sos")
        np.testing.assert_array_equal(filters._butter_sos(*design), fresh)
        x = rng.normal(size=256)
        for _ in range(2):  # a cold and a warm cache
            np.testing.assert_array_equal(apply(x), sps.sosfiltfilt(fresh, x))

    def test_cached_design_cannot_be_poisoned(self, rng):
        x = rng.normal(size=256)
        before = filters.butter_bandpass(x, 0.5, 8.0, 64.0)
        cached = filters._butter_sos(3, (0.5, 8.0), "band", 64.0)
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 123.0
        np.testing.assert_array_equal(filters.butter_bandpass(x, 0.5, 8.0, 64.0), before)

    def test_cutoff_clamped_below_nyquist(self):
        # Request a cutoff above Nyquist; should not raise.
        x = np.sin(np.linspace(0, 20, 200))
        out = filters.butter_lowpass(x, 1000.0, fs=10.0)
        assert out.shape == x.shape


class TestResample:
    def test_halving_rate_halves_samples(self, rng):
        x = rng.normal(size=200)
        out = filters.resample_to(x, 64.0, 32.0)
        assert out.size == 100

    def test_same_rate_identity(self, rng):
        x = rng.normal(size=50)
        np.testing.assert_array_equal(filters.resample_to(x, 4.0, 4.0), x)

    def test_preserves_low_frequency_content(self):
        fs = 64.0
        t = np.arange(0, 4, 1 / fs)
        x = np.sin(2 * np.pi * 2.0 * t)
        out = filters.resample_to(x, fs, 32.0)
        t2 = np.arange(out.size) / 32.0
        expected = np.sin(2 * np.pi * 2.0 * t2)
        # Ignore filter edge effects.
        core = slice(10, -10)
        assert np.max(np.abs(out[core] - expected[core])) < 0.05

    def test_invalid_rates(self):
        with pytest.raises(ValueError, match="positive"):
            filters.resample_to(np.ones(10), 0.0, 4.0)


class TestZscoreAndNans:
    def test_zscore_moments(self, rng):
        x = rng.normal(3.0, 2.0, size=1000)
        z = filters.zscore(x)
        assert abs(z.mean()) < 1e-10
        assert z.std() == pytest.approx(1.0, abs=1e-6)

    def test_zscore_flat_signal_no_blowup(self):
        z = filters.zscore(np.full(10, 5.0))
        assert np.all(np.isfinite(z))

    def test_interpolate_interior_nans(self):
        x = np.array([1.0, np.nan, 3.0])
        np.testing.assert_allclose(filters.interpolate_nans(x), [1.0, 2.0, 3.0])

    def test_interpolate_edge_nans(self):
        x = np.array([np.nan, 2.0, np.nan])
        np.testing.assert_allclose(filters.interpolate_nans(x), [2.0, 2.0, 2.0])

    def test_all_nan_raises(self):
        with pytest.raises(ValueError, match="all NaN"):
            filters.interpolate_nans(np.full(5, np.nan))

    def test_no_nans_returns_copy(self):
        x = np.array([1.0, 2.0])
        out = filters.interpolate_nans(x)
        np.testing.assert_array_equal(out, x)
        out[0] = 99.0
        assert x[0] == 1.0
