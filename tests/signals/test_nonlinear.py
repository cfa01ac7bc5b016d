"""Tests for non-linear / complexity features."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals import (
    approximate_entropy,
    hjorth_parameters,
    poincare_descriptors,
    sample_entropy,
    zero_crossing_rate,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -- reference oracles: the per-template loops the vectorized pass replaced --


def _embed(x, m):
    n = x.size - m + 1
    idx = np.arange(m)[None, :] + np.arange(n)[:, None]
    return x[idx]


def sample_entropy_oracle(x, m=2, r=None):
    x = np.asarray(x, dtype=np.float64)
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def count_matches(mm):
        emb = _embed(x, mm)
        count = 0
        for i in range(emb.shape[0] - 1):
            dist = np.max(np.abs(emb[i + 1 :] - emb[i]), axis=1)
            count += int(np.sum(dist <= r))
        return count

    b = count_matches(m)
    a = count_matches(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return 10.0
    return float(-np.log(a / b))


def approximate_entropy_oracle(x, m=2, r=None):
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        return float("nan")
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def phi(mm):
        emb = _embed(x, mm)
        n = emb.shape[0]
        counts = np.zeros(n)
        for i in range(n):
            dist = np.max(np.abs(emb - emb[i]), axis=1)
            counts[i] = np.sum(dist <= r) / n
        return float(np.mean(np.log(counts)))

    return float(phi(m) - phi(m + 1))


@st.composite
def entropy_cases(draw):
    """A window, an embedding dimension and ``r`` (None or explicit).

    Small-integer samples with an integer ``r`` put many distances
    exactly on the ``<= r`` boundary; flat and NaN-holding windows are
    the degenerate cases.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(max(4, m + 2), 300))
    kind = draw(st.sampled_from(["real", "integer", "flat", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "integer":
        x = rng.integers(-3, 4, size=n).astype(np.float64)
        r = draw(st.one_of(st.none(), st.integers(0, 3).map(float)))
        return x, m, r
    if kind == "flat":
        x = np.full(n, draw(st.floats(-1e3, 1e3)))
    else:
        x = rng.normal(size=n).cumsum() if draw(st.booleans()) else rng.normal(size=n)
        if kind == "nan":
            x[rng.integers(0, n, size=draw(st.integers(1, 3)))] = np.nan
    return x, m, draw(st.one_of(st.none(), st.floats(0.0, 3.0)))


def same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestEntropiesMatchLoopOracles:
    @settings(max_examples=150, deadline=None)
    @given(entropy_cases())
    def test_sample_entropy_equals_oracle(self, case):
        x, m, r = case
        assert same(sample_entropy(x, m=m, r=r), sample_entropy_oracle(x, m=m, r=r))

    @settings(max_examples=150, deadline=None)
    @given(entropy_cases())
    def test_approximate_entropy_equals_oracle(self, case):
        x, m, r = case
        assert same(
            approximate_entropy(x, m=m, r=r), approximate_entropy_oracle(x, m=m, r=r)
        )

    @pytest.mark.parametrize("n", [4, 17, 300])
    def test_nan_window_sampen_zero_apen_nan(self, rng, n):
        x = rng.normal(size=n)
        x[n // 2] = np.nan
        assert sample_entropy(x) == sample_entropy_oracle(x) == 0.0
        assert np.isnan(approximate_entropy(x))

    def test_row_blocks_match_single_block(self, rng, monkeypatch):
        """Tiny blocks split the pass; counts must not depend on the split."""
        from repro.signals import nonlinear

        x = rng.normal(size=120)
        x[40] = np.nan
        y = np.round(rng.normal(size=120), 1)
        whole = [(f(x, r=0.5), f(y, r=0.1)) for f in (sample_entropy, approximate_entropy)]
        monkeypatch.setattr(nonlinear, "_BLOCK_ELEMENTS", 250)
        split = [(f(x, r=0.5), f(y, r=0.1)) for f in (sample_entropy, approximate_entropy)]
        assert all(same(a, b) for a, b in zip(np.ravel(whole), np.ravel(split)))


@pytest.mark.parametrize("entropy", [sample_entropy, approximate_entropy])
def test_long_signal_memory_is_bounded(entropy):
    """20,000 samples: the full distance matrix would be 3.2 GB."""
    x = np.random.default_rng(3).normal(size=20_000)
    tracemalloc.start()
    try:
        value = entropy(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 64 * 2**20


class TestSampleEntropy:
    def test_regular_signal_lower_than_noise(self, rng):
        t = np.linspace(0, 10 * np.pi, 300)
        regular = np.sin(t)
        noise = rng.normal(size=300)
        assert sample_entropy(regular) < sample_entropy(noise)

    def test_flat_signal_zero(self):
        assert sample_entropy(np.full(50, 2.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            sample_entropy(np.ones(3))

    def test_finite_for_random(self, rng):
        value = sample_entropy(rng.normal(size=100))
        assert np.isfinite(value)
        assert value > 0

    def test_custom_tolerance_monotonic(self, rng):
        """Larger tolerance -> more matches -> lower entropy."""
        x = rng.normal(size=200)
        tight = sample_entropy(x, r=0.1 * x.std())
        loose = sample_entropy(x, r=0.5 * x.std())
        assert loose <= tight


class TestApproximateEntropy:
    def test_regular_lower_than_noise(self, rng):
        t = np.linspace(0, 10 * np.pi, 300)
        assert approximate_entropy(np.sin(t)) < approximate_entropy(
            rng.normal(size=300)
        )

    def test_flat_signal_zero(self):
        assert approximate_entropy(np.full(50, 1.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            approximate_entropy(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("r", [None, 0.2])
    def test_non_finite_window_nan_without_warning(self, rng, bad, r):
        x = rng.normal(size=60)
        x[17] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(approximate_entropy(x, r=r))


class TestPoincare:
    def test_constant_intervals_zero_sd(self):
        desc = poincare_descriptors(np.full(20, 0.8))
        assert desc["sd1"] == pytest.approx(0.0, abs=1e-12)
        assert desc["sd2"] == pytest.approx(0.0, abs=1e-12)

    def test_alternating_intervals_sd1_dominant(self):
        """A perfectly alternating series is all short-term variability."""
        intervals = np.tile([0.7, 0.9], 20)
        desc = poincare_descriptors(intervals)
        assert desc["sd1"] > 5 * desc["sd2"]

    def test_trending_intervals_sd2_dominant(self):
        intervals = np.linspace(0.6, 1.0, 40)
        desc = poincare_descriptors(intervals)
        assert desc["sd2"] > 5 * desc["sd1"]

    def test_ellipse_area_formula(self, rng):
        intervals = 0.8 + 0.05 * rng.normal(size=50)
        desc = poincare_descriptors(intervals)
        assert desc["ellipse_area"] == pytest.approx(
            np.pi * desc["sd1"] * desc["sd2"]
        )

    def test_short_series_returns_zeros(self):
        desc = poincare_descriptors(np.array([0.8, 0.9]))
        assert desc == {
            "sd1": 0.0,
            "sd2": 0.0,
            "sd1_sd2_ratio": 0.0,
            "ellipse_area": 0.0,
        }


class TestHjorth:
    def test_activity_is_variance(self, rng):
        x = rng.normal(0, 2.0, size=500)
        activity, _, _ = hjorth_parameters(x)
        assert activity == pytest.approx(x.var())

    def test_mobility_increases_with_frequency(self):
        t = np.linspace(0, 2 * np.pi, 1000)
        _, slow_mob, _ = hjorth_parameters(np.sin(5 * t))
        _, fast_mob, _ = hjorth_parameters(np.sin(50 * t))
        assert fast_mob > slow_mob

    def test_flat_signal_safe(self):
        activity, mobility, complexity = hjorth_parameters(np.full(10, 3.0))
        assert activity == 0.0
        assert mobility == 0.0
        assert complexity == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            hjorth_parameters(np.ones(2))


class TestZeroCrossingRate:
    def test_alternating_signal_max_rate(self):
        x = np.tile([1.0, -1.0], 50)
        assert zero_crossing_rate(x) == pytest.approx(1.0)

    def test_constant_zero_rate(self):
        assert zero_crossing_rate(np.full(50, 5.0)) == 0.0

    def test_sine_rate_matches_frequency(self):
        fs = 100.0
        t = np.arange(0, 10, 1 / fs)
        x = np.sin(2 * np.pi * 3.0 * t)
        # 3 Hz sine crosses zero 6 times per second = 0.06 per sample.
        assert zero_crossing_rate(x) == pytest.approx(0.06, abs=0.005)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            zero_crossing_rate(np.array([1.0]))
