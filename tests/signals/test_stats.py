"""Tests for shared descriptive-statistics helpers."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

import repro.signals
from repro.signals.stats import basic_stats, iqr, safe_kurtosis, safe_skew


def scipy_skew_kurtosis(x):
    """The reference: ``scipy.stats`` with its precision-loss warning muted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(spstats.skew(x)), float(spstats.kurtosis(x))


@pytest.fixture
def rng():
    return np.random.default_rng(151)


class TestBasicStats:
    def test_twelve_features_with_prefix(self, rng):
        stats = basic_stats(rng.normal(size=100), "bvp")
        assert len(stats) == 12
        assert all(k.startswith("bvp_") for k in stats)

    def test_values_match_numpy(self, rng):
        x = rng.normal(3.0, 2.0, size=500)
        stats = basic_stats(x, "s")
        assert stats["s_mean"] == pytest.approx(x.mean())
        assert stats["s_std"] == pytest.approx(x.std())
        assert stats["s_median"] == pytest.approx(np.median(x))
        assert stats["s_rms"] == pytest.approx(np.sqrt(np.mean(x * x)))
        assert stats["s_range"] == pytest.approx(x.max() - x.min())

    def test_skew_kurtosis_match_scipy(self, rng):
        """Numpy moments equal ``scipy.stats`` bit for bit."""
        inputs = [rng.exponential(size=500)]
        for _ in range(200):
            size = int(rng.integers(3, 701))
            offset = 10.0 ** rng.uniform(-3, 3)
            inputs.append(offset + offset * rng.standard_t(3, size=size))
        for x in inputs:
            stats = basic_stats(x, "s")
            skew, kurtosis = scipy_skew_kurtosis(x)
            assert stats["s_skew"] == skew
            assert stats["s_kurtosis"] == kurtosis
            assert safe_skew(x) == skew
            if x.size >= 4:
                assert safe_kurtosis(x) == kurtosis

    def test_variance_below_mean_rounding_is_nan_like_scipy(self):
        """``m2 <= (eps * mean)**2``: the spread is below the mean's ulp."""
        x = np.full(100, 1e10)
        x[0] = np.nextafter(1e10, np.inf)
        assert x.std() > 1e-12  # past the flat-signal guard
        stats = basic_stats(x, "s")
        skew, kurtosis = scipy_skew_kurtosis(x)
        assert math.isnan(skew) and math.isnan(kurtosis)
        assert math.isnan(stats["s_skew"]) and math.isnan(stats["s_kurtosis"])
        assert math.isnan(safe_skew(x)) and math.isnan(safe_kurtosis(x))

    def test_constant_signal_safe(self):
        stats = basic_stats(np.full(50, 2.0), "s")
        assert stats["s_skew"] == 0.0
        assert stats["s_kurtosis"] == 0.0
        assert stats["s_std"] == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            basic_stats(np.array([1.0]), "s")


class TestSafeHelpers:
    def test_safe_skew_constant(self):
        assert safe_skew(np.full(20, 1.0)) == 0.0

    def test_safe_kurtosis_short(self):
        assert safe_kurtosis(np.array([1.0, 2.0, 3.0])) == 0.0

    def test_iqr_known_value(self):
        x = np.arange(1, 101, dtype=float)
        assert iqr(x) == pytest.approx(49.5)


def test_signals_package_does_not_import_scipy_stats():
    root = Path(repro.signals.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(n.startswith("scipy.stats") for n in names), path.name
