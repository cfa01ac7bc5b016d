"""Shared descriptive-statistics helpers for feature extraction."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

_EPS = np.finfo(np.float64).eps


def _skew_kurtosis(x: np.ndarray) -> Tuple[float, float]:
    """Biased skewness and excess kurtosis from numpy central moments.

    The operations follow ``scipy.stats.skew``/``kurtosis`` (scipy
    1.17, ``bias=True``) step for step, so the results are equal bit
    for bit without that wrapper's per-call overhead.  Both are ``nan``
    when the variance is lost to the mean's rounding.
    """
    mean = x.mean()
    d = x - mean
    d2 = d**2
    m2 = d2.mean()
    m3 = (d2 * d).mean()
    m4 = (d2**2).mean()
    if m2 <= (_EPS * mean) ** 2:
        return float("nan"), float("nan")
    with np.errstate(all="ignore"):
        return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


def basic_stats(x: np.ndarray, prefix: str) -> Dict[str, float]:
    """The 12 descriptive statistics used across all sensor channels."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError(f"signal too short for statistics: {x.size}")
    q75, q25 = np.percentile(x, [75, 25])
    std = x.std()
    skew, kurtosis = _skew_kurtosis(x) if std > 1e-12 else (0.0, 0.0)
    return {
        f"{prefix}_mean": float(x.mean()),
        f"{prefix}_std": float(std),
        f"{prefix}_min": float(x.min()),
        f"{prefix}_max": float(x.max()),
        f"{prefix}_range": float(x.max() - x.min()),
        f"{prefix}_median": float(np.median(x)),
        f"{prefix}_iqr": float(q75 - q25),
        f"{prefix}_skew": skew,
        f"{prefix}_kurtosis": kurtosis,
        f"{prefix}_rms": float(np.sqrt(np.mean(x * x))),
        f"{prefix}_mad": float(np.mean(np.abs(x - x.mean()))),
        f"{prefix}_energy": float(np.sum(x * x) / x.size),
    }


def safe_skew(x: np.ndarray) -> float:
    """Skewness, zero for (near-)constant inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3 or x.std() < 1e-12:
        return 0.0
    return _skew_kurtosis(x)[0]


def safe_kurtosis(x: np.ndarray) -> float:
    """Excess kurtosis, zero for (near-)constant inputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 4 or x.std() < 1e-12:
        return 0.0
    return _skew_kurtosis(x)[1]


def iqr(x: np.ndarray) -> float:
    """Interquartile range."""
    q75, q25 = np.percentile(np.asarray(x, dtype=np.float64), [75, 25])
    return float(q75 - q25)
