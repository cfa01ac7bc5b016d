"""Non-linear / complexity features: entropies, Poincaré, Hjorth.

These are the "non-linear features" the paper's feature-map recipe
(after Sun et al. [18]) extracts alongside time- and frequency-domain
statistics.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def _embed(x: np.ndarray, m: int) -> np.ndarray:
    """Time-delay embedding with lag 1: rows are length-m subsequences."""
    n = x.size - m + 1
    if n <= 0:
        raise ValueError(f"signal of length {x.size} too short for m={m}")
    idx = np.arange(m)[None, :] + np.arange(n)[:, None]
    return x[idx]


def sample_entropy(x: np.ndarray, m: int = 2, r: float = None) -> float:
    """Sample entropy (Richman & Moorman, 2000), lag-1 embedding.

    ``r`` defaults to 0.2 * std(x).  Returns 0.0 for degenerate flat
    signals and caps at a large finite value when no matches exist at
    m+1 (instead of returning inf), keeping feature maps finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < m + 2:
        raise ValueError(f"signal too short for sample entropy: {x.size}")
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def count_matches(mm: int) -> int:
        emb = _embed(x, mm)
        count = 0
        # Chebyshev distance template matching, excluding self-matches.
        for i in range(emb.shape[0] - 1):
            dist = np.max(np.abs(emb[i + 1 :] - emb[i]), axis=1)
            count += int(np.sum(dist <= r))
        return count

    b = count_matches(m)
    a = count_matches(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return 10.0  # finite cap: no (m+1)-matches found
    return float(-np.log(a / b))


def approximate_entropy(x: np.ndarray, m: int = 2, r: float = None) -> float:
    """Approximate entropy (Pincus, 1991), lag-1 embedding.

    Returns ``nan`` for a window holding NaN or ``±inf``: no template
    then matches, not even itself, and the log of a zero count is
    undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < m + 2:
        raise ValueError(f"signal too short for approximate entropy: {x.size}")
    if not np.isfinite(x).all():
        return float("nan")
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def phi(mm: int) -> float:
        emb = _embed(x, mm)
        n = emb.shape[0]
        counts = np.zeros(n)
        for i in range(n):
            dist = np.max(np.abs(emb - emb[i]), axis=1)
            counts[i] = np.sum(dist <= r) / n  # includes self-match
        return float(np.mean(np.log(counts)))

    return float(phi(m) - phi(m + 1))


def poincare_descriptors(intervals: np.ndarray) -> Dict[str, float]:
    """Poincaré plot descriptors of an interval series (e.g. IBIs).

    SD1 captures short-term variability, SD2 long-term; also returns
    their ratio and the fitted ellipse area (pi * SD1 * SD2).
    """
    intervals = np.asarray(intervals, dtype=np.float64)
    if intervals.size < 3:
        return {"sd1": 0.0, "sd2": 0.0, "sd1_sd2_ratio": 0.0, "ellipse_area": 0.0}
    x1 = intervals[:-1]
    x2 = intervals[1:]
    diff = (x2 - x1) / np.sqrt(2.0)
    summ = (x2 + x1) / np.sqrt(2.0)
    sd1 = float(diff.std())
    sd2 = float(summ.std())
    return {
        "sd1": sd1,
        "sd2": sd2,
        "sd1_sd2_ratio": sd1 / sd2 if sd2 > 0 else 0.0,
        "ellipse_area": float(np.pi * sd1 * sd2),
    }


def hjorth_parameters(x: np.ndarray) -> Tuple[float, float, float]:
    """Hjorth activity, mobility and complexity of a signal."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError(f"signal too short for Hjorth parameters: {x.size}")
    dx = np.diff(x)
    ddx = np.diff(dx)
    var_x = x.var()
    var_dx = dx.var()
    var_ddx = ddx.var()
    activity = float(var_x)
    mobility = float(np.sqrt(var_dx / var_x)) if var_x > 0 else 0.0
    if var_dx > 0 and mobility > 0:
        complexity = float(np.sqrt(var_ddx / var_dx) / mobility)
    else:
        complexity = 0.0
    return activity, mobility, complexity


def zero_crossing_rate(x: np.ndarray) -> float:
    """Fraction of consecutive sample pairs that change sign (mean removed)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("signal too short for zero-crossing rate")
    centered = x - x.mean()
    signs = np.sign(centered)
    # Treat exact zeros as positive so runs of zeros don't inflate the count.
    signs[signs == 0] = 1.0
    return float(np.mean(signs[:-1] != signs[1:]))
