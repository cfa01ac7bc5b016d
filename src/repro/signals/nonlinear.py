"""Non-linear / complexity features: entropies, Poincaré, Hjorth.

These are the "non-linear features" the paper's feature-map recipe
(after Sun et al. [18]) extracts alongside time- and frequency-domain
statistics.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


#: Pairwise distances held at once by ``_match_counts``: a block of
#: rows is sized so its float64 temporaries stay near 8 MB each.
_BLOCK_ELEMENTS = 1 << 20


def _match_counts(x: np.ndarray, m: int, r: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-template counts of *other* templates within Chebyshev distance ``r``.

    Templates are the lag-1 subsequences of ``x``.  The first array
    covers the ``x.size - m + 1`` templates of length ``m``, the second
    the ``x.size - m`` templates of length ``m + 1``.  A length-(m+1)
    distance is the length-m distance maxed with the last coordinate,
    so one pass yields both.  The pass visits the distance matrix in
    row blocks from the diagonal rightwards: since ``|a - b| == |b - a|``
    exactly, a match right of a block also counts for its column's
    template.  NaN never compares ``<= r``, so NaN samples never match.
    """
    n = x.size - m + 1
    rows = max(1, _BLOCK_ELEMENTS // n)
    counts = np.zeros(n, dtype=np.int64)
    counts_next = np.zeros(n - 1, dtype=np.int64)

    def tally(into: np.ndarray, start: int, match: np.ndarray) -> None:
        # ``match`` holds rows start.. and columns start..; its leading
        # square is symmetric and its diagonal are the self-pairs.
        stop = start + match.shape[0]
        into[start:stop] += match.sum(axis=1) - match.diagonal()
        into[stop:] += match[:, stop - start :].sum(axis=0)

    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d = np.subtract(x[start:stop, None], x[None, start:n])
        np.abs(d, out=d)
        t = np.empty_like(d)
        for k in range(1, m):
            np.subtract(x[start + k : stop + k, None], x[None, start + k : n + k], out=t)
            np.abs(t, out=t)
            np.maximum(d, t, out=d)
        tally(counts, start, d <= r)
        # Length m + 1: the last length-m template has no extension.
        stop = min(stop, n - 1)
        if stop > start:
            t = t[: stop - start, : n - 1 - start]
            np.subtract(x[start + m : stop + m, None], x[None, start + m :], out=t)
            np.abs(t, out=t)
            np.maximum(d[: stop - start, : n - 1 - start], t, out=t)
            tally(counts_next, start, t <= r)
    return counts, counts_next


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
    counts, counts_next = _match_counts(x, m, r)
    # Each unordered template pair is counted once from either side.
    b = int(counts.sum()) // 2
    a = int(counts_next.sum()) // 2
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
    counts, counts_next = _match_counts(x, m, r)
    # Every finite template is at distance 0 from itself.
    own = int(r >= 0)

    def phi(others: np.ndarray) -> float:
        return float(np.mean(np.log((others + own) / others.size)))

    return phi(counts) - phi(counts_next)


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
