"""Filtering and conditioning primitives for physiological signals."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy import signal as sps


def _validate_signal(x: np.ndarray, min_len: int = 2) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1D signal, got shape {x.shape}")
    if x.size < min_len:
        raise ValueError(f"signal too short: {x.size} < {min_len}")
    return x


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge-padded boundaries."""
    x = _validate_signal(x)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return x.copy()
    window = min(window, x.size)
    kernel = np.ones(window) / window
    padded = np.pad(x, (window // 2, window - 1 - window // 2), mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def detrend(x: np.ndarray) -> np.ndarray:
    """Remove the least-squares linear trend."""
    x = _validate_signal(x)
    t = np.arange(x.size, dtype=np.float64)
    slope, intercept = np.polyfit(t, x, 1)
    return x - (slope * t + intercept)


def linear_trend(x: np.ndarray, fs: float = 1.0) -> float:
    """Least-squares slope of the signal in units per second."""
    x = _validate_signal(x)
    t = np.arange(x.size, dtype=np.float64) / fs
    slope, _ = np.polyfit(t, x, 1)
    return float(slope)


def _nyquist_clamped(cutoff: float, fs: float) -> float:
    """Clamp a cutoff just below the Nyquist frequency."""
    nyq = fs / 2.0
    return min(cutoff, 0.99 * nyq)


@lru_cache(maxsize=32)
def _butter_sos(order: int, cutoff, btype: str, fs: float) -> np.ndarray:
    """Butterworth second-order sections, designed once per key.

    Every window of a corpus reuses the same few designs.  The cached
    array is read-only; the filters pass ``sosfiltfilt`` a writable copy.
    """
    sos = sps.butter(order, cutoff, btype=btype, fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


def butter_lowpass(
    x: np.ndarray, cutoff: float, fs: float, order: int = 4
) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter."""
    x = _validate_signal(x, min_len=8)
    cutoff = _nyquist_clamped(cutoff, fs)
    sos = _butter_sos(order, cutoff, "low", fs).copy()
    return sps.sosfiltfilt(sos, x)


def butter_highpass(
    x: np.ndarray, cutoff: float, fs: float, order: int = 4
) -> np.ndarray:
    """Zero-phase Butterworth high-pass filter."""
    x = _validate_signal(x, min_len=8)
    cutoff = _nyquist_clamped(cutoff, fs)
    sos = _butter_sos(order, cutoff, "high", fs).copy()
    return sps.sosfiltfilt(sos, x)


def butter_bandpass(
    x: np.ndarray, low: float, high: float, fs: float, order: int = 3
) -> np.ndarray:
    """Zero-phase Butterworth band-pass filter."""
    x = _validate_signal(x, min_len=16)
    if low <= 0:
        raise ValueError(f"low cutoff must be positive, got {low}")
    high = _nyquist_clamped(high, fs)
    if low >= high:
        raise ValueError(f"low cutoff {low} must be below high cutoff {high}")
    sos = _butter_sos(order, (low, high), "band", fs).copy()
    return sps.sosfiltfilt(sos, x)


def resample_to(x: np.ndarray, fs_in: float, fs_out: float) -> np.ndarray:
    """Resample a uniformly-sampled signal to a new rate (polyphase)."""
    x = _validate_signal(x)
    if fs_in <= 0 or fs_out <= 0:
        raise ValueError("sampling rates must be positive")
    if fs_in == fs_out:
        return x.copy()
    # Rational approximation of the rate ratio keeps resample_poly exact.
    from fractions import Fraction

    frac = Fraction(fs_out / fs_in).limit_denominator(1000)
    return sps.resample_poly(x, frac.numerator, frac.denominator)


def zscore(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Standardize to zero mean / unit variance (eps guards flat signals)."""
    x = _validate_signal(x)
    return (x - x.mean()) / (x.std() + eps)


def interpolate_nans(x: np.ndarray) -> np.ndarray:
    """Linearly interpolate interior NaNs; edge NaNs take nearest value."""
    x = np.asarray(x, dtype=np.float64).copy()
    nans = np.isnan(x)
    if not nans.any():
        return x
    if nans.all():
        raise ValueError("signal is all NaN")
    idx = np.arange(x.size)
    x[nans] = np.interp(idx[nans], idx[~nans], x[~nans])
    return x
