"""Streaming (real-time) inference at the edge.

The paper motivates CLEAR with *real-time detection* on wearables: raw
BVP/GSR/SKT samples arrive continuously, and the device must window
them, extract features, maintain a rolling feature map, and classify —
all incrementally.  This module provides that runtime:

* :class:`RingBuffer` — fixed-capacity sample buffer per channel.
* :class:`StreamingFeatureExtractor` — turns sample streams into
  feature vectors every hop.
* :class:`OnlineDetector` — maintains the rolling F x W feature map,
  classifies on every new window, and smooths decisions over time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..core.trainer import TrainedModel
from ..resilience.degradation import (
    ABSTAINED,
    DEGRADED,
    HEALTHY,
    DegradationController,
    DegradationPolicy,
    HealthStatus,
    safe_probabilities,
)
from ..resilience.guards import quality_gate
from ..signals.feature_map import FeatureMap
from ..signals.features import FeatureExtractor, SensorRates


class RingBuffer:
    """Fixed-capacity float buffer holding the newest samples.

    Appends beyond capacity discard the oldest samples.  ``latest(n)``
    returns the most recent ``n`` samples in chronological order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data = np.zeros(self.capacity, dtype=np.float64)
        self._write = 0  # next write position
        self._count = 0  # valid samples (<= capacity)
        self.total_seen = 0  # samples ever pushed

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def append(self, samples: Sequence[float]) -> None:
        """Append samples (oldest first); O(len(samples))."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        self.total_seen += samples.size
        if samples.size >= self.capacity:
            # Only the newest `capacity` samples survive anyway.
            self._data[:] = samples[-self.capacity :]
            self._write = 0
            self._count = self.capacity
            return
        first = min(samples.size, self.capacity - self._write)
        self._data[self._write : self._write + first] = samples[:first]
        rest = samples.size - first
        if rest:
            self._data[:rest] = samples[first:]
        self._write = (self._write + samples.size) % self.capacity
        self._count = min(self.capacity, self._count + samples.size)

    def latest(self, n: Optional[int] = None) -> np.ndarray:
        """The newest ``n`` samples (default: all) in time order."""
        if n is None:
            n = self._count
        if n < 0 or n > self._count:
            raise ValueError(f"cannot read {n} samples, have {self._count}")
        if n == 0:
            return np.empty(0, dtype=np.float64)
        end = self._write
        start = (end - n) % self.capacity
        if start < end:
            return self._data[start:end].copy()
        # Wrapped read (also covers the full-buffer case start == end).
        return np.concatenate([self._data[start:], self._data[:end]])


@dataclass
class WindowEvent:
    """One emitted feature vector with its stream position.

    ``signals`` carries the raw per-channel window the vector came
    from (for quality gating); ``error`` is set instead of ``features``
    when extraction failed and the extractor runs with
    ``capture_errors=True`` (corrupt input must surface as a gated
    window, not a raw numpy traceback).
    """

    index: int  # running window counter
    features: Optional[np.ndarray]  # (F,) — None if extraction failed
    signals: Optional[Dict[str, np.ndarray]] = None
    error: Optional[str] = None


class StreamingFeatureExtractor:
    """Incremental windowed feature extraction over three channels.

    Samples are pushed with :meth:`push`; whenever every channel has
    accumulated a full analysis window *and* a hop has elapsed since
    the previous emission, the 123-feature vector of the newest window
    is emitted.
    """

    def __init__(
        self,
        rates: Optional[SensorRates] = None,
        window_seconds: float = 10.0,
        hop_seconds: Optional[float] = None,
        capture_errors: bool = False,
    ):
        self.capture_errors = bool(capture_errors)
        self.extractor = FeatureExtractor(
            rates=rates or SensorRates(), window_seconds=window_seconds
        )
        self.window_seconds = float(window_seconds)
        self.hop_seconds = float(
            hop_seconds if hop_seconds is not None else window_seconds
        )
        if self.hop_seconds <= 0:
            raise ValueError("hop_seconds must be positive")
        r = self.extractor.rates
        self._buffers: Dict[str, RingBuffer] = {
            "bvp": RingBuffer(int(self.window_seconds * r.bvp)),
            "gsr": RingBuffer(int(self.window_seconds * r.gsr)),
            "skt": RingBuffer(int(self.window_seconds * r.skt)),
        }
        self._rates = {"bvp": r.bvp, "gsr": r.gsr, "skt": r.skt}
        self._emitted = 0
        self._next_emit_time = self.window_seconds

    @property
    def stream_time(self) -> float:
        """Seconds of signal consumed so far (per the BVP channel)."""
        return self._buffers["bvp"].total_seen / self._rates["bvp"]

    def push(
        self,
        bvp: Sequence[float] = (),
        gsr: Sequence[float] = (),
        skt: Sequence[float] = (),
    ) -> List[WindowEvent]:
        """Feed new samples; returns feature vectors that became ready."""
        self._buffers["bvp"].append(bvp)
        self._buffers["gsr"].append(gsr)
        self._buffers["skt"].append(skt)

        events: List[WindowEvent] = []
        while self._ready():
            window = {name: buf.latest() for name, buf in self._buffers.items()}
            vector: Optional[np.ndarray] = None
            error: Optional[str] = None
            try:
                vector = self.extractor.extract_window(
                    window["bvp"], window["gsr"], window["skt"]
                )
            except Exception as exc:
                # Corrupt samples (NaN bursts, flatlines) can break the
                # DSP internals; with capture_errors the failure becomes
                # a gated window instead of a raw traceback.
                if not self.capture_errors:
                    raise
                error = f"{type(exc).__name__}: {exc}"
            events.append(
                WindowEvent(
                    index=self._emitted,
                    features=vector,
                    signals=window,
                    error=error,
                )
            )
            self._emitted += 1
            self._next_emit_time += self.hop_seconds
        return events

    def _ready(self) -> bool:
        if not all(buf.full for buf in self._buffers.values()):
            return False
        # Every channel must have advanced past the next emission time.
        times = [
            buf.total_seen / self._rates[name]
            for name, buf in self._buffers.items()
        ]
        return min(times) >= self._next_emit_time - 1e-9


class RollingWindowMap:
    """The last W window vectors as a rolling ``F x W`` feature map.

    The unit of inference everywhere in this codebase is a feature map
    of ``windows_per_map`` consecutive window vectors; this class owns
    the rolling-deque bookkeeping that turns a stream of vectors into
    such maps for :class:`OnlineDetector`, the one path from raw
    samples to feature maps.
    """

    def __init__(self, windows_per_map: int):
        if windows_per_map < 1:
            raise ValueError("windows_per_map must be >= 1")
        self.windows_per_map = int(windows_per_map)
        self._vectors: Deque[np.ndarray] = deque(maxlen=self.windows_per_map)

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def ready(self) -> bool:
        """True once a full map's worth of windows has accumulated."""
        return len(self._vectors) == self.windows_per_map

    def push(self, vector: np.ndarray) -> bool:
        """Append one window vector; returns :attr:`ready`."""
        self._vectors.append(vector)
        return self.ready

    def current_map(self) -> FeatureMap:
        """The rolling map (newest W windows, oldest first)."""
        if not self.ready:
            raise ValueError(
                f"rolling map has {len(self._vectors)} of "
                f"{self.windows_per_map} windows"
            )
        values = np.stack(list(self._vectors), axis=1)  # (F, W)
        return FeatureMap(values, label=0, subject_id=-1)

    def clear(self) -> None:
        self._vectors.clear()


def majority_vote(recent: Deque[int], raw: int) -> int:
    """Append ``raw`` to ``recent`` and return the majority class.

    The temporal-smoothing vote over the last ``recent.maxlen`` raw
    predictions (ties go to the lower class).  Shared by
    :class:`OnlineDetector` and :class:`repro.serving.sessions.UserSession`
    so the device and the fleet smooth identically.
    """
    recent.append(int(raw))
    votes = np.bincount(list(recent), minlength=2)
    return int(np.argmax(votes))


@dataclass
class Detection:
    """One smoothed classification decision.

    ``health`` and ``probabilities`` are populated when the detector
    runs under a :class:`~repro.resilience.degradation.DegradationPolicy`;
    probabilities are then guaranteed finite.
    """

    window_index: int
    raw_prediction: int
    smoothed_prediction: int
    stream_time: float
    probabilities: Optional[np.ndarray] = None
    health: Optional[HealthStatus] = None


class OnlineDetector:
    """Rolling feature-map classification with temporal smoothing.

    Maintains the last W window vectors as the model's F x W input and
    classifies after every new window once the map is full.  The final
    decision is a majority vote over the last ``smoothing`` raw
    predictions, suppressing single-window flickers — the standard
    trick for stable real-time emotion detection.
    """

    def __init__(
        self,
        model: TrainedModel,
        windows_per_map: int,
        streaming: StreamingFeatureExtractor,
        smoothing: int = 3,
        policy: Optional[DegradationPolicy] = None,
    ):
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1")
        self.model = model
        self.windows_per_map = int(windows_per_map)
        self.streaming = streaming
        self.smoothing = int(smoothing)
        self.policy = policy
        self._controller = (
            DegradationController(policy) if policy is not None else None
        )
        if policy is not None:
            # Corrupt input must surface as a gated window; the policy
            # path handles extraction failures explicitly.
            streaming.capture_errors = True
        self._rolling = RollingWindowMap(windows_per_map)
        self._recent_raw: Deque[int] = deque(maxlen=self.smoothing)
        self.detections: List[Detection] = []

    def push(
        self,
        bvp: Sequence[float] = (),
        gsr: Sequence[float] = (),
        skt: Sequence[float] = (),
    ) -> List[Detection]:
        """Feed raw samples; returns any new (smoothed) detections."""
        new_detections: List[Detection] = []
        for event in self.streaming.push(bvp=bvp, gsr=gsr, skt=skt):
            if self.policy is None:
                detection = self._classify_plain(event)
            else:
                detection = self._classify_resilient(event)
            if detection is not None:
                self.detections.append(detection)
                new_detections.append(detection)
        return new_detections

    # -- plain path (no policy): identical to the pre-resilience runtime ----
    def _classify_plain(self, event: WindowEvent) -> Optional[Detection]:
        if not self._rolling.push(event.features):
            return None
        raw = int(self.model.predict_classes([self._current_map()])[0])
        smoothed = majority_vote(self._recent_raw, raw)
        return Detection(
            window_index=event.index,
            raw_prediction=raw,
            smoothed_prediction=smoothed,
            stream_time=self.streaming.stream_time,
        )

    # -- resilient path: gate, impute, abstain — and always report health --
    def _classify_resilient(self, event: WindowEvent) -> Optional[Detection]:
        ctrl = self._controller
        policy = self.policy
        reasons: List[str] = []
        gated_channels: tuple = ()
        quality_overall = 1.0

        if event.signals is not None and all(
            v.size >= 3 for v in event.signals.values()
        ):
            report = quality_gate(
                event.signals,
                self._rates,
                min_overall=policy.min_quality,
            )
            quality_overall = report.overall
            gated_channels = report.failing
            if report.failing:
                reasons.append(f"low_quality:{','.join(report.failing)}")

        if event.features is None:
            # Extraction itself failed; treat every channel as gated and
            # impute the whole vector from history (or zeros).
            reasons.append(f"extraction_error:{event.error}")
            base = ctrl.running_mean
            if base is None:
                base = np.zeros(len(self.streaming.extractor.feature_names))
            vector, n_imputed = ctrl.sanitize(base, ())
            window_gated = True
        else:
            vector, n_imputed = ctrl.sanitize(event.features, gated_channels)
            window_gated = bool(gated_channels) or (
                n_imputed > 0 and policy.impute == "drop"
            )
            if n_imputed and not gated_channels:
                reasons.append(f"non_finite_features:{n_imputed}")
        if window_gated:
            ctrl.record_window(True)
        else:
            ctrl.record_window(False)
            ctrl.observe_clean(vector)

        if not self._rolling.push(vector):
            return None

        state = HEALTHY
        held = False
        if ctrl.should_abstain():
            reasons.append(
                f"too_many_gated_windows:{ctrl.gated_recent_fraction:.2f}"
            )
            raw, probs = ctrl.abstain(reasons)
            state, held = ABSTAINED, True
        else:
            x, _ = self._prepare_input()
            logits = self.model.model.predict(x)
            probs_row, trustworthy = safe_probabilities(logits)
            probs = probs_row[0]
            if not trustworthy:
                reasons.append("non_finite_model_output")
                raw, probs = ctrl.abstain(reasons)
                state, held = ABSTAINED, True
            else:
                raw = int(np.argmax(probs))
                ctrl.commit(raw, probs)
                if window_gated or n_imputed:
                    state = DEGRADED
        smoothed = majority_vote(self._recent_raw, raw)
        health = HealthStatus(
            state=state,
            gated_channels=tuple(gated_channels),
            imputed_features=int(n_imputed),
            quality_overall=float(quality_overall),
            gated_recent_fraction=float(ctrl.gated_recent_fraction),
            held_last_decision=held,
            reasons=tuple(reasons),
        )
        return Detection(
            window_index=event.index,
            raw_prediction=raw,
            smoothed_prediction=smoothed,
            stream_time=self.streaming.stream_time,
            probabilities=np.asarray(probs, dtype=np.float64),
            health=health,
        )

    # -- shared helpers -----------------------------------------------------
    @property
    def _rates(self) -> Dict[str, float]:
        r = self.streaming.extractor.rates
        return {"bvp": r.bvp, "gsr": r.gsr, "skt": r.skt}

    def _current_map(self) -> FeatureMap:
        return self._rolling.current_map()

    def _prepare_input(self):
        from ..signals.feature_map import maps_to_arrays

        normalized = self.model.normalizer.transform_all([self._current_map()])
        return maps_to_arrays(normalized)

    def reset(self) -> None:
        """Forget stream state (e.g. when the wearable is re-donned)."""
        self._rolling.clear()
        self._recent_raw.clear()
        self.detections.clear()
        if self._controller is not None:
            self._controller.reset()
