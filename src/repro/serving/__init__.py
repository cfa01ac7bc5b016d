"""Fleet-scale online inference: warm pools, micro-batching, admission.

The paper deploys one checkpoint per cluster and personalizes it per
user; this package is the serving side of that story at fleet scale —
thousands of concurrent edge users sharing a handful of warm cluster
checkpoints:

* :mod:`registry` — warm LRU-bounded model pool backed by the
  content-addressed serving cache; models load once per group and
  rehydrate transparently after eviction.
* :mod:`sessions` — per-user session state (smoothing,
  personalization status) sharded by a deterministic user hash.
* :mod:`batching` — the micro-batcher: coalesces concurrent
  same-group requests into single ``predict_many`` calls on canonical
  fixed-row slabs, so batched results are **bit-identical** to
  sequential per-user predicts (lint rule RPR020 keeps it the only
  inference entry point of this package).
* :mod:`admission` — load shedding and hard rejection: overload below
  the hard limit degrades to the population-average fallback (recorded
  in the decision's HealthStatus), past it raises a typed
  :class:`~repro.errors.AdmissionError`.
* :mod:`service` — :class:`~repro.serving.service.InferenceService`,
  the facade wiring all of the above to a fitted
  :class:`~repro.core.pipeline.CLEARSystem`.
* :mod:`loadgen` — deterministic synthetic-fleet load generation on
  the injectable clock, for benchmarks and golden-fingerprint tests.
"""

from .admission import (
    ACCEPT,
    REJECT,
    SHED,
    AdmissionController,
    AdmissionPolicy,
)
from .batching import BatchPolicy, MicroBatcher, PendingRequest
from .registry import ClusterModelRegistry, RegistryStats, WarmModelPool
from .service import InferenceService, ServingResult, results_fingerprint
from .sessions import ShardedSessions, UserSession
from .loadgen import LoadReport, LoadScenario, run_load, scenario_events

__all__ = [
    "ACCEPT",
    "SHED",
    "REJECT",
    "AdmissionPolicy",
    "AdmissionController",
    "BatchPolicy",
    "MicroBatcher",
    "PendingRequest",
    "ClusterModelRegistry",
    "RegistryStats",
    "WarmModelPool",
    "InferenceService",
    "ServingResult",
    "results_fingerprint",
    "ShardedSessions",
    "UserSession",
    "LoadScenario",
    "LoadReport",
    "run_load",
    "scenario_events",
]
