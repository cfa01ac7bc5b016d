"""Provenance records and typed artifacts.

An :class:`Artifact` is a value produced by a pipeline stage, bundled
with the :class:`Provenance` record describing *how* it was produced:
the producing stage, a content digest of the value, the digest of the
stage's configuration, the seed and seed-sequence path the stage drew
from, the digests of every upstream artifact it consumed, the runtime
cache traffic, and the stage wall time.  Chained over a whole graph,
these records let any reported number be traced back to config + seeds
+ cache state (``python -m repro.experiments --provenance out.json``).

Digests are content-addressed through the same canonical hashing the
runtime cache uses (:func:`repro.runtime.cache.content_key`), so an
artifact digest matches across processes, executors, and warm/cold
cache states whenever the value's *content* is identical.  Values that
carry volatile fields (wall times, provenance records) expose a
``__repro_content__()`` method returning only their stable content;
:func:`artifact_digest` honors it.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..runtime.cache import content_key

#: Digest value used when an artifact's content cannot be hashed at all.
UNHASHABLE = "unhashable"


def artifact_digest(value: Any) -> str:
    """Stable content digest of an artifact value.

    Resolution order:

    1. ``value.__repro_content__()`` — the object's declared stable
       content, hashed canonically (volatile fields excluded).
    2. Canonical hashing of the raw value (ndarray / scalars /
       containers / dataclasses).
    3. Deterministic pickle (fixed protocol) of the value, SHA-256'd.
    4. :data:`UNHASHABLE` when even pickling fails.
    """
    content = value
    hook = getattr(value, "__repro_content__", None)
    if callable(hook):
        content = hook()
    try:
        return content_key("artifact.v1", content)
    except TypeError:
        pass
    try:
        payload = pickle.dumps(content, protocol=4)
    except Exception:
        return UNHASHABLE
    return hashlib.sha256(b"artifact-pickle.v1" + payload).hexdigest()


@dataclass(frozen=True)
class Provenance:
    """How one artifact came to be.

    Attributes
    ----------
    stage:
        Name of the producing stage.
    digest:
        Content digest of the artifact's value.
    config_digest:
        Digest of the stage's configuration object (``None`` when the
        stage is unconfigured).
    seed:
        Integer seed the stage drew from, if any.
    seed_path:
        Path in the seed-sequence tree (e.g. the stage's topological
        index) identifying which spawned stream the stage used.
    inputs:
        ``(artifact_name, digest)`` pairs for every consumed upstream
        artifact, in declaration order.
    cache_hits / cache_misses:
        Runtime-cache traffic attributed to this stage
        (:attr:`cache_hit_rate` is derived from them, never stored).
    wall_time_s:
        Stage wall time (informational only: never part of any digest).
    executor / workers / units:
        Which runtime executor ran the stage's work units.
    resumed_from:
        Path of the run journal this artifact was rehydrated from on a
        resumed run (``None`` when the stage actually executed).  Like
        wall time, informational only — never part of any digest, so a
        resumed run's digests stay bit-identical to an uninterrupted
        run's.
    """

    stage: str
    digest: str
    config_digest: Optional[str] = None
    seed: Optional[int] = None
    seed_path: Tuple[int, ...] = ()
    inputs: Tuple[Tuple[str, str], ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time_s: float = 0.0
    executor: str = "serial"
    workers: int = 1
    units: int = 0
    resumed_from: Optional[str] = None

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "digest": self.digest,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "seed_path": list(self.seed_path),
            "inputs": [[name, digest] for name, digest in self.inputs],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_time_s": self.wall_time_s,
            "executor": self.executor,
            "workers": self.workers,
            "units": self.units,
            "resumed_from": self.resumed_from,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Provenance":
        return Provenance(
            stage=str(data["stage"]),
            digest=str(data["digest"]),
            config_digest=data.get("config_digest"),
            seed=data.get("seed"),
            seed_path=tuple(int(i) for i in data.get("seed_path", ())),
            inputs=tuple(
                (str(name), str(digest))
                for name, digest in data.get("inputs", ())
            ),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            executor=str(data.get("executor", "serial")),
            workers=int(data.get("workers", 1)),
            units=int(data.get("units", 0)),
            resumed_from=data.get("resumed_from"),
        )


@dataclass
class Artifact:
    """A named pipeline value plus the record of how it was produced."""

    name: str
    value: Any
    provenance: Provenance

    @property
    def digest(self) -> str:
        return self.provenance.digest

    def __repro_content__(self) -> Tuple[str, str]:
        # An artifact's identity for hashing purposes is its name plus
        # its value digest — never the (possibly unpicklable) value or
        # the volatile provenance wall time.
        return (self.name, self.provenance.digest)
