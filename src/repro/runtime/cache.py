"""Content-addressed on-disk cache for feature maps and fold checkpoints.

Entries are keyed by SHA-256 over the *content* that produced them —
raw signal bytes plus the extraction configuration for feature maps,
training-map bytes plus model/training config for checkpoints — so a
warm cache is hit if and only if the inputs are byte-identical and the
config unchanged.  Changing any knob (window length, sampling rate,
epochs, seed) changes the key and transparently invalidates the entry.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
forked by the :class:`~repro.runtime.executor.ParallelExecutor` can
share one cache directory without torn entries; whichever process
finishes first wins and the others' identical bytes replace it
harmlessly.

Corrupt or unreadable entries raise the typed
:class:`~repro.errors.CacheError` naming the offending file — never a
bare ``zipfile.BadZipFile`` or ``pickle.UnpicklingError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..errors import CacheError


def _update_hash(h: "hashlib._Hash", obj: Any) -> None:
    """Feed one python/numpy object into the hash, canonically.

    Every value is prefixed with a type tag so e.g. the int ``1`` and
    the string ``"1"`` cannot collide, and containers hash their
    structure as well as their leaves.

    Objects may define ``__repro_content__()`` returning their *stable*
    content (volatile fields such as wall times excluded); the hook
    takes precedence over structural traversal so provenance digests
    stay invariant across warm/cold cache and serial/parallel runs.
    """
    hook = getattr(obj, "__repro_content__", None)
    if callable(hook) and not isinstance(obj, type):
        h.update(b"rc:" + type(obj).__name__.encode())
        _update_hash(h, hook())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"nd:")
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, bytes):
        h.update(b"by:")
        h.update(obj)
    elif isinstance(obj, str):
        h.update(b"st:")
        h.update(obj.encode("utf-8"))
    elif isinstance(obj, bool):
        h.update(b"bo:" + (b"1" if obj else b"0"))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"in:" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"fl:" + np.float64(obj).tobytes())
    elif obj is None:
        h.update(b"no:")
    elif isinstance(obj, (list, tuple)):
        h.update(b"sq:" + repr(len(obj)).encode())
        for item in obj:
            _update_hash(h, item)
    elif isinstance(obj, dict):
        h.update(b"ma:" + repr(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _update_hash(h, key)
            _update_hash(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"dc:" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _update_hash(h, f.name)
            _update_hash(h, getattr(obj, f.name))
    else:
        raise TypeError(
            f"cannot build a content-addressed key from {type(obj).__name__}"
        )


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest over the canonical encoding of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        _update_hash(h, part)
    return h.hexdigest()


class ContentCache:
    """One cache directory holding ``<sha256>.<kind>`` entries.

    ``namespace`` partitions entry families (``feature_maps``,
    ``checkpoints``) into subdirectories so a selective wipe is a
    single ``rm -r``.
    """

    def __init__(
        self, root: Union[str, Path], namespace: str = ""
    ) -> None:
        self.root = Path(root) / namespace if namespace else Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot create cache directory {self.root}: {exc}"
            ) from exc

    # -- key construction --------------------------------------------------
    def key(self, *parts: Any) -> str:
        return content_key(*parts)

    def _path(self, key: str, kind: str) -> Path:
        return self.root / f"{key}.{kind}"

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        try:
            fd, tmp = tempfile.mkstemp(
                dir=str(self.root), prefix=".tmp-", suffix=path.suffix
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc

    # -- array entries (feature maps) --------------------------------------
    def store_arrays(self, key: str, **arrays: np.ndarray) -> Path:
        """Persist named arrays under ``key`` as one ``.npz`` entry."""
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        path = self._path(key, "npz")
        self._atomic_write(path, buffer.getvalue())
        return path

    def load_arrays(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Arrays stored under ``key``, or None on a miss."""
        path = self._path(key, "npz")
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                out = {name: data[name] for name in data.files}
        except Exception as exc:
            raise CacheError(
                f"corrupt cache entry {path} (delete it to re-extract): {exc}"
            ) from exc
        return out

    # -- object entries (trained-fold checkpoints) -------------------------
    def store_object(self, key: str, obj: Any) -> Path:
        """Persist an arbitrary picklable object (e.g. a TrainedModel)."""
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CacheError(
                f"cannot serialize object for cache key {key[:12]}…: {exc}"
            ) from exc
        path = self._path(key, "pkl")
        self._atomic_write(path, payload)
        return path

    def load_object(self, key: str) -> Optional[Any]:
        """Object stored under ``key``, or None on a miss."""
        path = self._path(key, "pkl")
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except Exception as exc:
            raise CacheError(
                f"corrupt cache entry {path} (delete it to re-train): {exc}"
            ) from exc
        return obj

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            1
            for p in self.root.iterdir()
            if p.is_file() and not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.iterdir()):
            if path.is_file():
                path.unlink()
                removed += 1
        return removed


def feature_map_cache(root: Union[str, Path]) -> ContentCache:
    """The feature-map namespace of a cache directory."""
    return ContentCache(root, namespace="feature_maps")


def checkpoint_cache(root: Union[str, Path]) -> ContentCache:
    """The trained-fold-checkpoint namespace of a cache directory."""
    return ContentCache(root, namespace="checkpoints")


def serving_model_cache(root: Union[str, Path]) -> ContentCache:
    """The serving warm-pool namespace of a cache directory.

    Holds the pickled :class:`~repro.core.trainer.TrainedModel` entries
    the serving registry evicts from its LRU warm pool and rehydrates
    on demand; a separate namespace so fleet-serving churn never mixes
    with (or wipes) the training-pipeline checkpoint entries.
    """
    return ContentCache(root, namespace="serving_models")
