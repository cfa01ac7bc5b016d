"""Deterministic execution layer: serial and process-parallel executors.

The repo's horizontal-scaling primitive.  Every fan-out in the codebase
— LOSO folds, per-cluster pre-training, k-means restarts, per-subject
feature extraction — goes through an :class:`Executor` so that the same
work list runs serially or across processes with **bit-identical**
results.

Determinism contract
--------------------
A work unit never shares a live ``np.random.Generator`` with its
siblings.  Callers derive one independent seed per unit with
:func:`spawn_seeds` (NumPy ``SeedSequence.spawn``, the collision-safe
stream-splitting API) *before* dispatch, so the RNG stream a unit sees
does not depend on which process runs it or in which order units
finish.  ``Executor.map`` always returns results in submission order.

This module is the only place in ``src/repro`` allowed to import
``concurrent.futures`` / ``multiprocessing`` (lint rule RPR008): all
other code expresses parallelism as data (a work list + a worker
function) and lets the executor decide where it runs.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, TypeVar

import numpy as np

from ..errors import ExecutorError

T = TypeVar("T")
R = TypeVar("R")


def resolve_mp_context(mp_context: Optional[str] = None):
    """Resolve a multiprocessing start method into a context, typed-ly.

    ``None`` selects ``fork`` (cheap on Linux: children share the
    already-imported interpreter state).  On platforms without fork the
    caller must choose explicitly — a silent fallback to ``spawn``
    would change worker startup semantics behind the caller's back —
    so we raise an :class:`~repro.errors.ExecutorError` that says
    exactly what to pass instead of crashing deep inside the pool.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if mp_context is not None:
        if mp_context not in methods:
            raise ExecutorError(
                f"multiprocessing start method {mp_context!r} is not "
                f"available on this platform (have: {sorted(methods)})"
            )
        return multiprocessing.get_context(mp_context)
    if "fork" not in methods:
        raise ExecutorError(
            "this platform has no 'fork' start method; construct the "
            "executor with an explicit mp_context='spawn' (worker "
            "functions must be importable module-level callables)"
        )
    return multiprocessing.get_context("fork")


def spawn_seeds(
    seed: Optional[int], n: int
) -> List[np.random.SeedSequence]:
    """Derive ``n`` independent child seed sequences from one root seed.

    Both :class:`SerialExecutor` and :class:`ParallelExecutor` consume
    the same spawned children in the same unit order, which is what
    makes parallel runs bit-identical to serial ones.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} seeds")
    return np.random.SeedSequence(seed).spawn(n)


class Executor:
    """Maps a worker function over independent work units, in order."""

    name = "base"
    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process, in-order execution — the reference semantics."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ParallelExecutor(Executor):
    """``ProcessPoolExecutor``-backed fan-out with ordered results.

    Worker functions must be module-level (picklable) and work units
    must carry their own pre-spawned seeds; under those rules the
    output is bit-identical to :class:`SerialExecutor` on the same
    work list.  Falls back to in-process execution for zero or one
    unit, where a pool would only add overhead.

    ``mp_context`` names the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``); the default requires fork and
    raises a typed :class:`~repro.errors.ExecutorError` on platforms
    that lack it (see :func:`resolve_mp_context`).
    """

    name = "parallel"

    def __init__(
        self, workers: Optional[int] = None, mp_context: Optional[str] = None
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.mp_context = mp_context

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor

        context = resolve_mp_context(self.mp_context)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(items)), mp_context=context
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [f.result() for f in futures]


def make_executor(
    workers: Optional[int] = None, mp_context: Optional[str] = None
) -> Executor:
    """``workers`` ∈ {None, 0, 1} → serial; otherwise a process pool."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers, mp_context=mp_context)
