"""The shared fold-plan stage behind every validation protocol.

The three Table-I drivers (general / CL / CLEAR) used to each wire the
executor default, cache-dir normalization, wall-clock timing, unit
dispatch, and cache-counter merging by hand.  :func:`run_fold_plan` is
the single implementation: the mode-specific driver builds its work
units and a per-result merge callback, and the plan runs them as one
provenance-carrying stage on a :class:`~repro.orchestration.graph.PipelineGraph`.

Unit construction and RNG derivation stay in the drivers — they are
protocol semantics — so fold results remain bit-identical to the
pre-orchestration code for every executor and cache state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..runtime.executor import Executor
from .graph import PipelineGraph
from .provenance import Provenance
from .stage import Stage, StageContext


@dataclass
class FoldPlanResult:
    """Outcome of one fold plan: raw fold results plus how they ran."""

    results: List[Any]
    provenance: Provenance


def run_fold_plan(
    name: str,
    units: Sequence[Any],
    fold_fn: Callable[[Any], Any],
    cache_counts: Callable[[Any], Tuple[int, int]],
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, "object"]] = None,
    config: Any = None,
    seed: Optional[int] = None,
) -> FoldPlanResult:
    """Dispatch ``fold_fn`` over ``units`` as one pipeline stage.

    Parameters
    ----------
    name:
        Stage name, surfaced in provenance and logs.
    units:
        Pre-built, picklable work units.  Each already carries its own
        seed / RNG material, so results do not depend on the executor.
    fold_fn:
        The per-unit worker (a module-level function, fork-safe).
    cache_counts:
        Extracts ``(hits, misses)`` from one unit result so cache
        traffic can be attributed to the stage.
    executor / cache_dir / config / seed:
        Runtime wiring and provenance inputs, resolved once here.

    Returns results in unit order (``Executor.map`` preserves order)
    and the stage's :class:`~repro.orchestration.provenance.Provenance`,
    the one record of executor shape, unit count, cache traffic and
    wall time.
    """
    units = list(units)

    def _stage(ctx: StageContext) -> List[Any]:
        ctx.set_units(len(units))
        results = []
        for result in ctx.executor.map(fold_fn, units):
            hits, misses = cache_counts(result)
            ctx.record_cache(hits, misses)
            results.append(result)
        return results

    graph = PipelineGraph(
        name, [Stage(name=name, fn=_stage, config=config, seed=seed)]
    )
    run = graph.run(executor=executor, cache_dir=cache_dir, seed=seed)
    return FoldPlanResult(
        results=run.value(name), provenance=run.provenance(name)
    )
