"""Validation harness reproducing the paper's Table I protocols.

Protocols (paper §IV-B):

* **General model** — x random volunteers (x = average cluster size),
  one population model, intra-group LOSO.  No clustering.
* **CL validation** — GC on all N users, per-cluster intra-cluster
  LOSO.  **RT CL** tests each cluster's model on volunteers from the
  *other* clusters (robustness test).
* **CLEAR validation** — full-pipeline LOSO: volunteer V_x is held out
  of clustering and pre-training; CA assigns V_x from 10 % unlabeled
  data; the assigned cluster's checkpoint is evaluated on V_x's
  remaining data (**CLEAR w/o FT**), other clusters' checkpoints give
  **RT CLEAR**, and fine-tuning with 20 % labels gives **CLEAR w FT**.

Each protocol driver builds its work units — that part is protocol
semantics: which maps train, which test, which RNG stream each fold
consumes — and hands them to the one shared
:func:`~repro.orchestration.folds.run_fold_plan` stage, which injects
the :mod:`repro.runtime` executor/cache and emits the
:class:`~repro.orchestration.provenance.Provenance` record (executor
shape, cache counters, wall time) surfaced on every result.  Because
units carry pre-spawned seeds, a parallel run is bit-identical to the
default serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..datasets.loaders import split_maps_by_fraction
from ..datasets.wemac import WEMACDataset
from ..orchestration.context import normalize_cache_dir
from ..orchestration.folds import run_fold_plan
from ..orchestration.grouping import (
    group_maps_by_subject,
    member_maps,
    outside_maps,
)
from ..orchestration.provenance import Provenance
from ..runtime.executor import Executor, spawn_seeds
from ..scenarios.adapter import population_records
from ..scenarios.base import Scenario
from .config import CLEARConfig

#: Any population the Table-I drivers accept: the eager WEMAC corpus, a
#: streamed Scenario (materialized through the sanctioned adapter), or
#: any object exposing ``.subjects`` / ``.num_subjects``.
PopulationSource = Union[WEMACDataset, Scenario, object]
from .pipeline import CLEAR
from .results import FoldMetrics, MetricSummary
from .trainer import fine_tune, train_on_maps_cached


# -- general model --------------------------------------------------------

def _general_fold_unit(args: Tuple) -> Tuple[FoldMetrics, int, int]:
    """One intra-group LOSO fold of the no-clustering baseline."""
    fold_id, train_maps, test_maps, config, cache_dir = args
    model, hits, misses = train_on_maps_cached(
        train_maps,
        model_config=config.model,
        training=config.training,
        seed=config.seed,
        cache_dir=cache_dir,
    )
    metrics = model.evaluate(test_maps)
    return (
        FoldMetrics(metrics["accuracy"], metrics["f1"], fold_id=fold_id),
        hits,
        misses,
    )


def evaluate_general_model(
    dataset: PopulationSource,
    config: Optional[CLEARConfig] = None,
    group_size: Optional[int] = None,
    max_folds: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> MetricSummary:
    """The no-clustering baseline: one model for a random group.

    ``group_size`` defaults to the average cluster size N / K, which is
    how the paper chose x = 11 for fair comparison.
    """
    config = config or CLEARConfig()
    cache_dir = normalize_cache_dir(cache_dir)
    dataset = population_records(dataset, executor=executor, cache_dir=cache_dir)
    rng = np.random.default_rng(config.seed)
    if group_size is None:
        group_size = max(2, dataset.num_subjects // config.num_clusters)
    if group_size > dataset.num_subjects:
        raise ValueError(
            f"group_size {group_size} exceeds population {dataset.num_subjects}"
        )
    idx = rng.choice(dataset.num_subjects, size=group_size, replace=False)
    group = [dataset.subjects[i] for i in idx]

    folds = group if max_folds is None else group[:max_folds]
    units = []
    for held_out in folds:
        train_maps = [
            m for s in group if s.subject_id != held_out.subject_id for m in s.maps
        ]
        units.append(
            (held_out.subject_id, train_maps, list(held_out.maps), config, cache_dir)
        )

    plan = run_fold_plan(
        "general_model_folds",
        units,
        _general_fold_unit,
        cache_counts=lambda result: (result[1], result[2]),
        executor=executor,
        cache_dir=cache_dir,
        config=config,
        seed=config.seed,
    )
    summary = MetricSummary("General Model", provenance=plan.provenance)
    for fold, _, _ in plan.results:
        summary.add(fold)
    return summary


# -- CL validation --------------------------------------------------------

@dataclass
class CLValidationResult:
    """Outcome of CL validation: in-cluster LOSO plus the robustness test."""

    cl: MetricSummary
    rt_cl: MetricSummary
    cluster_sizes: List[int] = field(default_factory=list)
    provenance: Optional[Provenance] = None

    def __repro_content__(self) -> Tuple:
        return ("CLValidationResult", self.cl, self.rt_cl, tuple(self.cluster_sizes))


def _cl_fold_unit(
    args: Tuple,
) -> Tuple[FoldMetrics, Optional[FoldMetrics], int, int]:
    """One intra-cluster LOSO fold plus its cross-cluster RT evaluation."""
    held_out, train_maps, test_maps, rt_maps, config, cache_dir = args
    model, hits, misses = train_on_maps_cached(
        train_maps,
        model_config=config.model,
        training=config.training,
        seed=config.seed,
        cache_dir=cache_dir,
    )
    metrics = model.evaluate(test_maps)
    cl_fold = FoldMetrics(metrics["accuracy"], metrics["f1"], fold_id=held_out)
    rt_fold = None
    if rt_maps:
        rt = model.evaluate(rt_maps)
        rt_fold = FoldMetrics(rt["accuracy"], rt["f1"], fold_id=held_out)
    return cl_fold, rt_fold, hits, misses


def cl_validation(
    dataset: PopulationSource,
    config: Optional[CLEARConfig] = None,
    max_folds: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> CLValidationResult:
    """Cluster the full population, then intra-cluster LOSO per cluster.

    For the robustness test (RT CL), each fold's model is also
    evaluated on all volunteers *outside* its cluster — showing that
    cluster models do not transfer across clusters, i.e. GC found real
    structure.
    """
    config = config or CLEARConfig()
    cache_dir = normalize_cache_dir(cache_dir)
    dataset = population_records(dataset, executor=executor, cache_dir=cache_dir)
    maps_by = group_maps_by_subject(dataset)

    from ..clustering.global_clustering import GlobalClustering

    gc = GlobalClustering(
        k=config.num_clusters,
        n_refinements=config.gc_refinements,
        subsample_fraction=config.gc_subsample_fraction,
        seed=config.seed,
    ).fit(maps_by)

    units = []
    for cluster in range(config.num_clusters):
        member_ids = gc.members(cluster)
        rt_maps = outside_maps(maps_by, member_ids)
        for held_out in member_ids:
            if max_folds is not None and len(units) >= max_folds:
                break
            train_maps = member_maps(maps_by, member_ids, exclude=held_out)
            if len(train_maps) < 2:
                continue  # singleton cluster: no intra-cluster LOSO possible
            units.append(
                (held_out, train_maps, maps_by[held_out], rt_maps, config, cache_dir)
            )

    plan = run_fold_plan(
        "cl_validation_folds",
        units,
        _cl_fold_unit,
        cache_counts=lambda result: (result[2], result[3]),
        executor=executor,
        cache_dir=cache_dir,
        config=config,
        seed=config.seed,
    )
    cl_summary = MetricSummary("CL validation", provenance=plan.provenance)
    rt_summary = MetricSummary("RT CL", provenance=plan.provenance)
    for cl_fold, rt_fold, _, _ in plan.results:
        cl_summary.add(cl_fold)
        if rt_fold is not None:
            rt_summary.add(rt_fold)
    return CLValidationResult(
        cl=cl_summary,
        rt_cl=rt_summary,
        cluster_sizes=gc.cluster_sizes(),
        provenance=plan.provenance,
    )


# -- CLEAR validation -----------------------------------------------------

@dataclass
class CLEARValidationResult:
    """Outcome of the full-pipeline CLEAR validation."""

    without_ft: MetricSummary
    rt_clear: MetricSummary
    with_ft: Optional[MetricSummary]
    assignments: Dict[int, int] = field(default_factory=dict)
    assignment_matches_gc: Dict[int, bool] = field(default_factory=dict)
    provenance: Optional[Provenance] = None

    def __repro_content__(self) -> Tuple:
        return (
            "CLEARValidationResult",
            self.without_ft,
            self.rt_clear,
            self.with_ft,
            tuple(sorted(self.assignments.items())),
            tuple(sorted(self.assignment_matches_gc.items())),
        )


def _clear_fold_unit(args: Tuple) -> Dict[str, object]:
    """One full-pipeline CLEAR LOSO fold (steps 1-4 for volunteer V_x)."""
    v_x, record_maps, maps_by, config, seed, with_ft, cache_dir = args
    rng = np.random.default_rng(seed)
    system = CLEAR(config, cache_dir=cache_dir).fit(maps_by)

    # Step 2: unsupervised cold-start assignment from 10 % of data.
    ca_maps, held_back = split_maps_by_fraction(
        record_maps, config.ca_data_fraction, rng, stratified=False
    )
    assignment = system.assign_new_user(ca_maps)
    cluster = assignment.cluster
    # Diagnostic: does CA match where GC would place this user with
    # full data?  (Not used by the pipeline; reported for analysis.)
    from ..signals.feature_map import subject_signature

    match = cluster == system.gc.assign_signature(subject_signature(record_maps))

    # Step 3: evaluate without fine-tuning + robustness test.
    metrics = system.model_for(cluster).evaluate(held_back)
    wo_fold = FoldMetrics(metrics["accuracy"], metrics["f1"], fold_id=v_x)
    rt_fold = None
    other_metrics = []
    for other in range(config.num_clusters):
        if other == cluster:
            continue
        other_metrics.append(system.model_for(other).evaluate(held_back))
    if other_metrics:
        rt_fold = FoldMetrics(
            float(np.mean([m["accuracy"] for m in other_metrics])),
            float(np.mean([m["f1"] for m in other_metrics])),
            fold_id=v_x,
        )

    # Step 4: fine-tune with 20 % labels, test on the rest.
    ft_fold = None
    if with_ft:
        ft_fraction = config.ft_label_fraction / (1.0 - config.ca_data_fraction)
        ft_maps, test_maps = split_maps_by_fraction(
            held_back, ft_fraction, rng, stratified=True
        )
        tuned = fine_tune(
            system.model_for(cluster),
            ft_maps,
            config.fine_tuning,
            seed=config.seed,
        )
        ft_metrics = tuned.evaluate(test_maps)
        ft_fold = FoldMetrics(
            ft_metrics["accuracy"], ft_metrics["f1"], fold_id=v_x
        )

    training = next(p for p in system.provenance if p.stage == "cluster_models")
    return {
        "v_x": v_x,
        "cluster": cluster,
        "match": match,
        "wo": wo_fold,
        "rt": rt_fold,
        "ft": ft_fold,
        "hits": training.cache_hits,
        "misses": training.cache_misses,
    }


def clear_validation(
    dataset: PopulationSource,
    config: Optional[CLEARConfig] = None,
    with_fine_tuning: bool = True,
    max_folds: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> CLEARValidationResult:
    """Full CLEAR LOSO: cold-start assignment + optional fine-tuning.

    Per fold (one per volunteer V_x):

    1. Fit the CLEAR cloud stage on the other N-1 volunteers.
    2. CA assigns V_x from ``ca_data_fraction`` (10 %) of their maps,
       *unlabeled*.
    3. The assigned checkpoint is evaluated on the held-back maps
       (CLEAR w/o FT); every other cluster's checkpoint on the same
       maps gives RT CLEAR.
    4. ``ft_label_fraction`` (20 %) of maps fine-tune the checkpoint;
       evaluation on the remainder gives CLEAR w FT.

    Each fold draws from its own spawned RNG (fold *i* always sees the
    same stream, whatever executor runs it and whatever ``max_folds``
    prefix is selected), so results are bit-identical serial vs
    parallel.  With ``cache_dir`` the per-fold cluster pre-training
    goes through the checkpoint cache, which makes warm re-validation
    orders of magnitude faster.
    """
    config = config or CLEARConfig()
    cache_dir = normalize_cache_dir(cache_dir)
    dataset = population_records(dataset, executor=executor, cache_dir=cache_dir)

    subjects = dataset.subjects if max_folds is None else dataset.subjects[:max_folds]
    seeds = spawn_seeds(config.seed, len(subjects))
    units = []
    for record, seed in zip(subjects, seeds):
        units.append(
            (
                record.subject_id,
                list(record.maps),
                group_maps_by_subject(dataset, exclude=record.subject_id),
                config,
                seed,
                with_fine_tuning,
                cache_dir,
            )
        )

    plan = run_fold_plan(
        "clear_validation_folds",
        units,
        _clear_fold_unit,
        cache_counts=lambda fold: (fold["hits"], fold["misses"]),
        executor=executor,
        cache_dir=cache_dir,
        config=config,
        seed=config.seed,
    )
    wo_ft = MetricSummary("CLEAR w/o FT", provenance=plan.provenance)
    rt = MetricSummary("RT CLEAR", provenance=plan.provenance)
    w_ft = (
        MetricSummary("CLEAR w FT", provenance=plan.provenance)
        if with_fine_tuning
        else None
    )
    assignments: Dict[int, int] = {}
    matches: Dict[int, bool] = {}
    for fold in plan.results:
        assignments[fold["v_x"]] = fold["cluster"]
        matches[fold["v_x"]] = fold["match"]
        wo_ft.add(fold["wo"])
        if fold["rt"] is not None:
            rt.add(fold["rt"])
        if w_ft is not None and fold["ft"] is not None:
            w_ft.add(fold["ft"])

    return CLEARValidationResult(
        without_ft=wo_ft,
        rt_clear=rt,
        with_ft=w_ft,
        assignments=assignments,
        assignment_matches_gc=matches,
        provenance=plan.provenance,
    )
