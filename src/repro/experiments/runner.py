"""Experiment runners: one function per paper table / figure."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..clustering import GlobalClustering
from ..core import (
    CLEAR,
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    PAPER_TABLE1_REFERENCES,
    PAPER_TABLE1_RESULTS,
    architecture_summary,
    build_cnn_lstm,
    cl_validation,
    clear_validation,
    evaluate_general_model,
    fine_tune,
    render_table,
)
from ..core.trainer import train_on_maps
from ..datasets import SyntheticWEMAC, WEMACConfig, split_maps_by_fraction
from ..edge import ALL_DEVICES, EdgeDeployment, profile_model
from ..orchestration import (
    PipelineGraph,
    Provenance,
    Stage,
    executor_for_workers,
    group_maps_by_subject,
    member_maps,
)
from ..runtime import Executor
from ..signals import (
    BVP_FEATURE_NAMES,
    GSR_FEATURE_NAMES,
    NUM_FEATURES,
    SKT_FEATURE_NAMES,
)
from .report import ExperimentReport, ReportRegistry


@dataclass(frozen=True)
class ExperimentScale:
    """How big the corpus / fold counts are for a run.

    ``bench()`` (the default) finishes in minutes on a laptop;
    ``paper()`` uses the full 44-volunteer corpus and full LOSO and
    takes hours of pure-numpy compute.

    ``workers`` > 1 fans LOSO folds / cluster pre-training / feature
    extraction across processes (bit-identical results); ``cache_dir``
    points the content-addressed runtime cache at a directory so warm
    re-runs skip extraction and training.

    ``journal_dir`` makes every experiment's pipeline graph crash-safe:
    each graph records its completed stages into a
    :class:`~repro.orchestration.journal.RunJournal` under that
    directory (one journal per graph), and a re-run with the same
    directory — including after a SIGKILL — resumes from the journaled
    stages with bit-identical digests.
    """

    dataset: WEMACConfig
    clear: CLEARConfig
    max_folds: Optional[int]
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    journal_dir: Optional[str] = None

    def executor(self) -> Executor:
        # Built through the orchestration context — the single injection
        # point for runtime machinery (RPR009).
        return executor_for_workers(self.workers)

    def journal_path(self, graph_name: str) -> Optional[str]:
        """Journal file for one experiment graph, or None when disabled."""
        if self.journal_dir is None:
            return None
        return str(Path(self.journal_dir) / f"{graph_name}.json")

    @staticmethod
    def tiny(seed: int = 0) -> "ExperimentScale":
        """Seconds-scale config for unit / chaos tests."""
        return ExperimentScale(
            dataset=WEMACConfig.tiny(seed=seed),
            clear=CLEARConfig(
                num_clusters=4,
                subclusters_per_cluster=2,
                gc_refinements=2,
                model=ModelConfig(
                    conv_filters=(4, 8), lstm_units=8, dropout=0.0
                ),
                training=TrainingConfig(
                    epochs=6, batch_size=8, early_stopping_patience=2
                ),
                fine_tuning=FineTuneConfig(epochs=3),
                seed=0,
            ),
            max_folds=2,
        )

    @staticmethod
    def bench(seed: int = 2) -> "ExperimentScale":
        return ExperimentScale(
            dataset=WEMACConfig(
                num_subjects=20,
                trials_per_subject=10,
                windows_per_map=6,
                window_seconds=8.0,
                fs_bvp=32.0,
                seed=seed,
            ),
            clear=CLEARConfig.fast(seed=0),
            max_folds=5,
        )

    @staticmethod
    def paper(seed: int = 0) -> "ExperimentScale":
        return ExperimentScale(
            dataset=WEMACConfig(seed=seed),
            clear=CLEARConfig.paper(seed=0),
            max_folds=None,
        )


def _generate(scale: ExperimentScale):
    return SyntheticWEMAC(scale.dataset).generate(
        executor=scale.executor(), cache_dir=scale.cache_dir
    )


def _run_record(prov: Provenance) -> Dict[str, object]:
    """How one fold plan ran: an entry of Table I's ``runtime`` report."""
    return {
        "executor": prov.executor,
        "workers": prov.workers,
        "units": prov.units,
        "wall_time_s": prov.wall_time_s,
        "cache_hits": prov.cache_hits,
        "cache_misses": prov.cache_misses,
        "cache_hit_rate": prov.cache_hit_rate,
    }


def run_table1(
    scale: Optional[ExperimentScale] = None, dataset=None
) -> ExperimentReport:
    """Table I: all six measured validation rows + orderings.

    The three validation protocols are declared as stages of one
    :class:`~repro.orchestration.graph.PipelineGraph` over the shared
    ``corpus`` artifact: the executor / cache are injected once at the
    stage boundary and every row's lineage lands in the report's
    ``provenance``.
    """
    scale = scale or ExperimentScale.bench()
    dataset = dataset if dataset is not None else _generate(scale)

    def _general_stage(ctx, corpus):
        return evaluate_general_model(
            corpus,
            scale.clear,
            group_size=max(2, corpus.num_subjects // scale.clear.num_clusters),
            max_folds=scale.max_folds,
            executor=ctx.executor,
            cache_dir=ctx.cache_dir,
        )

    def _cl_stage(ctx, corpus):
        return cl_validation(
            corpus,
            scale.clear,
            max_folds=None if scale.max_folds is None else 2 * scale.max_folds,
            executor=ctx.executor,
            cache_dir=ctx.cache_dir,
        )

    def _clear_stage(ctx, corpus):
        return clear_validation(
            corpus,
            scale.clear,
            max_folds=scale.max_folds,
            executor=ctx.executor,
            cache_dir=ctx.cache_dir,
        )

    graph = PipelineGraph(
        "table1",
        [
            Stage(
                "general",
                _general_stage,
                requires=("corpus",),
                config=scale.clear,
                seed=scale.clear.seed,
            ),
            Stage(
                "cl",
                _cl_stage,
                requires=("corpus",),
                config=scale.clear,
                seed=scale.clear.seed,
            ),
            Stage(
                "clear",
                _clear_stage,
                requires=("corpus",),
                config=scale.clear,
                seed=scale.clear.seed,
            ),
        ],
    )
    run = graph.run(
        initial={"corpus": dataset},
        executor=scale.executor(),
        cache_dir=scale.cache_dir,
        seed=scale.clear.seed,
        journal=scale.journal_path("table1"),
    )
    general = run.value("general")
    cl = run.value("cl")
    clear = run.value("clear")

    rows = [general, cl.rt_cl, cl.cl, clear.rt_clear, clear.without_ft, clear.with_ft]
    text = render_table(
        rows,
        title="Table I -- fear / non-fear (synthetic WEMAC)",
        paper_rows={**PAPER_TABLE1_RESULTS, **PAPER_TABLE1_REFERENCES},
    )
    checks = {
        "cl_beats_general": cl.cl.accuracy_mean > general.accuracy_mean,
        "rt_cl_collapses": cl.rt_cl.accuracy_mean < cl.cl.accuracy_mean,
        "wo_ft_beats_rt": clear.without_ft.accuracy_mean
        > clear.rt_clear.accuracy_mean,
        "ft_improves": clear.with_ft.accuracy_mean > clear.without_ft.accuracy_mean,
    }
    measured = {s.name: s.as_row() for s in rows}
    measured["cluster_sizes"] = cl.cluster_sizes
    measured["runtime"] = {
        "general": _run_record(general.provenance),
        "cl": _run_record(cl.provenance),
        "clear": _run_record(clear.provenance),
    }
    return ExperimentReport(
        experiment_id="table1",
        title="CLEAR validation vs references (paper Table I)",
        text=text,
        measured=measured,
        paper={**PAPER_TABLE1_RESULTS, **PAPER_TABLE1_REFERENCES},
        checks=checks,
        provenance=run.lineage(),
    )


def _edge_folds(scale: ExperimentScale, dataset):
    """LOSO folds prepared for the Table II experiments."""
    rng = np.random.default_rng(scale.clear.seed)
    folds = []
    subjects = (
        dataset.subjects
        if scale.max_folds is None
        else dataset.subjects[: scale.max_folds]
    )
    for record in subjects:
        population = group_maps_by_subject(dataset, exclude=record.subject_id)
        system = CLEAR(scale.clear, cache_dir=scale.cache_dir).fit(population)
        ca_maps, held_back = split_maps_by_fraction(
            record.maps, scale.clear.ca_data_fraction, rng, stratified=False
        )
        assignment = system.assign_new_user(ca_maps)
        checkpoint = system.model_for(assignment.cluster)
        ft_fraction = scale.clear.ft_label_fraction / (
            1.0 - scale.clear.ca_data_fraction
        )
        ft_maps, test_maps = split_maps_by_fraction(
            held_back, ft_fraction, rng, stratified=True
        )
        tuned = fine_tune(
            checkpoint, ft_maps, scale.clear.fine_tuning, seed=scale.clear.seed
        )
        calibration = member_maps(
            population, system.gc.members(assignment.cluster)
        )[:12]
        folds.append(
            {
                "checkpoint": checkpoint,
                "tuned": tuned,
                "calibration": calibration,
                "test_maps": test_maps,
                "ft_examples": len(ft_maps),
            }
        )
    return folds


def _platform_accuracy(folds, use_tuned: bool) -> Dict[str, Dict[str, float]]:
    results = {}
    for key, device in ALL_DEVICES.items():
        accs, f1s = [], []
        for fold in folds:
            model = fold["tuned"] if use_tuned else fold["checkpoint"]
            deployment = EdgeDeployment(
                model, device, calibration_maps=fold["calibration"]
            )
            m = deployment.evaluate(fold["test_maps"])
            accs.append(m["accuracy"] * 100)
            f1s.append(m["f1"] * 100)
        results[key] = {
            "name": device.name,
            "accuracy": float(np.mean(accs)),
            "std_acc": float(np.std(accs)),
            "f1": float(np.mean(f1s)),
            "std_f1": float(np.std(f1s)),
        }
    return results


def run_table2_upper(
    scale: Optional[ExperimentScale] = None, dataset=None, folds=None
) -> ExperimentReport:
    """Table II upper: platform accuracy without fine-tuning."""
    scale = scale or ExperimentScale.bench()
    dataset = dataset if dataset is not None else _generate(scale)
    folds = folds if folds is not None else _edge_folds(scale, dataset)

    graph = PipelineGraph(
        "table2_upper",
        [
            Stage(
                "platform_accuracy",
                lambda ctx, edge_folds: _platform_accuracy(
                    edge_folds, use_tuned=False
                ),
                requires=("edge_folds",),
                config=scale.clear,
                seed=scale.clear.seed,
            )
        ],
    )
    run = graph.run(
        initial={"edge_folds": folds},
        executor=scale.executor(),
        cache_dir=scale.cache_dir,
        seed=scale.clear.seed,
        journal=scale.journal_path("table2_upper"),
    )
    results = run.value("platform_accuracy")
    paper = {
        "gpu": {"accuracy": 80.63, "f1": 79.97},
        "coral_tpu": {"accuracy": 74.17, "f1": 73.57},
        "pi_ncs2": {"accuracy": 79.03, "f1": 78.48},
    }
    lines = ["Table II (upper) -- platform accuracy, CLEAR w/o FT"]
    for key in ("gpu", "coral_tpu", "pi_ncs2"):
        r = results[key]
        p = paper[key]
        lines.append(
            f"  {r['name']:<16} acc {r['accuracy']:6.2f} +- {r['std_acc']:5.2f} "
            f"f1 {r['f1']:6.2f}   (paper {p['accuracy']:.2f} / {p['f1']:.2f})"
        )
    checks = {
        "int8_not_better": results["coral_tpu"]["accuracy"]
        <= results["gpu"]["accuracy"] + 5.0,
        "fp16_tracks_gpu": abs(
            results["pi_ncs2"]["accuracy"] - results["gpu"]["accuracy"]
        )
        < 10.0,
    }
    return ExperimentReport(
        experiment_id="table2_upper",
        title="Edge platform accuracy before FT (paper Table II upper)",
        text="\n".join(lines),
        measured=results,
        paper=paper,
        checks=checks,
        provenance=run.lineage(),
    )


def run_table2_lower(
    scale: Optional[ExperimentScale] = None, dataset=None, folds=None
) -> ExperimentReport:
    """Table II lower: post-FT accuracy + MTC/MPC cost rows."""
    scale = scale or ExperimentScale.bench()
    dataset = dataset if dataset is not None else _generate(scale)
    folds = folds if folds is not None else _edge_folds(scale, dataset)

    def _cost_stage(ctx, edge_folds):
        # Cost model rows (identical across folds up to ft_examples).
        costs = {}
        for key, device in ALL_DEVICES.items():
            fold = edge_folds[0]
            deployment = EdgeDeployment(
                fold["tuned"], device, calibration_maps=fold["calibration"]
            )
            report = deployment.cost_report(
                fold["test_maps"],
                ft_examples=fold["ft_examples"],
                ft_epochs=scale.clear.fine_tuning.epochs,
            )
            costs[key] = {
                "test_ms": report.test_time_s * 1e3,
                "retrain_s": report.retrain_time_s,
                "p_idle": report.power_idle_w,
                "p_test": report.power_test_w,
                "p_retrain": report.power_retrain_w,
            }
        return costs

    graph = PipelineGraph(
        "table2_lower",
        [
            Stage(
                "ft_accuracy",
                lambda ctx, edge_folds: _platform_accuracy(
                    edge_folds, use_tuned=True
                ),
                requires=("edge_folds",),
                config=scale.clear,
                seed=scale.clear.seed,
            ),
            Stage(
                "cost_model",
                _cost_stage,
                requires=("edge_folds",),
                config=scale.clear,
                seed=scale.clear.seed,
            ),
        ],
    )
    run = graph.run(
        initial={"edge_folds": folds},
        executor=scale.executor(),
        cache_dir=scale.cache_dir,
        seed=scale.clear.seed,
        journal=scale.journal_path("table2_lower"),
    )
    results = run.value("ft_accuracy")
    costs = run.value("cost_model")
    paper = {
        "gpu": {"accuracy": 86.34, "f1": 86.03},
        "coral_tpu": {
            "accuracy": 79.40,
            "f1": 79.14,
            "retrain_s": 32.48,
            "test_ms": 47.31,
        },
        "pi_ncs2": {
            "accuracy": 84.49,
            "f1": 84.07,
            "retrain_s": 78.52,
            "test_ms": 239.70,
        },
    }
    lines = ["Table II (lower) -- after on-device fine-tuning"]
    for key in ("gpu", "coral_tpu", "pi_ncs2"):
        r, c = results[key], costs[key]
        lines.append(
            f"  {r['name']:<16} acc {r['accuracy']:6.2f} "
            f"(paper {paper[key]['accuracy']:.2f})  "
            f"test {c['test_ms']:7.2f} ms  retrain {c['retrain_s']:6.2f} s  "
            f"P {c['p_idle']:.2f}/{c['p_test']:.2f}/{c['p_retrain']:.2f} W"
        )
    checks = {
        "tpu_faster_test": costs["coral_tpu"]["test_ms"]
        < costs["pi_ncs2"]["test_ms"],
        "tpu_faster_retrain": costs["coral_tpu"]["retrain_s"]
        < costs["pi_ncs2"]["retrain_s"],
        "tpu_lower_power": costs["coral_tpu"]["p_retrain"]
        < costs["pi_ncs2"]["p_retrain"],
        "gpu_not_worse_than_tpu": results["gpu"]["accuracy"]
        >= results["coral_tpu"]["accuracy"] - 5.0,
    }
    return ExperimentReport(
        experiment_id="table2_lower",
        title="Edge FT accuracy + time/power (paper Table II lower)",
        text="\n".join(lines),
        measured={"accuracy": results, "costs": costs},
        paper=paper,
        checks=checks,
        provenance=run.lineage(),
    )


@dataclass
class _Fig1Walkthrough:
    """Fig. 1 stage output: measured timings + the deterministic outcome.

    Wall-clock timings vary run to run, so the provenance digest covers
    only the deterministic outcome — same seed, same digest.
    """

    timings: Dict[str, float]
    cluster: int
    metrics: Dict[str, float]

    def __repro_content__(self):
        return (
            "Fig1Walkthrough",
            self.cluster,
            tuple(sorted(self.metrics.items())),
        )


def run_fig1_pipeline(
    scale: Optional[ExperimentScale] = None, dataset=None
) -> ExperimentReport:
    """Fig. 1: stage-by-stage walkthrough with wall-clock asymmetry."""
    scale = scale or ExperimentScale.bench()
    dataset = dataset if dataset is not None else _generate(scale)

    def _walkthrough_stage(ctx, corpus):
        record = corpus.subjects[0]
        population = group_maps_by_subject(corpus, exclude=record.subject_id)
        timings: Dict[str, float] = {}

        t0 = time.perf_counter()
        system = CLEAR(
            scale.clear, executor=ctx.executor, cache_dir=ctx.cache_dir
        ).fit(population)
        timings["cloud_fit_s"] = time.perf_counter() - t0

        rng = np.random.default_rng(scale.clear.seed)
        ca_maps, held_back = split_maps_by_fraction(
            record.maps, scale.clear.ca_data_fraction, rng, stratified=False
        )
        t0 = time.perf_counter()
        assignment = system.assign_new_user(ca_maps)
        timings["edge_assignment_s"] = time.perf_counter() - t0

        ft_maps, test_maps = split_maps_by_fraction(held_back, 0.25, rng)
        t0 = time.perf_counter()
        tuned = system.personalize(ft_maps, cluster=assignment.cluster)
        timings["edge_finetune_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        metrics = tuned.evaluate(test_maps)
        timings["edge_inference_s"] = time.perf_counter() - t0
        return _Fig1Walkthrough(
            timings=timings, cluster=assignment.cluster, metrics=metrics
        )

    graph = PipelineGraph(
        "fig1",
        [
            Stage(
                "walkthrough",
                _walkthrough_stage,
                requires=("corpus",),
                config=scale.clear,
                seed=scale.clear.seed,
            )
        ],
    )
    run = graph.run(
        initial={"corpus": dataset},
        executor=scale.executor(),
        cache_dir=scale.cache_dir,
        seed=scale.clear.seed,
        journal=scale.journal_path("fig1"),
    )
    walk = run.value("walkthrough")
    timings, metrics = walk.timings, walk.metrics

    lines = ["Fig. 1 -- CLEAR two-stage pipeline walkthrough"]
    lines.append(f"  cloud: clustering + pre-training  {timings['cloud_fit_s']:8.2f} s")
    lines.append(
        f"  edge: cold-start assignment       {timings['edge_assignment_s'] * 1e3:8.2f} ms"
    )
    lines.append(f"  edge: fine-tuning                 {timings['edge_finetune_s']:8.2f} s")
    lines.append(
        f"  edge: inference                   {timings['edge_inference_s'] * 1e3:8.2f} ms"
    )
    lines.append(
        f"  result: cluster {walk.cluster}, accuracy {metrics['accuracy']:.2%}"
    )
    checks = {
        "cloud_dominates": timings["cloud_fit_s"] > timings["edge_finetune_s"],
        "assignment_instant": timings["edge_assignment_s"] < 1.0,
    }
    return ExperimentReport(
        experiment_id="fig1",
        title="Two-stage cloud/edge pipeline (paper Fig. 1)",
        text="\n".join(lines),
        measured=timings,
        checks=checks,
        provenance=run.lineage(),
    )


def run_fig2_architecture(
    scale: Optional[ExperimentScale] = None,
) -> ExperimentReport:
    """Fig. 2: the CNN-LSTM at paper input scale."""
    input_shape = (1, 123, 8)

    def _profile_stage(ctx):
        model = build_cnn_lstm(input_shape, seed=0)
        return model, profile_model(model, input_shape)

    graph = PipelineGraph(
        "fig2", [Stage("architecture_profile", _profile_stage, seed=0)]
    )
    run = graph.run(
        seed=0,
        journal=None if scale is None else scale.journal_path("fig2"),
    )
    model, profile = run.value("architecture_profile")
    text = (
        "Fig. 2 -- CNN-LSTM architecture (123 x 8 feature maps)\n"
        + architecture_summary(input_shape)
        + f"\n\ntotal MACs per map: {profile.total_macs:,}"
        + f"\nint8 weights: {profile.memory_bytes(1) / 1024:.1f} KiB"
    )
    checks = {
        "fits_edge_memory": profile.memory_bytes(1) < 1 << 20,
        "two_convs_one_lstm": [type(l).__name__ for l in model.layers].count(
            "Conv2D"
        )
        == 2,
    }
    return ExperimentReport(
        experiment_id="fig2",
        title="CNN-LSTM classifier (paper Fig. 2)",
        text=text,
        measured={
            "params": profile.total_params,
            "macs": profile.total_macs,
            "int8_kib": profile.memory_bytes(1) / 1024,
        },
        checks=checks,
        provenance=run.lineage(),
    )


def run_setup_statistics(
    scale: Optional[ExperimentScale] = None, dataset=None
) -> ExperimentReport:
    """Section IV-A: corpus statistics and K = 4 cluster sizes."""
    scale = scale or ExperimentScale.bench()
    dataset = dataset if dataset is not None else _generate(scale)

    def _stats_stage(ctx, corpus):
        gc = GlobalClustering(k=scale.clear.num_clusters, seed=0).fit(
            group_maps_by_subject(corpus)
        )
        return corpus.summary(), sorted(gc.cluster_sizes(), reverse=True)

    graph = PipelineGraph(
        "setup",
        [
            Stage(
                "setup_statistics",
                _stats_stage,
                requires=("corpus",),
                config=scale.clear,
                seed=0,
            )
        ],
    )
    run = graph.run(
        initial={"corpus": dataset},
        executor=scale.executor(),
        cache_dir=scale.cache_dir,
        seed=0,
        journal=scale.journal_path("setup"),
    )
    summary, sizes = run.value("setup_statistics")
    text = (
        "Section IV-A -- setup statistics\n"
        f"  volunteers: {int(summary['num_subjects'])}\n"
        f"  feature maps: {int(summary['num_maps'])}\n"
        f"  features: {int(summary['num_features'])} "
        f"= {len(BVP_FEATURE_NAMES)} BVP + {len(GSR_FEATURE_NAMES)} GSR "
        f"+ {len(SKT_FEATURE_NAMES)} SKT\n"
        f"  K = {scale.clear.num_clusters}, cluster sizes {sizes} "
        "(paper: [17, 13, 7, 7])"
    )
    checks = {
        "feature_inventory": NUM_FEATURES == 123
        and len(BVP_FEATURE_NAMES) == 84
        and len(GSR_FEATURE_NAMES) == 34
        and len(SKT_FEATURE_NAMES) == 5,
        "balanced_task": abs(summary["fear_fraction"] - 0.5) < 0.1,
    }
    return ExperimentReport(
        experiment_id="setup",
        title="Experimental setup statistics (paper §IV-A)",
        text=text,
        measured={**summary, "cluster_sizes": sizes},
        checks=checks,
        provenance=run.lineage(),
    )


def run_all(scale: Optional[ExperimentScale] = None) -> ReportRegistry:
    """Run every experiment once, sharing the corpus and edge folds."""
    scale = scale or ExperimentScale.bench()
    dataset = _generate(scale)
    folds = _edge_folds(scale, dataset)
    registry = ReportRegistry()
    registry.add(run_setup_statistics(scale, dataset))
    registry.add(run_fig2_architecture(scale))
    registry.add(run_fig1_pipeline(scale, dataset))
    registry.add(run_table1(scale, dataset))
    registry.add(run_table2_upper(scale, dataset, folds))
    registry.add(run_table2_lower(scale, dataset, folds))
    return registry
