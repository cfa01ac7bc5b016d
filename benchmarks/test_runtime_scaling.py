"""Runtime-layer scaling bench: executor fan-out + content-addressed cache.

Records serial vs parallel wall time for corpus generation and CLEAR
LOSO validation, and the cold- vs warm-cache speedup, into
``BENCH_runtime.json`` at the repo root.  Wall times are *recorded, not
asserted* — a single-CPU host legitimately sees parallel >= serial —
but bit-identity between executors and zero re-work on a warm cache are
hard assertions.

``pytest benchmarks/test_runtime_scaling.py -m smoke`` runs only the
tier-1-safe 2-fold smoke variant (seconds, suitable for CI).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    clear_validation,
)
from repro.datasets import SyntheticWEMAC, WEMACConfig
from repro.orchestration import PipelineGraph, Stage
from repro.runtime import ParallelExecutor, SerialExecutor

from conftest import bench_dataset_config

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
WORKERS = 2

VALIDATION_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=3,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=6, batch_size=8, early_stopping_patience=3),
    fine_tuning=FineTuneConfig(epochs=3),
    seed=0,
)


def _extraction(dataset):
    """Provenance of the generation graph's feature-extraction stage."""
    return next(p for p in dataset.provenance if p.stage == "subjects")


def _maps_equal(a, b):
    return all(
        sa.subject_id == sb.subject_id
        and len(sa.maps) == len(sb.maps)
        and all(
            (ma.values == mb.values).all() and ma.label == mb.label
            for ma, mb in zip(sa.maps, sb.maps)
        )
        for sa, sb in zip(a.subjects, b.subjects)
    )


def _folds(summary):
    return [(f.fold_id, f.accuracy, f.f1) for f in summary.folds]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _merge_report(section, payload):
    report = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    report[section] = payload
    report["note"] = (
        "wall times are environment-dependent (single-CPU hosts may see "
        "parallel >= serial); bit-identity and warm-cache hit counts are "
        "the asserted invariants"
    )
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_generation_scaling_and_cache(tmp_path):
    cfg = bench_dataset_config()
    cache_dir = tmp_path / "cache"

    serial, serial_s = _timed(SyntheticWEMAC(cfg).generate)
    parallel, parallel_s = _timed(
        SyntheticWEMAC(cfg).generate, executor=ParallelExecutor(WORKERS)
    )
    assert _maps_equal(serial, parallel)

    cold, cold_s = _timed(SyntheticWEMAC(cfg).generate, cache_dir=cache_dir)
    warm, warm_s = _timed(SyntheticWEMAC(cfg).generate, cache_dir=cache_dir)
    assert _maps_equal(serial, cold)
    assert _maps_equal(serial, warm)

    map_count = sum(len(s.maps) for s in warm.subjects)
    # Zero re-extractions on a warm cache: every map lookup hits.
    assert _extraction(warm).cache_misses == 0
    assert _extraction(warm).cache_hits == map_count
    assert _extraction(cold).cache_misses == map_count

    _merge_report(
        "generation",
        {
            "subjects": cfg.num_subjects,
            "map_count": map_count,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "workers": WORKERS,
            "bit_identical": True,
            "cold_cache_s": round(cold_s, 3),
            "warm_cache_s": round(warm_s, 3),
            "cache_speedup": round(cold_s / warm_s, 1) if warm_s else None,
            "warm_hit_rate": _extraction(warm).cache_hit_rate,
        },
    )
    print(
        f"\n[runtime] generation: serial {serial_s:.2f}s, "
        f"parallel({WORKERS}) {parallel_s:.2f}s, cache cold {cold_s:.2f}s "
        f"-> warm {warm_s:.2f}s ({cold_s / max(warm_s, 1e-9):.0f}x)"
    )


def test_validation_scaling_and_cache(bench_dataset, tmp_path):
    folds = 3
    cache_dir = tmp_path / "cache"

    serial, serial_s = _timed(
        clear_validation,
        bench_dataset,
        VALIDATION_CFG,
        max_folds=folds,
        executor=SerialExecutor(),
    )
    parallel, parallel_s = _timed(
        clear_validation,
        bench_dataset,
        VALIDATION_CFG,
        max_folds=folds,
        executor=ParallelExecutor(WORKERS),
    )
    assert _folds(serial.without_ft) == _folds(parallel.without_ft)
    assert _folds(serial.with_ft) == _folds(parallel.with_ft)
    assert serial.assignments == parallel.assignments

    cold, cold_s = _timed(
        clear_validation,
        bench_dataset,
        VALIDATION_CFG,
        max_folds=folds,
        cache_dir=cache_dir,
    )
    warm, warm_s = _timed(
        clear_validation,
        bench_dataset,
        VALIDATION_CFG,
        max_folds=folds,
        cache_dir=cache_dir,
    )
    assert _folds(cold.without_ft) == _folds(serial.without_ft)
    assert _folds(warm.without_ft) == _folds(serial.without_ft)
    # Warm rerun re-trains no fold checkpoint.
    assert warm.provenance.cache_misses == 0
    assert warm.provenance.cache_hits == (
        cold.provenance.cache_hits + cold.provenance.cache_misses
    )

    _merge_report(
        "validation",
        {
            "folds": folds,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "workers": WORKERS,
            "bit_identical": True,
            "cold_cache_s": round(cold_s, 3),
            "warm_cache_s": round(warm_s, 3),
            "cache_speedup": round(cold_s / warm_s, 1) if warm_s else None,
            "warm_hit_rate": warm.provenance.cache_hit_rate,
        },
    )
    print(
        f"\n[runtime] validation({folds} folds): serial {serial_s:.2f}s, "
        f"parallel({WORKERS}) {parallel_s:.2f}s, cache cold {cold_s:.2f}s "
        f"-> warm {warm_s:.2f}s"
    )


def _graph_clear_validation(dataset, cfg, folds):
    """clear_validation declared as a one-stage PipelineGraph."""
    graph = PipelineGraph(
        "bench_clear",
        [
            Stage(
                "clear",
                lambda ctx, corpus: clear_validation(
                    corpus,
                    cfg,
                    max_folds=folds,
                    executor=ctx.executor,
                    cache_dir=ctx.cache_dir,
                ),
                requires=("corpus",),
                config=cfg,
                seed=cfg.seed,
            )
        ],
    )
    run = graph.run(initial={"corpus": dataset}, seed=cfg.seed)
    return run.value("clear")


def _assert_graph_matches_direct(direct, graphed):
    assert _folds(direct.without_ft) == _folds(graphed.without_ft)
    assert _folds(direct.with_ft) == _folds(graphed.with_ft)
    assert direct.assignments == graphed.assignments


def test_stage_graph_overhead(bench_dataset):
    """Graph-driven vs direct clear_validation: identical results.

    The orchestration layer adds artifact digesting and provenance
    capture per stage; this records what that costs against a direct
    call at bench scale.  Wall times are recorded, not asserted — the
    hard assertion is bit-identity of every fold metric.
    """
    folds = 3
    direct, direct_s = _timed(
        clear_validation, bench_dataset, VALIDATION_CFG, max_folds=folds
    )
    graphed, graph_s = _timed(
        _graph_clear_validation, bench_dataset, VALIDATION_CFG, folds
    )
    _assert_graph_matches_direct(direct, graphed)

    _merge_report(
        "stage_graph",
        {
            "folds": folds,
            "direct_s": round(direct_s, 3),
            "graph_s": round(graph_s, 3),
            "overhead_s": round(graph_s - direct_s, 3),
            "overhead_pct": (
                round(100.0 * (graph_s - direct_s) / direct_s, 2)
                if direct_s
                else None
            ),
            "bit_identical": True,
        },
    )
    print(
        f"\n[runtime] stage graph({folds} folds): direct {direct_s:.2f}s, "
        f"graph-driven {graph_s:.2f}s "
        f"(overhead {graph_s - direct_s:+.2f}s)"
    )


@pytest.mark.smoke
def test_stage_graph_smoke(tmp_path):
    """Tier-1-safe stage-graph variant: tiny corpus, 2 folds, seconds."""
    cfg = WEMACConfig.tiny(seed=0)
    smoke_cfg = CLEARConfig.fast(seed=0)
    dataset = SyntheticWEMAC(cfg).generate()
    direct = clear_validation(dataset, smoke_cfg, max_folds=2)
    graphed = _graph_clear_validation(dataset, smoke_cfg, 2)
    _assert_graph_matches_direct(direct, graphed)


@pytest.mark.smoke
def test_runtime_smoke(tmp_path):
    """Tier-1-safe variant: minimal corpus, 2 LOSO folds, seconds total."""
    cfg = WEMACConfig(
        num_subjects=4,
        trials_per_subject=4,
        windows_per_map=4,
        window_seconds=8.0,
        fs_bvp=32.0,
        seed=0,
    )
    smoke_cfg = CLEARConfig(
        num_clusters=2,
        subclusters_per_cluster=2,
        gc_refinements=2,
        model=ModelConfig(conv_filters=(2, 4), lstm_units=4, dropout=0.0),
        training=TrainingConfig(
            epochs=2, batch_size=8, early_stopping_patience=2
        ),
        fine_tuning=FineTuneConfig(epochs=1),
        seed=0,
    )
    cache_dir = tmp_path / "cache"

    serial = SyntheticWEMAC(cfg).generate()
    parallel = SyntheticWEMAC(cfg).generate(executor=ParallelExecutor(2))
    assert _maps_equal(serial, parallel)

    cold = SyntheticWEMAC(cfg).generate(cache_dir=cache_dir)
    warm = SyntheticWEMAC(cfg).generate(cache_dir=cache_dir)
    map_count = sum(len(s.maps) for s in warm.subjects)
    assert _extraction(warm).cache_misses == 0
    assert _extraction(warm).cache_hits == map_count
    assert _maps_equal(serial, warm) and _maps_equal(serial, cold)

    base = clear_validation(serial, smoke_cfg, max_folds=2)
    fanned = clear_validation(
        serial, smoke_cfg, max_folds=2, executor=ParallelExecutor(2)
    )
    assert _folds(base.without_ft) == _folds(fanned.without_ft)
    assert base.assignments == fanned.assignments
