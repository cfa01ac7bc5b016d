"""Where the traced run hooks each layer, and the per-layer metrics.

Every hook patches the name at the place its caller looks it up: a
module global the caller imported (``repro.signals.features``
resolves ``extract_bvp_features`` in its own namespace), a class
attribute (every ``Conv2D`` instance finds ``forward`` on the class) or
one service object's attribute (the micro-batcher calls
``self.pop_batch``).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

from tracing import Patches, Tracer, spanned, spanned_iterator

#: The CLEAR CNN-LSTM stack (``repro.core.architecture.cnn_lstm_layers``).
CNN_LSTM_LAYERS = (
    "conv1",
    "relu1",
    "pool1",
    "conv2",
    "relu2",
    "pool2",
    "to_sequence",
    "lstm",
    "dropout",
    "head",
)


def _layer_spanned(tracer: Tracer, direction: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            return tracer.call(f"nn.{direction}.{self.name}", fn, self, *args, **kwargs)

        return wrapper

    return make


def _predict_many(tracer: Tracer, models: List):
    """Span ``Sequential.predict_many`` and count the slab rows it runs."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, inputs, pad_rows=None):
            rows = sum(int(np.shape(x)[0]) for x in inputs)
            slab = rows if not pad_rows else -(-rows // pad_rows) * pad_rows
            tracer.counters["nn.requests"] += rows
            tracer.counters["nn.slab_rows"] += slab
            if not models:
                models.append((self, tuple(np.shape(inputs[0])[1:])))
            return tracer.call("nn.predict_many", fn, self, inputs, pad_rows=pad_rows)

        return wrapper

    return make


def _train_batch(tracer: Tracer, models: List):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, x, y):
            tracer.counters["nn.train_steps"] += 1
            if not models:
                models.append((self, tuple(np.shape(x)[1:])))
            return fn(self, x, y)

        return wrapper

    return make


def _score_stage(tracer: Tracer):
    """Span only the scenario pipeline's scoring stage."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(self, ctx, inputs):
            if self.name != "scores":
                return fn(self, ctx, inputs)
            return tracer.call("scenarios.score", fn, self, ctx, inputs)

        return wrapper

    return make


def install(tracer: Tracer, patches: Patches, models: List) -> None:
    """Hook every module- and class-level layer boundary."""
    import repro.nn as nn
    from repro.clustering.global_clustering import GlobalClustering
    from repro.clustering.streaming import StreamingKMeans
    from repro.core import pipeline, validation
    from repro.core.pipeline import CLEARSystem
    from repro.core.trainer import TrainedModel
    from repro.datasets import wemac
    from repro.datasets.subject import PhysiologicalSimulator
    from repro.orchestration.stage import Stage
    from repro.scenarios import pipeline as scenario_pipeline
    from repro.scenarios.base import Scenario
    from repro.signals import bvp, features
    from repro.signals.features import FeatureExtractor

    # datasets / signals
    patches.wrap(PhysiologicalSimulator, "simulate_trial", spanned(tracer, "datasets.simulate"))
    patches.wrap(wemac, "extract_subject_maps", spanned(tracer, "signals.extract"))
    patches.wrap(FeatureExtractor, "extract_window", spanned(tracer, "signals.window"))
    for modality in ("bvp", "gsr", "skt"):
        attr = f"extract_{modality}_features"
        patches.wrap(features, attr, spanned(tracer, f"signals.{modality}"))
    for attr in ("sample_entropy", "approximate_entropy"):
        patches.wrap(bvp, attr, spanned(tracer, "signals.entropy"))

    # clustering
    patches.wrap(GlobalClustering, "fit", spanned(tracer, "clustering.gc_fit"))
    patches.wrap(CLEARSystem, "assign_new_user", spanned(tracer, "clustering.assign"))
    patches.wrap(StreamingKMeans, "fit_chunks", spanned(tracer, "clustering.stream_fit"))

    # nn, looked up by both callers of training and fine-tuning
    for module in (validation, pipeline):
        patches.wrap(module, "train_on_maps_cached", spanned(tracer, "nn.train"))
        patches.wrap(module, "fine_tune", spanned(tracer, "nn.finetune"))
    patches.wrap(TrainedModel, "evaluate", spanned(tracer, "nn.evaluate"))
    patches.wrap(nn.Sequential, "train_batch", _train_batch(tracer, models))
    patches.wrap(nn.Sequential, "predict_many", _predict_many(tracer, models))
    for cls in (nn.Conv2D, nn.ReLU, nn.MaxPool2D, nn.ToSequence, nn.LSTM, nn.Dropout, nn.Dense):
        patches.wrap(cls, "forward", _layer_spanned(tracer, "fwd"))
        patches.wrap(cls, "backward", _layer_spanned(tracer, "bwd"))

    # scenarios
    patches.wrap(Scenario, "iter_chunks", spanned_iterator(tracer, "scenarios.generate", "scenarios.subjects"))
    patches.wrap(scenario_pipeline, "signature_matrix", spanned(tracer, "scenarios.signature"))
    patches.wrap(Stage, "run", _score_stage(tracer))


def instrument_service(tracer: Tracer, patches: Patches, service, queue_waits: bool) -> None:
    """Hook one ``InferenceService`` instance and its micro-batcher."""
    for attr in ("connect", "submit"):
        patches.wrap(service, attr, spanned(tracer, f"serving.{attr}"))
    for attr in ("pump", "drain"):
        patches.wrap(service, attr, spanned(tracer, "serving.pump"))
    batcher = service.batcher
    patches.wrap(batcher, "flush", spanned(tracer, "serving.flush"))

    def pop_batch(fn):
        @functools.wraps(fn)
        def wrapper(key):
            batch = fn(key)
            tracer.counters["serving.batch_rows"] += len(batch)
            if queue_waits:
                now = service.clock.now()
                tracer.samples["serving.queue_wait_s"].extend(now - r.enqueued_at for r in batch)
            return batch

        return wrapper

    patches.wrap(batcher, "pop_batch", pop_batch)


def _profile_shares(models: List) -> Dict[str, float]:
    """Forward MAC share per layer from ``repro.edge.profiler``."""
    if not models:
        return {}
    from repro.edge.profiler import profile_model

    model, input_shape = models[0]
    profile = profile_model(model, input_shape)
    total = sum(layer.macs for layer in profile.layers) or 1
    return {layer.name: layer.macs / total for layer in profile.layers}


def per_layer_metrics(
    tracer: Tracer,
    models: List,
    run_s: float,
    untraced_run_s: float,
    import_s: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, tuple]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    A layer the workload leaves idle reports 0.  ``extra`` carries the
    figures only the workload loop sees (generator lag, admission).
    """
    totals = tracer.totals()
    counters = tracer.counters

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    out: Dict[str, tuple] = {
        "import.repro_s": (import_s, "s"),
        "datasets.simulate_s": (total("datasets.simulate"), "s"),
        "datasets.trials": (calls("datasets.simulate"), "count"),
        "signals.windows": (calls("signals.window"), "count"),
        "signals.bvp_s": (total("signals.bvp"), "s"),
        "signals.gsr_s": (total("signals.gsr"), "s"),
        "signals.skt_s": (total("signals.skt"), "s"),
        "signals.entropy_s": (total("signals.entropy"), "s"),
        "signals.entropy_calls": (calls("signals.entropy"), "count"),
        "clustering.gc_fit_s": (total("clustering.gc_fit"), "s"),
        "clustering.assign_s": (total("clustering.assign"), "s"),
        "clustering.assign_calls": (calls("clustering.assign"), "count"),
        "clustering.stream_fit_self_s": (self_s("clustering.stream_fit"), "s"),
        "nn.train_s": (total("nn.train"), "s"),
        "nn.train_steps": (counters["nn.train_steps"], "count"),
        "nn.finetune_s": (total("nn.finetune"), "s"),
        "nn.predict_many_s": (total("nn.predict_many"), "s"),
        "nn.slab_rows": (counters["nn.slab_rows"], "count"),
        "nn.slab_useful_frac": (
            counters["nn.requests"] / counters["nn.slab_rows"] if counters["nn.slab_rows"] else 0.0,
            "frac",
        ),
    }
    fwd = {layer: total(f"nn.fwd.{layer}") for layer in CNN_LSTM_LAYERS}
    fwd_sum = sum(fwd.values())
    macs = _profile_shares(models)
    for layer in CNN_LSTM_LAYERS:
        out[f"nn.fwd.{layer}_s"] = (fwd[layer], "s")
        out[f"nn.bwd.{layer}_s"] = (total(f"nn.bwd.{layer}"), "s")
        out[f"nn.{layer}.wall_share"] = (fwd[layer] / fwd_sum if fwd_sum else 0.0, "frac")
        out[f"nn.{layer}.mac_share"] = (macs.get(layer, 0.0), "frac")

    waits_ms = np.asarray(tracer.samples.get("serving.queue_wait_s", []), dtype=float) * 1e3
    flushes = calls("serving.flush")
    extra = extra or {}
    out.update(
        {
            "serving.connect_s": (total("serving.connect"), "s"),
            "serving.submit_s": (total("serving.submit"), "s"),
            "serving.flush_s": (total("serving.flush"), "s"),
            "serving.pump_self_s": (total("serving.pump") - total("serving.flush"), "s"),
            "serving.flushes": (flushes, "count"),
            "serving.batch_rows_mean": (
                counters["serving.batch_rows"] / flushes if flushes else 0.0,
                "rows",
            ),
            "serving.queue_wait_p50_ms": (float(np.percentile(waits_ms, 50)) if waits_ms.size else 0.0, "ms"),
            "serving.queue_wait_p99_ms": (float(np.percentile(waits_ms, 99)) if waits_ms.size else 0.0, "ms"),
            "loadgen.lag_p99_ms": (extra.get("loadgen.lag_p99_ms", 0.0), "ms"),
            "serving.shed": (extra.get("serving.shed", 0), "count"),
            "serving.rejected": (extra.get("serving.rejected", 0), "count"),
            "scenarios.generate_s": (total("scenarios.generate"), "s"),
            "scenarios.subjects": (counters["scenarios.subjects"], "count"),
            "scenarios.signature_s": (total("scenarios.signature"), "s"),
            "scenarios.score_self_s": (self_s("scenarios.score"), "s"),
        }
    )

    # Coverage: the share of the traced run attributed to some layer
    # span (every span's self time, i.e. the union of top-level spans).
    attributed = sum(entry["self_s"] for entry in totals.values())
    out["trace.coverage_frac"] = (attributed / run_s if run_s > 0 else 0.0, "frac")
    out["trace.overhead_frac"] = (run_s / untraced_run_s - 1.0 if untraced_run_s > 0 else 0.0, "frac")
    return out
