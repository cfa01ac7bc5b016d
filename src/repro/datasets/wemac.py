"""Synthetic WEMAC-compatible corpus generation.

WEMAC (Miranda et al., 2022) is request-gated and unavailable offline,
so the reproduction generates a corpus with the same statistical
structure: ~44 volunteers drawn from latent archetypes, multi-modal
physiological recordings (BVP 64 Hz, GSR 4 Hz, SKT 4 Hz) under fear /
non-fear video stimuli, converted into ~800 labelled 2D feature maps
(123 features x W windows), exactly the pipeline input the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..orchestration.graph import PipelineGraph
from ..orchestration.stage import Stage, StageContext
from ..runtime.executor import Executor
from ..signals.feature_map import (
    FeatureMap,
    SubjectExtractionUnit,
    extract_subject_maps,
)
from .stimuli import StimulusSchedule, balanced_schedule
from .subject import (
    NUM_ARCHETYPES,
    ArchetypeParams,
    PhysiologicalSimulator,
    SubjectProfile,
    sample_subject,
)


@dataclass(frozen=True)
class WEMACConfig:
    """Corpus-scale knobs.

    The defaults match the paper's setup (44 volunteers as implied by
    the 17/13/7/7 cluster sizes, ~18 maps each => ~800 feature maps).
    ``tiny()`` and ``small()`` provide fast variants for tests and
    benchmarks.
    """

    num_subjects: int = 44
    trials_per_subject: int = 18
    windows_per_map: int = 8
    window_seconds: float = 10.0
    fs_bvp: float = 64.0
    fs_gsr: float = 4.0
    fs_skt: float = 4.0
    subject_jitter: float = 0.12
    #: Relative archetype mix; normalized to num_subjects.  The default
    #: skew mirrors the paper's uneven 17/13/7/7 cluster sizes.
    archetype_weights: tuple = (0.39, 0.29, 0.16, 0.16)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_subjects < NUM_ARCHETYPES:
            raise ValueError(
                f"need at least {NUM_ARCHETYPES} subjects "
                f"(one per archetype), got {self.num_subjects}"
            )
        if self.trials_per_subject < 2:
            raise ValueError("need at least 2 trials per subject")
        if self.windows_per_map < 1:
            raise ValueError("windows_per_map must be >= 1")
        if len(self.archetype_weights) != NUM_ARCHETYPES:
            raise ValueError(
                f"archetype_weights must have {NUM_ARCHETYPES} entries"
            )

    @property
    def trial_seconds(self) -> float:
        return self.windows_per_map * self.window_seconds

    @staticmethod
    def tiny(seed: int = 0) -> "WEMACConfig":
        """Minutes-scale config for unit tests."""
        return WEMACConfig(
            num_subjects=8,
            trials_per_subject=4,
            windows_per_map=4,
            window_seconds=8.0,
            fs_bvp=32.0,
            seed=seed,
        )

    @staticmethod
    def small(seed: int = 0) -> "WEMACConfig":
        """Benchmark-scale config: all paper orderings emerge, runs fast."""
        return WEMACConfig(
            num_subjects=16,
            trials_per_subject=8,
            windows_per_map=6,
            window_seconds=8.0,
            fs_bvp=32.0,
            seed=seed,
        )


@dataclass
class SubjectRecord:
    """Everything generated for one volunteer."""

    profile: SubjectProfile
    schedule: StimulusSchedule
    maps: List[FeatureMap]

    @property
    def subject_id(self) -> int:
        return self.profile.subject_id

    @property
    def labels(self) -> np.ndarray:
        return np.array([m.label for m in self.maps], dtype=np.int64)


@dataclass
class WEMACDataset:
    """The generated corpus: per-subject feature maps plus ground truth."""

    config: WEMACConfig
    subjects: List[SubjectRecord]
    #: Lineage of the generation graph (simulate → extract stages): how
    #: each ran, with extraction cache hits/misses and wall time; empty
    #: for datasets loaded from disk or built by hand.
    provenance: tuple = ()

    def __repro_content__(self):
        # Stable content: the config and every generated feature map.
        # Provenance carries wall times and must never shift the
        # dataset's digest.
        return (
            "WEMACDataset",
            self.config,
            tuple(
                (
                    record.subject_id,
                    record.profile.archetype_id,
                    tuple(
                        (m.values, int(m.label), int(m.subject_id))
                        for m in record.maps
                    ),
                )
                for record in self.subjects
            ),
        )

    @property
    def num_subjects(self) -> int:
        return len(self.subjects)

    @property
    def subject_ids(self) -> List[int]:
        return [s.subject_id for s in self.subjects]

    def subject(self, subject_id: int) -> SubjectRecord:
        for record in self.subjects:
            if record.subject_id == subject_id:
                return record
        raise KeyError(f"no subject with id {subject_id}")

    def all_maps(self) -> List[FeatureMap]:
        return [m for s in self.subjects for m in s.maps]

    def maps_for(self, subject_ids: Sequence[int]) -> List[FeatureMap]:
        wanted = set(subject_ids)
        return [m for s in self.subjects if s.subject_id in wanted for m in s.maps]

    def archetype_of(self, subject_id: int) -> int:
        return self.subject(subject_id).profile.archetype_id

    def archetype_assignment(self) -> Dict[int, int]:
        """Ground-truth latent archetype per subject (for validation only)."""
        return {s.subject_id: s.profile.archetype_id for s in self.subjects}

    def summary(self) -> Dict[str, float]:
        maps = self.all_maps()
        labels = np.array([m.label for m in maps])
        return {
            "num_subjects": float(self.num_subjects),
            "num_maps": float(len(maps)),
            "num_features": float(maps[0].num_features) if maps else 0.0,
            "windows_per_map": float(maps[0].num_windows) if maps else 0.0,
            "fear_fraction": float(labels.mean()) if labels.size else 0.0,
        }


def archetype_counts(weights: Sequence[float], num_subjects: int) -> np.ndarray:
    """Subjects per archetype under a weighted plan (>=1 each).

    The corpus assigns archetypes in contiguous blocks of these sizes;
    streamed scenarios use the counts to locate one subject's block in
    O(num_archetypes) without building the whole plan.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size < 1 or np.min(w) <= 0:
        raise ValueError("archetype weights must be positive")
    if num_subjects < w.size:
        raise ValueError(
            f"need at least {w.size} subjects (one per archetype), "
            f"got {num_subjects}"
        )
    w = w / w.sum()
    counts = np.floor(w * num_subjects).astype(int)
    counts = np.maximum(counts, 1)
    while counts.sum() < num_subjects:
        counts[int(np.argmax(w - counts / num_subjects))] += 1
    while counts.sum() > num_subjects:
        counts[int(np.argmax(counts))] -= 1
    return counts


def _archetype_plan(config: WEMACConfig) -> List[int]:
    """The archetype of every subject, in subject-id order."""
    counts = archetype_counts(config.archetype_weights, config.num_subjects)
    return np.repeat(np.arange(counts.size), counts).tolist()


def draw_subject(
    config: WEMACConfig,
    subject_id: int,
    archetype_id: int,
    rng: np.random.Generator,
    rates: Tuple[float, float, float],
    cache_dir: Optional[str],
    base_params: Optional[ArchetypeParams] = None,
) -> Tuple[SubjectProfile, StimulusSchedule, SubjectExtractionUnit]:
    """One volunteer's draw: profile, stimulus schedule, raw recordings.

    ``rng`` is consumed in a fixed order (profile jitter, schedule,
    simulated trials), which the serial corpus stream and the
    per-subject scenario streams both rely on.  ``rates`` are the
    device's (BVP, GSR, SKT) sampling rates in Hz; ``base_params``
    overrides the archetype's parameters.  The recordings come back as
    an extraction work unit, so the caller decides where feature
    extraction runs.
    """
    profile = sample_subject(
        subject_id,
        archetype_id,
        rng,
        jitter=config.subject_jitter,
        base_params=base_params,
    )
    schedule = balanced_schedule(
        config.trials_per_subject, config.trial_seconds, rng
    )
    raw_trials = PhysiologicalSimulator(*rates).simulate_schedule(
        profile, schedule, rng
    )
    unit = SubjectExtractionUnit(
        subject_id=subject_id,
        trials=list(raw_trials),
        labels=[t.label for t in schedule.trials],
        windows_per_map=config.windows_per_map,
        rates=rates,
        window_seconds=config.window_seconds,
        cache_dir=cache_dir,
    )
    return profile, schedule, unit


class SyntheticWEMAC:
    """Generator for the synthetic WEMAC corpus."""

    def __init__(self, config: Optional[WEMACConfig] = None):
        self.config = config or WEMACConfig()

    def generate(
        self,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> WEMACDataset:
        """Simulate every volunteer and extract their feature maps.

        Simulation stays serial (every subject draws from the one
        corpus RNG stream), but feature extraction is pure and fans out
        per subject through ``executor``; with ``cache_dir`` set,
        byte-identical trials are loaded from the content-addressed
        cache instead of re-extracted.  Results are bit-identical
        across executors and cache states.
        """
        cfg = self.config

        def _simulate_stage(ctx: StageContext):
            # Serial by design: every subject draws from the one corpus
            # RNG stream.  Extraction consumes no randomness, so
            # deferring it to the next stage leaves the stream — and
            # thus the corpus — unchanged.
            rng = np.random.default_rng(cfg.seed)
            rates = (cfg.fs_bvp, cfg.fs_gsr, cfg.fs_skt)
            draws = [
                draw_subject(
                    cfg, subject_id, archetype_id, rng, rates, ctx.cache_dir
                )
                for subject_id, archetype_id in enumerate(_archetype_plan(cfg))
            ]
            ctx.set_units(len(draws))
            profiles, schedules, units = map(list, zip(*draws))
            return profiles, schedules, units

        def _extract_stage(ctx: StageContext, simulated):
            profiles, schedules, units = simulated
            ctx.set_units(len(units))
            results = ctx.executor.map(extract_subject_maps, units)
            for result in results:
                ctx.record_cache(result.cache_hits, result.cache_misses)
            return [
                SubjectRecord(profile, schedule, result.maps)
                for profile, schedule, result in zip(profiles, schedules, results)
            ]

        graph = PipelineGraph(
            "wemac_generate",
            [
                Stage(
                    name="simulated",
                    fn=_simulate_stage,
                    config=cfg,
                    seed=cfg.seed,
                ),
                Stage(
                    name="subjects",
                    fn=_extract_stage,
                    requires=("simulated",),
                    config=cfg,
                    seed=cfg.seed,
                ),
            ],
        )
        run = graph.run(executor=executor, cache_dir=cache_dir, seed=cfg.seed)
        return WEMACDataset(
            config=cfg,
            subjects=run.value("subjects"),
            provenance=tuple(
                run.provenance(name) for name in ("simulated", "subjects")
            ),
        )
