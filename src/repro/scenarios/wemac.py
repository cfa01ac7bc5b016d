"""The WEMAC corpus as one Scenario implementation.

Same per-subject draw (:func:`~repro.datasets.wemac.draw_subject`:
simulator, stimuli, raw recordings) and extraction as
:mod:`repro.datasets.wemac` — but re-keyed for streaming: every subject
draws from its own ``SeedSequence(seed, spawn_key=(subject_id,
generation))`` stream instead of one serial corpus stream, so slot *i*
is a pure O(1) function of the config.  (The legacy
:class:`~repro.datasets.wemac.SyntheticWEMAC` generator keeps its
serial stream untouched — its corpus bytes are pinned by golden
fingerprints — which means the streamed corpus is a *different, equally
valid* draw of the same population model.)

On top of the legacy structure the scenario adds population dynamics
(archetype drift toward the neighbouring archetype, churned slots) and
device heterogeneity (scaled sampling rates, missing modalities
screened by the resilience guards).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from ..datasets.subject import ARCHETYPES, NUM_ARCHETYPES, ArchetypeParams
from ..datasets.wemac import WEMACConfig, draw_subject
from ..signals.feature_map import extract_subject_maps
from .base import (
    REFERENCE_DEVICE,
    STATIONARY,
    DeviceProfile,
    LabelSpace,
    PopulationDynamics,
    Scenario,
    ScenarioSubject,
    archetype_for_slot,
    drift_alpha,
    pick_device,
    subject_rng,
)
from .devices import screen_subject_maps

#: Binary fear / non-fear labels, as in the paper.
FEAR_LABELS = LabelSpace(name="fear", classes=("non_fear", "fear"))


def blend_archetypes(
    base: ArchetypeParams, toward: ArchetypeParams, alpha: float
) -> ArchetypeParams:
    """Linear interpolation of every physiological parameter."""
    if alpha <= 0.0:
        return base
    updates = {}
    for f in fields(ArchetypeParams):
        value = getattr(base, f.name)
        if isinstance(value, float):
            other = float(getattr(toward, f.name))
            updates[f.name] = (1.0 - alpha) * value + alpha * other
    return replace(base, **updates)


@dataclass(frozen=True)
class WEMACScenarioConfig:
    """Everything one subject build needs, picklable into work units."""

    base: WEMACConfig
    dynamics: PopulationDynamics = STATIONARY
    devices: Tuple[DeviceProfile, ...] = (REFERENCE_DEVICE,)


class WEMACScenario(Scenario):
    """Streamed WEMAC-compatible population (fear / non-fear)."""

    def __init__(
        self,
        config: Optional[WEMACConfig] = None,
        name: str = "wemac",
        chunk_size: int = 16,
        dynamics: PopulationDynamics = STATIONARY,
        devices: Tuple[DeviceProfile, ...] = (REFERENCE_DEVICE,),
    ):
        self.config = config if config is not None else WEMACConfig()
        super().__init__(
            name=name,
            label_space=FEAR_LABELS,
            num_subjects=self.config.num_subjects,
            seed=self.config.seed,
            chunk_size=chunk_size,
            num_archetypes=NUM_ARCHETYPES,
            dynamics=dynamics,
            devices=devices,
        )

    def build_config(self) -> WEMACScenarioConfig:
        return WEMACScenarioConfig(
            base=self.config, dynamics=self.dynamics, devices=self.devices
        )

    @classmethod
    def build_subject(
        cls,
        config: WEMACScenarioConfig,
        subject_id: int,
        cache_dir: Optional[str] = None,
    ) -> ScenarioSubject:
        base = config.base
        dynamics = config.dynamics
        rng = subject_rng(base.seed, subject_id, generation=0)
        generation = 0
        if dynamics.churn_rate > 0.0 and rng.uniform() < dynamics.churn_rate:
            # The slot was vacated; its new occupant draws from a fresh
            # stream so the replacement is a genuinely different person.
            generation = 1
            rng = subject_rng(base.seed, subject_id, generation=generation)
        archetype_id = archetype_for_slot(
            base.archetype_weights, base.num_subjects, subject_id
        )
        alpha = drift_alpha(dynamics, base.num_subjects, subject_id)
        params = blend_archetypes(
            ARCHETYPES[archetype_id],
            ARCHETYPES[(archetype_id + 1) % NUM_ARCHETYPES],
            alpha,
        )
        device = pick_device(config.devices, rng)
        rates = (
            base.fs_bvp * device.rate_scales[0],
            base.fs_gsr * device.rate_scales[1],
            base.fs_skt * device.rate_scales[2],
        )
        _, _, unit = draw_subject(
            base, subject_id, archetype_id, rng, rates, cache_dir,
            base_params=params,
        )
        result = extract_subject_maps(unit)
        maps, imputed = screen_subject_maps(result.maps, device)
        return ScenarioSubject(
            subject_id=subject_id,
            archetype_id=archetype_id,
            maps=maps,
            device=device,
            generation=generation,
            imputed_features=imputed,
        )


def wemac_scenario(
    scale: str = "tiny",
    seed: int = 0,
    num_subjects: Optional[int] = None,
    chunk_size: int = 16,
    dynamics: Optional[PopulationDynamics] = None,
    devices: Optional[Tuple[DeviceProfile, ...]] = None,
) -> WEMACScenario:
    """Registry factory for the streamed WEMAC population."""
    if dynamics is None:
        dynamics = STATIONARY
    if devices is None:
        devices = (REFERENCE_DEVICE,)
    if scale == "tiny":
        config = WEMACConfig.tiny(seed=seed)
    elif scale == "small":
        config = WEMACConfig.small(seed=seed)
    elif scale == "full":
        config = WEMACConfig(seed=seed)
    else:
        raise ValueError(f"unknown WEMAC scale {scale!r}")
    if num_subjects is not None:
        config = replace(config, num_subjects=int(num_subjects))
    return WEMACScenario(
        config,
        chunk_size=chunk_size,
        dynamics=dynamics,
        devices=devices,
    )
