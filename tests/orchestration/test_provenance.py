"""Artifact digesting and provenance record round-trips."""

import numpy as np

from repro.orchestration import (
    UNHASHABLE,
    Artifact,
    Provenance,
    artifact_digest,
)


class WithHook:
    """Declares stable content; carries a volatile field besides it."""

    def __init__(self, stable, volatile):
        self.stable = stable
        self.volatile = volatile

    def __repro_content__(self):
        return ("WithHook", self.stable)


class TestArtifactDigest:
    def test_deterministic_for_plain_values(self):
        assert artifact_digest([1, 2.5, "x"]) == artifact_digest([1, 2.5, "x"])
        assert artifact_digest(1) != artifact_digest(2)

    def test_ndarray_content_addressed(self):
        a = np.arange(6, dtype=np.float64)
        assert artifact_digest(a) == artifact_digest(a.copy())
        assert artifact_digest(a) != artifact_digest(a + 1)

    def test_hook_excludes_volatile_fields(self):
        fast = WithHook("same", volatile=0.001)
        slow = WithHook("same", volatile=99.9)
        assert artifact_digest(fast) == artifact_digest(slow)
        assert artifact_digest(fast) != artifact_digest(WithHook("other", 0.001))

    def test_picklable_object_falls_back_to_pickle(self):
        digest = artifact_digest(WithHookless())
        assert digest == artifact_digest(WithHookless())
        assert digest != UNHASHABLE

    def test_unpicklable_is_unhashable(self):
        assert artifact_digest(lambda: 0) == UNHASHABLE


class WithHookless:
    """No __repro_content__, not canonically hashable -> pickle path."""

    x = 3


class TestProvenanceRoundTrip:
    def test_as_dict_from_dict(self):
        prov = Provenance(
            stage="train",
            digest="abc",
            config_digest="cfg",
            seed=7,
            seed_path=(2,),
            inputs=(("corpus", "d1"),),
            cache_hits=4,
            cache_misses=1,
            wall_time_s=1.5,
            executor="parallel",
            workers=4,
            units=9,
        )
        assert Provenance.from_dict(prov.as_dict()) == prov

    def test_as_dict_is_json_shaped(self):
        import json

        prov = Provenance(stage="s", digest="d", seed_path=(1, 2))
        text = json.dumps(prov.as_dict())
        assert Provenance.from_dict(json.loads(text)) == prov

    def test_defaults_survive_sparse_dict(self):
        prov = Provenance.from_dict({"stage": "s", "digest": "d"})
        assert prov.executor == "serial"
        assert prov.inputs == ()

    def test_cache_hit_rate_derived_not_serialized(self):
        prov = Provenance(stage="s", digest="d", cache_hits=3, cache_misses=1)
        assert prov.cache_hit_rate == 0.75
        assert Provenance(stage="s", digest="d").cache_hit_rate == 0.0
        assert "cache_hit_rate" not in prov.as_dict()


class TestArtifact:
    def test_digest_is_provenance_digest(self):
        art = Artifact("a", 1, Provenance(stage="s", digest="xyz"))
        assert art.digest == "xyz"

    def test_repro_content_is_name_plus_digest(self):
        art = Artifact("a", object(), Provenance(stage="s", digest="xyz"))
        assert art.__repro_content__() == ("a", "xyz")
