"""Content-addressed cache: key canon, persistence, invalidation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import CacheError
from repro.runtime import (
    ContentCache,
    ParallelExecutor,
    checkpoint_cache,
    content_key,
    feature_map_cache,
)
from repro.signals.feature_map import (
    SubjectExtractionUnit,
    extract_subject_maps,
)


def _canonical_parts():
    """The same parts, rebuilt from scratch (no shared state)."""
    return (
        "feature_map.v1",
        np.arange(24, dtype=np.float64).reshape(4, 6),
        (32.0, 4.0, 4.0),
        8.0,
        3,
        "subject",
    )


def _key_in_child(_):
    """Executor worker: compute the canonical key in a worker process."""
    return content_key(*_canonical_parts())


class TestContentKey:
    def test_deterministic(self):
        assert content_key(*_canonical_parts()) == content_key(
            *_canonical_parts()
        )

    def test_stable_across_processes(self):
        # PYTHONHASHSEED randomizes str hashes per process; the content
        # key must not inherit that, or a forked worker would never hit
        # entries its parent wrote.
        parent = content_key(*_canonical_parts())
        children = ParallelExecutor(2).map(_key_in_child, [0, 1])
        assert children == [parent, parent]

    def test_type_tags_prevent_cross_type_collisions(self):
        assert content_key(1) != content_key("1")
        assert content_key(1) != content_key(True)
        assert content_key(1) != content_key(1.0)
        assert content_key(None) != content_key("")

    def test_array_bytes_dtype_and_shape_all_matter(self):
        base = np.arange(6, dtype=np.float64)
        assert content_key(base) == content_key(base.copy())
        assert content_key(base) != content_key(base + 1)
        assert content_key(base) != content_key(base.astype(np.float32))
        assert content_key(base) != content_key(base.reshape(2, 3))

    def test_dict_key_order_is_canonical(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_dataclass_fields_hashed(self):
        @dataclasses.dataclass
        class Cfg:
            epochs: int = 3
            lr: float = 0.01

        assert content_key(Cfg()) == content_key(Cfg())
        assert content_key(Cfg()) != content_key(Cfg(epochs=4))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="content-addressed"):
            content_key(object())


class TestContentCache:
    def test_array_round_trip(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = cache.key("entry", 1)
        values = np.random.default_rng(0).random((3, 4))
        cache.store_arrays(key, values=values, label=np.array(1))
        loaded = cache.load_arrays(key)
        np.testing.assert_array_equal(loaded["values"], values)
        assert int(loaded["label"]) == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ContentCache(tmp_path)
        assert cache.load_arrays(cache.key("absent")) is None

    def test_object_round_trip(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = cache.key("obj")
        cache.store_object(key, {"weights": [1.0, 2.0]})
        assert cache.load_object(key) == {"weights": [1.0, 2.0]}

    def test_corrupt_array_entry_raises_cache_error(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = cache.key("bad")
        cache.store_arrays(key, values=np.zeros(3))
        (cache.root / f"{key}.npz").write_bytes(b"not a zipfile")
        with pytest.raises(CacheError, match="corrupt cache entry"):
            cache.load_arrays(key)

    def test_corrupt_object_entry_raises_cache_error(self, tmp_path):
        cache = ContentCache(tmp_path)
        key = cache.key("bad")
        cache.store_object(key, [1, 2, 3])
        (cache.root / f"{key}.pkl").write_bytes(b"\x00garbage")
        with pytest.raises(CacheError, match="corrupt cache entry"):
            cache.load_object(key)

    def test_len_and_clear(self, tmp_path):
        cache = ContentCache(tmp_path)
        cache.store_arrays(cache.key("a"), values=np.zeros(2))
        cache.store_object(cache.key("b"), 42)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_namespaces_are_disjoint(self, tmp_path):
        maps = feature_map_cache(tmp_path)
        ckpt = checkpoint_cache(tmp_path)
        key = content_key("shared")
        maps.store_arrays(key, values=np.ones(2))
        assert ckpt.load_arrays(key) is None
        assert maps.root != ckpt.root

    def test_unusable_root_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        with pytest.raises(CacheError, match="cannot create"):
            ContentCache(blocker / "cache")


def _racing_object_writer(args):
    """Executor worker: store an object under a contested key."""
    root, key, value = args
    ContentCache(root).store_object(key, value)
    return True


def _racing_array_writer(args):
    root, key, fill = args
    ContentCache(root).store_arrays(key, data=np.full(64, float(fill)))
    return True


class TestConcurrentWriters:
    """Two+ processes racing ``os.replace`` on the same key both succeed."""

    def test_same_key_same_value_all_win(self, tmp_path):
        key = content_key("race.v1", "same-value")
        work = [(str(tmp_path), key, {"payload": 7})] * 8
        results = ParallelExecutor(4).map(_racing_object_writer, work)
        assert results == [True] * 8
        assert ContentCache(tmp_path).load_object(key) == {"payload": 7}

    def test_same_key_different_values_entry_stays_valid(self, tmp_path):
        # Racing writers with *different* payloads: whichever os.replace
        # lands last wins, and the surviving entry is never torn.
        key = content_key("race.v1", "different-values")
        work = [(str(tmp_path), key, i) for i in range(8)]
        results = ParallelExecutor(4).map(_racing_object_writer, work)
        assert results == [True] * 8
        assert ContentCache(tmp_path).load_object(key) in set(range(8))

    def test_racing_array_writers(self, tmp_path):
        key = content_key("race.v1", "arrays")
        work = [(str(tmp_path), key, 3.5)] * 6
        assert ParallelExecutor(3).map(_racing_array_writer, work) == [True] * 6
        loaded = ContentCache(tmp_path).load_arrays(key)
        np.testing.assert_array_equal(loaded["data"], np.full(64, 3.5))

    def test_no_temp_files_leak_after_race(self, tmp_path):
        key = content_key("race.v1", "leak-check")
        work = [(str(tmp_path), key, "v")] * 8
        ParallelExecutor(4).map(_racing_object_writer, work)
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert len(ContentCache(tmp_path)) == 1


def _unit(tmp_path, windows_per_map=2, window_seconds=8.0, cache=True):
    """A small but extractable one-trial work unit."""
    rng = np.random.default_rng(5)
    duration = windows_per_map * window_seconds
    t_bvp = np.arange(int(duration * 32.0)) / 32.0
    bvp = np.sin(2 * np.pi * 1.2 * t_bvp) + 0.05 * rng.standard_normal(
        t_bvp.size
    )
    n_slow = int(duration * 4.0)
    gsr = 2.0 + 0.1 * np.cumsum(rng.standard_normal(n_slow)) / np.sqrt(n_slow)
    skt = 33.0 + 0.01 * np.cumsum(rng.standard_normal(n_slow)) / np.sqrt(n_slow)
    return SubjectExtractionUnit(
        subject_id=3,
        trials=[{"bvp": bvp, "gsr": gsr, "skt": skt}],
        labels=[1],
        windows_per_map=windows_per_map,
        rates=(32.0, 4.0, 4.0),
        window_seconds=window_seconds,
        cache_dir=str(tmp_path) if cache else None,
    )


class TestFeatureMapCaching:
    def test_cold_then_warm(self, tmp_path):
        cold = extract_subject_maps(_unit(tmp_path))
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        warm = extract_subject_maps(_unit(tmp_path))
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        np.testing.assert_array_equal(
            cold.maps[0].values, warm.maps[0].values
        )
        assert warm.maps[0].label == cold.maps[0].label == 1
        assert warm.maps[0].subject_id == 3

    def test_config_change_invalidates(self, tmp_path):
        extract_subject_maps(_unit(tmp_path))
        # Same raw bytes, different windows_per_map → different key.
        again = extract_subject_maps(_unit(tmp_path, windows_per_map=1))
        assert again.cache_misses == 1
        assert again.cache_hits == 0

    def test_no_cache_dir_counts_nothing(self, tmp_path):
        result = extract_subject_maps(_unit(tmp_path, cache=False))
        assert (result.cache_hits, result.cache_misses) == (0, 0)
        assert len(result.maps) == 1
