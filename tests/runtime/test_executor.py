"""Executor semantics: ordering, equivalence, seed spawning, fallbacks."""

import numpy as np
import pytest

from repro.errors import ExecutorError
from repro.runtime import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_mp_context,
    spawn_seeds,
)


def square(x):
    return x * x


def draw(seed_entropy):
    """Worker that derives a generator from a pre-spawned seed's state."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy))
    return rng.random(4)


def boom(x):
    raise ValueError(f"unit {x} failed")


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_work_list(self):
        assert SerialExecutor().map(square, []) == []

    def test_describe(self):
        assert SerialExecutor().describe() == "serial(workers=1)"

    def test_exception_propagates(self):
        with pytest.raises(ValueError, match="unit 2 failed"):
            SerialExecutor().map(boom, [2])


class TestParallelExecutor:
    def test_matches_serial_output(self):
        items = list(range(8))
        assert ParallelExecutor(2).map(square, items) == SerialExecutor().map(
            square, items
        )

    def test_results_in_submission_order(self):
        items = list(range(16))
        assert ParallelExecutor(4).map(square, items) == [i * i for i in items]

    def test_single_item_runs_in_process(self):
        # <= 1 unit short-circuits the pool; same answer either way.
        assert ParallelExecutor(4).map(square, [7]) == [49]

    def test_empty_work_list(self):
        assert ParallelExecutor(2).map(square, []) == []

    def test_numpy_results_bit_identical(self):
        entropies = [int(s.generate_state(1)[0]) for s in spawn_seeds(0, 6)]
        serial = SerialExecutor().map(draw, entropies)
        parallel = ParallelExecutor(2).map(draw, entropies)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="failed"):
            ParallelExecutor(2).map(boom, [1, 2, 3])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(0)

    def test_default_workers_positive(self):
        assert ParallelExecutor().workers >= 1


class TestMpContext:
    def test_default_resolves_to_fork_on_linux(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        assert resolve_mp_context().get_start_method() == "fork"

    def test_explicit_method_honoured(self):
        assert resolve_mp_context("spawn").get_start_method() == "spawn"

    def test_unknown_method_raises_typed_actionable(self):
        with pytest.raises(ExecutorError) as excinfo:
            resolve_mp_context("definitely-not-a-method")
        message = str(excinfo.value)
        assert "definitely-not-a-method" in message
        assert "have:" in message  # names the valid alternatives

    def test_executor_with_bad_context_fails_at_map(self):
        executor = ParallelExecutor(2, mp_context="bogus")
        with pytest.raises(ExecutorError, match="bogus"):
            executor.map(square, range(4))

    def test_executor_runs_under_spawn(self):
        # Worker must be a module-level importable callable under spawn.
        items = list(range(4))
        result = ParallelExecutor(2, mp_context="spawn").map(square, items)
        assert result == [i * i for i in items]

    def test_make_executor_threads_context_through(self):
        executor = make_executor(2, mp_context="spawn")
        assert executor.mp_context == "spawn"


class TestMakeExecutor:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_degenerate_counts(self, workers):
        assert isinstance(make_executor(workers), SerialExecutor)

    def test_parallel_above_one(self):
        ex = make_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 3

    def test_returns_executor_subclass(self):
        assert isinstance(make_executor(2), Executor)


class TestSpawnSeeds:
    def test_deterministic_for_same_root(self):
        a = [s.generate_state(2).tolist() for s in spawn_seeds(42, 5)]
        b = [s.generate_state(2).tolist() for s in spawn_seeds(42, 5)]
        assert a == b

    def test_children_are_independent(self):
        states = {tuple(s.generate_state(2)) for s in spawn_seeds(0, 10)}
        assert len(states) == 10

    def test_prefix_stable_across_widths(self):
        # Unit i's seed must not depend on how many siblings were spawned,
        # otherwise adding a fold would reshuffle every other fold.
        narrow = [s.generate_state(2).tolist() for s in spawn_seeds(7, 3)]
        wide = [s.generate_state(2).tolist() for s in spawn_seeds(7, 6)]
        assert wide[:3] == narrow

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
