"""Graph semantics: topology, provenance chaining, runtime injection."""

import numpy as np
import pytest

from repro.errors import OrchestrationError
from repro.orchestration import (
    FoldPlanResult,
    PipelineGraph,
    Stage,
    run_fold_plan,
)
from repro.runtime import ParallelExecutor, SerialExecutor


def _const(value):
    return lambda ctx: value


class TestTopology:
    def test_declaration_order_is_tie_break(self):
        graph = PipelineGraph(
            "g",
            [
                Stage("b", _const(2)),
                Stage("a", _const(1)),
                Stage("c", lambda ctx, a, b: a + b, requires=("a", "b")),
            ],
        )
        assert [s.name for s in graph.topological_order()] == ["b", "a", "c"]

    def test_dependencies_run_first(self):
        graph = PipelineGraph(
            "g",
            [
                Stage("sum", lambda ctx, x: sum(x), requires=("x",)),
                Stage("x", _const([1, 2, 3])),
            ],
        )
        assert [s.name for s in graph.topological_order()] == ["x", "sum"]
        assert graph.run().value("sum") == 6

    def test_unknown_requirement_raises(self):
        graph = PipelineGraph("g", [Stage("a", lambda ctx, ghost: 0, requires=("ghost",))])
        with pytest.raises(OrchestrationError, match="unknown artifact 'ghost'"):
            graph.topological_order()

    def test_initial_inputs_satisfy_requirements(self):
        graph = PipelineGraph(
            "g", [Stage("double", lambda ctx, x: 2 * x, requires=("x",))]
        )
        assert graph.run(initial={"x": 21}).value("double") == 42

    def test_cycle_raises(self):
        graph = PipelineGraph(
            "g",
            [
                Stage("a", lambda ctx, b: b, requires=("b",)),
                Stage("b", lambda ctx, a: a, requires=("a",)),
            ],
        )
        with pytest.raises(OrchestrationError, match="cycle"):
            graph.topological_order()

    def test_duplicate_stage_name_rejected(self):
        graph = PipelineGraph("g", [Stage("a", _const(1))])
        with pytest.raises(OrchestrationError, match="already has a stage"):
            graph.add(Stage("a", _const(2), provides="other"))

    def test_duplicate_provides_rejected(self):
        graph = PipelineGraph("g", [Stage("a", _const(1))])
        with pytest.raises(OrchestrationError, match="already produces"):
            graph.add(Stage("b", _const(2), provides="a"))

    def test_missing_name_rejected(self):
        with pytest.raises(OrchestrationError, match="non-empty name"):
            Stage("", _const(1))


class TestProvenance:
    def test_input_artifacts_carry_input_stage(self):
        graph = PipelineGraph("g", [Stage("y", lambda ctx, x: x, requires=("x",))])
        run = graph.run(initial={"x": 7})
        assert run.provenance("x").stage == "input"
        assert run.provenance("y").inputs == (("x", run.provenance("x").digest),)

    def test_digest_deterministic_across_runs(self):
        def build():
            return PipelineGraph(
                "g",
                [
                    Stage("base", _const([1, 2, 3]), seed=5),
                    Stage(
                        "derived",
                        lambda ctx, base: np.asarray(base) * 2,
                        requires=("base",),
                    ),
                ],
            )

        a = build().run(seed=5)
        b = build().run(seed=5)
        assert a.provenance("derived").digest == b.provenance("derived").digest
        # wall times may differ between runs; digests must not
        assert [r["digest"] for r in a.lineage()] == [
            r["digest"] for r in b.lineage()
        ]

    def test_different_value_different_digest(self):
        run1 = PipelineGraph("g", [Stage("v", _const(1))]).run()
        run2 = PipelineGraph("g", [Stage("v", _const(2))]).run()
        assert run1.provenance("v").digest != run2.provenance("v").digest

    def test_stage_seed_overrides_run_seed(self):
        graph = PipelineGraph(
            "g", [Stage("a", _const(0), seed=11), Stage("b", _const(0))]
        )
        run = graph.run(seed=3)
        assert run.provenance("a").seed == 11
        assert run.provenance("b").seed == 3

    def test_seed_path_is_topological_index(self):
        graph = PipelineGraph(
            "g", [Stage("a", _const(0)), Stage("b", _const(0))]
        )
        run = graph.run()
        assert run.provenance("a").seed_path == (0,)
        assert run.provenance("b").seed_path == (1,)

    def test_config_digest_present_when_configured(self):
        run = PipelineGraph(
            "g", [Stage("a", _const(0), config={"k": 4})]
        ).run()
        assert run.provenance("a").config_digest is not None
        bare = PipelineGraph("g", [Stage("a", _const(0))]).run()
        assert bare.provenance("a").config_digest is None

    def test_cache_and_units_recorded(self):
        def fn(ctx):
            ctx.set_units(4)
            ctx.record_cache(3, 1)
            return 0

        run = PipelineGraph("g", [Stage("a", fn)]).run()
        prov = run.provenance("a")
        assert (prov.cache_hits, prov.cache_misses, prov.units) == (3, 1, 4)

    def test_executor_shape_recorded(self):
        run = PipelineGraph("g", [Stage("a", _const(0))]).run(
            executor=ParallelExecutor(3)
        )
        prov = run.provenance("a")
        assert prov.executor == "parallel"
        assert prov.workers == 3


class TestExecution:
    def test_ctx_executor_is_injected(self):
        seen = {}

        def fn(ctx):
            seen["executor"] = ctx.executor
            seen["cache_dir"] = ctx.cache_dir
            return 0

        executor = SerialExecutor()
        PipelineGraph("g", [Stage("a", fn)]).run(
            executor=executor, cache_dir="/tmp/c"
        )
        assert seen["executor"] is executor
        assert seen["cache_dir"] == "/tmp/c"

    def test_screen_output_rejects_non_finite(self):
        graph = PipelineGraph(
            "g",
            [
                Stage(
                    "bad",
                    _const(np.array([1.0, np.nan])),
                    screen_output=True,
                )
            ],
        )
        with pytest.raises(OrchestrationError, match="non-finite"):
            graph.run()

    def test_screen_output_passes_finite(self):
        graph = PipelineGraph(
            "g", [Stage("ok", _const(np.ones(3)), screen_output=True)]
        )
        assert graph.run().value("ok").sum() == 3.0

    def test_run_contains_and_wall_time(self):
        run = PipelineGraph("g", [Stage("a", _const(0))]).run()
        assert "a" in run
        assert "zzz" not in run
        assert run.wall_time_s("a") >= 0.0
        assert run["a"].name == "a"


def _square(x):
    return x * x


class TestFoldPlan:
    def test_results_in_unit_order(self):
        plan = run_fold_plan(
            "squares", [3, 1, 2], _square, cache_counts=lambda r: (0, 0)
        )
        assert isinstance(plan, FoldPlanResult)
        assert plan.results == [9, 1, 4]

    def test_parallel_matches_serial(self):
        serial = run_fold_plan(
            "sq", [1, 2, 3, 4], _square, cache_counts=lambda r: (0, 0)
        )
        parallel = run_fold_plan(
            "sq",
            [1, 2, 3, 4],
            _square,
            cache_counts=lambda r: (0, 0),
            executor=ParallelExecutor(2),
        )
        assert serial.results == parallel.results
        assert parallel.provenance.executor == "parallel"

    def test_cache_counts_merged_into_stats(self):
        plan = run_fold_plan(
            "sq", [2, 5], _square, cache_counts=lambda r: (1, r % 2)
        )
        assert plan.provenance.cache_hits == 2
        assert plan.provenance.cache_misses == 1
        assert plan.provenance.units == 2
        assert plan.provenance.stage == "sq"
