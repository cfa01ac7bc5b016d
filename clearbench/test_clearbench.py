"""The benchmark's own test: every workload at smoke size on a second seed.

    python3 -m pytest clearbench/test_clearbench.py

Smoke inputs have no pinned goldens, so this checks the seed-free
invariants instead: the capacity and open phases give the same decision
fingerprint, the streamed contingency sums to the population size, and
Table I has all six rows.  It also checks the output contract against
``BENCHMARK.json`` and that a traced run puts every patched callable
back.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = SEED):
    proc = subprocess.run(
        [sys.executable, str(cwd / "clearbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def last_record(workload: str, trace: int) -> dict:
    runs = sorted((ROOT / ".clearbench_runs").glob(f"{workload}-seed{SEED}-trace{trace}-run[0-9][0-9][0-9].json"))
    return json.loads(runs[-1].read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke_run_meets_contract(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())

    record = last_record(workload, trace=0)
    assert record["provenance"]["host"]["blas"]["threads_env"] == "1"
    assert len(record["provenance"]["src_sha256"]) == 64
    for it in record["iterations"]:
        if workload == "fleet_serving":
            assert it["open"]["fingerprint"] == it["capacity"]["fingerprint"]
            assert it["open"]["succeeded"] == it["open"]["sent"]
        elif workload == "population_stream":
            assert it["contingency_sum"] == it["subjects"]
        else:
            assert len(it["rows"]) == 6


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_run_reports_every_layer(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    spans = ROOT / ".clearbench_runs"
    assert list(spans.glob(f"{workload}-seed{SEED}-trace1-run*.spans.json"))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "clearbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("offline_table1", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_patches_are_restored():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.nn as nn
    from layers import install
    from repro.core import validation
    from repro.signals import features
    from tracing import Patches, Tracer

    before = (nn.Conv2D.forward, validation.train_on_maps_cached, features.extract_bvp_features)
    patches = Patches()
    install(Tracer(), patches, [])
    assert nn.Conv2D.forward is not before[0]
    patches.restore()
    assert (nn.Conv2D.forward, validation.train_on_maps_cached, features.extract_bvp_features) == before
    assert "forward" in vars(nn.Conv2D)
