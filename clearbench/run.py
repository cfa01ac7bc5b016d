"""One command for the CLEAR benchmark.

    python3 clearbench/run.py --workload fleet_serving --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository.  It imports the program from
``src/`` (so it exits non-zero when there is none), turns the seed into
the workload's inputs, sets up, measures for ``--seconds`` and checks
every output against its golden.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A record with provenance (code hash, host, seed, run
index) is written under ``.clearbench_runs/``; a traced run also writes
its spans there.  The exit code is 1 when a correctness gate fails.
"""

from __future__ import annotations

import os

#: One BLAS thread: the workloads' GEMMs are small (8-row serving slabs,
#: 8-row training batches), and one thread keeps runs on a shared 2-CPU
#: host steady.  Set before numpy is imported, here and in subprocesses.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".clearbench_runs"

#: Units of the end-to-end metrics (``BENCHMARK.json`` ``end_to_end``).
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "decisions_per_s": "1/s",
    "subjects_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "slo_met_frac": "frac",
}


def tree_hash(root: Path, suffixes=None) -> str:
    """SHA-256 over every file's relative path and bytes (no caches).

    With ``suffixes``, only files with one of those suffixes count.
    """
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        if suffixes is not None and path.suffix not in suffixes:
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None, "threads_env": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                return info
    return info


def host_block() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }


def next_run_index(prefix: str) -> int:
    return len(list(RUNS.glob(f"{prefix}-run[0-9][0-9][0-9].json"))) if RUNS.exists() else 0


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) at the current RSS."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def peak_rss_mb() -> float:
    """Peak RSS since the last ``reset_peak_rss``, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, seconds: float) -> list:
    """Iterate until ``seconds`` of measurement have passed (at least once)."""
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        # Free the last iteration's service graphs now, not whenever the
        # cyclic collector happens to run, so peak RSS is repeatable.
        gc.collect()
        iterations.append(workload.iterate())
        print(f"[{workload.name}] iteration {len(iterations)}: {iterations[-1]['wall_s']:.3f} s", file=sys.stderr)
    return iterations


def traced(workload, import_s: float) -> tuple:
    """A traced iteration, then an untraced reference; per-layer metrics.

    Their wall ratio is the tracing overhead.  Set-up already warmed the
    fleet and stream workloads; on the one-shot Table I job the traced
    iteration also pays first-call costs, which can only overstate it.
    """
    from layers import install, instrument_service, per_layer_metrics
    from tracing import Patches, Tracer

    tracer, patches, models = Tracer(), Patches(), []
    install(tracer, patches, models)
    try:
        traced_it = workload.iterate(
            instrument=lambda service, waits: instrument_service(tracer, patches, service, waits)
        )
    finally:
        patches.restore()
    gc.collect()
    reference = workload.iterate()
    metrics = per_layer_metrics(
        tracer,
        models,
        run_s=traced_it["wall_s"],
        untraced_run_s=reference["wall_s"],
        import_s=import_s,
        extra=workload.layer_extra(traced_it),
    )
    return [traced_it, reference], metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    workload = WORKLOADS[args.workload](args.seed, size=args.size)
    workload.setup()

    tracer = None
    if args.trace:
        iterations, layer_metrics, tracer = traced(workload, import_s)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
    else:
        # Peak RSS covers the measured iterations only, not the import
        # or set-up (corpus generation and ``CLEAR.fit`` on the fleet).
        gc.collect()
        reset_peak_rss()
        iterations = measure(workload, args.seconds)
        e2e = {"setup_s": workload.setup_s, **workload.end_to_end(iterations), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}

    attempted = failed = 0
    problems = []
    for it in iterations:
        a, f, p = workload.check(it)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    correct = not problems and failed == 0

    prefix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_index = next_run_index(prefix)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "input_index": workload.index,
        "run_index": run_index,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": {
            "src_sha256": tree_hash(SRC),
            "bench_sha256": tree_hash(HERE, suffixes={".py", ".json"}),
            "host": host_block(),
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "quality": [workload.quality(it) for it in iterations],
        "iterations": iterations,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{prefix}-run{run_index:03d}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        (RUNS / f"{prefix}-run{run_index:03d}.spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
        )
    for problem in problems:
        print(f"[{args.workload}] CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
