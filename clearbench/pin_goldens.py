"""Recompute ``goldens.json``: the outputs each pinned input set must give.

    python3 clearbench/pin_goldens.py [workload ...]

Run from a checkout, only when a change of outputs is intended (for
example a re-pinned generator); the benchmark's correctness gates then
compare every run against the new values.  Takes about ten minutes on
a 2-CPU host.
"""

from __future__ import annotations

import json
import os
import sys

import run  # noqa: F401  (sets the BLAS thread count before numpy loads)

sys.path.insert(0, str(run.SRC))
os.environ["PYTHONPATH"] = str(run.SRC)

from workloads import GOLDENS_PATH, PINNED_SEEDS, WORKLOADS, FleetServing, load_goldens  # noqa: E402


def pin(name: str) -> dict:
    pinned = {}
    if name == FleetServing.name:
        first = FleetServing(0)
        first.setup()
        for index in range(PINNED_SEEDS):
            workload = FleetServing(index)
            workload.base_maps, workload.system = first.base_maps, first.system
            workload.schedule()
            pinned[str(index)] = {"fingerprint": workload.capacity()["fingerprint"]}
            print(f"[{name}] {index}: {pinned[str(index)]}", file=sys.stderr)
        return pinned
    for index in range(PINNED_SEEDS):
        workload = WORKLOADS[name](index)
        workload.setup()
        it = workload.iterate()
        pinned[str(index)] = workload.golden_of(it)
        print(f"[{name}] {index}: {it['wall_s']:.2f} s", file=sys.stderr)
    return pinned


def main(names) -> None:
    goldens = load_goldens()
    for name in names or sorted(WORKLOADS):
        goldens[name] = pin(name)
        GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
