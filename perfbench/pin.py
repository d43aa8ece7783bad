"""Pin the per-kind output digests of the seeded workloads.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Run from the root of a kmx checkout.  Runs the coxeter-rank10 and hw-slices
streams (or the named ones) once per seed and updates perfbench/pins.json,
which run.py compares against.  Rerun it only in a change whose purpose is
a new canonical output.  The verify report is pinned separately, in
perfbench/verify_report.txt.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    pins = run.load_pins()
    for workload in argv[2:] or ("coxeter-rank10", "hw-slices"):
        pins[workload] = {}
        for seed in range(first, last + 1):
            rep = run.run_worker(workload, seed, "run", False, False)
            if rep["mismatched"]:
                raise SystemExit(f"{workload} seed {seed}: {rep['failures']}")
            pins[workload][str(seed)] = rep["digests"]
            print(workload, seed, flush=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
