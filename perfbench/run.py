"""kmx benchmark: seeded workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload coxeter-rank10 --seed 1 --seconds 5 --trace 0

Run it from the root of a kmx checkout; it imports kmx from src/.  Each
repetition of a workload's op stream runs in a fresh single-threaded Python
process, so caches start cold.  Repetitions of the same seeded stream go on
until --seconds have passed (at least one), and set-up is timed in at least
SETUPS fresh processes.  Timings are medians over repetitions, read on the
host-speed clock of hostclock.py.

--trace 0 reports the end-to-end metrics; --trace 1 runs the stream once
with every listed kmx callable wrapped and reports the per-layer metrics
(and writes the full trace under .perfbench/).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostclock import REFERENCE_PROBE_S  # noqa: E402
from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
TAIL_BEYOND = 10
SETUPS = 3
WORKER_TIMEOUT_S = 170
RUN_BUDGET_S = 150  # no new repetition starts if it could end past this


class BenchError(Exception):
    pass


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile that
    has at least TAIL_BEYOND samples beyond it: the (TAIL_BEYOND + 1)-th
    largest sample.  With too few samples there is none, and the maximum
    stands in."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1], TAIL_BEYOND


def run_worker(workload: str, seed: int, mode: str, trace: bool, smoke: bool) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    t0 = time.monotonic()
    cmd += [repr(t0), mode] + (["--trace"] if trace else []) + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the child
        raise BenchError(f"{workload} worker timed out after {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def gate(workload: str, seed: int, reps: list[dict], smoke: bool) -> tuple[bool, int, list[str]]:
    """(correct, extra failed ops, notes) from the per-kind output digests:
    every repetition must agree, and with the pinned digest where one is
    pinned for this seed.  A kind whose digest differs counts all its ops
    as failed."""
    notes = []
    digests = reps[0]["digests"]
    correct = all(r["mismatched"] == 0 for r in reps)
    if any(r["digests"] != digests for r in reps):
        notes.append("repetitions of one stream gave different outputs")
        correct = False
    pinned = None if smoke else load_pins().get(workload, {}).get(str(seed))
    extra = 0
    if workload == "verify":
        notes.append("report gated byte for byte against perfbench/verify_report.txt")
    elif pinned is None:
        notes.append(f"no pinned digest for seed {seed}: outputs gated by per-op checks")
    else:
        bad = sorted(k for k in set(pinned) | set(digests) if pinned.get(k) != digests.get(k))
        for kind in bad:
            extra += reps[0]["ops_by_kind"].get(kind, 0) * len(reps)
            notes.append(f"digest of {kind} ops differs from the pinned one")
        correct = correct and not bad
        if not bad:
            notes.append(f"digests match the pins for seed {seed}")
    return correct, extra, notes


def measure(workload: str, seed: int, seconds: int, smoke: bool) -> tuple[dict, list[dict]]:
    reps = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(run_worker(workload, seed, "run", False, smoke))
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - t) > RUN_BUDGET_S:
            break
    setup_runs = list(reps)
    while len(setup_runs) < SETUPS:
        setup_runs.append(run_worker(workload, seed, "setup", False, smoke))
    setups = [r["setup_s"] for r in setup_runs]
    raw_setups = [r["raw_setup_s"] for r in setup_runs]
    tails = [tail(r["op_s"]) for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(r["op_s"]) for r in reps),
        "op_tail_ms": 1e3 * statistics.median(t[1] for t in tails),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    p, _, beyond = tails[0]
    print(f"# {len(reps)} repetition(s) of {len(reps[0]['op_s'])} ops, "
          f"{len(setups)} set-ups; op_tail_ms is the p{p:.2f} latency "
          f"({beyond} of {len(reps[0]['op_s'])} ops beyond it)")
    print(f"# host speed: median reference probe "
          f"{1e3 * statistics.median(r['median_probe_s'] for r in reps):.4f} ms "
          f"(reference {1e3 * REFERENCE_PROBE_S:.4f} ms); unnormalized wall_s "
          f"{statistics.median(r['raw_wall_s'] for r in reps):.4f} s, setup_s "
          f"{statistics.median(raw_setups):.4f} s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op streams, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kmx", "__init__.py")):
        print("perfbench: src/kmx not found; run from the root of a kmx checkout",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps = [run_worker(args.workload, args.seed, "run", True, args.smoke)]
            units = per_layer_units()
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in reps[0]["per_layer"].items()}
            print(f"# trace written to {reps[0]['trace_file']}")
        else:
            metrics, reps = measure(args.workload, args.seed, args.seconds, args.smoke)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    correct, extra, notes = gate(args.workload, args.seed, reps, args.smoke)
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed"] for r in reps) + extra)
    for note in notes:
        print(f"# {note}")
    print(f"# failed_share {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for reason, count in sorted(reps[0]["failures"].items()):
        print(f"#   failed x{count} per repetition: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
