"""Snapshot of the kmx benchmark: every workload, end to end and per layer.

    python3 tools/bench_snapshot.py BENCH_<n>.json

Runs perfbench/run.py on each of its workloads with a fixed seed: once with
--trace 0 for SECONDS seconds (the end-to-end metrics and the host-speed
probe), then once with --trace 1 (the per-layer metrics).  It writes one
JSON object to the given path: the commit (`git rev-parse HEAD`), whether
the working tree differed from it, the Python version, the seed, and per
workload both runs' metrics, their correct/attempted/failed counts and the
`# host speed` line.  Under "tier1" it records one run of the Tier-1 suite
(ROADMAP.md: `python -m pytest -q` over tests/, src on PYTHONPATH), made
with --durations=DURATIONS: its wall and CPU seconds, the counts of its
summary line and its DURATIONS slowest test phases.  Per module of src/kmx
it also records the token count of its source (`tokenize`) and the
tracemalloc peak of `compile()` on that source, in KiB: the perfbench
workers compile src/kmx from source, so that peak can set their
`peak_rss_mb`.  Its runs set PYTHONDONTWRITEBYTECODE=1, but Python still
reads a bytecode cache that exists, so a checkout with a src/kmx/__pycache__
would time a cached set-up: the tool then exits 1, and writes nothing,
until that directory is removed.  Stdlib only; run it from
anywhere inside a kmx checkout.  It exits 1, and writes nothing, if a run
fails, its output does not pass the benchmark's gate, or a Tier-1 test
fails.
"""

from __future__ import annotations

import glob
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
import tokenize
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("coxeter-rank10", "hw-slices", "verify")
SEED = 3
SECONDS = 5
DURATIONS = 10  # the slowest Tier-1 test phases recorded


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    """The last-line JSON object of one perfbench run, and its comment lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("# ")]


def tier1() -> dict:
    """One Tier-1 run: its wall and CPU seconds, the counts of its summary
    line ("1679 passed in 69.01s" gives {"passed": 1679}) and its DURATIONS
    slowest test phases, slowest first."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", f"--durations={DURATIONS}"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH="src" + (os.pathsep + path if path else ""))
    before, start = os.times(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall, after = time.perf_counter() - start, os.times()
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.strip().splitlines()[-5:])
        raise RuntimeError(f"the Tier-1 suite exited with {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(k) for k, kind in re.findall(r"(\d+) ([a-z]+)", lines[-1])}
    slowest = []
    for line in lines:
        m = re.fullmatch(r"(\d+\.\d+)s (setup|call|teardown) +(.+)", line)
        if m:
            slowest.append({"test": m[3], "phase": m[2], "s": float(m[1])})
    cpu = (after.children_user - before.children_user
           + after.children_system - before.children_system)
    return {"wall_s": round(wall, 2), "cpu_s": round(cpu, 2), "counts": counts,
            "slowest": slowest}


def module_sizes() -> dict:
    """{module file: {"tokens": n, "compile_peak_kib": peak}} for src/kmx."""
    out = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "kmx", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tokens = sum(1 for _ in tokenize.generate_tokens(io.StringIO(source).readline))
        tracemalloc.start()
        compile(source, path, "exec")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[os.path.basename(path)] = {"tokens": tokens,
                                       "compile_peak_kib": round(peak / 1024, 1)}
    return out


def snapshot() -> dict:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout.strip() != ""
    out = {"commit": head, "uncommitted_changes": dirty, "python": platform.python_version(),
           "seed": SEED, "seconds": SECONDS, "modules": module_sizes(), "workloads": {}}
    for workload in WORKLOADS:
        runs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, notes = run(workload, trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} --trace {trace}: outputs failed the gate")
            runs[key] = {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
                         "units": {k: m["unit"] for k, m in result["metrics"].items()},
                         "attempted": result["attempted"], "failed": result["failed"]}
            if trace == 0:
                runs["host_speed"] = next(n for n in notes if n.startswith("# host speed"))
        out["workloads"][workload] = runs
        print(f"{workload}: wall_s {runs['end_to_end']['metrics']['wall_s']:.4f} s",
              file=sys.stderr)
    out["tier1"] = tier1()
    print(f"Tier-1: {out['tier1']['counts']}, {out['tier1']['wall_s']} s wall", file=sys.stderr)
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cache = os.path.join(ROOT, "src", "kmx", "__pycache__")
    if os.path.exists(cache):
        print(f"bench_snapshot: {cache} exists, and the runs would read it; "
              "remove it to time a cold compile", file=sys.stderr)
        return 1
    try:
        data = snapshot()
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"bench_snapshot: {e}", file=sys.stderr)
        return 1
    with open(args[0], "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
