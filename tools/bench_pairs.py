"""Parent/change pairs of the kmx benchmark on each of its workloads.

    python3 tools/bench_pairs.py --seeds 21-30 --seconds 3
    python3 tools/bench_pairs.py --workload verify --seeds 41,43,47 --base HEAD~1

Exports the commit --base (default HEAD) with `git archive`, and the working
tree's files that `git add -A` would commit, into two sibling directories
whose paths have the same length, so that neither side's `peak_rss_mb`
carries the offset of a longer path.  For each workload (--workload W, or
every workload of BENCHMARK.json in its order when it is left out) and
each seed it runs `perfbench/run.py --workload W --seed S --seconds N`
once in each directory under PYTHONDONTWRITEBYTECODE=1, the parent first
on even pairs and the change first on odd ones.  After each workload it
prints, for each end-to-end metric of BENCHMARK.json, each side's median
and quartiles, the change's median as a share of the parent's, the pairs
the change wins (ties count for neither side), and whether a gain may be
claimed: the change wins at least nine pairs in ten, its median is better
than the parent's by more than the parent's interquartile range, and it
failed no more ops than the parent.  A metric whose change median is worse
than the parent's by more than the metric's `bound` in BENCHMARK.json, read
as a share of the parent's median (perfbench/README.md), is flagged
"beyond bound".  A metric whose parent interquartile range is wider than
that bound is flagged "unresolved" instead, as the runs cannot tell a
change within the bound from one beyond it, unless every change run is
better than every parent run.  Neither flag changes the exit code.  It
prints how many runs per side passed the benchmark's output gate and how
many ops failed.  Stdlib only; run it from anywhere
inside a kmx checkout.  It exits 1 if a run fails or its outputs do not
pass the gate.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # equal lengths: the two checkouts' paths match


def parse_seeds(text: str) -> list[int]:
    """Seeds as "21-30" (inclusive), "3,7,31" or a mix of the two."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(base: str, parent_dir: str, change_dir: str) -> None:
    """The commit `base` into parent_dir, the working tree into change_dir."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", base))) as tar:
        # extraction filters came in Python 3.10.12 and 3.11.4
        if hasattr(tarfile, "data_filter"):
            tar.extractall(parent_dir, filter="data")
        else:
            tar.extractall(parent_dir)
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is left out
            dst = os.path.join(change_dir, name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def run_one(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """The last-line JSON object of one perfbench run in `checkout`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark() -> dict:
    """BENCHMARK.json, as read."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end() -> list[dict]:
    """The end-to-end metrics of BENCHMARK.json."""
    return benchmark()["end_to_end"]


def workloads() -> list[str]:
    """The workload names of BENCHMARK.json, in its order."""
    return [w["name"] for w in benchmark()["workloads"]]


def directions() -> dict[str, str]:
    """{metric: "lower" or "higher"} for the end-to-end metrics of BENCHMARK.json."""
    return {m["name"]: m["better"] for m in end_to_end()}


def bounds() -> dict[str, float]:
    """{metric: the share of the parent's median by which the change may be
    worse} for the end-to-end metrics of BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in end_to_end()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bound: dict[str, float] | None = None) -> tuple[list[str], bool]:
    """Report lines for (parent result, change result) pairs, and whether
    every run passed the gate.  A metric whose direction `better` does not
    name is left out; one that `bound` names is flagged "beyond bound" when
    the change's median is worse than the parent's by more than that share
    of the parent's median, or "unresolved" when the parent's
    interquartile range is wider than that share and some change run is
    no better than some parent run.  No gain is claimable when the change
    failed more ops than the parent."""
    bound = bound or {}
    failed = [sum(pair[k]["failed"] for pair in pairs) for k in range(len(SIDES))]
    lines = []
    for name, way in better.items():
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        sign = 1 if way == "lower" else -1  # sign * (parent - change) > 0: the change is better
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(1 for a, b in zip(old, new) if sign * (a - b) > 0)
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        holds = (10 * wins >= 9 * len(pairs) and sign * (om - nm) > o3 - o1
                 and failed[1] <= failed[0])
        unit = pairs[0][0]["metrics"][name]["unit"]
        share = f"{nm / om:.1%} of parent" if om else "parent median 0"
        if name in bound:
            apart = min(sign * a for a in old) > max(sign * b for b in new)
            if o3 - o1 > bound[name] * abs(om) and not apart:
                share += f", unresolved: parent spread wider than bound {bound[name]:.0%}"
            elif sign * (nm - om) > bound[name] * abs(om):
                share += f", beyond bound {bound[name]:.0%}"
        lines.append(f"{name} ({unit}, {way} is better): parent {om:.6g} [{o1:.6g}-{o3:.6g}] "
                     f"-> change {nm:.6g} [{n1:.6g}-{n3:.6g}] ({share}); "
                     f"change wins {wins}/{len(pairs)}; "
                     f"gain claimable: {'yes' if holds else 'no'}")
    ok = True
    for k, side in enumerate(SIDES):
        runs = [pair[k] for pair in pairs]
        correct = sum(1 for r in runs if r["correct"])
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{side}: {correct}/{len(runs)} runs correct, "
                     f"{failed[k]} of {attempted} ops failed")
        ok = ok and correct == len(runs)
    return lines, ok


def run_pairs(dirs: list[str], workload: str, seeds: list[int],
              seconds: int) -> list[tuple[dict, dict]]:
    """(parent result, change result) per seed, the sides' order alternating."""
    pairs = []
    for k, seed in enumerate(seeds):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = run_one(dirs[side], workload, seed, seconds)
        pairs.append((got[0], got[1]))
        print(f"# {workload} seed {seed}: " + ", ".join(
            f"{SIDES[s]} {json.dumps({n: m['value'] for n, m in got[s]['metrics'].items()})}"
            for s in order), flush=True)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: every workload of "
                                       "BENCHMARK.json)")
    ap.add_argument("--seeds", default="21-30", help='e.g. "21-30" or "3,7,31"')
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    ok = True
    work = tempfile.mkdtemp(prefix="kmx-bench-pairs-")
    try:
        dirs = [os.path.join(work, side) for side in SIDES]
        export(args.base, *dirs)
        for workload in [args.workload] if args.workload else workloads():
            pairs = run_pairs(dirs, workload, seeds, args.seconds)
            lines, passed = summarize(pairs, directions(), bounds())
            print(f"{workload}, {len(pairs)} pairs, --seconds {args.seconds}, "
                  f"base {args.base}, seeds {args.seeds}")
            for line in lines:
                print(line)
            ok = ok and passed
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
