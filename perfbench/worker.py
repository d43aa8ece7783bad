"""One fresh benchmark process: set up one workload, run its op stream once.

Run by run.py as
    python3 perfbench/worker.py WORKLOAD SEED T0 MODE [--trace] [--smoke]
with PYTHONPATH pointing at the checkout's src/.  T0 is the parent's
time.monotonic() just before it started this process (CLOCK_MONOTONIC is
system-wide on Linux), so set-up time counts from process start; like op
times it is read on the host-speed clock (hostclock.py), except in traced
runs.  MODE is `setup` (set up and stop) or `run`.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(runner, ops, clock, tracer=None) -> dict:
    """Time each op, check its output and fold its canonical form into the
    digest of its kind."""
    times, raw, failures, digests = [], 0.0, {}, {}
    mismatched = 0
    for op_id, (kind, args) in enumerate(ops):
        if tracer is not None:
            tracer.op_kind = kind
        out = reason = thunk = None
        try:
            thunk, check = runner.prepare(kind, args)
        except Exception as e:  # the stream goes on; the op counts as failed
            reason = f"inputs: {type(e).__name__}: {e}"
        r0, t0 = clock.raw(), clock.now()
        if thunk is not None:
            out, reason = outcome(thunk)
        t1, r1 = clock.now(), clock.raw()
        raw += r1 - r0
        wrong = False
        if reason is None:
            try:
                wrong = not check(out)
                reason = "wrong output" if wrong else None
            except Exception as e:  # the output could not be confirmed
                wrong, reason = True, f"check: {type(e).__name__}: {e}"
        times.append(t1 - t0)
        if tracer is not None:
            tracer.op(op_id, kind, t0, t1)
        if reason is not None:
            key = f"{kind}: {reason}"
            failures[key] = failures.get(key, 0) + 1
            mismatched += wrong
            continue
        text = runner.render(kind, out)
        if text is not None:
            digests.setdefault(kind, hashlib.sha256()).update(text.encode() + b"\n")
    return {
        "op_s": times,
        "raw_wall_s": raw,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "mismatched": mismatched,
        "failures": failures,
        "digests": {k: h.hexdigest()[:16] for k, h in sorted(digests.items())},
        "ops_by_kind": dict(Counter(kind for kind, _ in ops)),
    }


def outcome(thunk):
    """(output, failure reason or None) of one op.  InternalError and
    non-kmx exceptions are failures; other kmx errors (Undecided,
    NotInTitsCone, DepthExceeded, ...) are answers, kept as a Verdict."""
    try:
        return thunk(), None
    except Exception as e:  # the stream goes on; the op counts as failed
        from kmx.errors import InternalError, KmxError
        from workloads import Verdict

        if isinstance(e, KmxError) and not isinstance(e, InternalError):
            return Verdict(type(e).__name__), None
        return None, f"{type(e).__name__}: {e}"


def pinned_report_blocks(text: str) -> dict[str, str]:
    """The report split into one block per check, keyed by its number, plus
    the closing `result:` line under the key `result`."""
    blocks: dict[str, list[str]] = {}
    key = None
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            key = line[1:line.index("]")]
        elif line.startswith("result:"):
            key = "result"
        blocks.setdefault(key, []).append(line)
    return {k: "".join(v) for k, v in blocks.items()}


def run_verify(smoke: bool, clock, tracer=None) -> dict:
    """`kmx verify` as the CLI runs it; each check of the battery is one op."""
    from kmx import cli, verify
    from workloads import VERIFY_SMOKE_CHECKS

    with open(os.path.join(HERE, "verify_report.txt")) as fh:
        pinned = pinned_report_blocks(fh.read())
    checks = verify.ALL_CHECKS
    if smoke:
        checks = tuple(c for c in checks if c[0] in VERIFY_SMOKE_CHECKS)
    times, raw = [], []

    def timed(op_id, fn):
        def op():
            if tracer is not None:
                tracer.op_kind = fn.__name__
            r0, t0 = clock.raw(), clock.now()
            try:
                return fn()
            finally:
                t1, r1 = clock.now(), clock.raw()
                times.append(t1 - t0)
                raw.append(r1 - r0)
                if tracer is not None:
                    tracer.op(op_id, fn.__name__, t0, t1)
        return op

    verify.ALL_CHECKS = tuple((num, timed(i, fn)) for i, (num, fn) in enumerate(checks))
    if tracer is not None:
        tracer.op_kind = "run"
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(["verify"])
        except SystemExit as e:
            code = e.code
    got = pinned_report_blocks(buf.getvalue())
    failures = {}
    for num, _ in checks:
        if got.get(num) != pinned.get(num):
            failures[f"[{num}]: report differs from the pinned one"] = 1
    if (got.get("result") != pinned.get("result") or code != 0) and not failures:
        failures[f"verify: exit code {code} or result line differs"] = 1
    return {
        "op_s": times,
        "raw_wall_s": sum(raw),
        "attempted": len(checks),
        "failed": len(failures),
        "mismatched": len(failures),
        "failures": failures,
        "digests": {},
        "ops_by_kind": {"check": len(checks)},
    }


def main(argv) -> int:
    workload, seed, t0, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    trace, smoke = "--trace" in argv, "--smoke" in argv
    from hostclock import HostClock, WallClock

    clock = WallClock() if trace else HostClock()
    before_clock = time.monotonic() - t0  # interpreter start-up
    clock.start()
    before_clock = clock.scale(before_clock)
    try:
        result = run(workload, seed, t0, mode == "run", trace, smoke, clock, before_clock)
    finally:
        clock.stop()
    print(json.dumps(result))
    return 0


def run(workload, seed, t0, stream, trace, smoke, clock, before_clock) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    if workload == "verify":
        import kmx.cli  # noqa: F401
    else:
        import kmx  # noqa: F401
    from workloads import cold_caches, inputs, prepare_runner

    cold_caches()
    if tracer is not None:
        tracer.install()
    runner = None
    if workload != "verify":
        runner = prepare_runner(workload)
        runner.setup()
    result = {"setup_s": before_clock + clock.now(), "raw_setup_s": time.monotonic() - t0}
    if stream:
        if runner is None:
            result.update(run_verify(smoke, clock, tracer))
        else:
            result.update(run_ops(runner, inputs(workload, seed, smoke), clock, tracer))
        result["wall_s"] = sum(result["op_s"])
    result["median_probe_s"] = clock.median_probe_s()
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        from tracer import per_call_overhead

        elapsed = time.perf_counter() - start
        calls = sum(rec[0] for rec in tracer.agg.values())
        cost = per_call_overhead() * calls
        result["per_layer"] = tracer.metrics(cost / max(elapsed - cost, 1e-9))
        result["trace_file"] = write_trace(tracer, workload, seed)
    return result


def write_trace(tracer, workload: str, seed: int) -> str:
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return os.path.relpath(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
