"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as WL  # noqa: E402
from hostclock import WallClock  # noqa: E402
from tracer import Tracer, per_layer_units  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WL.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    failures = [line for line in proc.stdout.splitlines() if line.startswith("#   failed")]
    if workload == "hw-slices":  # the Peterson defect, and nothing else
        assert result["failed"] > 0
        assert all("freudenthal: InternalError: root multiplicity" in f for f in failures)
    else:
        assert result["failed"] == 0 and not failures
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "coxeter-rank10":
        assert metrics["weyl.mat_mul_per_mul"] == 4
    if trace and workload == "verify":
        assert metrics["toric.rat_solve_per_face_contains"] <= 1
        assert metrics["cli.main.total_s"] > 0


def test_benchmark_json_lists_what_the_run_emits():
    assert [m["name"] for m in SPEC["per_layer"]] == list(per_layer_units())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in SPEC["workloads"]] == list(WL.WORKLOADS)


def test_seed_changes_the_streams_but_not_verify():
    for workload in ("coxeter-rank10", "hw-slices"):
        assert WL.inputs(workload, 1) == WL.inputs(workload, 1)
        assert WL.inputs(workload, 1) != WL.inputs(workload, 2)
        assert [k for k, _ in WL.inputs(workload, 1)] == [k for k, _ in WL.inputs(workload, 2)]
    assert WL.inputs("verify", 1) == WL.inputs("verify", 2)


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the output gate ------------------------------------------------------------


@pytest.fixture(scope="module")
def coxeter():
    runner = WL.CoxeterRank10()
    runner.setup()
    return runner


def run_op(runner, kind, args):
    thunk, check = runner.prepare(kind, args)
    out, reason = worker.outcome(thunk)
    assert reason is None
    return out, check


def test_gate_rejects_perturbed_coxeter_outputs(coxeter):
    from kmx import faces as F, weyl as W

    s0 = W.simple(coxeter.datum, 0)
    out, check = run_op(coxeter, "word", ((1, 2, 3, 1),))
    assert check(out) and not check(out * s0)
    out, check = run_op(coxeter, "product", ((1, 2), (3, 4)))
    assert check(out) and not check(out * s0)
    face = ((2, 3), WL.D8PP_SPECIALS[1])
    out, check = run_op(coxeter, "act_face", ((4, 5), face))
    s9 = W.simple(coxeter.datum, 9)  # node 9 lies outside the face's type
    assert check(out) and not check(F.act_face(s9, out))
    out, check = run_op(coxeter, "includes", (face, ((), WL.D8PP_SPECIALS[4])))
    assert check(out) and not check(not out)
    out, check = run_op(coxeter, "face_of_point", ("out", (1,), (1,) * 10))
    assert check(out) and not check(WL.Verdict("DepthExceeded"))


def test_gate_rejects_perturbed_hw_outputs():
    from kmx import cartan

    cartan._classify_cached.cache_clear()  # set-up insists on cold caches
    cartan._component_type_cached.cache_clear()
    runner = WL.HwSlices()
    runner.setup()
    ops = WL.hw_inputs(1, (("G2", "rho", 6),), reads=6)
    outs = [run_op(runner, kind, args) for kind, args in ops]
    (sl, build_check), (dims, freud_check) = outs[:2]
    theta, theta_check = next(o for (kind, _), o in zip(ops, outs)
                              if kind == "theta" and not isinstance(o[0], WL.Verdict))
    assert build_check(sl) and freud_check(dims) and theta_check(theta)
    top = sl.hw
    assert not freud_check({**dims, top: 2})
    assert not theta_check(theta + 1)
    sl.spaces[top].words = ((), ())  # a slice whose top weight has dim 2
    assert not build_check(sl)


def test_gate_rejects_a_perturbed_verify_report(monkeypatch):
    from kmx import verify

    checks = verify.ALL_CHECKS
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)  # run_verify rebinds it
    clean = worker.run_verify(True, WallClock())
    assert clean["failed"] == 0
    real = verify.check_hyperbolic_example

    def perturbed():
        res = real()
        return verify.CheckResult(res.name, res.passed, res.lines + ("extra line",))
    monkeypatch.setattr(verify, "ALL_CHECKS", tuple(
        (num, perturbed if fn is real else fn) for num, fn in checks))
    res = worker.run_verify(True, WallClock())
    assert res["failed"] == 1 and "[1]" in next(iter(res["failures"]))


def test_gate_counts_a_digest_mismatch_as_failed_ops(monkeypatch):
    rep = {"digests": {"word": "aa", "product": "bb"}, "mismatched": 0,
           "ops_by_kind": {"word": 5, "product": 5}}
    monkeypatch.setattr(run, "load_pins",
                        lambda: {"coxeter-rank10": {"7": {"word": "aa", "product": "cc"}}})
    assert run.gate("coxeter-rank10", 7, [rep], False)[:2] == (False, 5)
    assert run.gate("coxeter-rank10", 8, [rep], False)[:2] == (True, 0)
    other = dict(rep, digests={"word": "zz", "product": "bb"})
    assert run.gate("coxeter-rank10", 8, [rep, other], False)[0] is False


# -- tracing and statistics -----------------------------------------------------


def test_self_time_on_a_nested_call_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 1

    def mid():
        now[0] += 2
        leaf_t()
        now[0] += 3

    def top():
        now[0] += 1
        mid_t()
        leaf_t()
        now[0] += 1

    def rec(k):
        now[0] += 1
        if k:
            rec_t(k - 1)

    leaf_t, mid_t, top_t = (tracer.wrap(n, f) for n, f in
                            (("leaf", leaf), ("mid", mid), ("top", top)))
    rec_t = tracer.wrap("rec", rec)
    top_t()
    rec_t(2)
    tot = tracer.totals()
    assert tot["leaf"] == [2, 2.0, 2.0]
    assert tot["mid"] == [1, 6.0, 5.0]
    assert tot["top"] == [1, 9.0, 2.0]
    assert tot["rec"] == [3, 3.0, 3.0]  # total counts the outermost call only
    assert tracer.calls_under("mid", "leaf") == tracer.calls_under("top", "leaf") == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [Fraction(i) for i in range(1, 101)]
    assert run.tail(xs) == (90.0, 90, 10)
    assert run.tail(xs[:10]) == (100.0, 10, 0)
