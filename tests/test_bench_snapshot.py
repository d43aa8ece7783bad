"""tools/bench_snapshot.py on a temporary tree: it refuses a checkout with a
bytecode cache, and its runs write none; it reads the Tier-1 run's summary
and slowest tests, and records them.  The benchmark runs and the suite run
themselves stay out of the test suite."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"
_SPEC = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
BS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(BS)


def test_a_bytecode_cache_is_refused_and_nothing_is_written(tmp_path, monkeypatch, capsys):
    (tmp_path / "src" / "kmx" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(BS, "ROOT", str(tmp_path))

    def forbidden():
        raise AssertionError("a snapshot was taken over a bytecode cache")

    monkeypatch.setattr(BS, "snapshot", forbidden)
    out = tmp_path / "BENCH.json"
    assert BS.main([str(out)]) == 1
    assert not out.exists()
    assert "__pycache__ exists" in capsys.readouterr().err


def test_the_runs_write_no_bytecode(tmp_path, monkeypatch):
    monkeypatch.setattr(BS, "ROOT", str(tmp_path))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    seen = {}

    def fake_run(cmd, cwd, env, capture_output, text):
        seen.update(cwd=cwd, env=env)
        return subprocess.CompletedProcess(cmd, 0, stdout='# host speed 1\n{"correct": true}\n')

    monkeypatch.setattr(BS.subprocess, "run", fake_run)
    assert BS.run("verify", 0) == ({"correct": True}, ["# host speed 1"])
    assert seen["cwd"] == str(tmp_path) and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


# the tail of a Tier-1 run under -q --durations=3
_TIER1_OUT = """\
........................................................................ [ 99%]
....                                                                     [100%]
============================= slowest 3 durations ==============================
6.80s call     tests/test_special_sets.py::test_component_type[D8++ x]
5.10s setup    tests/test_slice_reference.py::test_slice_equals_the_greedy_reference
4.70s call     tests/test_exact.py::test_nonneg_feasible_agrees
1679 passed, 2 skipped in 69.01s (0:01:09)
"""


def test_tier1_reads_the_summary_and_the_slowest_tests(tmp_path, monkeypatch):
    monkeypatch.setattr(BS, "ROOT", str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    seen = {}

    def fake_run(cmd, cwd, env, capture_output, text):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        return subprocess.CompletedProcess(cmd, 0, stdout=_TIER1_OUT)

    monkeypatch.setattr(BS.subprocess, "run", fake_run)
    got = BS.tier1()
    assert got["counts"] == {"passed": 1679, "skipped": 2}
    assert got["slowest"] == [
        {"test": "tests/test_special_sets.py::test_component_type[D8++ x]", "phase": "call",
         "s": 6.8},
        {"test": "tests/test_slice_reference.py::test_slice_equals_the_greedy_reference",
         "phase": "setup", "s": 5.1},
        {"test": "tests/test_exact.py::test_nonneg_feasible_agrees", "phase": "call", "s": 4.7}]
    assert got["wall_s"] >= 0 and got["cpu_s"] >= 0
    assert f"--durations={BS.DURATIONS}" in seen["cmd"] and BS.DURATIONS == 10
    assert seen["cwd"] == str(tmp_path) and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert seen["env"]["PYTHONPATH"].split(os.pathsep) == ["src", "elsewhere"]


def test_a_failing_tier1_run_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(BS, "ROOT", str(tmp_path))

    def fake_run(cmd, **kw):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="")
        return subprocess.CompletedProcess(cmd, 1, stdout="1 failed, 1678 passed in 70.00s\n")

    monkeypatch.setattr(BS.subprocess, "run", fake_run)
    monkeypatch.setattr(BS, "WORKLOADS", ())
    out = tmp_path / "BENCH.json"
    assert BS.main([str(out)]) == 1
    assert not out.exists()
    assert "1 failed, 1678 passed" in capsys.readouterr().err


def test_the_snapshot_records_the_tier1_run(tmp_path, monkeypatch):
    monkeypatch.setattr(BS, "ROOT", str(tmp_path))
    monkeypatch.setattr(BS.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 0, stdout="abc\n"))
    monkeypatch.setattr(BS, "WORKLOADS", ())
    tier1 = {"wall_s": 1.0, "cpu_s": 1.0, "counts": {"passed": 1}, "slowest": []}
    monkeypatch.setattr(BS, "tier1", lambda: tier1)
    out = tmp_path / "BENCH.json"
    assert BS.main([str(out)]) == 0
    assert json.loads(out.read_text())["tier1"] == tier1


def test_the_workloads_are_those_of_the_benchmark(tmp_path):
    # a workload added to BENCHMARK.json is in every snapshot, in its order
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench_snapshot.py").write_text(_PATH.read_text())
    names = ["verify", "new-workload", "hw-slices"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": name} for name in names]}))
    spec = importlib.util.spec_from_file_location("snapshot_copy",
                                                  tmp_path / "tools" / "bench_snapshot.py")
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert copy.WORKLOADS == tuple(names)
