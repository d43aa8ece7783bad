"""tools/bench_snapshot.py on a temporary tree: it refuses a checkout with a
bytecode cache, and its runs write none; the benchmark runs themselves stay
out of the test suite."""

import importlib.util
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
