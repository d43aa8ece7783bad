"""The summary of tools/bench_pairs.py on canned perfbench results; the
tool's runs themselves are benchmarks and stay out of the test suite."""

import importlib.util
import io
import tarfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
BP = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(BP)


def _result(value, correct=True, failed=0, name="op_p50_ms"):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}}}


def _pairs(parent, change, **kw):
    return [(_result(a, **kw), _result(b, **kw)) for a, b in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def _line(lines):
    (line,) = [ln for ln in lines if ln.startswith("op_p50_ms")]
    return line


def test_nine_wins_and_a_gap_past_the_parents_spread_claim_a_gain():
    change = [0.80] * 9 + [1.05]
    lines, ok = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "lower"})
    assert ok
    assert "change wins 9/10" in _line(lines) and _line(lines).endswith("gain claimable: yes")
    assert "parent 1 [0.99-1.01]" in _line(lines)
    assert "parent: 10/10 runs correct, 0 of 1000 ops failed" in lines


def test_eight_wins_claim_nothing():
    change = [0.80] * 8 + [1.05, 1.05]
    lines, _ = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "lower"})
    assert "change wins 8/10" in _line(lines) and _line(lines).endswith("claimable: no")


def test_a_gap_inside_the_parents_spread_claims_nothing():
    change = [x - 0.005 for x in PARENT]  # wins every pair by less than the IQR
    lines, _ = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "lower"})
    assert "change wins 10/10" in _line(lines) and _line(lines).endswith("claimable: no")


def test_ties_count_for_neither_side():
    change = [0.80] * 8 + PARENT[8:]
    lines, _ = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "lower"})
    assert "change wins 8/10" in _line(lines) and _line(lines).endswith("claimable: no")


def test_a_higher_is_better_metric_wins_upward():
    change = [1.20] * 10
    lines, _ = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "higher"})
    assert "change wins 10/10" in _line(lines) and _line(lines).endswith("claimable: yes")
    lines, _ = BP.summarize(_pairs(PARENT, change), {"op_p50_ms": "lower"})
    assert "change wins 0/10" in _line(lines)


def test_an_incorrect_run_fails_the_summary_and_failed_ops_are_counted():
    pairs = _pairs(PARENT, PARENT, failed=3)
    pairs[4] = (pairs[4][0], _result(1.0, correct=False))
    lines, ok = BP.summarize(pairs, {"op_p50_ms": "lower", "wall_s": "lower"})
    assert not ok
    assert "change: 9/10 runs correct, 27 of 1000 ops failed" in lines
    assert "parent: 10/10 runs correct, 30 of 1000 ops failed" in lines
    assert not any(ln.startswith("wall_s") for ln in lines)  # no run reports it


@pytest.mark.parametrize("text,seeds", [("21-30", list(range(21, 31))), ("3,7,31", [3, 7, 31]),
                                        ("1-2,9", [1, 2, 9]), ("5", [5])])
def test_seed_lists(text, seeds):
    assert BP.parse_seeds(text) == seeds


def test_directions_are_the_benchmarks_end_to_end_metrics():
    assert BP.directions() == {"setup_s": "lower", "wall_s": "lower", "op_p50_ms": "lower",
                               "op_tail_ms": "lower", "peak_rss_mb": "lower"}


def test_the_change_median_is_printed_as_a_share_of_the_parents():
    lines, _ = BP.summarize(_pairs(PARENT, [0.8] * 10), {"op_p50_ms": "lower"})
    assert "-> change 0.8 [0.8-0.8] (80.0% of parent); change wins 10/10" in _line(lines)
    lines, _ = BP.summarize(_pairs([0.0] * 10, [0.5] * 10), {"op_p50_ms": "lower"},
                            {"op_p50_ms": 0.25})
    assert "(parent median 0, beyond bound 25%)" in _line(lines)


@pytest.mark.parametrize("way,change,flagged", [
    ("lower", 1.26, True), ("lower", 1.24, False), ("lower", 0.5, False),
    ("higher", 0.74, True), ("higher", 0.76, False), ("higher", 2.0, False),
])
def test_a_change_worse_than_its_bound_is_flagged(way, change, flagged):
    pairs = _pairs(PARENT, [change] * 10, failed=1)
    lines, ok = BP.summarize(pairs, {"op_p50_ms": way}, {"op_p50_ms": 0.25})
    assert ("beyond bound 25%" in _line(lines)) is flagged
    assert ok  # the flag leaves the gate, and so the exit code, alone
    lines, _ = BP.summarize(pairs, {"op_p50_ms": way})
    assert "beyond bound" not in _line(lines)


def test_no_gain_is_claimable_when_the_change_fails_more_ops():
    change = [0.80] * 10
    pairs = [(_result(a, failed=1), _result(b, failed=2)) for a, b in zip(PARENT, change)]
    lines, ok = BP.summarize(pairs, {"op_p50_ms": "lower"})
    assert ok and "change wins 10/10" in _line(lines)
    assert _line(lines).endswith("gain claimable: no")
    assert "change: 10/10 runs correct, 20 of 1000 ops failed" in lines
    pairs = [(_result(a, failed=2), _result(b, failed=2)) for a, b in zip(PARENT, change)]
    lines, _ = BP.summarize(pairs, {"op_p50_ms": "lower"})
    assert _line(lines).endswith("gain claimable: yes")  # as many failures: the gain holds


WIDE = [1.0, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0]  # quartiles 0.825-1.175


@pytest.mark.parametrize("way,change,verdict", [
    ("lower", [x + 0.05 for x in WIDE], "unresolved"),
    ("lower", [1.3] * 10, "unresolved"),  # beyond the bound, but the runs cannot show it
    ("lower", [0.5] * 10, None),  # every change run beats every parent run
    ("lower", [0.5] * 9 + [0.6], "unresolved"),  # one change run ties the best parent run
    ("higher", [1.5] * 10, None),
    ("higher", [1.0] * 10, "unresolved"),
])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(way, change, verdict):
    lines, _ = BP.summarize(_pairs(WIDE, change), {"op_p50_ms": way}, {"op_p50_ms": 0.25})
    line = _line(lines)
    assert ("unresolved: parent spread wider than bound 25%" in line) == (verdict is not None)
    assert "beyond bound" not in line
    lines, _ = BP.summarize(_pairs(WIDE, change), {"op_p50_ms": way}, {"op_p50_ms": 0.5})
    assert "unresolved" not in _line(lines)  # a spread of 35% of the median is within 50%


def test_bounds_are_the_benchmarks_end_to_end_bounds():
    assert BP.bounds() == {"setup_s": 0.25, "wall_s": 0.2, "op_p50_ms": 0.25,
                           "op_tail_ms": 0.25, "peak_rss_mb": 0.1}


@pytest.mark.parametrize("argv,want", [([], ["coxeter-rank10", "hw-slices", "verify"]),
                                       (["--workload", "verify"], ["verify"])])
def test_every_workload_runs_when_none_is_named(monkeypatch, capsys, argv, want):
    runs = []

    def run_one(checkout, workload, seed, seconds):
        runs.append((workload, seed))
        return _result(1.0)

    monkeypatch.setattr(BP, "export", lambda base, *dirs: None)
    monkeypatch.setattr(BP, "run_one", run_one)
    assert BP.main(argv + ["--seeds", "1-2", "--seconds", "1"]) == 0
    assert BP.workloads() == ["coxeter-rank10", "hw-slices", "verify"]
    assert runs == [(w, seed) for w in want for seed in (1, 1, 2, 2)]
    out = capsys.readouterr().out
    assert [ln.split(",")[0] for ln in out.splitlines() if "pairs, --seconds 1" in ln] == want


def test_export_extracts_where_tarfile_has_no_filters(tmp_path, monkeypatch):
    # Python before 3.10.12 and 3.11.4 has no data_filter, and its
    # extractall takes no filter argument
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        data = b"print(1)\n"
        info = tarfile.TarInfo("src/kmx/a.py")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    monkeypatch.setattr(BP, "git", lambda *args: buf.getvalue() if args[0] == "archive" else b"")
    monkeypatch.delattr(tarfile, "data_filter")
    real = tarfile.TarFile.extractall

    def old_extractall(self, path=".", members=None, *, numeric_owner=False, **kwargs):
        if kwargs:
            raise TypeError("extractall() got an unexpected keyword argument")
        return real(self, path, members, numeric_owner=numeric_owner)

    monkeypatch.setattr(tarfile.TarFile, "extractall", old_extractall)
    BP.export("HEAD", str(tmp_path / "parent"), str(tmp_path / "change"))
    assert (tmp_path / "parent" / "src" / "kmx" / "a.py").read_bytes() == b"print(1)\n"
