"""The summary of tools/bench_pairs.py on canned perfbench results; the
tool's runs themselves are benchmarks and stay out of the test suite."""

import importlib.util
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
