"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every numeric comparison in the battery is exact (rational arithmetic);
the tolerances here are the sample counts and runtime bounds.  Each test
prints a single pass/fail line (run pytest with -s to see them).
"""

import time
from pathlib import Path

from kmx import verify

# the report the benchmark gates byte for byte; read here, never written
PINNED_REPORT = Path(__file__).resolve().parent.parent / "perfbench" / "verify_report.txt"


def _timed(check, bound_seconds, name, **kwargs):
    t0 = time.monotonic()
    result = check(**kwargs)
    elapsed = time.monotonic() - t0
    status = "PASS" if (result.passed and elapsed < bound_seconds) else "FAIL"
    print(f"criterion {name}: {status} ({elapsed:.1f}s / {bound_seconds}s)")
    for line in result.lines:
        print(f"  {line}")
    assert result.passed, result.lines
    assert elapsed < bound_seconds, f"{name} took {elapsed:.1f}s"
    return result


def test_criterion_1_hyperbolic_worked_example():
    _timed(verify.check_hyperbolic_example, 1.0, "1 (worked example)")


def test_criterion_2_face_count_collapse():
    _timed(verify.check_face_counts, 5.0, "2 (face counts)", samples=1000)


def test_criterion_3_face_galois():
    _timed(verify.check_face_galois, 30.0, "3 (face calculus)", pairs=1000)


def test_criterion_4_weyl_monoid_laws():
    _timed(verify.check_weyl_monoid, 30.0, "4 (Weyl monoid)", triples=1000)


def test_criterion_5_kappa_and_cocycle():
    _timed(verify.check_kappa_and_cocycle, 60.0, "5 (normalizer quotient)",
           pairs=500)


def test_criterion_6_operator_theorems():
    _timed(verify.check_operator_theorems, 300.0, "6 (operator suite)")


def test_criterion_7_multiplicity_oracles():
    _timed(verify.check_multiplicity_oracles, 120.0, "7 (module oracles)")


def test_criterion_8_theta_multiplicativity():
    _timed(verify.check_theta_multiplicative, 120.0, "8 (theta)", count=100)


def test_criterion_9_toric_roundtrip():
    _timed(verify.check_toric, 60.0, "9 (toric)", count=100)


def test_criterion_10_verify_verb_deterministic(capsys):
    from kmx.cli import main
    code1 = main(["verify"])
    out1 = capsys.readouterr().out
    code2 = main(["verify"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    print(f"criterion 10 (verify determinism): {'PASS' if ok else 'FAIL'}")
    assert code1 == 0 and code2 == 0
    assert out1 == out2, "verify reports differ between invocations"
    assert "result: all checks passed" in out1
    assert out1 == PINNED_REPORT.read_text(encoding="utf-8"), "report differs from the pin"
