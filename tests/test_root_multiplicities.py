"""Root multiplicities from the Weyl denominator, pushed from their nonzero
terms: the answer is a private copy, it equals the scanned recurrence at
rank 10 and under corrupted denominators, and it meets the closed forms
of the level-1 roots of Feingold-Frenkel's F and of A2^(1)++."""

import math
import random
import types
from operator import add

import exact_reference as ref
import pytest

from kmx import highest_weight as HW, weyl as W
from kmx.cartan import A2_ROWS, HYPERBOLIC_ROWS, build_realization
from kmx.errors import InternalError
from test_highest_weight import ORACLE_ALGEBRAS
from test_weyl import KERNEL_DATA

A2PP_ROWS = ((2, -1, -1, -1), (-1, 2, -1, 0), (-1, -1, 2, 0), (-1, 0, 0, 2))


def _fresh(rows):
    """A new datum, so that its multiplicity cache starts empty."""
    return build_realization(rows)


def test_callers_cannot_corrupt_the_cache():
    datum = _fresh(A2_ROWS)
    roots = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    weights = HW.weights_and_mults(datum, (1, 0), 3)
    assert len(weights) == 3
    rm = HW.root_multiplicities(datum, 3)
    rm.clear()
    assert HW.root_multiplicities(datum, 3) == roots
    assert HW.weights_and_mults(datum, (1, 0), 3) == weights
    HW.root_multiplicities(datum, 3)[(2, 2)] = 5
    assert HW.root_multiplicities(datum, 3) == roots


# -- rank 10 -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["E10", "D8++"])
def test_push_equals_the_scan_at_rank_ten(name):
    rows = KERNEL_DATA[name].gcm.a
    got = HW.root_multiplicities(_fresh(rows), 5)
    want = ref.scanned_root_multiplicities(_fresh(rows), 5)
    assert got == want
    assert list(got) == list(want)


def _positive_real_roots(datum, height):
    return {b for b in HW.real_roots_with_witness(datum, height) if min(b) >= 0}


def test_e10_roots_to_height_twelve_are_real():
    datum = _fresh(KERNEL_DATA["E10"].gcm.a)
    rm = HW.root_multiplicities(datum, 12)
    assert set(rm) == _positive_real_roots(datum, 12)
    assert set(rm.values()) == {1}


def test_d8pp_imaginary_root_to_height_fourteen():
    """The null root delta of the D8^(1) subdiagram (nodes 0-8) is the one
    root below height 15 that is not real; its multiplicity is the rank 8
    of D8."""
    datum = _fresh(KERNEL_DATA["D8++"].gcm.a)
    delta = (1, 2, 2, 2, 2, 2, 1, 1, 1, 0)
    rm = HW.root_multiplicities(datum, 14)
    assert set(rm) == _positive_real_roots(datum, 14) | {delta}
    assert rm[delta] == 8
    assert {m for b, m in rm.items() if b != delta} == {1}


def test_the_check_runs_only_where_a_term_is_pushed(monkeypatch):
    """On E10 to height 8 the natural-number check runs at the b that
    receive a term, not at each of the 43,757 compositions: at every
    denominator term, and at b + delta for each b with g_b != 0, which are
    the multiples k beta of the roots; 19,137 b in all.  math.gcd(*b) runs
    once per visited b, so a counting gcd in the module names them."""
    height = 8
    datum = _fresh(KERNEL_DATA["E10"].gcm.a)
    visited = []
    counting = types.SimpleNamespace(**vars(math))
    counting.gcd = lambda *b: visited.append(b) or math.gcd(*b)
    monkeypatch.setattr(HW, "math", counting)
    roots = HW.root_multiplicities(datum, height)
    monkeypatch.undo()
    terms = [delta for delta in W.denominator(datum, height) if any(delta)]
    nonzero_g = {tuple(k * x for x in beta) for beta in roots
                 for k in range(1, height // sum(beta) + 1)}
    pushed = set(terms) | {tuple(map(add, b, delta)) for b in nonzero_g for delta in terms
                           if sum(b) + sum(delta) <= height}
    assert len(visited) == len(set(visited))
    assert set(visited) == pushed
    compositions = sum(math.comb(h + datum.n - 1, datum.n - 1) for h in range(1, height + 1))
    assert compositions == 43_757
    assert len(visited) < compositions // 2


# -- corrupted denominators --------------------------------------------------------


MUTATION_ROWS = {
    "A2": A2_ROWS,
    "G2": ((2, -3), (-1, 2)),
    "A1^(1)": ((2, -2), (-2, 2)),
    "A2^(2)": ((2, -4), (-1, 2)),
    "A2^(1)": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "hyperbolic-3": HYPERBOLIC_ROWS,
    "A3^(1)": ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)),
}


def _outcome(fn, rows, height):
    try:
        return fn(_fresh(rows), height)
    except InternalError:
        return InternalError


@pytest.mark.parametrize("name", MUTATION_ROWS)
def test_corrupted_denominator_raises_as_the_scan_does(name, monkeypatch):
    """One nonzero term of the denominator dropped, negated or doubled: the
    push raises InternalError exactly when the scan does, and otherwise
    returns the scan's dict."""
    rows = MUTATION_ROWS[name]
    height = 10
    true_denominator = W.denominator
    terms = sorted(b for b in true_denominator(_fresh(rows), height) if any(b))
    rng = random.Random(name)
    outcomes = []
    for _ in range(40):
        beta, kind = rng.choice(terms), rng.choice(("drop", "negate", "double"))

        def corrupted(datum, max_height, beta=beta, kind=kind):
            d = true_denominator(datum, max_height)
            if kind == "drop":
                del d[beta]
            else:
                d[beta] *= -1 if kind == "negate" else 2
            return d

        monkeypatch.setattr(W, "denominator", corrupted)
        want = _outcome(ref.scanned_root_multiplicities, rows, height)
        got = _outcome(HW.root_multiplicities, rows, height)
        assert got == want, (beta, kind)
        outcomes.append(got is InternalError)
    # the mutations reach both verdicts
    assert any(outcomes) and not all(outcomes)


# -- Kac's root criterion -----------------------------------------------------------

# each datum and the height to which every b of Q+ is walked: the
# `ORACLE_ALGEBRAS`, then E10 and D8++, whose first imaginary roots lie above
# height 9 (the null roots of their affine subdiagrams), so only their real
# roots are walked
ROOT_WALK_DATA = {**ORACLE_ALGEBRAS, "E10": KERNEL_DATA["E10"].gcm.a,
                  "D8++": KERNEL_DATA["D8++"].gcm.a}
ROOT_WALK_HEIGHTS = {"A2": 8, "B2": 8, "G2": 8, "A3": 8, "A1^(1)": 24, "A2^(2)": 24,
                     "A2^(1)": 18, "hyperbolic-3": 24, "A3^(1)": 14, "E10": 9, "D8++": 9}


def _walked_roots(gcm, height):
    """{b: "real" or "imaginary"} for every root b of Q+ up to `height`, by
    Kac's walk, which reads the GCM alone."""
    return {b: kind for h in range(1, height + 1) for b in ref._compositions(len(gcm.a), h)
            if (kind := ref.kac_root_walk(gcm, b))}


@pytest.mark.parametrize("name", ROOT_WALK_DATA)
def test_the_roots_are_kac_s_walk_and_the_real_ones_have_multiplicity_one(name):
    # the support of the denominator's multiplicities is the walk's root
    # set on all of Q+ up to the height; a real root has multiplicity 1.
    # The converse fails on affine data: delta is imaginary, of multiplicity 1
    height = ROOT_WALK_HEIGHTS[name]
    datum = _fresh(ROOT_WALK_DATA[name])
    walked = _walked_roots(datum.gcm, height)
    rm = HW.root_multiplicities(datum, height)
    assert set(rm) == set(walked)
    assert all(rm[b] == 1 for b, kind in walked.items() if kind == "real")
    imaginary = sum(kind == "imaginary" for kind in walked.values())
    if name == "hyperbolic-3":  # Feingold-Frenkel's F
        assert (len(walked), imaginary) == (347, 289)
    if name == "A1^(1)":  # k delta for k <= 12
        assert sorted(b for b, kind in walked.items() if kind == "imaginary") \
            == [(k, k) for k in range(1, 13)]


@pytest.mark.parametrize("name", MUTATION_ROWS)
def test_a_corrupted_denominator_term_is_caught_by_the_root_walk(name, monkeypatch):
    """One nonzero term of the denominator dropped, negated or doubled: the
    push raises InternalError, or its support is not the walk's root set,
    or a real root's multiplicity is not 1.  Some corruptions pass the
    push's own natural-number check and are caught by the walk alone."""
    rows = MUTATION_ROWS[name]
    height = 10
    walked = _walked_roots(_fresh(rows).gcm, height)
    true_denominator = W.denominator
    terms = sorted(b for b in true_denominator(_fresh(rows), height) if any(b))
    rng = random.Random(name)
    by_walk = 0
    for _ in range(40):
        beta, kind = rng.choice(terms), rng.choice(("drop", "negate", "double"))

        def corrupted(datum, max_height, beta=beta, kind=kind):
            d = true_denominator(datum, max_height)
            if kind == "drop":
                del d[beta]
            else:
                d[beta] *= -1 if kind == "negate" else 2
            return d

        monkeypatch.setattr(W, "denominator", corrupted)
        try:
            rm = HW.root_multiplicities(_fresh(rows), height)
        except InternalError:
            continue
        assert set(rm) != set(walked) or any(
            rm.get(b) != 1 for b, kind in walked.items() if kind == "real"), (beta, kind)
        by_walk += 1
    assert by_walk


# -- closed forms ------------------------------------------------------------------


def _colour_partitions(colours, top):
    """[p_c(0), ..., p_c(top)]: partitions of k into parts of c colours."""
    p = [1] + [0] * top
    for _ in range(colours):
        for part in range(1, top + 1):
            for k in range(part, top + 1):
                p[k] += p[k - part]
    return p


def _level_one(datum, rm, node, colours):
    """The roots with coefficient 1 on node, each with its multiplicity and
    p_colours(1 - (alpha|alpha)/2)."""
    bm, n = datum.gcm.b, datum.n
    out = {}
    for b, m in rm.items():
        if b[node] == 1:
            norm = sum(bm[i][j] * b[i] * b[j] for i in range(n) for j in range(n))
            assert norm.denominator == 1 and norm % 2 == 0, b
            out[b] = (m, 1 - int(norm) // 2)
    p = _colour_partitions(colours, max(k for _, k in out.values()))
    return {b: (m, p[k]) for b, (m, k) in out.items()}


def test_f_level_one_roots_are_partition_numbers():
    """Feingold-Frenkel: a level-1 root alpha of F has multiplicity
    p(1 - (alpha|alpha)/2)."""
    datum = _fresh(HYPERBOLIC_ROWS)
    pairs = _level_one(datum, HW.root_multiplicities(datum, 40), 2, 1)
    assert len(pairs) == 122
    assert all(m == want for m, want in pairs.values())
    assert max(m for m, _ in pairs.values()) == 490  # p(19)


def test_f_multiplicities_are_weyl_invariant():
    datum = _fresh(HYPERBOLIC_ROWS)
    rm = HW.root_multiplicities(datum, 40)
    reflections = [W.simple(datum, i) for i in range(datum.n)]
    pairs = 0
    for b, m in rm.items():
        for s in reflections:
            sb = s.act_root(b)
            if min(sb) >= 0 and 0 < sum(sb) <= 40:
                assert rm.get(sb) == m, (b, sb)
                pairs += 1
    assert pairs == 3116


def test_a2pp_level_one_roots_are_two_colour_partitions():
    """The same argument on A2^(1)++: a root with coefficient 1 on the
    extending node has multiplicity p_2(1 - (alpha|alpha)/2)."""
    datum = _fresh(A2PP_ROWS)
    pairs = _level_one(datum, HW.root_multiplicities(datum, 18), 3, 2)
    assert len(pairs) == 76
    assert all(m == want for m, want in pairs.values())
    assert max(m for m, _ in pairs.values()) == 36  # p_2(5)
