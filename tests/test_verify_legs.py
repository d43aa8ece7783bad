"""The verify battery's shared plumbing: the one-pass probe of [6] against
the height-by-height retry it replaced, run on the dense reference matrices
of `exact_reference`, the samplers against `randrange` and the public
entries, the verdict tally and the report lines, and corruption tests that
each law leg counts its violations."""

import random
import re
from fractions import Fraction
from itertools import product

import exact_reference as ref
import pytest
from test_weyl import KERNEL_DATA

from kmx import exact, faces as FC, highest_weight as HW, monoids as MO, toric, verify
from kmx import weyl as W
from kmx.cartan import build_realization
from kmx.errors import DepthExceeded

DATA = sorted(verify._data().items())


# -- the retry probes, kept as the reference ---------------------------------------


def ref_adaptive_probe(datum, w1, w2, probes, heights):
    """Try heights 2, 1, 0 in turn on each probe; record the height that fit
    (-1 when none did) in `heights`."""
    verdicts = []
    for hw, depth in probes:
        for h0 in (2, 1, 0):
            try:
                res = ref.probe_equal(datum, w1, w2, [(hw, depth, h0)])
            except DepthExceeded:
                continue
            verdicts.append(isinstance(res, HW.EqualOnProbes))
            heights.append(h0)
            break
        else:
            heights.append(-1)
    if not verdicts:
        return None
    return all(verdicts)


def ref_check_preserves(datum, word, cvec, heights):
    any_fit = False
    for hw, depth in verify._fundamental_probes(datum, 5):
        sl = HW.build_basis(datum, hw, depth)
        for h0 in (2, 1, 0):
            try:
                (rows, cols), mat = ref.evaluate_word(sl, word, max_height=h0)
            except DepthExceeded:
                continue
            heights.append(h0)
            relevant = False
            for c, (wt_c, _) in enumerate(cols):
                if exact.vec_dot(wt_c, cvec) != 0:
                    continue
                relevant = True
                for r, (wt_r, _) in enumerate(rows):
                    if mat[r][c] != 0 and exact.vec_dot(wt_r, cvec) != 0:
                        return False
            if relevant:
                any_fit = True
            break
        else:
            heights.append(-1)
    return True if any_fit else None


def _rand_word(rng, datum):
    letters = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(5)
        i = rng.randrange(datum.n)
        t = Fraction(rng.choice([1, 2, -1]), rng.choice([1, 2]))
        if kind == 0:
            letters.append(HW.xplus(i, t))
        elif kind == 1:
            letters.append(HW.xminus(i, t))
        elif kind == 2:
            letters.append(HW.torus_letter(datum.coroot(i), rng.choice([2, 3, -1])))
        elif kind == 3:
            letters.append(HW.nsimple(i))
        else:
            letters.append(HW.idem(verify._rand_face(rng, datum)))
    return HW.GhatWord(tuple(letters))


def test_one_pass_probes_match_the_retry():
    rng = random.Random(611)
    heights, verdicts = [], []
    for _, datum in DATA:
        probes = verify._fundamental_probes(datum, 5)
        for _ in range(40):
            w1 = _rand_word(rng, datum)
            # a third of the pairs are one word twice, and must be equal
            w2 = w1 if rng.randrange(3) == 0 else _rand_word(rng, datum)
            got = verify._adaptive_probe(datum, w1, w2, probes)
            assert got == ref_adaptive_probe(datum, w1, w2, probes, heights), (w1, w2)
            verdicts.append(got)
        roots = HW.real_roots_with_witness(datum, 4)
        for root in sorted(roots):
            u, i = roots[root]
            conj = verify._conj_letters(MO.nhat_from(u), [HW.xplus(i, Fraction(1))])
            for word in (conj, _rand_word(rng, datum)):
                cvec = verify._rand_face(rng, datum).exposing()
                got = verify._check_preserves(datum, word, cvec)
                assert got == ref_check_preserves(datum, word, cvec, heights), (word, cvec)
                verdicts.append(got)
    # every verdict and every fitting height, none (-1) included, occurs
    assert set(verdicts) == {True, False, None}
    assert set(heights) == {-1, 0, 1, 2}


def test_fitting_images_are_the_columns_of_the_fitting_height():
    rng = random.Random(612)
    heights = set()
    for _, datum in DATA:
        roots = HW.real_roots_with_witness(datum, 4)
        words = [verify._conj_letters(MO.nhat_from(u), [HW.xplus(i, Fraction(1))])
                 for u, i in (roots[root] for root in sorted(roots))]
        words += [_rand_word(rng, datum) for _ in range(10)]
        # on the rho slice at depth 3 a word can leave the window from one
        # vector of a height and not from the vector before it
        rho = (tuple(1 if j < datum.n else 0 for j in range(datum.m)), 3)
        for hw, depth in verify._fundamental_probes(datum, 5) + [rho]:
            sl = HW.build_basis(datum, hw, depth)
            for word in words:
                for h0 in (2, 1, 0):
                    try:
                        (rows, cols), mat = ref.evaluate_word(sl, word, max_height=h0)
                    except DepthExceeded:
                        continue
                    break
                else:
                    h0, cols = -1, ()
                heights.add(h0)
                got = verify._fitting_images(sl, (word,))
                assert [wt for wt, _ in got] == [wt for wt, _ in cols]
                for c, (_, (img,)) in enumerate(got):
                    assert {(wt, j): Fraction(x, img.den) for wt, part in img.parts.items()
                            for j, x in enumerate(part) if x} == \
                        {row: mat[r][c] for r, row in enumerate(rows) if mat[r][c]}
    assert heights == {-1, 0, 1, 2}


def _evaluate_word_calls(monkeypatch, run) -> int:
    """How often run() calls HW.evaluate_word; run must return a truthy
    value."""
    calls = []
    real = HW.evaluate_word

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(HW, "evaluate_word", counting)
    assert run()
    return len(calls)


def test_operator_theorems_build_no_dense_matrix(monkeypatch):
    assert _evaluate_word_calls(monkeypatch,
                                lambda: verify.check_operator_theorems().passed) == 0


def test_kappa_and_cocycle_build_no_dense_matrix(monkeypatch):
    assert _evaluate_word_calls(monkeypatch,
                                lambda: verify.check_kappa_and_cocycle().passed) == 0


def test_operator_theorems_build_each_probe_slice_once(monkeypatch):
    # the special-set legs read their data from the check's own _data()
    built = []
    setup = HW.ModuleSlice._setup

    def counting(self, *args):
        built.append(self)
        setup(self, *args)

    monkeypatch.setattr(HW.ModuleSlice, "_setup", counting)
    assert verify.check_operator_theorems().passed
    assert len(built) == 10


# -- the samplers' stream, against randrange and the public entries -----------------


@pytest.mark.parametrize("seed", [0, 1, 20, 40, 611])
def test_below_draws_randrange_s_stream(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 18):
        assert [verify._below(ours, n) for _ in range(50)] == \
            [theirs.randrange(n) for _ in range(50)]
    mixed = random.Random(seed + 1000)
    for _ in range(500):
        n = mixed.randrange(1, 18)
        assert verify._below(ours, n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


def ref_rand_weyl(rng, datum, maxlen=6):
    return W.from_word(datum, [rng.randrange(datum.n)
                               for _ in range(rng.randrange(maxlen + 1))])


def ref_rand_face(rng, datum):
    theta = rng.choice(datum.special_sets())
    return FC.normalize_face(ref_rand_weyl(rng, datum), theta)


def ref_rand_nhat(rng, datum):
    tvals = tuple(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                  for _ in range(datum.m))
    return MO.nhat_from(ref_rand_weyl(rng, datum, 4), tvals, ref_rand_face(rng, datum))


SAMPLED = DATA + [(name, KERNEL_DATA[name]) for name in ("D8++", "E10")]


@pytest.mark.parametrize("name,datum", SAMPLED, ids=[name for name, _ in SAMPLED])
def test_the_samplers_draw_what_randrange_and_the_public_entries_give(name, datum):
    # at rank 10 a letter takes 4 bits, so the redraw loop runs
    ours, theirs = random.Random(46), random.Random(46)
    for _ in range(100):
        assert verify._rand_weyl(ours, datum, 4) is ref_rand_weyl(theirs, datum, 4)
        assert verify._rand_face(ours, datum) is ref_rand_face(theirs, datum)
        a, b = verify._rand_nhat(ours, datum), ref_rand_nhat(theirs, datum)
        assert a.w is b.w and a.face is b.face and a.torus == b.torus
    assert ours.getstate() == theirs.getstate()


# -- tally and report lines ----------------------------------------------------------


def test_tally_counts_decided_failed_undecided():
    assert verify._tally([]) == (0, 0, 0)
    assert verify._tally([True, None, False, True, None]) == (3, 1, 2)
    assert verify._tally([False, False]) == (2, 2, 0)


def test_leg_appends_a_fail_line_only_when_failed():
    lines = []
    assert verify._leg(lines, "x: 0 violations", 0, "x laws") is True
    assert verify._leg(lines, "y: 2 violations", 2, "y laws") is False
    assert lines == ["x: 0 violations", "y: 2 violations", "FAIL y laws"]


def test_weyl_monoid_zero_absorption_leg_reports_failure(monkeypatch):
    # a product that keeps its left factor breaks [4]'s zero absorption,
    # whose products stay on the public wm_mul
    monkeypatch.setattr(MO, "wm_mul", lambda x, y: x)
    res = verify.check_weyl_monoid(triples=20)
    assert not res.passed
    assert "FAIL affine-A1 zero absorption" in res.lines
    at = res.lines.index("FAIL affine-A1 zero absorption")
    assert res.lines[at - 1].startswith("affine-A1 zero absorption: ")
    assert res.lines[at - 1] != "affine-A1 zero absorption: 0 violations"


@pytest.mark.parametrize("name", ["D8++", "E10"])
def test_the_laws_of_checks_3_and_4_hold_at_rank_ten(name):
    """[3]'s and [4]'s per-datum legs at their own volume, 1000 samples, on a
    fresh rank-10 datum."""
    datum = build_realization(KERNEL_DATA[name].gcm)
    assert verify._galois_laws(random.Random(30), datum, 1000) == 0
    assert verify._monoid_laws(random.Random(40), datum, 1000) == 0


@pytest.mark.parametrize("name", ["D8++", "E10"])
def test_the_algebraic_laws_of_check_5_hold_at_rank_ten(name):
    """[5]'s kappa leg at its own volume, 500 pairs, and the algebraic
    cocycle n_i(1)^2 = t_{h_i}(-1) at every i, on a fresh rank-10 datum."""
    datum = build_realization(KERNEL_DATA[name].gcm)
    assert verify._kappa_laws(random.Random(50), datum, 500) == 0
    assert all(verify._cocycle_holds(datum, i) for i in range(datum.n))


def test_the_law_legs_count_violations(monkeypatch):
    datum = KERNEL_DATA["D8++"]
    monkeypatch.setattr(FC, "includes", lambda r, s: True)
    assert verify._galois_laws(random.Random(30), datum, 50) > 0
    monkeypatch.setattr(MO, "wm_invert", lambda x: x)
    assert verify._monoid_laws(random.Random(40), datum, 50) > 0
    monkeypatch.setattr(MO, "wm_mul", lambda x, y: x)
    assert verify._kappa_laws(random.Random(50), datum, 50) > 0
    monkeypatch.setattr(MO, "nhat_mul", lambda a, b: a)
    assert not any(verify._cocycle_holds(datum, i) for i in range(datum.n))


def test_each_product_law_of_check_4_counts_its_violation(monkeypatch):
    # a product equal to nothing breaks, on every triple, each of the six
    # laws of [4] that compares products: associativity, the unit, unit
    # regularity, the factorization and both idempotent laws
    monkeypatch.setattr(MO, "_wm_mul", lambda x, y: object())
    assert verify._monoid_laws(random.Random(40), DATA[0][1], 30) == 6 * 30


def test_the_action_and_standard_meet_legs_of_check_3_count_violations(monkeypatch):
    datum = verify._data()["rank3-hyperbolic"]
    real_standard = FC.standard_face
    # an action that forgets u and w keeps each face's type only, which
    # meets do not respect
    monkeypatch.setattr(FC, "_act_face", lambda u, r: real_standard(r.datum, r.theta))
    assert verify._galois_laws(random.Random(30), datum, 50) > 0
    monkeypatch.undo()
    # the largest standard face read as the full cone breaks the meets of
    # standard faces, the only leg that a run with no pairs checks
    monkeypatch.setattr(FC, "standard_face", lambda d, theta: real_standard(
        d, () if len(theta) == d.n else theta))
    assert verify._galois_laws(random.Random(30), datum, 0) > 0


def test_the_face_leg_of_the_random_sweep_counts_violations(monkeypatch):
    monkeypatch.setattr(FC, "includes", lambda r, s: True)
    res = verify.check_random_gcms()
    assert int(re.search(r"(\d+) violations", res.lines[0])[1]) > 0, res.lines


def test_the_toric_round_trip_counts_its_violations(monkeypatch):
    # a monoid that forgets its last ray regenerates a smaller cone, whose
    # missing points the round trip counts
    real_init = toric.LatticeMonoid.__init__

    def forgetful(self, generators, rank):
        real_init(self, generators, rank)
        self.rays = self.rays[:-1]

    monkeypatch.setattr(toric.LatticeMonoid, "__init__", forgetful)
    res = verify.check_toric(count=10)
    assert int(re.search(r"round-trip (\d+),", res.lines[0])[1]) > 0, res.lines


def test_the_indicator_law_counts_each_pair_that_breaks_it():
    # pairings 1, 0, -1: five of the nine pairs hold a weight outside the
    # cone, and (1, -1), (-1, 1) sum to zero with neither weight at zero
    assert verify._indicator_laws([(1, 0), (0, 5), (-1, 2)], [(1, 0)]) == 5 + 2
    assert verify._indicator_laws([(1, 0), (0, 5)], [(1, 0), (0, 1)]) == 0


def test_zero_absorption_counts_a_word_absorbed_on_one_side_only(monkeypatch):
    # a probe that reads equal exactly when both words start alike: e w = e
    # holds and w e = e fails, so each word of [6]'s zero absorption fails
    monkeypatch.setattr(verify, "_adaptive_probe",
                        lambda datum, w1, w2, probes: w1.letters[0] == w2.letters[0])
    lines = [line for line in verify.check_operator_theorems().lines
             if ": zero absorption " in line]
    assert len(lines) == len(verify._SPECIAL_CASES)
    assert all(line.endswith("zero absorption 10 words, 10 failures, 0 beyond depth")
               for line in lines), lines


def test_the_toric_oracle_reuses_its_simplex_certificates(monkeypatch):
    # [9] asks 20,700 box points of its 100 cones; one exact certificate per
    # simplex run decides the points after it, so about 550 runs decide them
    calls = []
    monkeypatch.setattr(exact, "nonneg_solve", lambda a, b: calls.append(b))
    runs = exact.simplex_runs()
    assert verify.check_toric().passed
    assert calls == [] and exact.simplex_runs() - runs <= 600


def _ref_toric_law_counts(count):
    """(ri-partition, meet) violations of check_toric's first `count` cones,
    drawn as it draws them, read point by point over every pair of faces."""
    rng = random.Random(90)
    bad_part = bad_meet = 0
    for _ in range(count):
        rank = rng.randrange(2, 5)
        ngen = rng.randrange(1, rank + 3)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank)) for _ in range(ngen)]
        m = toric.LatticeMonoid(gens, rank)
        fl = m.faces()
        for x in product(range(-2, 3), repeat=rank):
            act = m._locate(x)
            if act is None:
                continue
            bad_part += sum(set(f.active) == set(act) for f in fl) != 1
            for fa in fl:
                for fb in fl:
                    meet = m.face_meet(fa, fb)
                    inter = m.face_contains(fa, x) and m.face_contains(fb, x)
                    bad_meet += inter != m.face_contains(meet, x)
    return bad_part, bad_meet


def test_the_toric_laws_counted_per_face_set_match_the_per_point_count(monkeypatch):
    # [9] counts the ri-partition and meet laws once per distinct active set
    # and face set, with multiplicity; a wrong meet and a dropped active
    # facet give the same nonzero counts as the per-point triple loop
    real_meet, real_locate = toric.LatticeMonoid._meet, toric.LatticeMonoid._locate
    monkeypatch.setattr(toric.LatticeMonoid, "_meet", lambda self, f, g: real_meet(self, f, f))
    monkeypatch.setattr(toric.LatticeMonoid, "_locate",
                        lambda self, x: None if (a := real_locate(self, x)) is None else a[1:])
    res = verify.check_toric(count=10)
    counts = re.search(r"ri-partition (\d+), meet (\d+) violations", res.lines[0])
    want = _ref_toric_law_counts(10)
    assert not res.passed and min(want) > 0, (res.lines, want)
    assert (int(counts[1]), int(counts[2])) == want
