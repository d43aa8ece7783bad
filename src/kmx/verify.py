"""Deterministic verification battery behind the `verify` CLI verb.

Each check exercises one acceptance property with fixed seeds and sorted
iteration, so two runs print byte-identical reports.  The pytest acceptance
suite runs the same functions and additionally enforces the runtime bounds.

Every leg of a check writes its report line through _leg, which adds a FAIL
line when the leg failed; legs with undecided instances count their
True/False/None verdicts with _tally.  [5]'s operator cocycle and the
operator legs of [6] read the words' images on a probe slice from one
`highest_weight.word_columns` pass in height order: [5] through
`probe_equal`, which lets a DepthExceeded raise, and [6] through
_fitting_images, which reads up to height 2 and keeps the heights below
the first DepthExceeded.  No dense operator matrix is built.

The samplers draw `random.randrange`'s stream without its Python wrapper:
`_below` draws as CPython's `Random._randbelow` does, so `_rand_weyl`,
`_rand_face` and `_rand_nhat` take the same numbers in the same order and
the report does not move.  What they draw is built by the cores on values
verify made itself, as the `cartan` docstring asks of code inside kmx: a
word by `weyl._multiply_out`, a face by `faces._normal_face` on one of the
datum's special sets, a class by `monoids._wm_class`, and an element of
N-hat as an `NhatElt` of the drawn word, torus values and face.  [3] and
[4] act on faces by `faces._act_face`, [4]'s law products are
`monoids._wm_mul`, and [5]'s kappa leg multiplies by `monoids._nhat_mul`
and maps by `monoids._kappa`.  The laws keep the public names that the
law-leg tests patch to corrupt them: `faces.includes` in [3],
`monoids.wm_invert` in [4], and `monoids.wm_mul` in [4]'s zero absorption
and [5]'s kappa leg.  [5]'s cocycle squares the unit n_i by the public
`monoids.nhat_mul`, which a law-leg test patches too, and [6] conjugates
by `monoids.nhat_inv` of a unit; both run the `_nelt_mul` fold.  The few
draws of [6], [8], [9] and [r] outside the samplers stay on `randrange`.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Optional

from . import exact, faces as FC, highest_weight as HW, monoids as MO, toric
from .cartan import (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS, RootDatum,
                     build_realization, classify, special_sets)
from .errors import DepthExceeded
from . import weyl as W


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: tuple[str, ...]


def _data():
    return {
        "A2": build_realization(A2_ROWS),
        "affine-A1": build_realization(AFFINE_A1_ROWS),
        "rank3-hyperbolic": build_realization(HYPERBOLIC_ROWS),
    }


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n > 0, drawn as CPython's `Random._randbelow`
    draws it: k = n.bit_length() bits from `getrandbits`, drawn again while
    they read n or more."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _rand_weyl(rng: random.Random, datum: RootDatum, maxlen: int = 6) -> W.WeylElt:
    """A word of 0..maxlen letters, its length drawn first, multiplied out."""
    n = datum.n
    word = [_below(rng, n) for _ in range(_below(rng, maxlen + 1))]
    return W._multiply_out(W.identity_elt(datum), word)


def _rand_face(rng: random.Random, datum: RootDatum) -> FC.Face:
    """A special set, drawn first, and a Weyl element: their face."""
    specials = datum.special_sets()
    theta = specials[_below(rng, len(specials))]
    return FC._normal_face(_rand_weyl(rng, datum), theta)


def _leg(lines: list, text: str, failed, what: str) -> bool:
    """Append a leg's report line, and a FAIL line naming `what` when the
    leg failed.  True when it passed."""
    lines.append(text)
    if failed:
        lines.append("FAIL " + what)
    return not failed


def _tally(verdicts: list) -> tuple[int, int, int]:
    """(decided, failed, undecided) over True/False/None verdicts."""
    undecided = verdicts.count(None)
    return len(verdicts) - undecided, verdicts.count(False), undecided


# -- criterion 1 ------------------------------------------------------------------


def check_hyperbolic_example() -> CheckResult:
    lines = []
    datum = build_realization(HYPERBOLIC_ROWS)
    cls = classify(datum.gcm)
    ok = (len(cls.components) == 1
          and cls.components[0][1].value == "IND"
          and cls.components[0][0] == (0, 1, 2))
    lines.append(f"classification: {[(c, t.value) for c, t in cls.components]}")
    ss = special_sets(datum.gcm)
    ok = ok and ss == ((), (0, 1), (0, 1, 2))
    _leg(lines, f"special sets (1-based): {[tuple(i + 1 for i in t) for t in ss]}",
         not ok, "hyperbolic fixed point mismatch")
    return CheckResult("hyperbolic-classification-and-special-sets", ok, tuple(lines))


# -- criterion 2 ------------------------------------------------------------------


def check_face_counts(samples: int = 1000) -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(20)
    for name, rows, expected in (("finite", A2_ROWS, 1), ("affine", AFFINE_A1_ROWS, 2)):
        datum = build_realization(rows)
        seen = set()
        for _ in range(samples):
            seen.add(_rand_face(rng, datum))
        ok &= _leg(lines, f"{name}: {len(seen)} distinct faces from {samples} samples "
                          f"(expected {expected})",
                   len(seen) != expected, f"{name} face count")
    return CheckResult("face-count-collapse", ok, tuple(lines))


# -- criterion 3 ------------------------------------------------------------------


def _galois_laws(rng: random.Random, datum: RootDatum, pairs: int) -> int:
    """Violations of the Galois and lattice laws of meet and inclusion on
    `pairs` random pairs of faces of datum, and of the meets of standard
    faces over all pairs of special sets."""
    bad = 0
    for _ in range(pairs):
        r = _rand_face(rng, datum)
        s = _rand_face(rng, datum)
        meet = FC.intersect(r, s)
        if FC.includes(r, s) != (meet == s):
            bad += 1
        if meet != FC.intersect(s, r) or FC.intersect(r, r) != r:
            bad += 1
        u = _rand_weyl(rng, datum, 4)
        if FC._act_face(u, meet) != FC.intersect(FC._act_face(u, r), FC._act_face(u, s)):
            bad += 1
    for t1 in datum.special_sets():
        for t2 in datum.special_sets():
            lhs = FC.intersect(FC.standard_face(datum, t1), FC.standard_face(datum, t2))
            rhs = FC.standard_face(datum, tuple(sorted(set(t1) | set(t2))))
            if lhs != rhs:
                bad += 1
    return bad


def check_face_galois(pairs: int = 1000) -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(30)
    for name, datum in sorted(_data().items()):
        bad = _galois_laws(rng, datum, pairs)
        ok &= _leg(lines, f"{name}: {pairs} pairs, {bad} violations", bad,
                   f"{name} Galois/lattice laws")
    return CheckResult("face-lattice-galois", ok, tuple(lines))


# -- criterion 4 ------------------------------------------------------------------


def _rand_wmon(rng: random.Random, datum: RootDatum) -> MO.WmonElt:
    return MO._wm_class(_rand_weyl(rng, datum, 5), _rand_face(rng, datum))


def _monoid_laws(rng: random.Random, datum: RootDatum, triples: int) -> int:
    """Violations of the Weyl-monoid laws on `triples` random triples of
    classes of datum: associativity, the unit, unit regularity and its
    factorization, and idempotents mirroring the face lattice."""
    bad = 0
    unit = MO.wm_unit(datum)
    one, full = unit.w, unit.face
    for _ in range(triples):
        x, y, z = (_rand_wmon(rng, datum) for _ in range(3))
        if MO._wm_mul(MO._wm_mul(x, y), z) != MO._wm_mul(x, MO._wm_mul(y, z)):
            bad += 1
        if MO._wm_mul(unit, x) != x or MO._wm_mul(x, unit) != x:
            bad += 1
        xi = MO.wm_invert(x)
        if (MO._wm_mul(MO._wm_mul(x, xi), x) != x
                or MO._wm_mul(MO._wm_mul(xi, x), xi) != xi):
            bad += 1
        # unit-regular factorization x = (unit part) * (idempotent)
        upart = MO._wm_class(x.w, full)
        epart = MO._wm_class(one, FC._act_face(x.w.inv(), x.face))
        if MO._wm_mul(upart, epart) != x:
            bad += 1
        # idempotents commute and mirror the face lattice
        e1 = MO._wm_class(one, x.face)
        e2 = MO._wm_class(one, y.face)
        if MO._wm_mul(e1, e2) != MO._wm_mul(e2, e1):
            bad += 1
        if MO._wm_mul(e1, e2) != MO._wm_class(one, FC.intersect(x.face, y.face)):
            bad += 1
    return bad


def check_weyl_monoid(triples: int = 1000) -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(40)
    for name, datum in sorted(_data().items()):
        bad = _monoid_laws(rng, datum, triples)
        ok &= _leg(lines, f"{name}: {triples} triples, {bad} violations", bad,
                   f"{name} monoid laws")
    # affine: the monoid is the group plus a single zero
    datum = build_realization(AFFINE_A1_ROWS)
    zero = MO.wm_idempotent(FC.standard_face(datum, (0, 1)))
    bad = 0
    for _ in range(200):
        x = _rand_wmon(rng, datum)
        if not x.is_unit() and x != zero:
            bad += 1
        if MO.wm_mul(x, zero) != zero or MO.wm_mul(zero, x) != zero:
            bad += 1
    ok &= _leg(lines, f"affine-A1 zero absorption: {bad} violations", bad,
               "affine-A1 zero absorption")
    return CheckResult("weyl-monoid-laws", ok, tuple(lines))


# -- criterion 5 ------------------------------------------------------------------


# the numerators and denominators of _rand_nhat's torus values
_TNUMS, _TDENS = (1, 2, 3, -1, -2), (1, 2)


def _rand_nhat(rng: random.Random, datum: RootDatum) -> MO.NhatElt:
    tvals = tuple(Fraction(_TNUMS[_below(rng, len(_TNUMS))],
                           _TDENS[_below(rng, len(_TDENS))])
                  for _ in range(datum.m))
    return MO.NhatElt(w=_rand_weyl(rng, datum, 4), torus=tvals, face=_rand_face(rng, datum))


def _kappa_laws(rng: random.Random, datum: RootDatum, pairs: int) -> int:
    """Violations of kappa(a b) = kappa(a) kappa(b) on `pairs` random pairs
    of normalizer-monoid elements of datum."""
    bad = 0
    for _ in range(pairs):
        a, b = _rand_nhat(rng, datum), _rand_nhat(rng, datum)
        if MO._kappa(MO._nhat_mul(a, b)) != MO.wm_mul(MO._kappa(a), MO._kappa(b)):
            bad += 1
    return bad


def _cocycle_holds(datum: RootDatum, i: int) -> bool:
    """n_i(1)^2 = t_{h_i}(-1) in the normalizer, algebraically: the parity
    route of `monoids.nhat_mul` on the unit n_i against t_{h_i}(-1) as
    `torus_from_coweight` forms it, one power of -1 per coordinate."""
    ni = MO.nhat_from(W.simple(datum, i))
    sq = MO.nhat_mul(ni, ni)
    return sq.w.is_identity() and sq.torus == MO.torus_from_coweight(datum, datum.coroot(i),
                                                                     Fraction(-1))


def check_kappa_and_cocycle(pairs: int = 500) -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(50)
    for name, datum in sorted(_data().items()):
        bad = _kappa_laws(rng, datum, pairs)
        ok &= _leg(lines, f"{name}: kappa respects {pairs} products, {bad} violations",
                   bad, f"{name} kappa homomorphism")
        # cocycle n_i(1)^2 = t_{h_i}(-1): algebraic and operator-level
        for i in range(datum.n):
            alg_ok = _cocycle_holds(datum, i)
            probe_hw = tuple(1 if j < datum.n else 0 for j in range(datum.m))
            res = HW.probe_equal(
                datum,
                HW.GhatWord((HW.nsimple(i), HW.nsimple(i))),
                HW.GhatWord((HW.torus_letter(datum.coroot(i), Fraction(-1)),)),
                [(probe_hw, 2, 0)])
            op_ok = isinstance(res, HW.EqualOnProbes)
            ok &= _leg(lines, f"{name}: generator {i + 1} squared cocycle "
                              f"algebraic={'ok' if alg_ok else 'BAD'} "
                              f"operators={'ok' if op_ok else 'BAD'}",
                       not (alg_ok and op_ok), f"{name} cocycle at {i + 1}")
    return CheckResult("normalizer-quotient-and-cocycle", ok, tuple(lines))


# -- criterion 6 ------------------------------------------------------------------


# heights of the basis vectors that [6] applies its words to
_PROBE_HEIGHT = 2

# special sets whose idempotents [6] tests for absorption and zero absorption
_SPECIAL_CASES = (
    ("affine-A1", (0, 1)),
    ("rank3-hyperbolic", (0, 1)),
    ("rank3-hyperbolic", (0, 1, 2)),
)


def _fitting_images(sl: HW.ModuleSlice, words) -> list:
    """(weight, images of `words`) for each basis vector of sl of height at
    most h0, read from one `word_columns` pass up to _PROBE_HEIGHT.  h0 is
    _PROBE_HEIGHT when the pass ends, else the height of the vector it
    raised DepthExceeded at, less one.  Fitting is monotone in height, so
    h0 is the largest bound under which every word fits on every vector."""
    out = []
    try:
        for wt, _, images in HW.word_columns(sl, words, _PROBE_HEIGHT):
            out.append((wt, images))
    except DepthExceeded:
        h = sl.height_of(sl.basis_index()[len(out)][0])
        return [col for col in out if sl.height_of(col[0]) < h]
    return out


def _adaptive_probe(datum, w1, w2, probes) -> Optional[bool]:
    """Equality on the largest fitting probe heights; None when nothing fits."""
    verdicts = []
    for hw, depth in probes:
        cols = _fitting_images(HW.build_basis(datum, hw, depth), (w1, w2))
        if cols:
            verdicts.append(all(a == b for _, (a, b) in cols))
    if not verdicts:
        return None
    return all(verdicts)


def _check_preserves(datum, word: HW.GhatWord, cvec) -> Optional[bool]:
    """Does the word map face-supported basis vectors into the face span?

    Checked on fundamental slices at the largest fitting heights; None when
    no face-supported vector fits the depth window.
    """
    any_fit = False
    for hw, depth in _fundamental_probes(datum, 5):
        for wt, (img,) in _fitting_images(HW.build_basis(datum, hw, depth), (word,)):
            if exact.vec_dot(wt, cvec) != 0:
                continue
            any_fit = True
            if any(exact.vec_dot(wt_r, cvec) != 0 for wt_r in img.parts):
                return False
    return True if any_fit else None


def _conj_letters(x: MO.NhatElt, mid: list) -> HW.GhatWord:
    return HW.GhatWord(tuple(HW.nhat_letters(x) + mid + HW.nhat_letters(MO.nhat_inv(x))))


def _fundamental_probes(datum, depth):
    return [(tuple(1 if j == k else 0 for j in range(datum.m)), depth)
            for k in range(datum.n)]


def _indicator_laws(weights, cvecs) -> int:
    """Violations of the tensor indicator law on each pair of `weights`, for
    each coweight of `cvecs`: a module weight pairs nonnegatively with an
    exposing coweight, and a sum of two weights pairs to zero exactly when
    both do."""
    bad = 0
    for c in cvecs:
        pairings = [exact.vec_dot(lam, c) for lam in weights]
        for pl in pairings:
            for pm in pairings:
                if pl < 0 or pm < 0:
                    bad += 1  # module weight outside the Tits cone
                if (pl + pm == 0) != (pl == 0 and pm == 0):
                    bad += 1
    return bad


def check_operator_theorems() -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(60)
    by_name = _data()
    data = sorted(by_name.items())

    # conjugation identity: n e(R) n^{-1} = e(wR) as operators
    for name, datum in data:
        verdicts = []
        for _ in range(12):
            sigma = _rand_weyl(rng, datum, 2)
            face = _rand_face(rng, datum)
            lhs = _conj_letters(MO.nhat_from(sigma), [HW.idem(face)])
            rhs = HW.GhatWord((HW.idem(FC.act_face(sigma, face)),))
            verdicts.append(_adaptive_probe(datum, lhs, rhs, _fundamental_probes(datum, 5)))
        tried, bad, skipped = _tally(verdicts)
        ok &= _leg(lines, f"{name}: projection conjugation {tried} instances, "
                          f"{bad} failures, {skipped} beyond depth", bad,
                   f"{name} conjugation")

    # absorption: exp(g_root) e(R(Theta)) = e(R(Theta)) for roots in the
    # Theta-subsystem (both signs)
    for name, theta in _SPECIAL_CASES:
        datum = by_name[name]
        face = FC.standard_face(datum, theta)
        roots = HW.real_roots_with_witness(datum, 3)
        verdicts = []
        for root in sorted(roots):
            if not all(i in theta for i, c in enumerate(root) if c):
                continue
            u, i = roots[root]
            # exp of a root vector for root = u(alpha_i), via the lift of u
            body = _conj_letters(MO.nhat_from(u), [HW.xplus(i, Fraction(1))])
            lhs = HW.GhatWord(body.letters + (HW.idem(face),))
            rhs = HW.GhatWord((HW.idem(face),))
            verdicts.append(_adaptive_probe(datum, lhs, rhs, _fundamental_probes(datum, 5)))
        tried, bad, skipped = _tally(verdicts)
        ok &= _leg(lines, f"{name} type {tuple(i + 1 for i in theta)}: absorption "
                          f"{tried} roots, {bad} failures, {skipped} beyond depth",
                   bad or tried == 0, f"{name} absorption")

    # root condition vs actual invariance of the face-projected submodule
    for name, datum in data:
        roots = HW.real_roots_with_witness(datum, 4)
        faces = sorted({_rand_face(rng, datum) for _ in range(6)},
                       key=lambda f: (f.theta, f.w.word))
        verdicts = []
        for face in faces:
            cvec = face.exposing()
            for root in sorted(roots):
                u, i = roots[root]
                g = face.w.inv().act_root(root)
                supp = set(j for j, c in enumerate(g) if c)
                predicate = (all(c >= 0 for c in g) or supp <= set(face.theta)
                             or supp <= set(datum._theta_perp(face.theta)))
                word = _conj_letters(MO.nhat_from(u), [HW.xplus(i, Fraction(1))])
                verdict = _check_preserves(datum, word, cvec)
                verdicts.append(None if verdict is None else verdict == predicate)
        tried, bad, skipped = _tally(verdicts)
        ok &= _leg(lines, f"{name}: root-condition vs invariance {tried} instances, "
                          f"{bad} disagreements, {skipped} beyond depth", bad,
                   f"{name} root condition")

    # tensor indicator law on module weight pairs
    for name, datum in data:
        sl = HW.build_basis(datum, tuple(1 if j < datum.n else 0
                                         for j in range(datum.m)), 4)
        weights = sorted(sl.spaces)
        faces = sorted({_rand_face(rng, datum) for _ in range(4)},
                       key=lambda f: (f.theta, f.w.word))
        bad = _indicator_laws(weights, [face.exposing() for face in faces])
        total = len(faces) * len(weights) ** 2
        ok &= _leg(lines, f"{name}: indicator multiplicativity on {total} pairs, "
                          f"{bad} violations", bad, f"{name} tensor law")

    # zero absorption for special J
    for name, jset in _SPECIAL_CASES:
        datum = by_name[name]
        zface = FC.standard_face(datum, jset)
        zero = HW.GhatWord((HW.idem(zface),))
        verdicts = []
        for _ in range(10):
            letters = []
            for _ in range(rng.randrange(1, 4)):
                j = rng.choice(jset)
                kind = rng.randrange(3)
                if kind == 0:
                    letters.append(HW.xplus(j, Fraction(rng.randrange(1, 3))))
                elif kind == 1:
                    letters.append(HW.xminus(j, Fraction(rng.randrange(1, 3))))
                else:
                    letters.append(HW.torus_letter(datum.coroot(j),
                                                   Fraction(rng.choice([2, 3, -1]))))
            word = tuple(letters)
            probes = _fundamental_probes(datum, 5)
            v1 = _adaptive_probe(datum, HW.GhatWord(zero.letters + word), zero, probes)
            v2 = _adaptive_probe(datum, HW.GhatWord(word + zero.letters), zero, probes)
            verdicts.append(None if v1 is None or v2 is None else v1 and v2)
        tried, bad, skipped = _tally(verdicts)
        ok &= _leg(lines, f"{name} J={tuple(i + 1 for i in jset)}: zero absorption "
                          f"{tried} words, {bad} failures, {skipped} beyond depth",
                   bad or tried == 0, f"{name} zero absorption")
    return CheckResult("operator-theorems", ok, tuple(lines))


# -- criterion 7 ------------------------------------------------------------------


def check_multiplicity_oracles() -> CheckResult:
    lines = []
    ok = True
    cases = [
        ("A2", A2_ROWS, (1, 0)),
        ("A2", A2_ROWS, (1, 1)),
        ("affine-A1", AFFINE_A1_ROWS, (1, 0, 0)),
    ]
    for name, rows, hw in cases:
        datum = build_realization(rows)
        freud = HW.weights_and_mults(datum, hw, 4)
        sl = HW.build_basis(datum, hw, 4)
        agree = freud == sl.dims()
        ok &= _leg(lines, f"{name} hw={hw}: {len(freud)} weights, "
                          f"routes {'agree' if agree else 'DISAGREE'}",
                   not agree, f"{name} multiplicities")
        bad = 0
        for sp in sl.spaces.values():
            for i, (usp, em, de) in sp.up.items():
                _, fm, df = usp.down[i]
                for a in range(sp.dim):
                    for b in range(usp.dim):
                        # <e_i b_a | b_b> = <b_a | f_i b_b>, both over their dens
                        lhs = sum(usp.gram[r][b] * em[r][a] for r in range(usp.dim))
                        rhs = sum(sp.gram[a][c] * fm[c][b] for c in range(sp.dim))
                        if lhs * df != rhs * de:
                            bad += 1
        ok &= _leg(lines, f"{name} hw={hw}: contravariance violations {bad}", bad,
                   f"{name} contravariance")
    return CheckResult("multiplicity-cross-oracle", ok, tuple(lines))


# -- criterion 8 ------------------------------------------------------------------


def check_theta_multiplicative(count: int = 100) -> CheckResult:
    lines = []
    ok = True
    rng = random.Random(80)
    cases = [
        ("A2", A2_ROWS, (1, 0), (0, 1), 4),
        ("affine-A1", AFFINE_A1_ROWS, (1, 0, 0), (0, 1, 0), 3),
    ]
    for name, rows, hw1, hw2, depth in cases:
        datum = build_realization(rows)
        hw3 = tuple(a + b for a, b in zip(hw1, hw2))
        s1 = HW.build_basis(datum, hw1, depth)
        s2 = HW.build_basis(datum, hw2, depth)
        s3 = HW.build_basis(datum, hw3, depth)
        done = skipped = bad = 0
        while done < count and skipped < 40 * count:
            letters = []
            for _ in range(rng.randrange(1, 4)):
                kind = rng.randrange(5)
                i = rng.randrange(datum.n)
                if kind == 0:
                    letters.append(HW.xminus(i, Fraction(rng.randrange(1, 3))))
                elif kind == 1:
                    letters.append(HW.xplus(i, Fraction(rng.randrange(1, 3))))
                elif kind == 2:
                    letters.append(HW.torus_letter(
                        datum.coroot(rng.randrange(datum.m)),
                        Fraction(rng.choice([2, 3, -1, 1]), rng.choice([1, 2]))))
                elif kind == 3:
                    letters.append(HW.nsimple(i))
                else:
                    letters.append(HW.idem(_rand_face(rng, datum)))
            word = HW.GhatWord(tuple(letters))
            try:
                t1, t2, t3 = HW.theta(s1, word), HW.theta(s2, word), HW.theta(s3, word)
            except DepthExceeded:
                skipped += 1
                continue
            done += 1
            if t1 * t2 != t3:
                bad += 1
        ok &= _leg(lines, f"{name}: {done} words checked ({skipped} beyond depth), "
                          f"{bad} violations", bad or done < count,
                   f"{name} theta multiplicativity")
    return CheckResult("theta-multiplicativity", ok, tuple(lines))


# -- criterion 9 ------------------------------------------------------------------


def check_toric(count: int = 100) -> CheckResult:
    lines = []
    rng = random.Random(90)
    bad_mem = bad_rt = bad_part = bad_meet = 0
    boxes = 0
    for case in range(count):
        rank = rng.randrange(2, 5)
        ngen = rng.randrange(1, rank + 3)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank)) for _ in range(ngen)]
        m1 = toric.LatticeMonoid(gens, rank)
        # membership against an independent nonnegative-combination oracle
        span = 2
        pts = list(iproduct(range(-span, span + 1), repeat=rank))
        cols = exact.transpose(gens)
        boxes += len(pts)
        # each box point is located once: None outside, else its active set
        located = [m1._locate(x) for x in pts]
        bad_mem += sum((act is not None) != feasible
                       for act, feasible in zip(located, exact._nonneg_feasible(cols, pts)))
        # round trip: regenerate from the cone description
        gens2 = list(m1.rays) + [v for b in m1.lineality for v in (b, tuple(-c for c in b))]
        m2 = toric.LatticeMonoid(gens2 or [(0,) * rank], rank)
        bad_rt += sum((act is None) != (m2._locate(x) is None) for x, act in zip(pts, located))
        if len(m1.faces()) != len(m2.faces()):
            bad_rt += 1
        # Relative interiors partition the monoid: exactly one face has a
        # member's active set.  Meets agree with set intersection on the
        # box: a member lies in the faces whose active sets its own
        # contains.  Both laws read a member only through its active set, so
        # each distinct active set, and then each distinct set of faces
        # containing it, is checked once and counted with its multiplicity
        fl = m1.faces()
        face_actives = [frozenset(f.active) for f in fl]
        actives = Counter(frozenset(act) for act in located if act is not None)
        containing = Counter()
        for act, mult in actives.items():
            bad_part += mult * (face_actives.count(act) != 1)
            containing[frozenset(f.index for f, f_act in zip(fl, face_actives)
                                 if f_act <= act)] += mult
        for fa in fl:
            for fb in fl:
                meet = m1.face_meet(fa, fb).index
                for faces_of_x, mult in containing.items():
                    inter = fa.index in faces_of_x and fb.index in faces_of_x
                    if inter != (meet in faces_of_x):
                        bad_meet += mult
    ok = _leg(lines, f"{count} random cones, {boxes} box points: "
                     f"membership {bad_mem}, round-trip {bad_rt}, "
                     f"ri-partition {bad_part}, meet {bad_meet} violations",
              bad_mem or bad_rt or bad_part or bad_meet, "toric lattice checks")
    return CheckResult("toric-gordan-roundtrip", ok, tuple(lines))


def check_random_gcms(count: int = 24) -> CheckResult:
    """Randomized matrices within guards: classification, realization and
    face-law smoke across freshly sampled symmetrizable inputs."""
    from .errors import NotSymmetrizable
    from .cartan import validate_and_symmetrize

    lines = []
    rng = random.Random(100)
    tried = bad = 0
    while tried < count:
        n = rng.randrange(2, 4)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.randrange(2):
                    rows[i][j] = -rng.randrange(1, 4)
                    rows[j][i] = -rng.randrange(1, 4)
        try:
            gcm = validate_and_symmetrize(rows)
        except NotSymmetrizable:
            continue
        tried += 1
        datum = build_realization(gcm)
        a = gcm.a
        for i in range(n):
            for j in range(n):
                if datum.pair(datum.alpha[i], datum.coroot(j)) != a[j][i]:
                    bad += 1
            if datum.form_weights(datum.alpha[i], datum.alpha[i]) * gcm.eps[i] != 2:
                bad += 1
        specials = datum.special_sets()
        for t1 in specials:
            for t2 in specials:
                if tuple(sorted(set(t1) | set(t2))) not in specials:
                    bad += 1
        for _ in range(10):
            r, s = _rand_face(rng, datum), _rand_face(rng, datum)
            meet = FC.intersect(r, s)
            if FC.includes(r, s) != (meet == s) or meet != FC.intersect(s, r):
                bad += 1
    ok = _leg(lines, f"{tried} random symmetrizable matrices, {bad} violations", bad,
              "randomized sweep")
    return CheckResult("randomized-matrix-sweep", ok, tuple(lines))


# -- driver -----------------------------------------------------------------------

ALL_CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("1", check_hyperbolic_example),
    ("2", check_face_counts),
    ("3", check_face_galois),
    ("4", check_weyl_monoid),
    ("5", check_kappa_and_cocycle),
    ("6", check_operator_theorems),
    ("7", check_multiplicity_oracles),
    ("8", check_theta_multiplicative),
    ("9", check_toric),
    ("r", check_random_gcms),
)


def run_all(timings: Optional[list] = None) -> tuple[bool, str]:
    """Run ALL_CHECKS, read at call time, and return (all passed, report).
    With a `timings` list, append (number, name, CPU seconds, Weyl elements
    added to the root data's tables, simplex runs) per check."""
    out = []
    all_ok = True
    for num, fn in ALL_CHECKS:
        start, added, runs = time.process_time(), W.elements_added(), exact.simplex_runs()
        res = fn()
        if timings is not None:
            timings.append((num, res.name, time.process_time() - start,
                            W.elements_added() - added, exact.simplex_runs() - runs))
        all_ok = all_ok and res.passed
        out.append(f"[{num}] {res.name}: {'PASS' if res.passed else 'FAIL'}")
        for line in res.lines:
            out.append(f"    {line}")
    out.append("result: " + ("all checks passed" if all_ok else "FAILURES PRESENT"))
    return all_ok, "\n".join(out) + "\n"
