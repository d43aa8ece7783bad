"""The integer walk of `weyl.dominant_rep` against the Fraction walk it
replaced (`exact_reference.dominant_rep`), on finite, affine, hyperbolic,
D8++ and E10 data, with weights of denominators 1-4; and its decided
verdicts against the closed forms of the Tits cone on affine and hyperbolic
data, with weights drawn on the light cone and at level 0."""

import random
from fractions import Fraction

import pytest

import exact_reference as ref
from test_weyl import A2, AFF, HYP, KERNEL_DATA

from kmx import weyl as W
from kmx.cartan import RootDatum
from kmx.errors import KmxError, NotInTitsCone, Undecided

DATA = {"A2": A2, "affine A1": AFF, "A2^(1)": KERNEL_DATA["A2^(1)"], "hyperbolic-3": HYP,
        "D8++": KERNEL_DATA["D8++"], "E10": KERNEL_DATA["E10"]}


def _outcome(walk, datum, weight, cap):
    """What a walk answers: its DominantResult with the types of its
    coordinates, or the type, message, .weight and .bound of its error."""
    try:
        res = walk(datum, weight, cap=cap)
    except KmxError as err:
        return (type(err), str(err), getattr(err, "weight", None), getattr(err, "bound", None))
    return res, tuple(map(type, res.dominant))


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _weights(datum, rng, count):
    """w.lam+ (inside), w.(-lam+) (outside for non-finite data), points that
    vanish on a special Theta and points on the kernel of c_Theta, each
    moved by a random w; the coordinates are ints and Fractions."""
    specials = [t for t in datum.special_sets() if t]
    for k in range(count):
        kind = k % 4
        lam = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(datum.m)]
        if kind == 1:
            lam = [-x for x in lam]
        if kind >= 2:
            lam = [_rational(rng) for _ in range(datum.m)]
        if kind >= 2 and specials:
            theta = rng.choice(specials)
            c = datum.exposing_coweight(theta)
            if kind == 2:
                for i in theta:
                    lam[i] = Fraction(0)
            else:  # move one coordinate in Theta so that <lam, c_Theta> = 0
                i = theta[-1]
                lam[i] -= datum.pair(lam, c) / c[i]
                assert datum.pair(lam, c) == 0
        word = [rng.randrange(datum.n) for _ in range(rng.randint(0, 8))]
        weight = W.from_word(datum, word).act_weight(lam)
        yield tuple(x.numerator if x.denominator == 1 and rng.randrange(2) else x
                    for x in weight)


@pytest.mark.parametrize("name", list(DATA))
def test_integer_walk_answers_as_the_fraction_walk(name):
    datum = DATA[name]
    rng = random.Random(28)
    kinds = set()
    for weight in _weights(datum, rng, 48):
        for cap in (0, 1, 3, 60):
            got = _outcome(W.dominant_rep, datum, weight, cap)
            assert got == _outcome(ref.dominant_rep, datum, weight, cap), (weight, cap)
            kinds.add(got[0] if isinstance(got[0], type) else W.DominantResult)
    # every datum reaches dominant weights and runs out of budget; the Tits
    # cone of a finite type is everything
    expect = {W.DominantResult, Undecided} | ({NotInTitsCone} if name != "A2" else set())
    assert kinds == expect


def test_dominant_rep_makes_no_pairing_call(monkeypatch):
    # the walk keeps its pairings with the exposing coweights in ints; the
    # coweights themselves are worked out (and checked by pairing) first
    calls = []
    real = RootDatum.pair

    def counting(self, weight, coweight):
        calls.append(1)
        return real(self, weight, coweight)

    d8 = KERNEL_DATA["D8++"]
    cases = [(HYP, (-1, -1, -1)), (AFF, (1, -1, 0)), (d8, (1,) * d8.m)]
    cases += [(d8, w) for w in _weights(d8, random.Random(3), 12)]
    for datum, _ in cases:
        for theta in datum.special_sets()[1:]:
            datum.exposing_coweight(theta)
    monkeypatch.setattr(RootDatum, "pair", counting)
    for datum, weight in cases:
        _outcome(W.dominant_rep, datum, weight, 40)
    assert calls == []
    for datum, weight in cases:
        _outcome(ref.dominant_rep, datum, weight, 40)
    assert calls  # the counter sees the Fraction walk's pairings


# -- the walk's verdicts against the closed forms of the Tits cone -----------------


def _null_line(rows):
    """The primitive nonnegative generator of the null space of rows, when
    that space is one line through such a vector; None otherwise."""
    _, kernel = ref.rat_solve(rows, [0] * len(rows))
    if len(kernel) != 1:
        return None
    v = kernel[0] if min(kernel[0]) >= 0 else tuple(-x for x in kernel[0])
    return tuple(int(x) for x in v) if min(v) >= 0 else None


def _isotropic_roots(datum):
    """Norm-0 imaginary roots delta, as weights: on affine data the null
    root, on hyperbolic data the null root of the affine diagram left by
    deleting one node (Kac, ch. 5)."""
    a, n = datum.gcm.a, datum.n
    roots = [_null_line(a)]
    if roots[0] is None:
        roots = []
        for k in range(n):
            rows = [[0 if k in (i, j) else a[i][j] for j in range(n)] for i in range(n)]
            rows[k][k] = 1  # pins delta_k to 0
            delta = _null_line(rows)
            if delta is not None and delta not in roots:
                roots.append(delta)
    return [tuple(sum(c * al[j] for c, al in zip(delta, datum.alpha)) for j in range(datum.m))
            for delta in roots]


def _central(datum):
    """The canonical central element K = sum a_i^vee h_i of affine data, as
    its coefficients; None on hyperbolic data."""
    return _null_line([list(col) for col in zip(*datum.gcm.a)])


def _closed_form(datum, lam):
    """Membership of lam in the Tits cone (Kac, ch. 5): on affine data, a
    positive level or a level-0 weight that vanishes on every coroot; on
    hyperbolic data, the closed light cone of rho, (lam|lam) <= 0 and
    (lam|rho) <= 0."""
    level = _central(datum)
    if level is not None:
        k = sum(c * x for c, x in zip(level, lam))
        return k > 0 or (k == 0 and not any(lam[:datum.n]))
    return datum.form_weights(lam, lam) <= 0 and datum.form_weights(lam, datum.rho()) <= 0


def _oracle_weights(datum, rng):
    """Random integer weights, the W-images of +- 1 and 2 times each
    isotropic root (on the light cone, or at level 0 on affine data), and on
    affine data random level-0 weights, with or without a nonzero pairing
    with a coroot."""
    out = [tuple(rng.randint(-4, 4) for _ in range(datum.m)) for _ in range(40)]
    for delta in _isotropic_roots(datum):
        for k in (1, 2, -1, -2):
            for _ in range(3):
                w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(rng.randint(0, 8))])
                out.append(w.act_weight(tuple(k * x for x in delta)))
    level = _central(datum)
    if level is not None:
        for k in range(20):
            lam = [rng.randint(-4, 4) if k % 2 or i >= datum.n else 0 for i in range(datum.m)]
            lam[0] -= sum(c * x for c, x in zip(level, lam))  # a_0^vee = 1 on these data
            out.append(tuple(lam))
    return out


# decided weights per datum, at least: (in the Tits cone, outside it).  All
# of the 72, 72, 52, 76 and 52 weights drawn are decided at cap 200.
ORACLE_DECIDED = {"affine A1": (40, 32), "A2^(1)": (33, 39), "hyperbolic-3": (15, 37),
                  "D8++": (26, 50), "E10": (18, 34)}


@pytest.mark.parametrize("name", list(ORACLE_DECIDED))
def test_decided_walks_agree_with_the_closed_forms(name):
    datum = DATA[name]
    rng = random.Random(32)
    decided = [0, 0]
    for lam in _oracle_weights(datum, rng):
        try:
            W.dominant_rep(datum, lam, cap=200)
            inside = True
        except NotInTitsCone:
            inside = False
        except Undecided:
            continue
        assert inside == _closed_form(datum, lam), lam
        decided[not inside] += 1
    assert all(map(int.__ge__, decided, ORACLE_DECIDED[name])), decided
