"""The integer walk of `weyl.dominant_rep` against the Fraction walk it
replaced (`exact_reference.dominant_rep`), on finite, affine, hyperbolic,
D8++ and E10 data, with weights of denominators 1-4."""

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
