"""One object per Weyl-monoid class, the products a class keeps, and the
fraction-free torus character.

`monoids.wm_normalize` looks each class up in its face's table `Face._classes`
and computes the representative only on a miss; `wm_mul` keeps each product
on its left factor, keyed by the right one.  Checked on the kernel reference
data and the three `verify` data (hyperbolic-3 is verify's rank-3 hyperbolic
datum), against the same products computed cold on a freshly built root
datum whose tables are empty.
"""

import random
from fractions import Fraction as Fr

import pytest
from exact_reference import torus_act as ref_torus_act
from test_exposed_faces import DATA, _word
from test_weyl import A2, KERNEL_DATA

from kmx import faces as F
from kmx import monoids as M
from kmx import weyl as W
from kmx.cartan import A2_ROWS, AFFINE_A1_ROWS, build_realization
from kmx.errors import PreconditionViolated



def _words(rng, datum):
    return tuple(_word(rng, datum, 5 if datum.n > 3 else 7))


def _specs(datum, seed, count):
    """Seeded (face word, Theta, Weyl word) specs of classes, rebuilt on any
    datum of the same matrix."""
    rng = random.Random(seed)
    specials = datum.special_sets()
    return [(_words(rng, datum), rng.choice(specials), _words(rng, datum))
            for _ in range(count)]


def _cls(datum, spec):
    fw, theta, word = spec
    return M.wm_normalize(W.from_word(datum, word),
                          F.normalize_face(W.from_word(datum, fw), theta))


def _form(x):
    return x.face.w.word, x.face.theta, x.w.word


@pytest.mark.parametrize("name", list(DATA))
def test_a_class_is_one_object_per_coset(name):
    datum = DATA[name]
    rng = random.Random(51)
    for fw, theta, word in _specs(datum, 51, 25):
        face = F.normalize_face(W.from_word(datum, fw), theta)
        sigma = W.from_word(datum, word)
        # z = w_R u w_R^{-1} with u in W_Theta centralizes R
        u = W.from_word(datum, [rng.choice(theta) for _ in range(4)] if theta else [])
        z = face.w * u * face.w.inv()
        assert F.centralizes(face, z)
        x = M.wm_normalize(sigma, face)
        assert M.wm_normalize(z * sigma, face) is x
        assert M.wm_normalize(x.w, face) is x and x.face is face
        assert face._classes[sigma] is x and face._classes[x.w] is x


@pytest.mark.parametrize("name", list(DATA))
def test_products_and_inverses_equal_a_cold_computation(name):
    warm = DATA[name]
    specs = _specs(warm, 52, 30 if warm.n > 3 else 60)
    pairs = list(zip(specs, specs[1:] + specs[:1]))
    for a, b in pairs + pairs[::-1]:  # the second pass reads kept products
        x, y = _cls(warm, a), _cls(warm, b)
        xy, xi = M.wm_mul(x, y), M.wm_invert(x)
        assert M.wm_mul(x, y) is xy and x._products[y] is xy
        cold = build_realization(warm.gcm)
        cx, cy = _cls(cold, a), _cls(cold, b)
        assert _form(xy) == _form(M.wm_mul(cx, cy)), (a, b)
        assert _form(xi) == _form(M.wm_invert(cx)), a
        assert xy.face.exposing() == M.wm_mul(cx, cy).face.exposing()


@pytest.mark.parametrize("name", list(DATA))
def test_a_directly_built_class_is_equal_and_hashes_alike(name):
    datum = DATA[name]
    specs = _specs(datum, 53, 20)
    for a, b in zip(specs, specs[1:]):
        x, y = _cls(datum, a), _cls(datum, b)
        direct = M.WmonElt(face=x.face, w=x.w)
        assert direct is not x and direct == x and x == direct
        assert hash(direct) == hash(x) and {x: 1}[direct] == 1
        assert M.wm_mul(x, direct) is M.wm_mul(x, x)
        assert M.wm_mul(direct, y) == M.wm_mul(x, y)
        assert repr(direct) == repr(x)
        # a class on a directly built face equals the table's too
        face = F.Face(w=x.face.w, theta=x.face.theta)
        assert M.WmonElt(face=face, w=x.w) == x
        assert M.wm_normalize(x.w, face) == x


@pytest.mark.parametrize("name", list(DATA))
def test_the_representative_is_computed_once_per_face_and_element(name, monkeypatch):
    datum = build_realization(DATA[name].gcm)
    calls = []
    real = M._centralizer_rep
    monkeypatch.setattr(M, "_centralizer_rep",
                        lambda face, sigma: calls.append((face, sigma)) or real(face, sigma))
    specs = _specs(datum, 54, 30)

    def stream():
        for a, b in zip(specs, specs[::-1]):
            x, y = _cls(datum, a), _cls(datum, b)
            M.wm_invert(M.wm_mul(x, y))
            M.wm_idempotent(x.face)
            M.wm_unit(datum, y.w)

    stream()
    first = len(calls)
    stream()  # the repeated stream computes no representative again
    assert first and len(calls) == first
    assert len(set(calls)) == len(calls)


def test_classes_of_two_root_data_are_refused():
    hyp = KERNEL_DATA["hyperbolic-3"]
    cone = F.full_cone(hyp)
    with pytest.raises(PreconditionViolated, match="two root data"):
        M.wm_normalize(W.simple(A2, 0), cone)
    with pytest.raises(PreconditionViolated, match="two root data"):
        M.nhat_from(W.simple(A2, 0), face=cone)
    with pytest.raises(PreconditionViolated, match="^Weyl-monoid class of a Weyl element and "
                                                   "a face of two root data$"):
        M.wm_unit(hyp, W.simple(A2, 0))
    assert W.simple(A2, 0) not in (cone._classes or {})
    # the same matrix built twice is two root data as well
    twin = build_realization(A2.gcm)
    with pytest.raises(PreconditionViolated, match="two root data"):
        M.wm_normalize(W.identity_elt(twin), F.full_cone(A2))


@pytest.mark.parametrize("rows", [A2_ROWS, AFFINE_A1_ROWS], ids=["same-shape", "other-shape"])
def test_meets_and_products_of_two_root_data_are_refused(rows):
    # against a second A2 realization intersect and that_mul returned a face
    # of the first and the products a class or element; against affine A1
    # they raised "descent exceeded the rho budget" or "coweight needs m
    # coordinates"
    other = build_realization(rows)
    r, s = F.full_cone(A2), F.standard_face(other, other.special_sets()[-1])
    for x, y in ((r, s), (s, r)):
        calls = {
            "intersect": lambda: F.intersect(x, y),
            "that_mul": lambda: M.that_mul(M.that_idempotent(x), M.that_idempotent(y)),
            "wm_mul": lambda: M.wm_mul(M.wm_idempotent(x), M.wm_idempotent(y)),
            "nhat_mul": lambda: M.nhat_mul(M.nhat_idempotent(x), M.nhat_idempotent(y)),
            "nhat_conj_idem": lambda: M.nhat_conj_idem(M.nhat_from(W.identity_elt(x.datum)), y),
            "weyl_mul": lambda: W.simple(x.datum, 0) * W.simple(y.datum, 0),
        }
        for name, call in calls.items():
            with pytest.raises(PreconditionViolated, match="two root data"):
                call()
    assert all(y.datum is A2 for y in M.wm_idempotent(r)._products or {})


@pytest.mark.parametrize("name", ["A2", "affine-A1", "hyperbolic-3"])
def test_torus_act_equals_the_fraction_power_reference(name):
    datum = DATA[name]
    rng = random.Random(55)
    for _ in range(40):
        t = tuple(Fr(rng.choice([1, 2, 3, -1, -2, -5]), rng.choice([1, 2, 3, 7]))
                  for _ in range(datum.m))
        u = W.from_word(datum, _word(rng, datum, 7))
        got = M.that_act(u, M.that_normalize(t, F.full_cone(datum))).values  # T acting on T
        assert got == ref_torus_act(u, t)
        assert all(type(v) is Fr for v in got)
