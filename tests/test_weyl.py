import contextlib
import random
import re
import signal
from fractions import Fraction
from operator import mul

import pytest

from kmx import faces as F
from kmx import monoids as M
from kmx import weyl as W
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS,
                        build_realization, classify)
from kmx.errors import (DomainError, InternalError, NotInTitsCone, PreconditionViolated,
                        Undecided)
from kmx.exact import identity, mat_mul, mat_vec, rat_solve, transpose, vec_sub

A2 = build_realization(A2_ROWS)
AFF = build_realization(AFFINE_A1_ROWS)
HYP = build_realization(HYPERBOLIC_ROWS)


def test_act_defining_formulas():
    s1 = W.simple(A2, 0)
    lam = A2.fundamental_weight(0)
    assert tuple(s1.act_weight(lam)) == tuple(vec_sub(lam, A2.alpha[0]))
    assert tuple(s1.act_weight(A2.alpha[0])) == tuple(-x for x in A2.alpha[0])
    # affine: sigma_2(-h_1) = -h_1 - 2 h_2 since alpha_2(h_1) = -2
    s2 = W.simple(AFF, 1)
    assert tuple(s2.act_coweight((-1, 0, 0))) == (-1, -2, 0)
    # a short coweight is not cut to its length, a long one is no IndexError
    for bad in ((-1, 0), (-1, 0, 0, 0)):
        with pytest.raises(DomainError, match="coweight needs 3 coordinates"):
            s2.act_coweight(bad)


@pytest.mark.parametrize("bad", [(1, 2), (1, 2, 0, 0), ()])
def test_actions_reject_vectors_of_the_wrong_length(bad):
    # on the rank-3 datum act_root((1, 2)) gave (5, 4), act_weight (-7, 10, 4)
    w = W.from_word(HYP, (0, 1, 0))
    with pytest.raises(DomainError, match="root needs 3 coordinates"):
        w.act_root(bad)
    with pytest.raises(DomainError, match="weight needs 3 coordinates"):
        w.act_weight(bad)
    # dominant_rep raised IndexError on a short weight, InternalError on a long one
    with pytest.raises(DomainError, match="weight needs 3 coordinates"):
        W.dominant_rep(HYP, bad)
    # affine A1: roots have n = 2 coordinates, weights m = 3
    s = W.simple(AFF, 0)
    assert s.act_root((1, 0)) == (-1, 0)
    with pytest.raises(DomainError, match="root needs 2 coordinates"):
        s.act_root((1, 0, 0))
    with pytest.raises(DomainError, match="weight needs 3 coordinates"):
        s.act_weight((1, 0))


@pytest.mark.parametrize("action, bad, message", [
    ("act_weight", 0.5, "weight coordinate 0.5 is not a Fraction or an int"),
    ("act_weight", True, "weight coordinate True is not a Fraction or an int"),
    ("act_weight", "a", "weight coordinate 'a' is not a Fraction or an int"),
    ("act_coweight", 0.5, "coweight coordinate 0.5 is not a Fraction or an int"),
    ("act_coweight", True, "coweight coordinate True is not a Fraction or an int"),
    ("act_coweight", "a", "coweight coordinate 'a' is not a Fraction or an int"),
    ("act_root", 0.5, "root coordinate 0.5 is not an integer"),
    ("act_root", True, "root coordinate True is not an integer"),
    ("act_root", "a", "root coordinate 'a' is not an integer"),
    ("act_root", Fraction(1, 2), r"root coordinate Fraction\(1, 2\) is not an integer"),
])
def test_actions_read_their_input(action, bad, message):
    # on A2 act_weight((0.5, 1)) gave (-0.5, 1.5), act_coweight gave floats,
    # True was read as 1 and "a" was a raw TypeError
    s = W.simple(A2, 0)
    with pytest.raises(DomainError, match=message):
        getattr(s, action)((bad, 1))
    assert s.act_weight((Fraction(1, 2), 1)) == (Fraction(-1, 2), Fraction(3, 2))
    assert s.act_coweight((Fraction(1, 2), 1)) == (Fraction(1, 2), 1)
    assert s.act_root((1, 1)) == (0, 1)


def test_act_contragredient_and_form_invariance():
    rng = random.Random(3)
    for datum in (A2, AFF, HYP):
        for _ in range(25):
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(6)])
            lam = tuple(rng.randrange(-4, 5) for _ in range(datum.m))
            mu = tuple(rng.randrange(-4, 5) for _ in range(datum.m))
            h = tuple(rng.randrange(-4, 5) for _ in range(datum.m))
            assert datum.pair(w.act_weight(lam), w.act_coweight(h)) == datum.pair(lam, h)
            assert datum.form_weights(w.act_weight(lam), w.act_weight(mu)) \
                == datum.form_weights(lam, mu)
            # lattice preserved: integer in, integer out
            assert all(isinstance(x, int) or x.denominator == 1
                       for x in w.act_weight(lam))


def test_mul_reduce_examples():
    w = W.from_word(A2, (0, 0))
    assert w.is_identity() and w.length == 0
    w1 = W.from_word(A2, (0, 1, 0))
    w2 = W.from_word(A2, (1, 0, 1))
    assert w1 == w2 and w1.length == 3
    assert w1.word == (0, 1, 0)  # lex-smallest reduced word
    w = W.from_word(AFF, (0, 1, 0, 1))
    assert w.length == 4


def test_length_against_ball_oracle():
    # graph distance from the identity in the Cayley graph is an
    # implementation-independent length oracle
    for datum, radius in ((A2, 4), (AFF, 8), (HYP, 6)):
        dist = {W.identity_elt(datum): 0}
        frontier = [W.identity_elt(datum)]
        for d in range(1, radius + 1):
            new = []
            for w in frontier:
                for i in range(datum.n):
                    nxt = w * W.simple(datum, i)
                    if nxt not in dist:
                        dist[nxt] = d
                        new.append(nxt)
            frontier = new
        for w, d in dist.items():
            assert w.length == d
            assert len(w.word) == d


def test_descent_characterization():
    rng = random.Random(4)
    for datum in (A2, AFF, HYP):
        for _ in range(30):
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(5)])
            for i in range(datum.n):
                shorter = (w * W.simple(datum, i)).length < w.length
                assert w.right_descent(i) == shorter


def test_coset_examples():
    # any w in W_J with J = I has minimal representative e
    w = W.from_word(A2, (0, 1, 0))
    rep, u = W.min_coset_right(w, (0, 1))
    assert rep.is_identity() and u == w
    # A2: w = s1 s2, J = {2}: splits as (s1, s2)
    w = W.from_word(A2, (0, 1))
    rep, u = W.min_coset_right(w, (1,))
    assert rep == W.from_word(A2, (0,)) and u == W.from_word(A2, (1,))
    assert not rep.right_descent(1)
    # hyperbolic: s3 not in W_emptyset W_{1,2}
    assert not W.in_parabolic_product(W.from_word(HYP, (2,)), (), (0, 1))
    dd = W.min_double_coset(W.from_word(HYP, (2,)), (), (0, 1))
    assert dd == W.from_word(HYP, (2,))


def test_coset_split_laws():
    rng = random.Random(5)
    faces_rng = random.Random(15)  # a second stream keeps the word samples
    for datum in (A2, AFF, HYP, KERNEL_DATA["D8++"], KERNEL_DATA["E10"]):
        specials = datum.special_sets()
        for _ in range(30):
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(6)])
            j = tuple(i for i in range(datum.n) if rng.randrange(2))
            rep, u = W.min_coset_right(w, j)
            assert rep * u == w
            assert W.in_parabolic(u, j)
            assert not any(rep.right_descent(i) for i in j)
            assert rep.length + u.length == w.length
            rep2, u2 = W.min_coset_left(w, j)
            assert u2 * rep2 == w
            assert W.in_parabolic(u2, j)
            # faces and the Weyl monoid take the same representatives
            theta = faces_rng.choice(specials)
            stab = theta + datum.theta_perp(theta)
            assert F.normalize_face(w, theta).w == W.min_coset_right(w, stab)[0]
            v = W.from_word(datum, [faces_rng.randrange(datum.n) for _ in range(6)])
            face = F.normalize_face(v, theta)
            assert M._centralizer_rep(face, w) \
                == face.w * W.min_coset_left(face.w.inv() * w, theta)[0]


def test_dominant_examples():
    r = W.dominant_rep(A2, A2.fundamental_weight(0))
    assert r.w.is_identity() and tuple(r.dominant) == (1, 0)
    assert r.facet_type == (1,)

    lam = W.simple(AFF, 0).act_weight(AFF.fundamental_weight(0))
    r = W.dominant_rep(AFF, lam)
    assert r.w == W.simple(AFF, 0)
    assert tuple(r.dominant) == (1, 0, 0)
    assert tuple(r.w.act_weight(r.dominant)) == tuple(lam)

    with pytest.raises(NotInTitsCone):
        W.dominant_rep(AFF, (1, -1, 0))


def test_dominant_facet_stable_under_reducedword_change():
    rng = random.Random(6)
    for _ in range(20):
        word = [rng.randrange(3) for _ in range(5)]
        lam = W.from_word(HYP, word).act_weight((2, 0, 1))
        r1 = W.dominant_rep(HYP, lam)
        assert tuple(r1.w.act_weight(r1.dominant)) == tuple(lam)
        # recompute from a different expression of the same weight
        r2 = W.dominant_rep(HYP, tuple(Fraction(x) for x in lam))
        assert r1.facet_type == r2.facet_type and r1.dominant == r2.dominant


def test_dominant_undecided_budget():
    # a regular orbit point three reflections deep cannot be resolved in one
    lam = W.from_word(HYP, (0, 1, 2)).act_weight((1, 1, 1))
    with pytest.raises(Undecided):
        W.dominant_rep(HYP, lam, cap=1)
    res = W.dominant_rep(HYP, lam, cap=10)
    assert tuple(res.dominant) == (1, 1, 1)


def test_undecided_says_how_far_the_walk_got():
    # two reflections undo s_1 s_2 of s_1 s_2 s_3 rho; the walk stops at s_3 rho
    lam = W.from_word(HYP, (0, 1, 2)).act_weight((1, 1, 1))
    with pytest.raises(Undecided) as err:
        W.dominant_rep(HYP, lam, cap=1)
    assert err.value.weight == W.simple(HYP, 2).act_weight((1, 1, 1))
    assert err.value.bound == 1
    assert str(err.value) == "undecided after 1 iterations"
    assert Undecided(5).weight is None


def test_the_cap_is_read_as_a_step_budget():
    # a negative cap answered Undecided for a weight already dominant, 1.5
    # and "3" were raw TypeErrors and True was read as 1
    face = F.standard_face(HYP, (0, 1))
    reads = [lambda cap: W.dominant_rep(A2, (1, 0), cap=cap),
             lambda cap: F.face_of_point(A2, (1, 0), cap=cap),
             lambda cap: F.contains(face, (0, 0, 1), cap=cap),
             lambda cap: F.in_relative_interior(face, (0, 0, 1), cap=cap),
             lambda cap: F.face_predicates(face, weight=(0, 0, 1), cap=cap)]
    for read in reads:
        for cap in (-1, -5):
            with pytest.raises(DomainError, match=f"step budget {cap} is negative"):
                read(cap)
        for cap in (1.5, "3", True):
            with pytest.raises(DomainError, match=f"step budget {cap!r} is not an integer"):
                read(cap)
    assert W.dominant_rep(A2, (1, 0), cap=0).dominant == (1, 0)
    assert F.contains(face, (0, 0, 1), cap=0)


def test_not_in_cone_negative_lightcone():
    # the opposite lightcone component pairs negatively with the full-support
    # exposing coweight at once
    with pytest.raises(NotInTitsCone):
        W.dominant_rep(HYP, (-1, -1, -1), cap=50)


def test_antidominant_examples():
    d, v = W.antidominant_coweight(AFF, (1, 1, 0))
    assert d == (1, 1, 0) and v.is_identity()
    d, v = W.antidominant_coweight(HYP, (1, 1, 1))
    assert d == (1, 1, 0) and v.word == (2,)
    d, v = W.antidominant_coweight(HYP, (2, 2, 1))
    assert d == (2, 2, 1) and v.is_identity()
    # exhaustive check of the first example over short words
    best = None
    for word in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (2, 1)]:
        img = W.from_word(HYP, word).act_coweight((1, 1, 1))
        if all(HYP.pair(HYP.alpha[i], img) <= 0 for i in range(3)):
            best = img
    assert best == (1, 1, 0)


@pytest.mark.parametrize("coweight,message", [
    ((Fraction(3, 2), 1, 1), r"coweight coordinate Fraction\(3, 2\) is not an integer"),
    ((1.0, 1, 1), r"coweight coordinate 1\.0 is not an integer"),
    ((), "coweight needs 3 coordinates"),
    ((1, 1), "coweight needs 3 coordinates"),
    ((1, 1, 1, 0), "coweight needs 3 coordinates"),
])
def test_antidominant_rejects_non_integer_or_misshapen_coweights(coweight, message):
    # (3/2, 1, 1) is not minimized as (1, 1, 1), and () is not the empty answer
    with pytest.raises(DomainError, match=message):
        W.antidominant_coweight(HYP, coweight)


def test_antidominant_termination_and_special_support():
    rng = random.Random(7)
    for datum in (AFF, HYP):
        for _ in range(25):
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(5)])
            theta = rng.choice([t for t in datum.special_sets() if t])
            d0 = w.act_coweight(datum.exposing_coweight(theta))
            u = W.from_word(datum, [rng.randrange(datum.n) for _ in range(4)])
            d = tuple(a + b for a, b in zip(
                d0, u.act_coweight(datum.exposing_coweight(theta))))
            rho_before = sum(d)
            dmin, v = W.antidominant_coweight(datum, d)
            assert tuple(v.act_coweight(d)) == tuple(dmin)
            assert sum(dmin) <= rho_before
            support = tuple(i for i in range(datum.n) if dmin[i] != 0)
            if support:
                assert classify(datum.gcm, support).theta0 == ()
            assert all(x >= 0 for x in dmin)


def test_antidominant_precondition_violated():
    with pytest.raises(PreconditionViolated):
        W.antidominant_coweight(HYP, (-5, 0, 0))
    # rho(d) = 2 >= 0, but the walk ends at (-1, 0)
    with pytest.raises(PreconditionViolated, match="antidominant limit has a negative coordinate"):
        W.antidominant_coweight(A2, (-1, 3))


# -- the two-matrix kernel against the four-matrix reference -------------------


def _rows(n, edges):
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    return rows


KERNEL_DATA = {
    "A3": build_realization(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    "G2": build_realization(((2, -1), (-3, 2))),
    "A2^(1)": build_realization(((2, -1, -1), (-1, 2, -1), (-1, -1, 2))),
    "hyperbolic-3": HYP,
    "D8++": build_realization(_rows(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                         (5, 6), (5, 7), (1, 8), (8, 9)])),
    "E10": build_realization(_rows(10, [(k, k + 1) for k in range(8)] + [(6, 9)])),
}


class RefElt:
    """The former kernel: P and P^{-1} on the weight lattice, Q and Q^{-1} on
    the root lattice in the simple-root basis, every product four dense
    matrix products, descents from the sign of a Q-matrix column."""

    def __init__(self, datum, p, pi, q, qi):
        self.datum, self.p, self.pi, self.q, self.qi = datum, p, pi, q, qi

    @classmethod
    def identity(cls, datum):
        m, n = datum.m, datum.n
        return cls(datum, identity(m), identity(m), identity(n), identity(n))

    @classmethod
    def simple(cls, datum, i):
        m, n, al, a = datum.m, datum.n, datum.alpha[i], datum.gcm.a
        p = tuple(tuple(int(r == c) - (al[r] if c == i else 0) for c in range(m))
                  for r in range(m))
        q = tuple(tuple(int(r == c) - (a[i][c] if r == i else 0) for c in range(n))
                  for r in range(n))
        return cls(datum, p, p, q, q)

    @classmethod
    def from_word(cls, datum, word):
        x = cls.identity(datum)
        for i in word:
            x = x * cls.simple(datum, i)
        return x

    def __mul__(self, other):
        return RefElt(self.datum, mat_mul(self.p, other.p), mat_mul(other.pi, self.pi),
                      mat_mul(self.q, other.q), mat_mul(other.qi, self.qi))

    def right_descent(self, i):
        return all(row[i] <= 0 for row in self.q)

    def left_descent(self, i):
        return all(row[i] <= 0 for row in self.qi)

    def word(self):
        """Greedy smallest-left-descent stripping."""
        out, x = [], self
        while x.p != identity(self.datum.m):
            i = next(i for i in range(self.datum.n) if x.left_descent(i))
            out.append(i)
            x = RefElt.simple(self.datum, i) * x
        return tuple(out)


def _random_words(datum, count, seed, max_len):
    rng = random.Random(seed)
    return [[rng.randrange(datum.n) for _ in range(rng.randint(0, max_len))]
            for _ in range(count)]


@pytest.mark.parametrize("name", list(KERNEL_DATA))
def test_kernel_agrees_with_four_matrix_reference(name):
    datum = KERNEL_DATA[name]
    rng = random.Random(11)
    coweight_rng = random.Random(13)  # a second stream keeps the root samples
    fractional = tuple(Fraction(k - 1, 2 + k % 3) for k in range(datum.m))
    for word in _random_words(datum, 25, 10, 9 if datum.n > 3 else 12):
        w, ref = W.from_word(datum, word), RefElt.from_word(datum, word)
        assert w.mat_p == ref.p and w.mat_p_inv == ref.pi
        assert (w * w.inv()).is_identity() and (w.inv() * w).is_identity()
        assert w.word == ref.word()
        assert W.from_word(datum, w.word) == w
        for i in range(datum.n):
            assert w.left_descent(i) == ref.left_descent(i)
            assert w.right_descent(i) == ref.right_descent(i)
        c = tuple(rng.randrange(-3, 4) for _ in range(datum.n))
        assert w.act_root(c) == mat_vec(ref.q, c)
        assert w.inv().act_root(c) == mat_vec(ref.qi, c)
        y = tuple(coweight_rng.choice((0, 0, -2, -1, 1, 3)) for _ in range(datum.m))
        for coweight in (y, fractional):
            assert w.act_coweight(coweight) == mat_vec(transpose(ref.pi), coweight)


def _assert_matrix_product(u, v, uv):
    """uv is u * v by the dense matrix products of P and of P^{-1}."""
    assert uv.mat_p == mat_mul(u.mat_p, v.mat_p)
    assert uv.mat_p_inv == mat_mul(v.mat_p_inv, u.mat_p_inv)


@pytest.mark.parametrize("name", list(KERNEL_DATA))
def test_simple_products_agree_with_general_product(name):
    datum = KERNEL_DATA[name]
    for word in _random_words(datum, 15, 12, 8):
        w = W.from_word(datum, word)
        for i in range(datum.n):
            s = W.simple(datum, i)
            _assert_matrix_product(w, s, w * s)
            _assert_matrix_product(s, w, s * w)


def _factor(datum, rng):
    """The identity, a simple reflection or a word of 2 to 12 letters."""
    kind = rng.randrange(3)
    if kind == 0:
        return W.identity_elt(datum)
    if kind == 1:
        return W.simple(datum, rng.randrange(datum.n))
    return W.from_word(datum, [rng.randrange(datum.n) for _ in range(rng.randint(2, 12))])


def test_products_take_no_matrix_product(monkeypatch):
    # every product multiplies out the shorter canonical word; the dense
    # products below are the test module's own mat_mul, not the patched one
    def forbidden(a, b):
        raise AssertionError("mat_mul called for a product of Weyl elements")

    monkeypatch.setattr(W.exact, "mat_mul", forbidden)
    rng = random.Random(37)
    for datum in KERNEL_DATA.values():
        for _ in range(30):
            u, v = _factor(datum, rng), _factor(datum, rng)
            uv = u * v
            _assert_matrix_product(u, v, uv)
            assert uv is W.from_word(datum, u.word + v.word)
    datum = KERNEL_DATA["D8++"]
    word = (0, 1, 8, 9, 5, 6, 7)
    w, s = W.from_word(datum, word), W.simple(datum, 5)
    assert s * w * s == W.from_word(datum, (5,) + word + (5,))
    rep, u = W.min_coset_right(w, (5, 6, 7))
    assert rep.length + u.length == w.length


def test_from_word_rejects_out_of_range_index_one_based():
    with pytest.raises(DomainError, match="simple index 3 out of range 1..2"):
        W.from_word(A2, (0, 2))
    with pytest.raises(DomainError, match="simple index 0 out of range"):
        W.from_word(A2, (-1,))
    # simple(A2, -1) gave s_2
    for i, shown in ((-1, 0), (2, 3)):
        with pytest.raises(DomainError, match=f"simple index {shown} out of range 1..2"):
            W.simple(A2, i)


COSET_WALKS = {
    "min_coset_right": W.min_coset_right,
    "min_coset_left": W.min_coset_left,
    "in_parabolic": W.in_parabolic,
    "min_double_coset-k": lambda w, j: W.min_double_coset(w, j, (0,)),
    "min_double_coset-j": lambda w, j: W.min_double_coset(w, (0,), j),
}


@pytest.mark.parametrize("walk", list(COSET_WALKS))
@pytest.mark.parametrize("rows,j,first,message", [
    (A2_ROWS, (-1,), None, "simple index 0 out of range 1..2"),  # it used to read node 2
    (AFFINE_A1_ROWS, (2,), None, "simple index 3 out of range 1..2"),
    (AFFINE_A1_ROWS, (0, 5), None, "simple index 6 out of range 1..2"),
    # it used to loop forever
    (AFFINE_A1_ROWS, (-1,), None, "simple index 0 out of range 1..2"),
    (A2_ROWS, (True,), (1,), "simple index True is not an integer"),  # it was read as node 2
    (A2_ROWS, (0, 1.0), (0, 1), "simple index 1.0 is not an integer"),
    (A2_ROWS, (0, 0.5), None, "simple index 0.5 is not an integer"),  # a raw TypeError
    (AFFINE_A1_ROWS, ("1",), None, "simple index '1' is not an integer"),  # a raw TypeError
    # the memo was keyed by the list: 'unhashable type'
    (AFFINE_A1_ROWS, ([0],), None, "simple index [0] is not an integer"),
    (A2_ROWS, 3, None, "simple index list 3 is not a sequence"),  # 'int' object is not iterable
], ids=["A2-minus-one", "affine-three", "affine-six", "affine-minus-one", "A2-true",
        "A2-one-point-zero", "A2-half", "affine-str", "affine-list", "A2-scalar"])
def test_coset_walks_reject_out_of_range_index_one_based(walk, rows, j, first, message):
    # the equal int J is walked first on the same element: a walk kept under
    # the J as given once answered an equal bool or float J
    w = W.from_word(build_realization(rows), (0, 1, 0))
    if first is not None:
        COSET_WALKS[walk](w, first)
    with pytest.raises(DomainError, match=re.escape(message)):
        COSET_WALKS[walk](w, j)


def test_min_double_coset_is_one_left_walk_and_one_right_walk(monkeypatch):
    # the loop to a fixpoint walked each side again on what its first round
    # reached, so it made four walks here
    datum = build_realization(KERNEL_DATA["D8++"].gcm)
    w = W.from_word(datum, (0, 1, 2, 8, 9, 5, 6, 7, 3))
    walks = []
    descend = W._descend
    monkeypatch.setattr(W, "_descend", lambda *a: walks.append(a[2]) or descend(*a))
    rep = W.min_double_coset(w, [2, 0, 1], (6, 7, 3, 7))
    assert walks == [(0, 1, 2), (3, 6, 7)]
    assert rep != w and rep.length < w.length
    assert not any(rep.left_descent(i) for i in (0, 1, 2))
    assert not any(rep.right_descent(i) for i in (3, 6, 7))


# -- the Weyl denominator -----------------------------------------------------


def _product_of_root_factors(n, roots, max_height):
    """prod over (alpha, mult) of (1 - e^{-alpha})^mult, truncated at
    max_height, as {beta: coefficient of e^{-beta}} without zero terms."""
    series = {(0,) * n: 1}
    for alpha, mult in roots:
        for _ in range(mult):
            nxt = dict(series)
            for beta, c in series.items():
                gamma = tuple(x + y for x, y in zip(beta, alpha))
                if sum(gamma) <= max_height:
                    nxt[gamma] = nxt.get(gamma, 0) - c
            series = {b: c for b, c in nxt.items() if c}
    return series


FINITE_DENOMINATORS = {  # GCM rows and |W|
    "A2": (A2_ROWS, 6),
    "B2": (((2, -2), (-1, 2)), 8),
    "G2": (((2, -3), (-1, 2)), 12),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 24),
}


@pytest.mark.parametrize("name", FINITE_DENOMINATORS)
def test_denominator_of_a_finite_type_is_its_whole_signed_orbit(name):
    """Height 20 is past ht(2 rho) on every case: the walk holds all of W,
    the signs cancel, and the sum is the product over the positive roots."""
    from kmx.highest_weight import real_roots_with_witness
    rows, order = FINITE_DENOMINATORS[name]
    datum = build_realization(rows)
    d = W.denominator(datum, 20)
    assert len(d) == order
    assert sum(d.values()) == 0
    positive = [b for b in real_roots_with_witness(datum, 20) if all(x >= 0 for x in b)]
    assert d == _product_of_root_factors(datum.n, [(b, 1) for b in positive], 20)


@pytest.mark.parametrize("rows", [AFFINE_A1_ROWS, HYPERBOLIC_ROWS, ((2, -3), (-3, 2))],
                         ids=["A1^(1)", "hyperbolic-3", "H(3,3)"])
def test_denominator_is_the_root_product_on_infinite_types(rows):
    """On infinite types the truncated walk equals the product over the
    positive roots with their multiplicities, taken from Peterson's
    recurrence (exact_reference), which reads no Weyl group."""
    from exact_reference import root_multiplicities as peterson
    datum = build_realization(rows)
    mults = peterson(build_realization(rows), 8)
    assert W.denominator(datum, 8) == _product_of_root_factors(datum.n, mults.items(), 8)


def test_denominator_signs_are_lengths_and_the_walk_builds_no_element(monkeypatch):
    """A step of the walk raises the height by at least one, so every w with
    ht(rho - w rho) <= 6 has length <= 6: on the hyperbolic matrix the walk
    to height 6 is exactly those w of the length-6 ball, each signed
    (-1)^l(w).  The walk itself multiplies out no Weyl element."""
    datum = build_realization(HYPERBOLIC_ROWS)
    ball, frontier = {W.identity_elt(datum)}, [W.identity_elt(datum)]
    for _ in range(6):
        frontier = list({w * W.simple(datum, i) for w in frontier
                         for i in range(datum.n)} - ball)
        ball.update(frontier)
    expect = {}
    for w in ball:
        diff = vec_sub(datum.rho(), w.act_weight(datum.rho()))
        beta = tuple(int(x) for x in rat_solve(transpose(datum.alpha), diff)[0])
        if sum(beta) <= 6:
            expect[beta] = (-1) ** w.length

    def forbidden(*args, **kwargs):
        raise AssertionError("denominator built a Weyl element")

    monkeypatch.setattr(W, "_multiply_out", forbidden)
    monkeypatch.setattr(W, "identity_elt", forbidden)
    assert W.denominator(datum, 6) == expect
    assert len(expect) > 10


def test_denominator_rejects_a_negative_height():
    assert W.denominator(A2, 0) == {(0, 0): 1}
    with pytest.raises(DomainError, match="height -1 is negative"):
        W.denominator(A2, -1)
    # 1.5 and True were read as heights (4 terms each on the hyperbolic
    # matrix) and "3" ended in a raw TypeError
    for bad in (1.5, True, "3"):
        with pytest.raises(DomainError, match=re.escape(f"height {bad!r} is not an integer")):
            W.denominator(HYP, bad)


@pytest.mark.parametrize("other", [3, None, "s1", (0,), 1.5])
def test_product_with_another_type_is_a_type_error_both_ways(other):
    # w * 3 ended in an AttributeError on .datum, while 3 * w was a TypeError
    w = W.simple(A2, 0)
    assert w.__mul__(other) is NotImplemented
    assert w.__eq__(other) is NotImplemented and w != other
    with pytest.raises(TypeError):
        w * other
    with pytest.raises(TypeError):
        other * w


@contextlib.contextmanager
def _time_guard(seconds):
    """Fail, instead of hanging, a block that runs past `seconds`."""
    def expire(signum, frame):
        raise AssertionError(f"ran past its {seconds} s guard")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("datum,p,message", [
    # the walk of each never ended
    (AFF, ((-1, 0, 0), (0, 1, 0), (0, 0, 1)), "passed ht(rho - w.rho) = 1 steps"),
    (HYP, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), "passed ht(rho - w.rho)"),
    (A2, ((2, 0), (0, 2)), "w.rho is dominant but differs from rho"),
    (A2, ((-1, 0), (0, 5)), "passed ht(rho - w.rho) = -2 steps"),  # a negative height
], ids=["affine-reflection-of-one-row", "hyperbolic-minus-identity", "A2-doubled",
        "A2-negative-height"])
def test_a_hand_built_non_weyl_matrix_has_no_word(datum, p, message):
    # the canonical word and the coset walks walk w.rho (or w^-1 rho) up to
    # rho; each step raises it by a positive multiple of alpha_i, so
    # ht(rho - w.rho) bounds the steps
    w = W.WeylElt(datum, p, p)
    with _time_guard(5):
        with pytest.raises(InternalError, match=re.escape(message)):
            w.word
        # a product reads both factors' words: it was a dense matrix product
        for other in (W.identity_elt(datum), W.simple(datum, 0), W.from_word(datum, (1, 0))):
            for product in (lambda: w * other, lambda: other * w):
                with pytest.raises(InternalError, match=re.escape(message)):
                    product()
        if "passed" in message:
            with pytest.raises(InternalError, match="passed ht"):
                W.min_coset_right(w, range(datum.n))


@pytest.mark.parametrize("datum", [A2, AFF, HYP], ids=["A2", "affine-A1", "rank3-hyperbolic"])
def test_the_walk_bound_is_the_height_of_rho_minus_w_rho(datum):
    rng = random.Random(7)
    words = [[rng.randrange(datum.n) for _ in range(rng.randrange(8))] for _ in range(20)]
    elts = [W.from_word(datum, word) for word in words]
    assert all(W.from_word(datum, w.word) == w for w in elts)
    # x, formed once per datum, reads d times the height of the root lattice
    x, d, rho_x = datum._height
    assert rho_x == sum(x) and d > 0 and [sum(map(mul, a, x)) for a in datum.alpha] == [d] * datum.n
    for w in elts:
        v = mat_vec(w.mat_p, datum.rho())
        height, rem = divmod(sum(map(mul, vec_sub(datum.rho(), v), x)), d)
        assert rem == 0 and len(w.word) <= height
