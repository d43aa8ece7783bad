"""The Weyl-monoid product routes against their per-step references.

`from_word` and the descent walks multiply their letters out once; the
antidominant walk keeps the pairings alpha_j(d); the monoid products take
their meet from the face exposed by a sum of coweights; the centralizer
representative skips the walk when tau = w_R^{-1} sigma has no left descent
in Theta.  Each route is compared here with the per-step computation it
replaced, on the kernel reference data and the three `verify` data.  The
kernel's own updates (`_multiply_out` from any element, `_canonical_word`
and `act_coweight`) are also compared with dense references on every small
symmetrizable GCM of rank 2 and 3.
"""

import random
from fractions import Fraction

import pytest
from conftest import all_small_gcms
from test_asymmetric_data import SKEW_INDEFINITE_ROWS, TWISTED_AFFINE_ROWS
from test_weyl import A2, AFF, KERNEL_DATA, RefElt

from kmx import faces as F
from kmx import monoids as M
from kmx import weyl as W
from kmx.cartan import build_realization, index_set
from kmx.errors import NotSymmetrizable
from kmx.exact import identity, mat_mul, mat_vec, transpose

# hyperbolic-3 is a kernel datum; the two rank-2 data with a nontrivial
# symmetrizer tell a_ij from a_ji on infinite Weyl groups
DATA = {**KERNEL_DATA, "A2": A2, "affine-A1": AFF,
        "A2^(2)": build_realization(TWISTED_AFFINE_ROWS),
        "skew-indefinite": build_realization(SKEW_INDEFINITE_ROWS)}


def _word(rng, datum, max_len):
    return [rng.randrange(datum.n) for _ in range(rng.randint(0, max_len))]


def _face(rng, datum, max_len=6):
    return F.normalize_face(W.from_word(datum, _word(rng, datum, max_len)),
                            rng.choice(datum.special_sets()))


def _chain(datum, word):
    """The per-letter product chain e * s_{i1} * ... * s_{ik}."""
    w = W.identity_elt(datum)
    for i in word:
        w = w * W.simple(datum, i)
    return w


def _strip_reference(w, j):
    """One simple product per step, descents read from the current element."""
    letters = []
    while (i := next((i for i in sorted(set(j)) if w.right_descent(i)), None)) is not None:
        w = w * W.simple(w.datum, i)
        letters.append(i)
    return w, letters


def _antidominant_reference(datum, d):
    """Every pairing recomputed and one Weyl element built per reflection."""
    v = W.identity_elt(datum)
    while (i := next((i for i in range(datum.n)
                      if datum.pair(datum.alpha[i], d) > 0), None)) is not None:
        s = W.simple(datum, i)
        d, v = s.act_coweight(d), s * v
    return d, v


@pytest.mark.parametrize("name", list(DATA))
def test_from_word_and_walks_agree_with_the_per_step_chain(name):
    datum = DATA[name]
    rng = random.Random(31)
    for _ in range(30):
        word = _word(rng, datum, 9 if datum.n > 3 else 12)
        w, ref = W.from_word(datum, word), RefElt.from_word(datum, word)
        chain = _chain(datum, word)
        assert w.mat_p == ref.p == chain.mat_p
        assert w.mat_p_inv == ref.pi == chain.mat_p_inv
        j = [i for i in range(datum.n) if rng.randrange(2)]
        rep, letters = W._strip_read(w, index_set(datum.n, j))
        ref_rep, ref_letters = _strip_reference(w, j)
        assert letters == tuple(ref_letters)
        assert rep.mat_p == ref_rep.mat_p and rep.mat_p_inv == ref_rep.mat_p_inv
        rep, u = W.min_coset_right(w, j)
        assert rep == ref_rep and u.mat_p == RefElt.from_word(datum, letters[::-1]).p
        rep, u = W.min_coset_left(w, j)
        inv_rep, inv_letters = _strip_reference(w.inv(), j)
        assert rep == inv_rep.inv() and u == _chain(datum, inv_letters)


def _fresh(name):
    """Fresh realizations of the named data, with empty Weyl tables, so that
    every element the test meets comes from the kernel under test, and how
    many words to draw on each.  "small-n" is every symmetrizable GCM of
    `conftest.all_small_gcms(n)`."""
    if name in DATA:
        return [build_realization(DATA[name].gcm)], 30
    data = []
    for rows in all_small_gcms(int(name.removeprefix("small-"))):
        try:
            data.append(build_realization(rows))
        except NotSymmetrizable:
            continue
    return data, 3


KERNEL_CASES = [*DATA, "small-2", "small-3"]


def _dense_word(datum, p):
    """The canonical word walked on a dense v = P rho, re-formed at each step."""
    v, word = [sum(row) for row in p], []
    while (i := next((i for i in range(datum.n) if v[i] < 0), None)) is not None:
        word.append(i)
        v = [x - v[i] * a for x, a in zip(v, datum.alpha[i])]
    assert tuple(v) == datum.rho()
    return tuple(word)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_multiply_out_from_any_element_agrees_with_the_dense_reference(name):
    # _chain and _strip_reference above run _multiply_out themselves; here
    # the start is a product of one to six letters and the reference never
    # meets the kernel
    rng = random.Random(37)
    data, count = _fresh(name)
    for datum in data:
        for _ in range(count):
            start = [rng.randrange(datum.n) for _ in range(rng.randint(1, 6))]
            more = _word(rng, datum, 6)
            x = W._multiply_out(W.from_word(datum, start), more)
            ref = RefElt.from_word(datum, start + more)
            assert x.mat_p == ref.p and x.mat_p_inv == ref.pi, (start, more)
            assert mat_mul(x.mat_p, x.mat_p_inv) == identity(datum.m)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_canonical_word_agrees_with_the_dense_walk(name):
    rng = random.Random(38)
    data, count = _fresh(name)
    for datum in data:
        for _ in range(count):
            word = _word(rng, datum, 9)
            ref = RefElt.from_word(datum, word)
            got = W._canonical_word(datum, ref.p)
            assert got == _dense_word(datum, ref.p) == W.from_word(datum, word).word, word
            assert RefElt.from_word(datum, got).p == ref.p


COWEIGHT_ENTRIES = (Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2),
                    Fraction(-2, 5), 0, 1, -1)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_act_coweight_agrees_with_the_dense_product(name):
    rng = random.Random(39)
    data, count = _fresh(name)
    for datum in data:
        for _ in range(count):
            word = _word(rng, datum, 8)
            w, ref = W.from_word(datum, word), RefElt.from_word(datum, word)
            y = tuple(rng.choice(COWEIGHT_ENTRIES) for _ in range(datum.m))
            assert w.act_coweight(y) == mat_vec(transpose(ref.pi), y), (word, y)
            assert w.act_coweight((0,) * datum.m) == (0,) * datum.m


@pytest.mark.parametrize("name", list(DATA))
def test_antidominant_walk_agrees_with_the_per_step_reference(name):
    datum = DATA[name]
    rng = random.Random(32)
    specials = datum.special_sets()  # finite data: only the empty set, d = 0
    for _ in range(25):
        d = (0,) * datum.m
        for _ in range(rng.randint(1, 3)):
            u = W.from_word(datum, _word(rng, datum, 6))
            c = u.act_coweight(datum.exposing_coweight(rng.choice(specials)))
            d = tuple(x + y for x, y in zip(d, c))
        dmin, v = W.antidominant_coweight(datum, d)
        ref_d, ref_v = _antidominant_reference(datum, d)
        assert dmin == ref_d
        assert v.mat_p == ref_v.mat_p and v.mat_p_inv == ref_v.mat_p_inv


@pytest.mark.parametrize("name", list(DATA))
def test_products_meet_as_the_face_route(name):
    datum = DATA[name]
    rng = random.Random(33)
    for _ in range(25):
        x = M.wm_normalize(W.from_word(datum, _word(rng, datum, 6)), _face(rng, datum))
        y = M.wm_normalize(W.from_word(datum, _word(rng, datum, 6)), _face(rng, datum))
        meet = F.intersect(x.face, F.act_face(x.w, y.face))
        assert M.wm_mul(x, y) == M.WmonElt(meet, M._centralizer_rep(meet, x.w * y.w))
        a = M.nhat_from(W.from_word(datum, _word(rng, datum, 5)), face=_face(rng, datum))
        b = M.nhat_from(W.from_word(datum, _word(rng, datum, 5)), face=_face(rng, datum))
        assert M.nhat_mul(a, b).face == F.intersect(F.act_face(b.w.inv(), a.face), b.face)


@pytest.mark.parametrize("name", list(DATA))
def test_centralizer_shortcut_agrees_with_the_walk(name, monkeypatch):
    datum = DATA[name]
    rng = random.Random(34)
    rep_left, walks = W._rep_left, []
    monkeypatch.setattr(W, "_rep_left", lambda w, j: walks.append(w) or rep_left(w, j))
    expected_walks = 0
    for _ in range(40):
        face = _face(rng, datum)
        sigma = W.from_word(datum, _word(rng, datum, 8))
        tau = face.w.inv() * sigma
        assert M._centralizer_rep(face, sigma) == face.w * rep_left(tau, face.theta)
        # the walk runs only when tau has a left descent in Theta
        expected_walks += any(tau.left_descent(i) for i in face.theta)
    assert len(walks) == expected_walks


def test_from_word_constructs_one_weyl_element(monkeypatch):
    # a fresh datum, so the table holds only what this test puts in it
    datum = build_realization(KERNEL_DATA["E10"].gcm)
    W.simple(datum, 0)  # the identity and the simple reflections are in the table
    built = []
    init = W.WeylElt.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(W.WeylElt, "__init__", counting)
    rng = random.Random(35)
    new_words = 0
    for k in range(12):
        word = [rng.randrange(datum.n) for _ in range(k)]
        new = RefElt.from_word(datum, word).p not in datum._weyl
        new_words += new
        built.clear()
        w = W.from_word(datum, word)
        # a word whose element is new builds exactly that one element
        assert len(built) == (1 if new else 0), k
        built.clear()
        assert W.from_word(datum, word) is w and built == [], k  # the word again
    assert new_words == 10  # every word of length 2..11 here is a new element
    for i in range(datum.n):
        j = (i + 1) % datum.n
        # words equal to the identity or to a simple reflection build nothing
        for word in ((i, i), (i, j, j), (j, j, i), (i, j, j, i), (j, i, i, j, i)):
            built.clear()
            w = W.from_word(datum, word)
            assert w is (W.identity_elt(datum) if len(word) % 2 == 0 else W.simple(datum, i))
            assert built == [], word


def test_products_call_no_face_action(monkeypatch):
    rng = random.Random(36)
    cases = []
    for datum in DATA.values():
        for _ in range(5):
            cases.append(tuple(M.nhat_from(W.from_word(datum, _word(rng, datum, 5)),
                                           face=_face(rng, datum)) for _ in range(2)))

    def forbidden(u, r):
        raise AssertionError("a product called act_face")

    monkeypatch.setattr(F, "act_face", forbidden)
    for a, b in cases:
        M.wm_mul(M.wm_normalize(a.w, a.face), M.wm_normalize(b.w, b.face))
        M.nhat_mul(a, b)
