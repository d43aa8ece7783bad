"""The per-datum table of Weyl elements and what its elements keep.

Every element the `weyl` module builds comes from its datum's table, one
object per matrix P, and keeps its inverse, its products with words, its
descent walks and its faces.  Checked on the kernel reference data, the
three `verify` data and two data with a nontrivial symmetrizer.
"""

import random

import pytest
from test_product_routes import DATA
from test_weyl import RefElt

from kmx import faces as F
from kmx import weyl as W


def _words(datum, count, seed):
    rng = random.Random(seed)
    top = 7 if datum.n > 3 else 10
    return [[rng.randrange(datum.n) for _ in range(rng.randint(0, top))]
            for _ in range(count)]


@pytest.mark.parametrize("name", list(DATA))
def test_a_repeated_word_is_the_same_object(name):
    datum = DATA[name]
    for word in _words(datum, 20, 41):
        w, ref = W.from_word(datum, word), RefElt.from_word(datum, word)
        assert W.from_word(datum, list(word)) is w
        assert w.mat_p == ref.p and w.mat_p_inv == ref.pi
        assert datum._weyl[w.mat_p] is w


@pytest.mark.parametrize("name", list(DATA))
def test_the_inverse_is_linked_both_ways(name):
    datum = DATA[name]
    for word in _words(datum, 20, 42):
        w = W.from_word(datum, word)
        assert w.inv().inv() is w
        assert w.inv() is W.from_word(datum, word[::-1])
        assert w.inv().mat_p == w.mat_p_inv


@pytest.mark.parametrize("name", list(DATA))
def test_table_rows_are_the_canonical_rows(name):
    datum = DATA[name]
    for word in _words(datum, 20, 43):
        w = W.from_word(datum, word)
        W.min_coset_right(w, range(0, datum.n, 2))
        (w * w.inv() * w).inv()
    rows = datum._weyl_rows
    for p, w in datum._weyl.items():
        assert w.mat_p is p
        assert all(rows[r] is r for r in w.mat_p + w.mat_p_inv)


@pytest.mark.parametrize("name", list(DATA))
def test_a_directly_built_element_is_equal_and_hashes_alike(name):
    datum = DATA[name]
    for word in _words(datum, 20, 44):
        w, ref = W.from_word(datum, word), RefElt.from_word(datum, word)
        direct = W.WeylElt(datum, ref.p, ref.pi)
        assert direct is not w and direct == w and w == direct
        assert hash(direct) == hash(w) and {w: 1}[direct] == 1
        assert direct.word == w.word and direct.inv() is w.inv()
        assert direct * W.identity_elt(datum) == w
    # the identity too, which is_identity reads by P, not by the table's object
    e = W.identity_elt(datum)
    direct = W.WeylElt(datum, e.mat_p, e.mat_p_inv)
    assert direct is not e and direct.is_identity()


@pytest.mark.parametrize("name", list(DATA))
def test_the_strip_memo_survives_its_callers(name):
    # J given as a list, unsorted or with repeats is read by index_set to
    # one key, and every public entry answers from the one walk kept there
    datum = DATA[name]
    rng = random.Random(45)
    for word in _words(datum, 20, 45):
        w = W.from_word(datum, word)
        key = tuple(i for i in range(datum.n) if rng.randrange(2))
        walk = W._strip_read(w, key)
        kept = dict(w._strips)
        rep, letters = walk
        assert type(letters) is tuple and rep is W.from_word(datum, word + list(letters))
        for j in (list(key), key[::-1], key + key[:1], list(key[::-1]) * 2):
            again, u = W.min_coset_right(w, j)
            assert again is rep and u is W.from_word(datum, letters[::-1])
            assert W._strip_read(w, key) is walk
        assert w._strips == kept and all(k == tuple(sorted(set(k))) for k in kept)


@pytest.mark.parametrize("name", list(DATA))
def test_normalize_face_gives_one_face_object(name):
    datum = DATA[name]
    rng = random.Random(46)
    for word in _words(datum, 20, 46):
        w = W.from_word(datum, word)
        theta = rng.choice(datum.special_sets())
        face = F.normalize_face(w, theta)
        assert F.normalize_face(w, theta) is face
        assert F.normalize_face(face.w, theta[::-1]) is face
        assert face.w._faces[face.theta] is face
    assert F.full_cone(datum) is F.full_cone(datum)
