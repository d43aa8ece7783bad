"""Data with a nontrivial symmetrizer: unequal root lengths flush out any
transpose or eps-convention slips that symmetric matrices cannot see."""

import random
from fractions import Fraction as Fr

import pytest

from kmx import faces as FC, highest_weight as HW, monoids as MO, weyl as W
from kmx.cartan import ComponentType, build_realization, classify, special_sets
from kmx.errors import NotSymmetrizable

B2_ROWS = ((2, -1), (-2, 2))
G2_ROWS = ((2, -1), (-3, 2))
TWISTED_AFFINE_ROWS = ((2, -4), (-1, 2))   # affine with eps = (4, 1)
SKEW_INDEFINITE_ROWS = ((2, -2), (-3, 2))  # a12 a21 = 6 > 4


def test_symmetrizers():
    assert build_realization(B2_ROWS).gcm.eps == (Fr(1), Fr(2))
    assert build_realization(G2_ROWS).gcm.eps == (Fr(1), Fr(3))
    assert build_realization(TWISTED_AFFINE_ROWS).gcm.eps == (Fr(4), Fr(1))


def test_classification():
    assert classify(build_realization(B2_ROWS).gcm).components[0][1] \
        is ComponentType.FIN
    assert classify(build_realization(G2_ROWS).gcm).components[0][1] \
        is ComponentType.FIN
    assert classify(build_realization(TWISTED_AFFINE_ROWS).gcm).components[0][1] \
        is ComponentType.AFF
    assert classify(build_realization(SKEW_INDEFINITE_ROWS).gcm).components[0][1] \
        is ComponentType.IND


def test_realization_identities_nontrivial_eps():
    for rows in (B2_ROWS, G2_ROWS, TWISTED_AFFINE_ROWS, SKEW_INDEFINITE_ROWS):
        datum = build_realization(rows)
        a = datum.gcm.a
        for i in range(datum.n):
            for j in range(datum.n):
                assert datum.pair(datum.alpha[i], datum.coroot(j)) == a[j][i]
            assert datum.form_weights(datum.alpha[i], datum.alpha[i]) \
                == 2 / datum.gcm.eps[i]
        # the form is symmetric on coweights
        for i in range(datum.m):
            for j in range(datum.m):
                assert datum.gram[i][j] == datum.gram[j][i]


def test_g2_ball_length_oracle():
    datum = build_realization(G2_ROWS)
    dist = {W.identity_elt(datum): 0}
    frontier = [W.identity_elt(datum)]
    for d in range(1, 8):
        new = []
        for w in frontier:
            for i in range(2):
                nxt = w * W.simple(datum, i)
                if nxt not in dist:
                    dist[nxt] = d
                    new.append(nxt)
        frontier = new
    assert len(dist) == 12  # dihedral of order 12: m_12 = 6
    for w, d in dist.items():
        assert w.length == d


def test_b2_module_dimensions():
    datum = build_realization(B2_ROWS)
    # vector and spinor representations: full dimensions 4 and 5 (long root
    # convention depends on the matrix orientation; totals are what matter)
    d1 = sum(HW.build_basis(datum, (1, 0), 6, max_depth=6).dims().values())
    d2 = sum(HW.build_basis(datum, (0, 1), 6, max_depth=6).dims().values())
    assert sorted((d1, d2)) == [4, 5]
    for hw in ((1, 0), (0, 1), (1, 1)):
        assert HW.build_basis(datum, hw, 4).dims() \
            == HW.weights_and_mults(datum, hw, 4)


def test_g2_adjoint_dimension():
    datum = build_realization(G2_ROWS)
    # the adjoint fundamental rep of the rank-2 exceptional algebra is 14-dim
    # and spans ten height levels; the 7-dim one spans six
    dims = [sum(HW.build_basis(datum, hw, 10, max_depth=10).dims().values())
            for hw in ((1, 0), (0, 1))]
    assert 14 in dims and 7 in dims
    assert HW.build_basis(datum, (1, 1), 4).dims() \
        == HW.weights_and_mults(datum, (1, 1), 4)


def test_twisted_affine_machinery():
    datum = build_realization(TWISTED_AFFINE_ROWS)
    assert (datum.n, datum.l, datum.m) == (2, 1, 3)
    assert special_sets(datum.gcm) == ((), (0, 1))
    c = datum.exposing_coweight((0, 1))
    assert c == (1, 2, 0)
    for j in range(2):
        assert datum.pair(datum.alpha[j], c) == 0
    # two faces only
    rng = random.Random(60)
    faces = set()
    for _ in range(300):
        w = W.from_word(datum, [rng.randrange(2) for _ in range(rng.randrange(7))])
        faces.add(FC.normalize_face(w, rng.choice(((), (0, 1)))))
    assert len(faces) == 2
    # slice agreement with the Freudenthal route
    assert HW.build_basis(datum, (1, 0, 0), 4).dims() \
        == HW.weights_and_mults(datum, (1, 0, 0), 4)
    assert HW.build_basis(datum, (0, 1, 0), 4).dims() \
        == HW.weights_and_mults(datum, (0, 1, 0), 4)


def test_skew_indefinite_faces_and_monoid():
    datum = build_realization(SKEW_INDEFINITE_ROWS)
    assert special_sets(datum.gcm) == ((), (0, 1))
    rng = random.Random(61)
    faces = set()
    for _ in range(300):
        w = W.from_word(datum, [rng.randrange(2) for _ in range(rng.randrange(7))])
        faces.add(FC.normalize_face(w, rng.choice(((), (0, 1)))))
    assert len(faces) == 2  # rank-2 indefinite: the edge and the cone
    zero = MO.wm_idempotent(FC.standard_face(datum, (0, 1)))
    for _ in range(50):
        w = W.from_word(datum, [rng.randrange(2) for _ in range(4)])
        x = MO.wm_normalize(w, rng.choice(list(faces)))
        assert MO.wm_mul(x, zero) == zero and MO.wm_mul(zero, x) == zero
        xi = MO.wm_invert(x)
        assert MO.wm_mul(MO.wm_mul(x, xi), x) == x


def test_cocycle_probes_unequal_lengths():
    for rows in (B2_ROWS, G2_ROWS, TWISTED_AFFINE_ROWS):
        datum = build_realization(rows)
        hw = tuple(1 if j < datum.n else 0 for j in range(datum.m))
        for i in range(datum.n):
            res = HW.probe_equal(
                datum,
                HW.GhatWord((HW.nsimple(i), HW.nsimple(i))),
                HW.GhatWord((HW.torus_letter(datum.coroot(i), Fr(-1)),)),
                [(hw, 3, 0)])
            assert isinstance(res, HW.EqualOnProbes), (rows, i)


def test_theta_multiplicativity_b2():
    datum = build_realization(B2_ROWS)
    rng = random.Random(62)
    s1 = HW.build_basis(datum, (1, 0), 4)
    s2 = HW.build_basis(datum, (0, 1), 4)
    s3 = HW.build_basis(datum, (1, 1), 4)
    done = 0
    while done < 40:
        letters = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.randrange(4)
            i = rng.randrange(2)
            if kind == 0:
                letters.append(HW.xminus(i, Fr(rng.randrange(1, 3))))
            elif kind == 1:
                letters.append(HW.xplus(i, Fr(rng.randrange(1, 3))))
            elif kind == 2:
                letters.append(HW.torus_letter(datum.coroot(rng.randrange(2)),
                                               Fr(rng.choice([2, -1, 3]))))
            else:
                letters.append(HW.nsimple(i))
        word = HW.GhatWord(tuple(letters))
        try:
            t1, t2, t3 = HW.theta(s1, word), HW.theta(s2, word), HW.theta(s3, word)
        except Exception:
            continue
        assert t1 * t2 == t3
        done += 1


def test_contravariance_with_eps():
    datum = build_realization(G2_ROWS)
    sl = HW.build_basis(datum, (1, 1), 4)
    for wt, sp in sl.spaces.items():
        for i in range(2):
            if i not in sp.up:
                continue
            # the (ints, den) operator matrices as rational values
            _, ints, den = sp.up[i]
            em = [[Fr(x, den) for x in row] for row in ints]
            up = tuple(wt[j] + datum.alpha[i][j] for j in range(2))
            usp = sl.spaces[up]
            _, ints, den = usp.down[i]
            fm = [[Fr(x, den) for x in row] for row in ints]
            for a in range(sp.dim):
                for b in range(usp.dim):
                    lhs = sum(usp.gram[r][b] * em[r][a] for r in range(usp.dim))
                    rhs = sum(sp.gram[a][c] * fm[c][b] for c in range(sp.dim))
                    assert lhs == rhs
