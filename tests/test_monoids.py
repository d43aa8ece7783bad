import random
import re
from fractions import Fraction as Fr
from operator import attrgetter

import pytest

from kmx import exact, faces as FC, highest_weight as HW, monoids as MO, weyl as W
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS,
                        build_realization, torus_values)
from kmx.errors import (DepthExceeded, DomainError, PreconditionViolated, RankMismatch,
                        ZeroTorusValue)
from kmx.toric import LatticeMonoid, mhat_idempotent, mhat_mul, mhat_normalize

A2 = build_realization(A2_ROWS)
AFF = build_realization(AFFINE_A1_ROWS)
HYP = build_realization(HYPERBOLIC_ROWS)


def rand_weyl(rng, datum, maxlen=5):
    return W.from_word(datum, [rng.randrange(datum.n)
                               for _ in range(rng.randrange(maxlen + 1))])


def rand_face(rng, datum):
    return FC.normalize_face(rand_weyl(rng, datum), rng.choice(datum.special_sets()))


def rand_wmon(rng, datum):
    return MO.wm_normalize(rand_weyl(rng, datum), rand_face(rng, datum))


def rand_torus(rng, datum):
    return tuple(Fr(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
                 for _ in range(datum.m))


def rand_nhat(rng, datum):
    return MO.nhat_from(rand_weyl(rng, datum), rand_torus(rng, datum),
                        rand_face(rng, datum))


# -- Weyl monoid ---------------------------------------------------------------


def test_wm_normalize_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    x = MO.wm_normalize(W.simple(HYP, 0), R12)
    assert x.w.is_identity() and x.is_idempotent()
    y = MO.wm_normalize(W.simple(HYP, 2), FC.full_cone(HYP))
    assert y.w == W.simple(HYP, 2) and y.is_unit()
    c = FC.standard_face(AFF, (0, 1))
    for word in ((), (0,), (1,), (0, 1), (1, 0, 1)):
        assert MO.wm_normalize(W.from_word(AFF, word), c).w.is_identity()


def test_wm_mul_examples():
    s1, s2, s3 = (W.simple(HYP, i) for i in range(3))
    X = FC.full_cone(HYP)
    assert MO.wm_mul(MO.wm_normalize(s1, X), MO.wm_normalize(s2, X)) \
        == MO.wm_normalize(s1 * s2, X)
    R12 = FC.standard_face(HYP, (0, 1))
    edge = FC.standard_face(HYP, (0, 1, 2))
    prod = MO.wm_mul(MO.wm_normalize(s3, R12), MO.wm_idempotent(R12))
    assert prod == MO.wm_idempotent(edge)
    e = MO.wm_idempotent(R12)
    assert MO.wm_mul(e, e) == e


def test_wm_invert_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    e = MO.wm_idempotent(R12)
    assert MO.wm_invert(e) == e
    s3 = W.simple(HYP, 2)
    u = MO.wm_normalize(s3, FC.full_cone(HYP))
    assert MO.wm_invert(u) == MO.wm_normalize(s3.inv(), FC.full_cone(HYP))
    x = MO.wm_normalize(s3, R12)
    xi = MO.wm_invert(x)
    assert MO.wm_mul(MO.wm_mul(x, xi), x) == x
    assert MO.wm_mul(MO.wm_mul(xi, x), xi) == xi


def test_wm_inverse_unique_on_samples():
    rng = random.Random(20)
    for _ in range(40):
        x = rand_wmon(rng, HYP)
        xi = MO.wm_invert(x)
        # any other sampled y satisfying both sandwich laws must equal xi
        for _ in range(10):
            y = rand_wmon(rng, HYP)
            if MO.wm_mul(MO.wm_mul(x, y), x) == x \
                    and MO.wm_mul(MO.wm_mul(y, x), y) == y:
                assert y == xi


def test_wm_idempotents_commute_and_match_faces():
    rng = random.Random(21)
    for _ in range(60):
        r, s = rand_face(rng, HYP), rand_face(rng, HYP)
        e1, e2 = MO.wm_idempotent(r), MO.wm_idempotent(s)
        assert MO.wm_mul(e1, e2) == MO.wm_mul(e2, e1) \
            == MO.wm_idempotent(FC.intersect(r, s))


def test_wm_apply_examples():
    s1 = W.simple(HYP, 0)
    lam1 = HYP.fundamental_weight(0)
    out = MO.wm_apply(MO.wm_normalize(s1, FC.full_cone(HYP)), lam1)
    assert tuple(out) == tuple(s1.act_weight(lam1))
    edge = FC.standard_face(HYP, (0, 1, 2))
    assert MO.wm_apply(MO.wm_idempotent(edge), HYP.fundamental_weight(2)) is MO.ZERO
    assert MO.wm_apply(MO.wm_idempotent(edge), (0, 0, 0)) == (0, 0, 0)


def test_wm_action_is_monoid_action():
    rng = random.Random(22)
    datum = HYP
    pts = [(0, 0, 0), (1, 2, 0), (0, 0, 1), (2, 1, 1)]
    for _ in range(50):
        x, y = rand_wmon(rng, datum), rand_wmon(rng, datum)
        lam = rng.choice(pts)
        lam = tuple(rand_weyl(rng, datum, 3).act_weight(lam))
        lhs = MO.wm_apply(MO.wm_mul(x, y), lam)
        inner = MO.wm_apply(y, lam)
        rhs = MO.ZERO if inner is MO.ZERO else MO.wm_apply(x, inner)
        assert lhs == rhs or (lhs is MO.ZERO and rhs is MO.ZERO)


def test_wm_stabilizer_of_facet_is_parabolic_submonoid():
    rng = random.Random(23)
    datum = HYP
    lam = datum.fundamental_weight(2)  # facet type J = {2,3}, ri of R({1,2})
    jset = (0, 1)

    def stabilizes(x):
        out = MO.wm_apply(x, lam)
        return out is not MO.ZERO and tuple(out) == tuple(lam)

    stab = [x for x in (rand_wmon(rng, datum) for _ in range(250)) if stabilizes(x)]
    assert len(stab) > 5
    for x in stab:
        # units in the stabilizer lie in the parabolic subgroup W_J
        if x.is_unit():
            assert W.min_coset_right(x.w, jset)[0].is_identity()
        # idempotents in the stabilizer are the faces containing the point
        if x.is_idempotent():
            assert FC.contains(x.face, lam)
    # the stabilizer is a submonoid: closed under products on samples
    for x in stab[:10]:
        for y in stab[:10]:
            assert stabilizes(MO.wm_mul(x, y))
    # and conversely W_J units and lam-containing faces do stabilize
    for word in ((), (0,), (1,), (0, 1), (1, 0, 1)):
        assert stabilizes(MO.wm_normalize(W.from_word(datum, word), FC.full_cone(datum)))
    assert stabilizes(MO.wm_idempotent(FC.standard_face(datum, jset)))
    assert not stabilizes(MO.wm_normalize(W.simple(datum, 2), FC.full_cone(datum)))


def test_wm_unit_group_and_zero_affine():
    rng = random.Random(24)
    zero = MO.wm_idempotent(FC.standard_face(AFF, (0, 1)))
    seen_units = set()
    for _ in range(150):
        x = rand_wmon(rng, AFF)
        if x.is_unit():
            seen_units.add(x.w)
        else:
            assert x == zero
        assert MO.wm_mul(x, zero) == zero and MO.wm_mul(zero, x) == zero
    assert len(seen_units) > 3


def test_each_monoid_s_identity_is_its_idempotent_of_the_full_cone():
    # one constructor of e(R) per monoid, and e(full cone) is the identity:
    # W-hat, T-hat and N-hat on F, and M-hat on a lattice monoid's top face
    rng = random.Random(51)
    full = FC.full_cone(HYP)
    ones = {"wm": (MO.wm_idempotent(full), MO.wm_mul, rand_wmon),
            "that": (MO.that_idempotent(full), MO.that_mul,
                     lambda rng, d: MO.that_normalize(rand_torus(rng, d), rand_face(rng, d))),
            "nhat": (MO.nhat_idempotent(full), MO.nhat_mul, rand_nhat)}
    for one, mul, draw in ones.values():
        for _ in range(20):
            x = draw(rng, HYP)
            assert mul(one, x) == x == mul(x, one)
    m = LatticeMonoid([(1, 0), (1, 2), (0, -1)], 2)
    one = mhat_idempotent(m, m.top_face())
    for f in m.faces():
        x = mhat_normalize(m, (Fr(2), Fr(-3, 5)), f)
        assert mhat_mul(one, x) == x == mhat_mul(x, one)


# -- torus monoid ---------------------------------------------------------------


def test_that_normalize_examples():
    c = FC.standard_face(AFF, (0, 1))
    t = MO.torus_from_coweight(AFF, AFF.coroot(0), Fr(7, 3))
    assert MO.that_normalize(t, c) == MO.that_idempotent(c)
    unit = MO.that_normalize(MO.nhat_from(W.identity_elt(AFF)).torus, FC.full_cone(AFF))
    assert unit == MO.that_idempotent(FC.full_cone(AFF))
    with pytest.raises(ZeroTorusValue):
        MO.that_normalize((Fr(0), Fr(1), Fr(1)), c)


def test_torus_inputs_are_checked_never_truncated():
    # on A2 (m = 2): a fractional coordinate is not truncated to 0, and a
    # short or long coweight or torus is not read as far as it goes
    assert MO.torus_from_coweight(A2, (1, 0), 2) == (Fr(2), Fr(1))
    with pytest.raises(DomainError, match=r"coordinate Fraction\(1, 2\) is not an integer"):
        MO.torus_from_coweight(A2, (Fr(1, 2), 0), 2)
    for h in ((1,), (1, 0, 0)):
        with pytest.raises(DomainError, match="torus coweight needs 2 coordinates"):
            MO.torus_from_coweight(A2, h, 2)
    with pytest.raises(DomainError, match="torus element needs 2 values"):
        MO.nhat_from(W.identity_elt(A2), (Fr(1),))
    with pytest.raises(DomainError, match="torus element needs 2 values"):
        MO.that_normalize((Fr(2),), FC.full_cone(A2))
    with pytest.raises(DomainError, match="torus element needs 2 values"):
        MO.that_normalize((Fr(2), Fr(1), Fr(1)), FC.full_cone(A2))
    with pytest.raises(ZeroTorusValue):
        MO.nhat_from(W.identity_elt(A2), (Fr(0), Fr(1)))
    # torus_eval read int(1/2) = 0 and zipped a short or long weight with
    # t; t is read as a torus element of one value per weight coordinate
    t = (Fr(2), Fr(3))
    assert MO.torus_eval(t, (1, 2)) == 18
    with pytest.raises(DomainError, match=r"coordinate Fraction\(1, 2\) is not an integer"):
        MO.torus_eval(t, (Fr(1, 2), 0))
    for weight in ((1,), (1, 1, 5)):
        with pytest.raises(RankMismatch, match=f"torus element needs {len(weight)} values"):
            MO.torus_eval(t, weight)
    # the character reads numerators and denominators: a float torus value
    # was evaluated in floating point, then raised AttributeError
    for bad in ((0.5, Fr(1)), (Fr(1), True), ("2", Fr(1))):
        with pytest.raises(DomainError, match="is not a Fraction or an int"):
            MO.torus_eval(bad, (1, -1))
        with pytest.raises(DomainError, match="is not a Fraction or an int"):
            MO.nhat_from(W.identity_elt(A2), bad)
        with pytest.raises(DomainError, match="is not a Fraction or an int"):
            MO.that_normalize(bad, FC.full_cone(A2))
    assert MO.torus_eval((2, Fr(1, 3)), (1, -1)) == 6


def test_torus_and_normalizer_examples_through_units():
    # T and N are the unit groups of T-hat and N-hat: their products,
    # inverses and Weyl action are those of elements on the full cone
    one = W.identity_elt(A2)
    prod = MO.nhat_mul(MO.nhat_from(one, (Fr(1, 2), 3)), MO.nhat_from(one, (2, Fr(1, 3))))
    assert prod.torus == (1, 1)
    inv = MO.nhat_inv(MO.nhat_from(one, (2, Fr(-3, 4)))).torus
    assert inv == (Fr(1, 2), Fr(-4, 3))
    assert all(type(v) is Fr for v in MO.nhat_inv(MO.nhat_from(one, (2, 1))).torus)
    # (s_1 t)(Lambda_1) = t(Lambda_2 - Lambda_1), (s_1 t)(Lambda_2) = t(Lambda_2)
    acted = MO.that_act(W.simple(A2, 0), MO.that_normalize((Fr(2), 3), FC.full_cone(A2)))
    assert acted.values == (Fr(3, 2), Fr(3))
    prod = MO.nhat_mul(MO.nhat_from(W.simple(A2, 0), (Fr(2), 3)), MO.nhat_from(W.simple(A2, 1)))
    assert prod.w == W.from_word(A2, [0, 1]) and prod.face.is_full_cone()
    a = MO.nhat_from(W.simple(A2, 0), (Fr(1, 2), 2))
    for b in (MO.nhat_mul(a, MO.nhat_inv(a)), MO.nhat_mul(MO.nhat_inv(a), a)):
        assert b.w.is_identity() and b.torus == MO.nhat_from(one).torus and b.face.is_full_cone()


def test_the_normalizer_monoid_runs_the_unchecked_forms(monkeypatch):
    # nhat_from reads the torus element once; products, inverses and
    # canonical forms then run the cores and read no torus value again
    rng = random.Random(28)
    xs = [rand_nhat(rng, HYP) for _ in range(6)]
    want = [[MO.nhat_mul(x, y).canonical() for y in xs] for x in xs]
    inverses = [MO.nhat_inv(x).canonical() for x in xs]

    def checked(*args):
        raise AssertionError("a torus element was read again")

    monkeypatch.setattr(MO, "torus_values", checked)
    assert [[MO.nhat_mul(x, y).canonical() for y in xs] for x in xs] == want
    assert [MO.nhat_inv(x).canonical() for x in xs] == inverses


def test_that_ops_agree_with_the_canonical_character():
    # T-hat works through the torus element it was normalized from; the
    # character of the canonical values on span(R) cap P gives the same
    # products, actions and values
    from exact_reference import eval_character

    rng = random.Random(27)
    for datum in (AFF, HYP):
        for _ in range(30):
            x = MO.that_normalize(rand_torus(rng, datum), rand_face(rng, datum))
            y = MO.that_normalize(rand_torus(rng, datum), rand_face(rng, datum))
            prod = MO.that_mul(x, y)
            assert prod.values == tuple(eval_character(x.basis, x.values, b)
                                        * eval_character(y.basis, y.values, b)
                                        for b in prod.basis)
            u = rand_weyl(rng, datum, 4)
            acted = MO.that_act(u, x)
            assert acted.values == tuple(
                eval_character(x.basis, x.values, tuple(int(c) for c in u.inv().act_weight(b)))
                for b in acted.basis)
            # w lam lies on the face w R(Theta) for dominant lam with
            # lam(h_i) = 0 on Theta
            lam = tuple(int(j not in x.face.theta) for j in range(datum.m))
            on_face = tuple(int(c) for c in x.face.w.act_weight(lam))
            assert FC.contains(x.face, on_face)
            assert MO.that_eval(x, on_face) == eval_character(x.basis, x.values, on_face)


def test_that_mul_examples():
    rng = random.Random(25)
    for datum in (AFF, HYP):
        for _ in range(40):
            r, s = rand_face(rng, datum), rand_face(rng, datum)
            assert MO.that_mul(MO.that_idempotent(r), MO.that_idempotent(s)) \
                == MO.that_idempotent(FC.intersect(r, s))
            x = MO.that_normalize(rand_torus(rng, datum), r)
            y = MO.that_normalize(rand_torus(rng, datum), s)
            assert MO.that_mul(x, y) == MO.that_mul(y, x)  # T-hat is abelian


def test_that_act_formula():
    rng = random.Random(26)
    datum = HYP
    for _ in range(40):
        t = rand_torus(rng, datum)
        r = rand_face(rng, datum)
        u = rand_weyl(rng, datum, 4)
        lhs = MO.that_act(u, MO.that_normalize(t, r))
        acted = MO.that_act(u, MO.that_normalize(t, FC.full_cone(datum))).values
        rhs = MO.that_normalize(acted, FC.act_face(u, r))
        assert lhs == rhs


def test_that_eval_operator_semantics():
    datum = AFF
    c = FC.standard_face(datum, (0, 1))
    x = MO.that_normalize(MO.torus_from_coweight(datum, datum.coroot(2), Fr(5)), c)
    # on the edge lattice Z*Lambda_3 the value is 5^k
    assert MO.that_eval(x, (0, 0, 2)) == 25
    assert MO.that_eval(x, (1, 0, 0)) is MO.ZERO
    # a weight that is not integral was Zero off the face and a DomainError
    # on it; it is a DomainError wherever it lies
    for weight in ((Fr(1, 2), 0, 0), (0, 0, Fr(1, 2))):
        with pytest.raises(DomainError, match=re.escape("Fraction(1, 2) is not an integer")):
            MO.that_eval(x, weight)
    hx = MO.that_normalize((Fr(2), Fr(3), Fr(-5)), FC.standard_face(HYP, ()))
    for weight in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(DomainError, match="^weight needs 3 coordinates$"):
            MO.that_eval(hx, weight)


# -- canonical lifts and N-hat -----------------------------------------------------


def test_cocycle_and_braid_lifts():
    for datum in (A2, AFF, HYP):
        for i in range(datum.n):
            ni = MO.nhat_from(W.simple(datum, i))
            sq = MO.nhat_mul(ni, ni)
            assert sq.w.is_identity()
            assert sq.torus == MO.torus_from_coweight(datum, datum.coroot(i), Fr(-1))
    # braid: products along both reduced words of the longest A2 element agree
    a, b = MO.nhat_from(W.simple(A2, 0)), MO.nhat_from(W.simple(A2, 1))
    lhs = MO.nhat_mul(a, MO.nhat_mul(b, a))
    rhs = MO.nhat_mul(b, MO.nhat_mul(a, b))
    assert lhs.w == rhs.w and lhs.torus == rhs.torus


def test_nelt_group_laws():
    rng = random.Random(27)
    for datum in (AFF, HYP):
        for _ in range(40):
            a = MO.nhat_from(rand_weyl(rng, datum), rand_torus(rng, datum))
            b = MO.nhat_from(rand_weyl(rng, datum), rand_torus(rng, datum))
            c = MO.nhat_from(rand_weyl(rng, datum), rand_torus(rng, datum))
            ab_c = MO.nhat_mul(MO.nhat_mul(a, b), c)
            a_bc = MO.nhat_mul(a, MO.nhat_mul(b, c))
            assert (ab_c.w, ab_c.torus) == (a_bc.w, a_bc.torus)
            ai = MO.nhat_inv(a)
            prod = MO.nhat_mul(a, ai)
            assert prod.w.is_identity() and all(v == 1 for v in prod.torus)


def test_one_normalizer_product_forms_m_characters(monkeypatch):
    # the cocycle of each descent is a parity vector, not a torus of m
    # characters: n_i n_i made 2m, n_w n_{w^-1} one m per letter of w
    real, calls = exact.character, []
    monkeypatch.setattr(exact, "character", lambda t, x: calls.append(x) or real(t, x))
    for datum in (A2, AFF, HYP):
        for word in ([0], [0, 1], [1, 0, 1, 0], [0, 1, 0, 1, 0, 1]):
            w = W.from_word(datum, word)
            a = MO.nhat_from(w, (Fr(2),) * datum.m)
            for b in (MO.nhat_from(w), MO.nhat_from(w.inv())):
                calls.clear()
                MO.nhat_mul(a, b)
                assert len(calls) == datum.m


def test_nhat_kappa_isomorphism():
    rng = random.Random(28)
    for datum in (AFF, HYP):
        for _ in range(150):
            a, b = rand_nhat(rng, datum), rand_nhat(rng, datum)
            assert MO.nhat_to_wmon(MO.nhat_mul(a, b)) \
                == MO.wm_mul(MO.nhat_to_wmon(a), MO.nhat_to_wmon(b))


def _conjugation_samples():
    """40 units n and faces R per datum, affine A1 and the hyperbolic one."""
    rng = random.Random(29)
    for datum in (AFF, HYP):
        for _ in range(40):
            n = MO.nhat_from(rand_weyl(rng, datum), rand_torus(rng, datum))
            yield n, rand_face(rng, datum)


def _conjugation_breaks(n, r) -> bool:
    """Whether n e(R) n^{-1} = e(wR) fails in N-hat for the unit n = n_w t."""
    conj = MO.nhat_mul(MO.nhat_mul(n, MO.nhat_idempotent(r)), MO.nhat_inv(n))
    return conj != MO.nhat_idempotent(FC.act_face(n.w, r))


def test_nhat_conjugation_matches_face_action():
    for n, r in _conjugation_samples():
        assert MO.nhat_conj_idem(n, r) == FC.act_face(n.w, r)
        assert not _conjugation_breaks(n, r)
    with pytest.raises(PreconditionViolated):
        MO.nhat_conj_idem(MO.nhat_from(W.identity_elt(HYP),
                                       face=FC.standard_face(HYP, (0, 1))),
                          FC.full_cone(HYP))


def test_a_forged_normalizer_inverse_breaks_the_conjugation_identity(monkeypatch):
    # the inverse without its cocycle correction, n_w^{-1} t^{-1} read on
    # the wrong side, leaves a torus factor in n e(R) n^{-1}
    monkeypatch.setattr(MO, "_nelt_inv", lambda a: (a[0].inv(), MO._torus_inv(a[1])))
    assert sum(_conjugation_breaks(n, r) for n, r in _conjugation_samples()) > 0


def test_nhat_equality_modulo_centralizer():
    # left-multiplying by a lift of a face-centralizing element must not
    # change the monoid element (the torus cocycle is absorbed exactly)
    datum = HYP
    R12 = FC.standard_face(datum, (0, 1))
    x = MO.nhat_from(W.simple(datum, 2), face=R12)
    z = MO.nhat_from(W.simple(datum, 0))  # s1 centralizes R({1,2})
    y = MO.nhat_mul(z, x)
    # the kappa classes agree although the raw Weyl parts differ
    assert MO.nhat_to_wmon(y) == MO.nhat_to_wmon(x)
    # so do the elements, and equal elements hash alike; a non-element is
    # left to its own __eq__
    assert y == x and y.w != x.w and hash(y) == hash(x)
    assert x.__eq__(R12) is NotImplemented and x != R12 and x != (x.w, x.torus)


def test_the_rebuilt_normal_form_is_the_same_operator():
    # n_w t e(R) = n_sigma s e(R) for the class's sigma and s = w_R r, r the
    # canonical residual on Lambda_j (j not in Theta), 1 on Theta: the two
    # words agree on the fundamental probes wherever neither leaves the window
    for datum in (A2, AFF, HYP):
        rng = random.Random(40)
        probes = [(tuple(int(k == j) for k in range(datum.m)), 4, 3) for j in range(datum.m)]
        decided = 0
        for _ in range(200):
            x = rand_nhat(rng, datum)
            kappa, face, residual = x.canonical()
            values = iter(residual)
            r = tuple(Fr(1) if j in face.theta else next(values) for j in range(datum.m))
            s = MO.that_act(face.w, MO.that_normalize(r, FC.full_cone(datum))).values
            y = MO.nhat_from(kappa.w, s, face)
            try:
                verdict = HW.probe_equal(datum, HW.GhatWord(tuple(HW.nhat_letters(x))),
                                         HW.GhatWord(tuple(HW.nhat_letters(y))), probes)
            except DepthExceeded:
                continue
            assert isinstance(verdict, HW.EqualOnProbes), (x, verdict)
            decided += 1
        assert decided >= 80


def test_canonical_forms_run_no_smith_normal_form(monkeypatch):
    # a face's lattice is read off its normal form, and the residual is one
    # product n_sigma^{-1} (n_w t) n_{w_R}: 3 normalizer folds, not 5
    snf, folds = [], []
    real_snf, real_fold = exact.smith_normal_form, MO._nelt_mul
    monkeypatch.setattr(exact, "smith_normal_form", lambda m: snf.append(m) or real_snf(m))
    monkeypatch.setattr(MO, "_nelt_mul", lambda a, b: folds.append(a) or real_fold(a, b))
    rng = random.Random(34)
    for datum in (AFF, HYP):
        for _ in range(20):
            x = MO.that_normalize(rand_torus(rng, datum), rand_face(rng, datum))
            y = MO.that_idempotent(rand_face(rng, datum))
            MO.that_act(rand_weyl(rng, datum), MO.that_mul(x, y))
            folds.clear()
            rand_nhat(rng, datum).canonical()
            assert len(folds) == 3
    assert snf == []


def test_nhat_sandwich_laws():
    rng = random.Random(31)
    for _ in range(60):
        a = rand_nhat(rng, HYP)
        ai = MO.nhat_inv(a)
        assert MO.nhat_mul(MO.nhat_mul(a, ai), a) == a
        assert MO.nhat_mul(MO.nhat_mul(ai, a), ai) == ai


def test_that_idempotents_map_to_wmon_idempotents():
    rng = random.Random(32)
    for _ in range(30):
        r = rand_face(rng, HYP)
        t = rand_torus(rng, HYP)
        x = MO.nhat_from(W.identity_elt(HYP), t, r)
        assert MO.nhat_to_wmon(x).is_idempotent()


def test_that_unit_regular_and_inverse():
    rng = random.Random(33)
    for _ in range(30):
        r = rand_face(rng, HYP)
        t = rand_torus(rng, HYP)
        x = MO.that_normalize(t, r)
        # unit-regular factorization through the full cone
        unit = MO.that_normalize(t, FC.full_cone(HYP))
        assert MO.that_mul(unit, MO.that_idempotent(r)) == x
        # inverse: invert the values on the same face
        xi = MO.that_normalize(tuple(1 / v for v in t), r)
        assert MO.that_mul(MO.that_mul(x, xi), x) == x
        assert MO.that_mul(MO.that_mul(xi, x), xi) == xi


def _typed(x):
    """x with each number paired with its type: 2 and Fraction(2) differ."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    if isinstance(x, (int, Fr)):
        return type(x).__name__, x
    return x


_FULL = FC.full_cone(A2)
_S1 = W.simple(A2, 0)
_QUADRANT = LatticeMonoid([(1, 0), (0, 1)], 2)

# Each reader takes one tuple of caller values (a torus element, a weight
# or a one-value parameter) and maps good values to the results below.  The
# torus readers also reject a zero value, and those marked "count" a
# wrong number of values; those marked "weight" reject a weight of the
# wrong length.
READERS = {
    "torus_values": (lambda v: torus_values(v, 2), "count", {
        (2, Fr(1, 3)): (2, Fr(1, 3))}),
    "torus_from_coweight": (lambda v: MO.torus_from_coweight(A2, (1, -1), *v), "torus", {
        (2,): (Fr(2), Fr(1, 2)), (Fr(2, 3),): (Fr(2, 3), Fr(3, 2))}),
    "torus_eval": (lambda v: MO.torus_eval(v, (1, -2)), "count", {
        (3, 2): Fr(3, 4), (3, Fr(1, 2)): Fr(12)}),
    "that_normalize": (lambda v: attrgetter("values", "rep")(MO.that_normalize(v, _FULL)),
                       "count", {(2, 3): ((Fr(2), Fr(3)), (2, 3)),
                                 (Fr(1, 2), 3): ((Fr(1, 2), Fr(3)), (Fr(1, 2), 3))}),
    "nhat_from": (lambda v: MO.nhat_from(_S1, v).torus, "count", {
        (2, 3): (2, 3), (Fr(1, 2), 3): (Fr(1, 2), 3)}),
    "mhat_normalize": (lambda v: attrgetter("values", "rep")(
        mhat_normalize(_QUADRANT, v, _QUADRANT.top_face())), "count", {
        (2, 3): ((Fr(2), Fr(3)), (2, 3)),
        (Fr(1, 2), 3): ((Fr(1, 2), Fr(3)), (Fr(1, 2), 3))}),
    "dominant_rep": (lambda v: W.dominant_rep(A2, v).dominant, "rational", {
        (-1, 2): (Fr(1), Fr(1)), (Fr(-1, 2), 1): (Fr(1, 2), Fr(1, 2))}),
    "face_of_point": (lambda v: FC.face_of_point(A2, v) == _FULL, "rational", {
        (1, 0): True, (Fr(1, 2), 0): True}),
    "contains": (lambda v: FC.contains(_FULL, v), "rational", {
        (1, 0): True, (Fr(1, 2), 1): True}),
    "wm_apply": (lambda v: MO.wm_apply(MO.wm_normalize(_S1, _FULL), v), "rational", {
        (1, 0): (-1, 1), (Fr(1, 2), 0): (Fr(-1, 2), Fr(1, 2))}),
    "in_span": (lambda v: FC.in_span(_FULL, v), "weight", {
        (1, 0): True, (Fr(1, 2), 0): True}),
    "form_weights-left": (lambda v: A2.form_weights(v, (1, 0)), "weight", {
        (1, 0): Fr(2, 3), (Fr(1, 2), 0): Fr(1, 3)}),
    "form_weights-right": (lambda v: A2.form_weights((1, 0), v), "weight", {
        (1, 0): Fr(2, 3), (Fr(1, 2), 0): Fr(1, 3)}),
    "weight_height-top": (lambda v: A2.weight_height(v, (0, 0)), "weight", {
        (2, -1): 1, (Fr(4), -2): 2}),
    "weight_height-low": (lambda v: A2.weight_height((2, -1), v), "weight", {
        (0, 0): 1, (Fr(-2), 1): 2}),
    "xplus": (lambda v: HW.xplus(0, *v), "rational", {
        (2,): ("X+", 0, Fr(2)), (Fr(-1, 2),): ("X+", 0, Fr(-1, 2))}),
    "xminus": (lambda v: HW.xminus(1, *v), "rational", {
        (2,): ("X-", 1, Fr(2)), (Fr(-1, 2),): ("X-", 1, Fr(-1, 2))}),
    "torus_letter": (lambda v: HW.torus_letter((1, 0), *v), "torus", {
        (2,): ("T", (1, 0), Fr(2)), (Fr(-1, 2),): ("T", (1, 0), Fr(-1, 2))}),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_each_reader_reads_exact_values_only(name):
    # 0.1 was read as its binary fraction or a float, True as 1, and a zero
    # torus value ended in ZeroDivisionError; int and Fraction values give
    # what they gave, types included
    read, kind, goods = READERS[name]
    for good, want in goods.items():
        assert _typed(read(good)) == _typed(want), good
    good = next(iter(goods))
    for bad in (0.1, True, "1", None):
        with pytest.raises(DomainError, match=re.escape(f"{bad!r} is not a Fraction or an int")):
            read((bad,) + good[1:])
    if kind in ("torus", "count"):
        with pytest.raises(ZeroTorusValue):
            read((0,) + good[1:])
    if kind == "count":
        for wrong in (good[:1], good + (1,)):
            with pytest.raises(RankMismatch, match="torus element needs 2 values"):
                read(wrong)
    if kind == "weight":
        # form_weights((1,), (1, 0)) on A2 gave 2/3, in_span cut the weight
        # to its zip and weight_height raised an InternalError
        for wrong in (good[:1], good + (0,)):
            with pytest.raises(DomainError, match="weight needs 2 coordinates"):
                read(wrong)


_X1 = MO.nhat_from(_S1)
_N1 = (_S1, _X1.torus)  # a (w, t) pair, not an NhatElt
_M1 = MO.wm_normalize(_S1, _FULL)
_T1 = MO.that_idempotent(_FULL)

# Each entry with one argument of the wrong type: each raised a raw
# AttributeError or TypeError ("cannot unpack non-iterable int",
# "unsupported operand type(s) for *") before
WRONG_TYPES = {
    "torus_from_coweight": (lambda: MO.torus_from_coweight(A2.gcm, (1, 0), 2),
                            "a RootDatum, got GCM"),
    "nhat_from-w": (lambda: MO.nhat_from((0,)), "a WeylElt, got tuple"),
    "nhat_from-face": (lambda: MO.nhat_from(_S1, face=(0,)), "a Face, got tuple"),
    "nhat_idempotent": (lambda: MO.nhat_idempotent(None), "a Face, got NoneType"),
    "nhat_mul-left": (lambda: MO.nhat_mul(_S1, _X1), "an NhatElt, got WeylElt"),
    "nhat_mul-right": (lambda: MO.nhat_mul(_X1, _N1), "an NhatElt, got tuple"),
    "nhat_inv": (lambda: MO.nhat_inv(_S1), "an NhatElt, got WeylElt"),
    "nhat_to_wmon": (lambda: MO.nhat_to_wmon(_N1), "an NhatElt, got tuple"),
    "nhat_conj_idem-x": (lambda: MO.nhat_conj_idem(_S1, _FULL), "an NhatElt, got WeylElt"),
    "nhat_conj_idem-face": (lambda: MO.nhat_conj_idem(_X1, 1), "a Face, got int"),
    "wm_normalize-w": (lambda: MO.wm_normalize(1, _FULL), "a WeylElt, got int"),
    "wm_normalize-face": (lambda: MO.wm_normalize(_S1, 1), "a Face, got int"),
    "wm_idempotent": (lambda: MO.wm_idempotent(_S1), "a Face, got WeylElt"),
    "wm_mul-left": (lambda: MO.wm_mul(1, _M1), "a WmonElt, got int"),
    "wm_mul-right": (lambda: MO.wm_mul(_M1, 1), "a WmonElt, got int"),
    # "unhashable type: 'list'" from the lookup in x's products
    "wm_mul-right-list": (lambda: MO.wm_mul(_M1, [1]), "a WmonElt, got list"),
    "wm_invert": (lambda: MO.wm_invert(_S1), "a WmonElt, got WeylElt"),
    "wm_apply": (lambda: MO.wm_apply(_FULL, (1, 0)), "a WmonElt, got Face"),
    "that_normalize": (lambda: MO.that_normalize((1, 1), 1), "a Face, got int"),
    "that_idempotent": (lambda: MO.that_idempotent(_M1), "a Face, got WmonElt"),
    "that_mul-left": (lambda: MO.that_mul(1, _T1), "a ThatElt, got int"),
    "that_mul-right": (lambda: MO.that_mul(_T1, _FULL), "a ThatElt, got Face"),
    "that_act-u": (lambda: MO.that_act(1, _T1), "a WeylElt, got int"),
    "that_act-x": (lambda: MO.that_act(_S1, _FULL), "a ThatElt, got Face"),
    "that_eval": (lambda: MO.that_eval(_FULL, (1, 0)), "a ThatElt, got Face"),
    "normalize_face": (lambda: FC.normalize_face(A2, (0,)), "a WeylElt, got RootDatum"),
    "full_cone": (lambda: FC.full_cone(A2.gcm), "a RootDatum, got GCM"),
    "parse_face-datum": (lambda: FC.parse_face(None, "theta=1"), "a RootDatum, got NoneType"),
    "parse_face-text": (lambda: FC.parse_face(A2, 1), "a str, got int"),
    "act_face-u": (lambda: FC.act_face(1, _FULL), "a WeylElt, got int"),
    "act_face-face": (lambda: FC.act_face(_S1, (0,)), "a Face, got tuple"),
    "includes-left": (lambda: FC.includes(1, _FULL), "a Face, got int"),
    "includes-right": (lambda: FC.includes(_FULL, _M1), "a Face, got WmonElt"),
    "intersect-left": (lambda: FC.intersect(1, _FULL), "a Face, got int"),
    "intersect-right": (lambda: FC.intersect(_FULL, 1), "a Face, got int"),
    "contains": (lambda: FC.contains(_M1, (1, 0)), "a Face, got WmonElt"),
    "in_span": (lambda: FC.in_span(1, (1, 0)), "a Face, got int"),
    "centralizes-face": (lambda: FC.centralizes(_S1, _S1), "a Face, got WeylElt"),
    "centralizes-u": (lambda: FC.centralizes(_FULL, 1), "a WeylElt, got int"),
    "normalizes-face": (lambda: FC.normalizes(None, _S1), "a Face, got NoneType"),
    "normalizes-u": (lambda: FC.normalizes(_FULL, (0,)), "a WeylElt, got tuple"),
    "identity_elt": (lambda: W.identity_elt(A2.gcm), "a RootDatum, got GCM"),
    "simple": (lambda: W.simple("d", 0), "a RootDatum, got str"),
    "from_word": (lambda: W.from_word(None, (0,)), "a RootDatum, got NoneType"),
    "min_coset_right": (lambda: W.min_coset_right((0,), (0,)), "a WeylElt, got tuple"),
    "min_coset_left": (lambda: W.min_coset_left(1, (0,)), "a WeylElt, got int"),
    "min_double_coset": (lambda: W.min_double_coset(_FULL, (), (0,)), "a WeylElt, got Face"),
    "dominant_rep": (lambda: W.dominant_rep(A2.gcm, (1, 0)), "a RootDatum, got GCM"),
    "antidominant_coweight": (lambda: W.antidominant_coweight(None, (1, 0)),
                              "a RootDatum, got NoneType"),
    "denominator": (lambda: W.denominator(A2.gcm, 2), "a RootDatum, got GCM"),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_a_wrong_argument_type_is_a_domain_error(name):
    call, message = WRONG_TYPES[name]
    with pytest.raises(DomainError, match="expected " + message):
        call()


# a weight that is no sequence is named by the weight reader, not a raw
# TypeError (len(None), None in a pairing)
NOT_SEQUENCES = {
    "contains": (lambda: FC.contains(_FULL, None), "weight coordinate list None"),
}


@pytest.mark.parametrize("name", sorted(NOT_SEQUENCES))
def test_a_non_sequence_is_a_domain_error(name):
    call, what = NOT_SEQUENCES[name]
    with pytest.raises(DomainError, match=re.escape(what) + " is not a sequence"):
        call()
