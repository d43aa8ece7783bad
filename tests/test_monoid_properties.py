"""Property tests of the Weyl-monoid laws and the face Galois laws on the
kernel reference data (finite, affine, hyperbolic, D8++ and E10), of the
torus character against its Fraction-power reference, of the normalizer
product and inverse against the character fold they replaced, and of the
torus-monoid normal forms against the Smith-normal-form lattice and the
centralizer lift they replaced."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
import exact_reference as ref  # noqa: E402
from exact_reference import nelt_mul as ref_nelt_mul  # noqa: E402
from exact_reference import torus_eval as ref_torus_eval  # noqa: E402
from test_asymmetric_data import B2_ROWS, TWISTED_AFFINE_ROWS  # noqa: E402
from test_weyl import A2, AFF, KERNEL_DATA  # noqa: E402

from kmx import exact, faces as F  # noqa: E402
from kmx import monoids as M  # noqa: E402
from kmx import weyl as W  # noqa: E402
from kmx.cartan import build_realization  # noqa: E402


@st.composite
def faces_and_elements(draw, count):
    """A kernel datum, `count` faces w R(Theta) and `count` Weyl elements."""
    datum = KERNEL_DATA[draw(st.sampled_from(sorted(KERNEL_DATA)))]
    word = st.lists(st.integers(0, datum.n - 1), max_size=8)
    theta = st.sampled_from(datum.special_sets())
    faces = [F.normalize_face(W.from_word(datum, draw(word)), draw(theta))
             for _ in range(count)]
    return datum, faces, [W.from_word(datum, draw(word)) for _ in range(count)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(faces_and_elements(3))
def test_face_galois_and_lattice_laws(case):
    _, (r, s, t), (u, _, _) = case
    rs = F.intersect(r, s)
    assert F.includes(r, s) == (rs == s)
    assert F.includes(r, rs) and F.includes(s, rs)
    assert rs == F.intersect(s, r) and F.intersect(r, r) == r
    assert F.intersect(rs, t) == F.intersect(r, F.intersect(s, t))
    assert F.act_face(u, rs) == F.intersect(F.act_face(u, r), F.act_face(u, s))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(faces_and_elements(3))
def test_weyl_monoid_laws(case):
    datum, faces, elements = case
    x, y, z = (M.wm_normalize(w, face) for w, face in zip(elements, faces))
    assert M.wm_mul(M.wm_mul(x, y), z) == M.wm_mul(x, M.wm_mul(y, z))
    unit = M.wm_unit(datum)
    assert M.wm_mul(unit, x) == x == M.wm_mul(x, unit)
    xi = M.wm_invert(x)
    assert M.wm_mul(M.wm_mul(x, xi), x) == x
    assert M.wm_mul(M.wm_mul(xi, x), xi) == xi
    e1, e2 = M.wm_idempotent(x.face), M.wm_idempotent(y.face)
    assert M.wm_mul(e1, e2) == M.wm_mul(e2, e1) \
        == M.wm_idempotent(F.intersect(x.face, y.face))


@st.composite
def torus_and_weight(draw):
    """Nonzero Fractions of either sign and an integer weight of the same
    length, its coordinates negative, zero or positive."""
    size = draw(st.integers(0, 6))
    num = st.integers(-40, 40).filter(bool)
    t = tuple(Fraction(draw(num), draw(st.integers(1, 40))) for _ in range(size))
    weight = tuple(draw(st.integers(-7, 7)) for _ in range(size))
    return t, weight


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(torus_and_weight())
def test_torus_character_equals_the_fraction_power_reference(case):
    t, weight = case
    got = exact.character(t, weight)
    assert type(got) is Fraction and got == ref_torus_eval(t, weight)
    assert M.torus_eval(t, weight) == got


# finite, affine (untwisted and twisted) and hyperbolic data of rank 2 to 10
NORMALIZER_DATA = {
    **KERNEL_DATA, "A2": A2, "affine-A1": AFF,
    "B2": build_realization(B2_ROWS),
    "A2^(2)": build_realization(TWISTED_AFFINE_ROWS),
    "C2^(1)": build_realization(((2, -1, 0), (-2, 2, -2), (0, -1, 2))),
    "D4^(1)": build_realization(((2, 0, -1, 0, 0), (0, 2, -1, 0, 0), (-1, -1, 2, -1, -1),
                                 (0, 0, -1, 2, 0), (0, 0, -1, 0, 2))),
}
TORUS_VALUES = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2))


@st.composite
def normalizer_pairs(draw):
    """A datum and two normalizer elements n_w t, words of length 0 to 8."""
    datum = NORMALIZER_DATA[draw(st.sampled_from(sorted(NORMALIZER_DATA)))]
    word = st.lists(st.integers(0, datum.n - 1), max_size=8)
    value = st.sampled_from(TORUS_VALUES)
    return datum, *((W.from_word(datum, draw(word)),
                     tuple(draw(value) for _ in range(datum.m))) for _ in range(2))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(normalizer_pairs())
def test_normalizer_product_and_inverse_match_the_character_fold(case):
    # N is the unit group of N-hat: n_w t is the unit nhat_from(w, t)
    datum, a, b = case
    x = M.nhat_from(*a)
    xy = M.nhat_mul(x, M.nhat_from(*b))
    assert (xy.w, xy.torus) == ref_nelt_mul(a, b)
    one = M.nhat_from(W.identity_elt(datum))
    xi = M.nhat_inv(x)
    for z in (M.nhat_mul(x, xi), M.nhat_mul(xi, x)):
        assert (z.w, z.torus) == (one.w, one.torus)
    # n_{w^-1} n_w = t_c(-1) for c = rho^vee - w^{-1} rho^vee, the sum of the
    # coroots of the positive roots that w makes negative; den rho^vee = x
    w = x.w
    x, den, _ = datum._height
    c = [Fraction(p - q) / den for p, q in zip(x, w.inv().act_coweight(x))]
    assert all(y.denominator == 1 for y in c)
    want = M.torus_from_coweight(datum, [int(y) for y in c], -1)
    z = M.nhat_mul(M.nhat_from(w.inv()), M.nhat_from(w))
    assert (z.w, z.torus) == (one.w, want)


# the normalizer data and the affine A3^(1)
LATTICE_DATA = {**NORMALIZER_DATA, "A3^(1)": build_realization(
    ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)))}


def _assert_unimodular_change(new, old):
    """The integer matrix C with new_k = sum_l C_kl old_l exists and has
    determinant +-1: the two bases span one lattice."""
    c = [ref.lattice_coords(old, b) for b in new]
    assert len(new) == len(old) and None not in c
    assert not c or abs(ref.det(c)) == 1


def _through(old_basis, old_values, new_basis):
    """The character given by its values on old_basis, read on new_basis."""
    return tuple(ref.eval_character(old_basis, old_values, b) for b in new_basis)


def test_torus_monoid_forms_match_the_smith_normal_form_lattice():
    # the basis w_R Lambda_j (j not in Theta) spans the saturated kernel of
    # R's normals through a unimodular change of basis; values, canonical
    # residuals and equalities correspond through it.  The second torus
    # element agrees with the first on span(R) cap P in half the cases.
    rng = random.Random(40)
    for name in sorted(LATTICE_DATA):
        datum = LATTICE_DATA[name]
        for _ in range(30):
            face = F.normalize_face(W.from_word(datum, [rng.randrange(datum.n)
                                                        for _ in range(rng.randrange(9))]),
                                    rng.choice(datum.special_sets()))
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(rng.randrange(9))])
            t1, t2 = (tuple(Fraction(rng.choice(TORUS_VALUES)) for _ in range(datum.m))
                      for _ in range(2))
            agree = rng.random() < 0.5
            if agree:  # t1 times t_h(s) for normals h of R, trivial on span(R)
                one = W.identity_elt(datum)
                t2 = t1
                for h in face.span_normals():
                    th = M.torus_from_coweight(datum, h, rng.choice((-1, 2)))
                    t2 = M.nhat_mul(M.nhat_from(one, t2), M.nhat_from(one, th)).torus
            new, old = M.that_normalize(t1, face), ref.that_normalize(t1, face)
            _assert_unimodular_change(new.basis, old.basis)
            assert new.values == _through(old.basis, old.values, new.basis)
            assert (new == M.that_normalize(t2, face)) == (old == ref.that_normalize(t2, face))
            x, y = M.nhat_from(w, t1, face), M.nhat_from(w, t2, face)
            (kappa, got_face, residual), (ref_kappa, ref_face, ref_residual) = (
                x.canonical(), ref.nhat_canonical(x))
            assert kappa is ref_kappa and got_face is ref_face
            assert residual == _through(old.basis, ref_residual, new.basis)
            assert (x == y) == (ref.nhat_canonical(x) == ref.nhat_canonical(y))
            assert not agree or x == y
