"""Property tests of the Weyl-monoid laws and the face Galois laws on the
kernel reference data (finite, affine, hyperbolic, D8++ and E10), of the
torus character against its Fraction-power reference, and of the normalizer
product and inverse against the character fold they replaced."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
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
    datum, a, b = case
    assert M.nelt_mul(a, b) == ref_nelt_mul(a, b)
    one = (W.identity_elt(datum), M.torus_one(datum))
    ai = M.nelt_inv(a)
    assert M.nelt_mul(a, ai) == one == M.nelt_mul(ai, a)
    # n_{w^-1} n_w = t_c(-1) for c = rho^vee - w^{-1} rho^vee, the sum of the
    # coroots of the positive roots that w makes negative; den rho^vee = x
    w = a[0]
    x, den, _ = datum._height
    c = [Fraction(p - q) / den for p, q in zip(x, w.inv().act_coweight(x))]
    assert all(y.denominator == 1 for y in c)
    want = M.torus_from_coweight(datum, [int(y) for y in c], -1)
    assert M.nelt_mul(M.nelt_lift(w.inv()), M.nelt_lift(w)) == (one[0], want)
