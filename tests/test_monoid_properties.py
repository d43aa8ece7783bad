"""Property tests of the Weyl-monoid laws and the face Galois laws on the
kernel reference data (finite, affine, hyperbolic, D8++ and E10), and of the
torus character against its Fraction-power reference."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from exact_reference import torus_eval as ref_torus_eval  # noqa: E402
from test_weyl import KERNEL_DATA  # noqa: E402

from kmx import exact, faces as F  # noqa: E402
from kmx import monoids as M  # noqa: E402
from kmx import weyl as W  # noqa: E402


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
