"""The Bruhat order on W (`weyl.bruhat_le`), held against two oracles on
balls of W:

- the subword property (`exact_reference.bruhat_ideal`): v <= w iff v is
  the product of a subword of a reduced word of w;
- the support of the Demazure character: D_w e^rho, for D_w = D_{i1} ...
  D_{ik} along a reduced word of w and D_i the reference
  `exact_reference.demazure`, is nonzero at v rho iff v <= w, since rho
  is regular (Kumar, Kac-Moody Groups, their Flag Varieties and
  Representation Theory, ch. 8).  Its coefficients are dimensions, so none
  is negative; `test_demazure.py` checks them against the slices.

The balls are those of every w with l(w) <= the radius: A2 (all of W), G2
and affine A1 to 6, A2^(1) to 4, Feingold-Frenkel's F to 6, A3^(1) to 5,
and E10 and D8++ to 3.
"""

import re

import exact_reference as ref
import pytest

from kmx import weyl as W
from kmx.cartan import A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS, build_realization
from kmx.errors import DomainError, InternalError, PreconditionViolated
from test_weyl import KERNEL_DATA

BALLS = {
    "A2": (A2_ROWS, 3),
    "G2": (((2, -1), (-3, 2)), 6),
    "A1^(1)": (AFFINE_A1_ROWS, 6),
    "A2^(1)": (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), 4),
    "F": (HYPERBOLIC_ROWS, 6),
    "A3^(1)": (((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)), 5),
    "E10": (KERNEL_DATA["E10"].gcm.a, 3),
    "D8++": (KERNEL_DATA["D8++"].gcm.a, 3),
}


def _ball(datum, radius):
    """{w: D_w e^rho} for every w with l(w) <= radius, by s_i w for each
    left ascent i, with D_{s_i w} = D_i D_w."""
    e = W.identity_elt(datum)
    chars = {e: {datum.rho(): 1}}
    layer = [e]
    for _ in range(radius):
        nxt = []
        for w in layer:
            for i in range(datum.n):
                if w.left_descent(i):
                    continue
                sw = W.simple(datum, i) * w
                if sw not in chars:
                    chars[sw] = ref.demazure(datum, i, chars[w])
                    nxt.append(sw)
        layer = nxt
    return chars


@pytest.fixture(scope="module", params=list(BALLS))
def ball(request):
    rows, radius = BALLS[request.param]
    datum = build_realization(rows)
    return request.param, datum, _ball(datum, radius)


def test_bruhat_le_is_the_subword_property(ball):
    name, datum, chars = ball
    pairs = 0
    for w in chars:
        below = ref.bruhat_ideal(w)
        assert all(v.length <= w.length for v in below)
        for v in chars:
            assert W.bruhat_le(v, w) == (v in below), (name, v.word, w.word)
            pairs += v.length <= w.length
    # the pairs with l(v) <= l(w), where the order has something to decide
    assert pairs == {"A2": 23, "G2": 83, "A1^(1)": 97, "A2^(1)": 616, "F": 1687,
                     "A3^(1)": 9509, "E10": 61371, "D8++": 61857}[name]


def test_the_demazure_support_at_the_orbit_of_rho_is_the_lower_interval(ball):
    name, datum, chars = ball
    orbit = {v: tuple(v.act_weight(datum.rho())) for v in chars}
    for w, char in chars.items():
        assert min(char.values()) > 0, (name, w.word)
        for v, v_rho in orbit.items():
            assert (v_rho in char) == W.bruhat_le(v, w), (name, v.word, w.word)


def test_elements_of_two_root_data_are_refused():
    a, b = build_realization(A2_ROWS), build_realization(A2_ROWS)
    with pytest.raises(PreconditionViolated, match="^Bruhat order of Weyl elements of two "
                                                   "root data$"):
        W.bruhat_le(W.simple(a, 0), W.simple(b, 0))
    with pytest.raises(DomainError, match="a WeylElt, got tuple"):
        W.bruhat_le(W.simple(a, 0), (0,))


@pytest.mark.parametrize("rows,p,message", [
    (HYPERBOLIC_ROWS, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), "passed ht(rho - w.rho)"),
    (A2_ROWS, ((2, 0), (0, 2)), "w.rho is dominant but differs from rho"),
])
def test_a_w_that_is_no_weyl_element_is_an_internal_error(rows, p, message):
    # w's descent walk is its inverse's word, with the word's two checks
    datum = build_realization(rows)
    with pytest.raises(InternalError, match=re.escape(message)):
        W.bruhat_le(W.identity_elt(datum), W.WeylElt(datum, p, p))
