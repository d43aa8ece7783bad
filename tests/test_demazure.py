"""Demazure modules in the slices: the dimensions of U(n+) v_{w lam} are the
coefficients of D_w e^lam.

For a dominant lam and w in W, the space of L(lam) at w lam is
one-dimensional, and the Demazure module V_w(lam) = U(n+) v_{w lam} has the
character D_w e^lam, for D_w = D_{i1} ... D_{ik} along a reduced word of w
and D_i the reference `exact_reference.demazure` (Kumar, Kac-Moody Groups,
their Flag Varieties and Representation Theory, ch. 8).  A slice gives
V_w(lam) by closing the space at w lam under every e_i through the public
route `highest_weight.apply_chevalley`, and its per-weight dimensions must
equal D_w e^lam, for every w with ht(lam - w lam) <= the slice's depth.
This is the Bruhat decomposition's weight-level shadow: the support of
D_w e^rho is the orbit of rho below w (`test_bruhat.py`).

The w grow by left ascents from the identity, one w per w lam, kept as its
weight.  For lam dominant, <w lam, h_i> > 0 makes i a left ascent of w and
< 0 a left descent, and s_i moves w lam exactly when that pairing is
nonzero.  On an ascent D_{s_i w} = D_i D_w, and D_w e^lam depends on w lam
alone.  s_i w lam = w lam - <w lam, h_i> alpha_i lies lower, so heights
only grow along an ascent, and a weight past the depth is pruned with all
it leads to.
"""

import exact_reference as ref
import pytest
from test_cartan import _e10_rows
from test_slice_reference import ALGEBRAS, SPECS, _slice

from kmx import exact, highest_weight as HW
from kmx.cartan import HYPERBOLIC_ROWS, build_realization


def extremal_characters(datum, hw, depth, demazure=ref.demazure):
    """{w lam: D_w e^lam} for every w lam of height <= depth below lam = hw,
    grown by left ascents with D_{s_i w} = D_i D_w."""
    chars, height = {hw: {hw: 1}}, {hw: 0}
    layer = [hw]
    while layer:
        nxt = []
        for mu in layer:
            for i, alpha in enumerate(datum.alpha):
                k = mu[i]
                if k <= 0:  # a descent, or s_i fixes mu
                    continue
                nu = tuple(x - k * a for x, a in zip(mu, alpha))
                if nu in chars or height[mu] + k > depth:
                    continue
                chars[nu], height[nu] = demazure(datum, i, chars[mu]), height[mu] + k
                nxt.append(nu)
        layer = nxt
    return chars


def demazure_dims(sl, mu):
    """{weight: dim} of U(n+) v_mu: the one-dimensional space at mu closed
    under every e_i by `apply_chevalley`, one height at a time.  At each
    weight the first independent images form the basis taken further."""
    assert sl.spaces[mu].dim == 1
    dims = {}
    layer = {mu: [HW.Vector(sl, {mu: (1,)})]}
    while layer:
        images = {}
        for wt, basis in layer.items():
            dims[wt] = len(basis)
            for i in range(sl.datum.n):
                for b in basis:
                    for nu, u in HW.apply_chevalley((("e", i),), b).parts.items():
                        images.setdefault(nu, []).append(u)
        layer = {nu: [HW.Vector(sl, {nu: cands[c]})
                      for c in exact.int_rref(list(zip(*cands)))[0]]
                 for nu, cands in images.items()}
    return dims


def disagreements(sl, chars):
    """The w lam at which the closure in sl and D_w e^lam disagree."""
    return [mu for mu, char in chars.items() if demazure_dims(sl, mu) != char]


# the reference slices of test_slice_reference.SPECS by id, and their numbers of w
SPEC_IDS = {"-".join(map(str, spec)): spec for spec in SPECS}
SPEC_COUNTS = {"A2-rho-8": 6, "A2-L1-8": 3, "B2-rho-8": 8, "B2-L1-8": 4, "G2-rho-8": 7,
               "G2-L1-8": 6, "A3-rho-8": 20, "A3-L1-8": 4, "A1^(1)-rho-8": 5,
               "A1^(1)-L1-8": 4, "A2^(2)-rho-8": 5, "A2^(2)-L1-8": 5, "A2^(1)-rho-5": 13,
               "A2^(1)-L1-8": 10, "hyperbolic-3-rho-5": 10, "hyperbolic-3-L1-8": 6}
# rho on deeper or wider data: the GCM, the depth and the number of w
DEEP = {
    "A2^(1)-rho-8": (ALGEBRAS["A2^(1)"], 8, 19),
    "F-rho-9": (HYPERBOLIC_ROWS, 9, 18),
    "A3^(1)-rho-8": (((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)), 8, 57),
    "E10-rho-5": (_e10_rows(), 5, 557),
}


def _build(name):
    """The slice of a SPECS or DEEP entry, and its number of w."""
    if name in DEEP:
        rows, depth, count = DEEP[name]
        datum = build_realization(rows)
        return HW.build_basis(datum, datum.rho(), depth, max_depth=depth), count
    return _slice(HW.ModuleSlice, *SPEC_IDS[name]), SPEC_COUNTS[name]


def test_the_spec_counts_cover_the_reference_slices():
    assert sorted(SPEC_COUNTS) == sorted(SPEC_IDS)
    assert sum(SPEC_COUNTS.values()) == 116


@pytest.mark.parametrize("name", list(SPEC_COUNTS) + list(DEEP))
def test_the_closure_of_each_extremal_space_is_the_demazure_character(name):
    sl, count = _build(name)
    chars = extremal_characters(sl.datum, sl.hw, sl.depth)
    assert len(chars) == count
    assert disagreements(sl, chars) == []


def _dropping_the_last_term(datum, i, char):
    """D_i with the last term e^{s_i mu} of each string with <mu, h_i> >= 2
    dropped."""
    out = ref.demazure(datum, i, char)
    for mu, c in char.items():
        if mu[i] >= 2:
            nu = tuple(x - mu[i] * a for x, a in zip(mu, datum.alpha[i]))
            out[nu] = out.get(nu, 0) - c
    return {nu: c for nu, c in out.items() if c}


@pytest.mark.parametrize("alg,caught,count", [
    ("A2", 3, 6), ("G2", 2, 5), ("A1^(1)", 2, 5), ("A2^(1)", 9, 13), ("hyperbolic-3", 5, 10),
])
def test_a_demazure_operator_that_drops_a_term_is_caught(alg, caught, count):
    sl = _slice(HW.ModuleSlice, alg, "rho", 5)
    chars = extremal_characters(sl.datum, sl.hw, 5, _dropping_the_last_term)
    assert (len(disagreements(sl, chars)), len(chars)) == (caught, count)


@pytest.mark.parametrize("alg", ["A2", "G2", "A2^(1)", "hyperbolic-3"])
def test_a_dropped_raising_edge_at_an_extremal_weight_is_caught(alg):
    # for i a left descent of w, w lam + alpha_i is reached from w lam by
    # the e_i edge alone, so dropping that edge loses its dimension
    sl = _slice(HW.ModuleSlice, alg, "rho", 5)
    chars = extremal_characters(sl.datum, sl.hw, 5)
    tried = 0
    for mu, char in chars.items():
        sp = sl.spaces[mu]
        for i in range(sl.datum.n):
            if mu[i] >= 0:
                continue
            edge = sp.up.pop(i)
            try:
                assert demazure_dims(sl, mu) != char, (mu, i)
            finally:
                sp.up[i] = edge
            tried += 1
    assert tried >= len(chars) - 1
    assert disagreements(sl, chars) == []
