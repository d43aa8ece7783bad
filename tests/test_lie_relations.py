"""The slice operators satisfy the relations of the Kac-Moody algebra.

On every basis vector b at weight wt whose images stay inside the window:
  - [e_i, f_j] b = delta_ij <wt, h_i> b;
  - sum_m (-1)^m C(N, m) x_i^m x_j x_i^(N-m) b = 0 for x = f and x = e,
    i != j and N = 1 - a_ij (the Serre relations).
The build reads the basis off the e-images that `_e_images` forms through
[e_i, f_i] = h_i, so the commutator checks the data that decides the basis,
and the Serre relations hold in L(hw) only because the build quotients out
the radical (Kac, Infinite-dimensional Lie algebras, ch. 3 and 9).  Each
monomial runs through `highest_weight.apply_chevalley`; a DepthExceeded
puts the instance outside the window, and it is not counted.
"""

import math
from fractions import Fraction

import pytest
from test_cartan import _e10_rows
from test_slice_reference import SPECS, _slice

from kmx import highest_weight as HW
from kmx.cartan import build_realization
from kmx.errors import DepthExceeded


def _apply(ops, b):
    """The monomial ops, ("e", i) and ("f", i) applied last first, on the
    basis Vector b, as {weight: Fraction coordinates}."""
    v = HW.apply_chevalley(ops, b)
    return {wt: [Fraction(x, v.den) for x in u] for wt, u in v.parts.items()}


def _combine(terms):
    """sum of c * v over (c, v) in terms, with its zero parts dropped."""
    total = {}
    for c, v in terms:
        for wt, u in v.items():
            acc = total.setdefault(wt, [Fraction(0)] * len(u))
            for r, x in enumerate(u):
                acc[r] += c * x
    return {wt: u for wt, u in total.items() if any(u)}


def relation_check(sl):
    """({relation: instances decided}, [violations]) over the slice's basis."""
    a = sl.datum.gcm.a
    n = sl.datum.n
    counts = {"commutator": 0, "f-Serre": 0, "e-Serre": 0}
    bad = []

    def decide(kind, where, terms):
        try:
            value = _combine((c, _apply(ops, b)) for c, ops in terms)
        except DepthExceeded:
            return
        counts[kind] += 1
        if value:
            bad.append((kind, where, value))

    for wt in sl.order:
        sp = sl.spaces[wt]
        for k in range(sp.dim):
            b = HW.Vector(sl, {wt: tuple(int(j == k) for j in range(sp.dim))})
            for i in range(n):
                for j in range(n):
                    # e_i f_j - f_j e_i - delta_ij <wt, h_i>
                    terms = [(1, (("e", i), ("f", j))), (-1, (("f", j), ("e", i)))]
                    if i == j:
                        terms.append((-wt[i], ()))
                    decide("commutator", (wt, k, i, j), terms)
                    if i == j:
                        continue
                    big_n = 1 - a[i][j]
                    for kind, x in (("f-Serre", "f"), ("e-Serre", "e")):
                        terms = [((-1) ** m * math.comb(big_n, m),
                                  ((x, i),) * m + ((x, j),) + ((x, i),) * (big_n - m))
                                 for m in range(big_n + 1)]
                        decide(kind, (wt, k, i, j), terms)
    return counts, bad


def _assert_window_decides(sl, counts):
    """Every instance whose operators stay inside the window was decided: the
    e-Serre relations on every basis vector (raising never leaves it), the
    commutators below the bottom layer, and the f-Serre relation of (i, j) on
    the vectors N + 1 = 2 - a_ij layers above the bottom or higher."""
    a, n = sl.datum.gcm.a, sl.datum.n

    def up_to(h):
        return sum(sp.dim for sp in sl.spaces.values() if sp.height <= h)

    assert counts["e-Serre"] == n * (n - 1) * up_to(sl.depth), counts
    assert counts["commutator"] >= n * n * up_to(sl.depth - 1), counts
    assert counts["f-Serre"] >= sum(up_to(sl.depth - 2 + a[i][j])
                                    for i in range(n) for j in range(n) if i != j), counts


@pytest.mark.parametrize("alg,hw_name,depth", SPECS,
                         ids=[f"{a}-{h}-{d}" for a, h, d in SPECS])
def test_reference_slices_satisfy_the_lie_relations(alg, hw_name, depth):
    sl = _slice(HW.ModuleSlice, alg, hw_name, depth)
    counts, bad = relation_check(sl)
    assert bad == []
    _assert_window_decides(sl, counts)


@pytest.mark.parametrize("node", [8, 9])
def test_e10_fundamental_slices_satisfy_the_lie_relations(node):
    # the ends of E10's two short arms
    datum = build_realization(_e10_rows())
    sl = HW.ModuleSlice(datum, datum.fundamental_weight(node), 4, max_depth=4)
    counts, bad = relation_check(sl)
    assert bad == []
    _assert_window_decides(sl, counts)


def test_a_shifted_lowering_entry_breaks_the_relations():
    sl = _slice(HW.ModuleSlice, "hyperbolic-3", "L1", 8)
    assert relation_check(sl)[1] == []
    # shift one entry of f_i at height 2 by one
    sp = next(sp for sp in sl.spaces.values() if sp.height == 2 and sp.down)
    i, (tgt, ints, den) = next(iter(sp.down.items()))
    rows = [list(row) for row in ints]
    rows[0][0] += den
    sp.down[i] = (tgt, tuple(map(tuple, rows)), den)
    assert relation_check(sl)[1]
