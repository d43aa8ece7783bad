"""Seeded property test of the slice build on random (datum, hw) pairs:
every symmetrizable GCM of rank 2 and 3 from `conftest.all_small_gcms`, and
highest weights with entries from {0, 0, 1, 2}, so that the support of hw is
often partial.  The slice read off the stacked e-images must be the greedy
Gram-matrix reference's slice, entry for entry, and every basis Gram matrix
must be an int, symmetric, nonsingular matrix: the build reads its basis
without assuming that the contravariant form is nondegenerate."""

import random

from test_highest_weight import _assert_gram_nonsingular_and_symmetric
from test_slice_reference import RefSlice, _fractions, read_edges, symmetrizable_small_gcms

from kmx import highest_weight as HW
from kmx.cartan import build_realization


def test_slice_equals_the_greedy_reference_on_small_gcms():
    # 30 draws of each rank; the 10 rank-2 matrices would otherwise be
    # drawn once in 38
    rng = random.Random(32)
    gcms = {n: [rows for rows in symmetrizable_small_gcms() if len(rows) == n] for n in (2, 3)}
    for k in range(60):
        datum = build_realization(rng.choice(gcms[2 + k % 2]))
        hw = tuple(rng.choice((0, 0, 1, 2)) for _ in range(datum.n)) + (0,) * (datum.m - datum.n)
        new, ref = HW.ModuleSlice(datum, hw, 5), RefSlice(datum, hw, 5)
        e_mats, f_mats, beyond = read_edges(new)
        assert beyond == ref._nonzero_beyond, (datum.gcm.a, hw)
        assert new.order == ref.order, (datum.gcm.a, hw)
        for wt, sp in ref.spaces.items():
            got = new.spaces[wt]
            assert (got.height, got.words, got.gram) == (sp.height, sp.words, sp.gram), wt
            assert {i: _fractions(op) for i, op in f_mats[wt].items()} == sp.f_mat, wt
            assert {i: _fractions(op) for i, op in e_mats[wt].items()} == sp.e_mat, wt
        _assert_gram_nonsingular_and_symmetric(new)
