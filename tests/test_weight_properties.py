"""Seeded property test of the closed-form weight rule on random (datum, hw)
pairs: every symmetrizable GCM of rank 2 and 3 from `conftest.all_small_gcms`,
and highest weights with entries from {0, 0, 1, 2}, so that the support of hw
is often partial.  The slice built through the rule must have Freudenthal's
multiplicities, and its weights past the window must be those that the
Gram-matrix reference finds there.  A seeded `random.Random` draws the 50
cases, so they do not depend on what ran before in the same process."""

import random

from test_slice_reference import RefSlice, read_edges, symmetrizable_small_gcms

from kmx import highest_weight as HW
from kmx.cartan import build_realization


def test_weight_rule_matches_freudenthal_and_the_gram_probe():
    rng = random.Random(33)
    gcms = symmetrizable_small_gcms()
    for _ in range(50):
        datum = build_realization(rng.choice(gcms))
        hw = tuple(rng.choice((0, 0, 1, 2)) for _ in range(datum.n)) + (0,) * (datum.m - datum.n)
        sl = HW.ModuleSlice(datum, hw, 4)
        assert sl.dims() == HW.weights_and_mults(datum, hw, 4), (datum.gcm.a, hw)
        beyond = read_edges(sl)[2]
        assert beyond == RefSlice(datum, hw, 4)._nonzero_beyond, (datum.gcm.a, hw)
