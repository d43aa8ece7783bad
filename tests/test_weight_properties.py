"""Property test of the closed-form weight rule on random (datum, hw) pairs:
every symmetrizable GCM of rank 2 and 3 from `conftest.all_small_gcms`, and
highest weights with entries from {0, 0, 1, 2}, so that the support of hw is
often partial.  The slice built through the rule must have Freudenthal's
multiplicities, and its weights past the window must be those that the
Gram-matrix reference finds there."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_slice_reference import RefSlice, symmetrizable_small_gcms  # noqa: E402

from kmx import highest_weight as HW  # noqa: E402
from kmx.cartan import build_realization  # noqa: E402

GCMS = symmetrizable_small_gcms()


@st.composite
def data_and_highest_weights(draw):
    datum = build_realization(draw(st.sampled_from(GCMS)))
    hw = tuple(draw(st.sampled_from((0, 0, 1, 2))) for _ in range(datum.n))
    return datum, hw + (0,) * (datum.m - datum.n)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(data_and_highest_weights())
def test_weight_rule_matches_freudenthal_and_the_gram_probe(case):
    datum, hw = case
    sl = HW.ModuleSlice(datum, hw, 4)
    assert sl.dims() == HW.weights_and_mults(datum, hw, 4)
    assert sl._nonzero_beyond == RefSlice(datum, hw, 4)._nonzero_beyond
