"""Property tests of the minimal coset splits w = w' u and w = u w', and of
the minimal double coset representative, on the kernel reference data
(finite, affine, hyperbolic, D8++ and E10)."""

import pytest

pytest.importorskip("hypothesis")

from exact_reference import min_double_coset as ref_min_double_coset  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_weyl import KERNEL_DATA  # noqa: E402

from kmx import weyl as W  # noqa: E402


@st.composite
def words_and_index_sets(draw):
    datum = KERNEL_DATA[draw(st.sampled_from(sorted(KERNEL_DATA)))]
    node = st.integers(0, datum.n - 1)
    return datum, draw(st.lists(node, max_size=12)), draw(st.frozensets(node))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(words_and_index_sets())
def test_coset_splits_are_minimal_and_length_additive(case):
    datum, word, j = case
    w = W.from_word(datum, word)
    rep, u = W.min_coset_right(w, j)
    assert rep * u == w
    assert W.min_coset_right(u, j)[0].is_identity()
    assert not any(rep.right_descent(i) for i in j)
    assert rep.length + u.length == w.length
    rep, u = W.min_coset_left(w, j)
    assert u * rep == w
    assert W.min_coset_right(u, j)[0].is_identity()
    assert not any(rep.left_descent(i) for i in j)
    assert rep.length + u.length == w.length


@st.composite
def words_and_two_index_sets(draw):
    datum, word, j = draw(words_and_index_sets())
    return datum, word, draw(st.frozensets(st.integers(0, datum.n - 1))), j


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(words_and_two_index_sets())
def test_double_coset_rep_is_minimal_and_equals_the_fixpoint_loop(case):
    datum, word, k, j = case
    w = W.from_word(datum, word)
    rep = W.min_double_coset(w, k, j)
    assert not any(rep.left_descent(i) for i in k)
    assert not any(rep.right_descent(i) for i in j)
    assert rep.length <= w.length
    assert rep == ref_min_double_coset(w, k, j)
    # w lies in W_K W_J iff its representative is 1; a product of factors
    # from W_K and W_J does
    assert W.min_double_coset(W.min_coset_left(w, k)[1] * W.min_coset_right(w, j)[1],
                              k, j).is_identity()
