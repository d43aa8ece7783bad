"""Property tests of GCM validation and of the node-subset reader.

A drawn square integer matrix is either returned with a positive
symmetrizer or rejected with NotGCM or NotSymmetrizable, whose message
names a real offence 1-based.  A drawn subset of 0..n-1 reads as itself
sorted without repeats, and one bad index anywhere in it is a DomainError."""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kmx import exact  # noqa: E402
from kmx.cartan import index_set, validate_and_symmetrize  # noqa: E402
from kmx.errors import DomainError, NotGCM, NotSymmetrizable  # noqa: E402


@st.composite
def square_int_matrices(draw):
    """Square integer matrices of size 1-5; half of them GCM-shaped (diagonal
    2, zero pattern symmetric, off-diagonal entries <= 0), so that the
    symmetrizer is reached, with one entry sometimes spoiled."""
    n = draw(st.integers(1, 5))
    if not draw(st.booleans()):
        return [[draw(st.integers(-4, 3)) for _ in range(n)] for _ in range(n)]
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if draw(st.booleans()):
                rows[i][j], rows[j][i] = draw(st.integers(-4, -1)), draw(st.integers(-4, -1))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.integers(-2, 3))
    return rows


def _components(rows):
    n = len(rows)
    seen, comps = set(), 0
    for s in range(n):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and rows[i][j]:
                    seen.add(j)
                    stack.append(j)
    return comps


def _symmetrizable(rows):
    """For a GCM: eps_j a_ij = eps_i a_ji on every edge has a solution space
    of dimension one per component (its solutions are then positive)."""
    n = len(rows)
    eqs = []
    for i in range(n):
        for j in range(i):
            if rows[i][j]:
                eq = [0] * n
                eq[j] += rows[i][j]
                eq[i] -= rows[j][i]
                eqs.append(eq)
    if not eqs:
        return True
    _, kernel = exact.rat_solve(eqs, [0] * len(eqs))
    return len(kernel) == _components(rows)


def _offence_named(rows, msg):
    """The message names, 1-based, an entry or pair that breaks its rule."""
    n = len(rows)
    a = lambda i, j: rows[int(i) - 1][int(j) - 1]  # noqa: E731
    for i, j in re.findall(r"a\[(\d+)\]\[(\d+)\]", msg) + re.findall(r"\((\d+),(\d+)\)", msg):
        assert 1 <= int(i) <= n and 1 <= int(j) <= n, msg
    if mm := re.fullmatch(r"diagonal entry a\[(\d+)\]\[(\d+)\] = (-?\d+) != 2", msg):
        return mm[1] == mm[2] and a(mm[1], mm[2]) == int(mm[3]) != 2
    if mm := re.fullmatch(r"positive off-diagonal entry a\[(\d+)\]\[(\d+)\]", msg):
        return mm[1] != mm[2] and a(mm[1], mm[2]) > 0
    if mm := re.fullmatch(r"zero-pattern asymmetry at \((\d+),(\d+)\)", msg):
        return (a(mm[1], mm[2]) == 0) != (a(mm[2], mm[1]) == 0)
    if mm := re.fullmatch(r"no positive symmetrizer: cycle through \((\d+),(\d+)\)", msg):
        return a(mm[1], mm[2]) != 0 and not _symmetrizable(rows)
    return False


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(square_int_matrices())
def test_validation_symmetrizes_or_names_the_offence(rows):
    try:
        gcm = validate_and_symmetrize(rows)
    except (NotGCM, NotSymmetrizable) as err:
        assert _offence_named(rows, str(err)), str(err)
        return
    n = len(rows)
    assert gcm.a == tuple(tuple(r) for r in rows)
    assert all(e > 0 for e in gcm.eps)
    assert all(gcm.b[i][j] == gcm.b[j][i] for i in range(n) for j in range(n))
    assert _symmetrizable(rows)


@st.composite
def index_lists(draw):
    """(n, indices in 0..n-1 with repeats, in any order)."""
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.integers(0, n - 1), max_size=16))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(index_lists(), st.sampled_from([-1, "n", True, False, 0.5, 1.0, "1"]),
       st.integers(0, 16))
def test_index_set_sorts_a_valid_subset_and_refuses_a_bad_index(drawn, bad, at):
    n, idx = drawn
    assert index_set(n, idx) == index_set(n, iter(idx)) == tuple(sorted(set(idx)))
    bad = n if bad == "n" else bad
    with pytest.raises(DomainError, match="simple index"):
        index_set(n, idx[:at] + [bad] + idx[at:])
