"""`exact.smith_normal_form`, `exact.int_rref` and
`exact.kernel_lattice_basis` against sympy on seeded integer matrices,
full-rank and rank-deficient."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from kmx.exact import (identity, int_rref, kernel_lattice_basis, mat_mul,  # noqa: E402
                       smith_normal_form)


def _matrices(seed, count):
    """(rows, cols, matrix) triples; every other one is a product of an
    r x k and a k x c matrix with k < min(r, c), so its rank is at most k."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        if t % 2 and min(r, c) > 1:
            k = rng.randint(1, min(r, c) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            m = mat_mul(left, right)
        else:
            m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(c)] for _ in range(r)]
        out.append(tuple(tuple(row) for row in m))
    return out


MATRICES = _matrices(71, 200)


def test_the_sample_has_rank_deficient_matrices():
    deficient = sum(sympy.Matrix(m).rank() < min(len(m), len(m[0])) for m in MATRICES)
    assert deficient >= 100


@pytest.mark.parametrize("k", range(0, len(MATRICES), 20))
def test_smith_invariant_factors_match_sympy(k):
    for m in MATRICES[k:k + 20]:
        _, d, _ = smith_normal_form(m)
        ours = tuple(d[i][i] for i in range(min(len(m), len(m[0]))))
        theirs = tuple(abs(int(x)) for x in invariant_factors(sympy.Matrix(m),
                                                                domain=sympy.ZZ))
        assert ours == theirs, m


@pytest.mark.parametrize("k", range(0, len(MATRICES), 20))
def test_int_rref_rank_pivots_and_rows_match_sympy(k):
    for m in MATRICES[k:k + 20]:
        pivots, rows, d = int_rref(m)
        sm = sympy.Matrix(m)
        rref, sym_pivots = sm.rref()
        assert len(pivots) == sm.rank() and d > 0
        assert pivots == tuple(sym_pivots), m
        for i, row in enumerate(rows):
            assert [Fraction(x, d) for x in row] == \
                [Fraction(int(x.p), int(x.q)) for x in rref.row(i)], m


@pytest.mark.parametrize("k", range(0, len(MATRICES), 20))
def test_kernel_lattice_basis_is_the_saturated_kernel(k):
    # as many vectors as the kernel's dimension, each killed by the rows,
    # and a basis whose invariant factors are all 1: it spans its Q-span
    # intersected with Z^dim
    for m in MATRICES[k:k + 20]:
        dim = len(m[0])
        basis = kernel_lattice_basis(m, dim)
        sm = sympy.Matrix(m)
        assert len(basis) == dim - sm.rank(), m
        assert all(v == sympy.zeros(len(m), 1) for v in (sm * sympy.Matrix(b) for b in basis)), m
        if basis:
            factors = invariant_factors(sympy.Matrix(basis), domain=sympy.ZZ)
            assert all(abs(int(x)) == 1 for x in factors), m


def test_no_rows_give_the_whole_lattice():
    for dim in range(5):
        assert kernel_lattice_basis((), dim) == identity(dim)
