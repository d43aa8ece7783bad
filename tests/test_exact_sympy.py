"""`exact.smith_normal_form`, `exact.int_rref` and
`exact.kernel_lattice_basis` against sympy on seeded integer matrices,
full-rank and rank-deficient.  Then the Smith normal form and the kernel
against the reference Smith normal form (`exact_reference`), the one the
package ran before one column reduction served both, on the same matrices
and on the kernel calls of one `verify.check_toric()`."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import invariant_factors  # noqa: E402

import exact_reference as ref  # noqa: E402

from kmx import exact, verify  # noqa: E402
from kmx.exact import (identity, int_mat, int_rref, kernel_lattice_basis,  # noqa: E402
                       mat_mul, smith_normal_form)


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


# -- against the reference Smith normal form ------------------------------------


def _ref_kernel(m, dim):
    """The kernel basis as the package read it before: the columns of the
    reference V at zero diagonal entries of D or past the last row."""
    if not m:
        return identity(dim)
    _, d, v = ref.smith_normal_form(m)
    return tuple(tuple(row[j] for row in v) for j in range(dim) if j >= len(m) or d[j][j] == 0)


def _matches_the_reference(m):
    """D is the reference's D, the kernel basis spans the reference's
    kernel lattice, and V's columns at zero diagonal entries are the
    kernel basis."""
    dim = len(m[0])
    _, d, v = smith_normal_form(m)
    basis = kernel_lattice_basis(m, dim)
    return (d == ref.smith_normal_form(m)[1] and ref.same_lattice(basis, _ref_kernel(m, dim))
            and basis == tuple(tuple(row[j] for row in v) for j in range(dim)
                               if j >= len(m) or d[j][j] == 0))


@pytest.fixture(scope="module")
def verify_kernels():
    """(rows, dim) of each `kernel_lattice_basis` call of one
    `verify.check_toric()`."""
    calls = []
    real = exact.kernel_lattice_basis

    def recording(rows, dim):
        calls.append((int_mat(rows), dim))
        return real(rows, dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "kernel_lattice_basis", recording)
        assert verify.check_toric().passed
    return calls


def test_verify_kernels_are_the_reference_bases(verify_kernels):
    # the column reduction picks the pivots the reference did on every
    # kernel verify asks for, so the verify report cannot move
    assert len(verify_kernels) == 400
    for m, dim in verify_kernels:
        assert kernel_lattice_basis(m, dim) == _ref_kernel(m, dim), m


def test_verify_kernels_match_the_reference_smith_normal_form(verify_kernels):
    assert all(_matches_the_reference(m) for m, _ in verify_kernels if m)


@pytest.mark.parametrize("k", range(0, len(MATRICES), 20))
def test_smith_normal_form_and_kernel_match_the_reference(k):
    for m in MATRICES[k:k + 20]:
        assert _matches_the_reference(m), m
