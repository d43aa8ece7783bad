import random
from fractions import Fraction
from math import gcd

import exact_reference as ref
import pytest
from conftest import all_small_gcms, grid_certificate

from kmx import exact
from kmx.errors import InternalError
from kmx.exact import (int_mat, int_rref, kernel_lattice_basis, lp_feasible,
                       mat_mul, mat_vec, nonneg_feasible, nonneg_solve, primitive, rat_solve,
                       smith_normal_form)


def test_rat_solve_identity():
    sol = rat_solve([[1, 0], [0, 1]], (3, 5))
    assert sol == ((Fraction(3), Fraction(5)), ())


def test_rat_solve_kernel():
    # hand elimination: x = y is the null space of [[2,-2],[-2,2]]
    sol = rat_solve([[2, -2], [-2, 2]], (0, 0))
    assert sol is not None
    _, kernel = sol
    assert kernel == ((Fraction(1), Fraction(1)),)


def test_rat_solve_inconsistent():
    assert rat_solve([[1, 1], [1, 1]], (1, 2)) is None
    assert rat_solve([[1, 1]], (1,)) is not None


@pytest.mark.parametrize("b", [(3,), (3, 5, 7)])
def test_rat_solve_needs_one_entry_per_row(b):
    # the rows are zipped with b, so a short b would solve its rows alone
    with pytest.raises(ValueError, match="right-hand side needs 2 entries"):
        rat_solve([[1, 0], [0, 1]], b)


def test_rat_solve_resubstitutes():
    rng = random.Random(0)
    for _ in range(60):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)]
        b = [rng.randrange(-5, 6) for _ in range(nr)]
        sol = rat_solve(m, b)
        if sol is None:
            continue
        x, kernel = sol
        assert mat_vec(m, x) == tuple(Fraction(v) for v in b)
        for k in kernel:
            assert all(v == 0 for v in mat_vec(m, k))


def _determinantal_divisors(m):
    """Independent oracle: d_k = gcd of k x k minors, diag_k = d_k/d_{k-1}."""
    from itertools import combinations
    nr, nc = len(m), len(m[0])
    divisors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g = gcd(g, abs(int(ref.det(sub))))
        divisors.append(g)
    diag = []
    prev = 1
    for g in divisors:
        if g == 0:
            diag.append(0)
            continue
        diag.append(g // prev)
        prev = g
    return diag


def _check_int_rref(m):
    """int_rref against the reference rank and one reference solve per column."""
    pivots, rows, d = int_rref(m)
    nr, nc = len(m), len(m[0]) if m else 0
    assert d > 0 and len(pivots) == len(rows) == ref.rank(m)
    assert list(pivots) == sorted(pivots)
    basis = [[m[i][p] for p in pivots] for i in range(nr)]
    for c in range(nc):
        coords = tuple(Fraction(rows[t][c], d) for t in range(len(pivots)))
        if pivots:
            sol = ref.rat_solve(basis, [m[i][c] for i in range(nr)])
            assert sol is not None and sol[1] == () and sol[0] == coords
        # greedy pivots: no column depends only on later pivot columns
        assert all(x == 0 for p, x in zip(pivots, coords) if p > c)
    return pivots, rows, d


def test_int_rref_examples():
    # the zero matrix and 1 x 1 matrices
    assert int_rref([[0, 0], [0, 0]]) == ((), (), 1)
    assert int_rref([[0]]) == ((), (), 1)
    assert int_rref([[-3]]) == ((0,), ((3,),), 3)
    # a zero first column and a row swap: column 2 is twice column 1
    pivots, rows, d = _check_int_rref([[0, 0, 0, 1], [0, 2, 4, 3]])
    assert pivots == (1, 3)
    assert all(rows[t][2] == 2 * rows[t][1] for t in range(2))
    # a symmetric rank-2 Gram matrix with a repeated candidate
    assert _check_int_rref([[2, 1, 2], [1, 2, 1], [2, 1, 2]])[0] == (0, 1)


def test_int_rref_agrees_with_rank_and_rat_solve():
    rng = random.Random(11)
    for _ in range(300):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        k = rng.randrange(0, min(nr, nc) + 1)
        # a rank <= k product, then some columns zeroed
        a = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(k)]
        m = [[sum(a[i][s] * b[s][j] for s in range(k)) for j in range(nc)]
             for i in range(nr)]
        for j in range(nc):
            if rng.random() < 0.2:
                for row in m:
                    row[j] = 0
        _check_int_rref(m)


@pytest.mark.parametrize("row,col,message", [
    (0, 0, "rows are not d I at the pivot columns"),
    (0, 1, "rows are not d I at the pivot columns"),
    (1, 2, "fails to re-substitute"),
], ids=["pivot-diagonal", "pivot-off-diagonal", "free-column"])
def test_int_rref_catches_a_corrupted_reduced_row(row, col, message, monkeypatch):
    # the guard checks d I at the pivot columns and multiplies out the free
    # column alone; one entry changed after the last pivot fails one of them
    real = exact._bareiss_pivot

    def corrupt(rows, r, c, prev):
        pv = real(rows, r, c, prev)
        if r == 1:
            rows[row][col] += 1
        return pv

    assert int_rref([[1, 2, 3], [4, 5, 6]])[0] == (0, 1)
    monkeypatch.setattr(exact, "_bareiss_pivot", corrupt)
    with pytest.raises(InternalError, match=message):
        int_rref([[1, 2, 3], [4, 5, 6]])


def test_rat_solve_agrees_with_the_reference_solver():
    # seeded rational systems of rank <= k: consistent ones (b = M x0),
    # inconsistent ones (b perturbed) and rank-deficient ones with kernels
    rng = random.Random(5)
    seen = {"none": 0, "kernel": 0, "unique": 0}

    def frac():
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))

    for _ in range(400):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        k = rng.randrange(0, min(nr, nc) + 1)
        a = [[frac() for _ in range(k)] for _ in range(nr)]
        c = [[frac() for _ in range(nc)] for _ in range(k)]
        m = [[sum((a[i][s] * c[s][j] for s in range(k)), Fraction(0)) for j in range(nc)]
             for i in range(nr)]
        b = list(mat_vec(m, [frac() for _ in range(nc)]))
        if rng.random() < 0.4:
            b[rng.randrange(nr)] += frac()
        got, want = rat_solve(m, b), ref.rat_solve(m, b)
        assert got == want
        seen["none" if got is None else "kernel" if got[1] else "unique"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.5, 2.0, True, "1"])
def test_int_mat_rejects_non_integral_entries(bad):
    # 3/2 and 1.5 used to become 1
    with pytest.raises(ValueError, match="is not an integer"):
        int_mat([[bad, 2], [3, 4]])
    assert int_mat([[Fraction(4, 2), -3], [0, Fraction(-7)]]) == ((2, -3), (0, -7))


@pytest.mark.parametrize("m,expected", [
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 0], [0, 3]], [1, 6]),
    ([[2, -2], [-2, 2]], [2, 0]),
])
def test_snf_examples(m, expected):
    u, d, v = smith_normal_form(int_mat(m))
    got = [d[i][i] for i in range(len(expected))]
    assert got == expected
    assert got == _determinantal_divisors(m)


def test_snf_of_the_empty_matrix_is_empty():
    # a matrix with no rows is read as 0 x 0, so U, D and V are all empty
    assert smith_normal_form(()) == ((), (), ())


def test_snf_identity_and_unimodularity():
    rng = random.Random(1)
    for _ in range(40):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
        m = int_mat([[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)])
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(ref.det(u)) == 1 and abs(ref.det(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        assert diag == _determinantal_divisors(m)


def test_snf_diagonal_invariant_under_unimodular():
    rng = random.Random(2)

    def random_unimodular(n):
        m = [list(r) for r in exact.identity(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-2, 3)
                m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return int_mat(m)

    for _ in range(25):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = int_mat([[rng.randrange(-5, 6) for _ in range(nc)] for _ in range(nr)])
        _, d1, _ = smith_normal_form(m)
        m2 = mat_mul(mat_mul(random_unimodular(nr), m), random_unimodular(nc))
        _, d2, _ = smith_normal_form(m2)
        assert [d1[i][i] for i in range(min(nr, nc))] == \
               [d2[i][i] for i in range(min(nr, nc))]


def test_kernel_lattice_is_saturated():
    basis = kernel_lattice_basis([[2, -2], [-2, 2]], 2)
    # the saturated kernel of this matrix contains (1,1), not just (2,2)
    assert ((1, 1) in basis) or ((-1, -1) in basis)
    with pytest.raises(ValueError, match="kernel rows have 2 entries, not 3"):
        kernel_lattice_basis([[1, 0]], 3)


def test_a_kernel_vector_the_rows_do_not_kill_is_an_internal_error(monkeypatch):
    # a reduction that reports rank - 1 hands back its last pivot column of
    # V, which the rows do not kill
    real = exact._echelon_columns
    monkeypatch.setattr(exact, "_echelon_columns", lambda cols, track: real(cols, track) - 1)
    for rows in ([[1, 2, 3]], [[2, -2], [-2, 2]], [[1, 0, 0], [0, 3, 0]], [[0, 5]]):
        with pytest.raises(InternalError, match="not killed by the rows"):
            kernel_lattice_basis(rows, len(rows[0]))


class Stuck(int):
    """An int whose floor quotient is 0, so no column reduction shrinks it."""

    def __floordiv__(self, other):
        return 0


def test_a_column_reduction_that_does_not_shrink_its_pivot_is_an_internal_error():
    # the pass on (3, 5) leaves 5 as it was, and the next pass's pivot is
    # 3 again; the loop ran until it was killed.  The row (5, 3), whose
    # pivot shrinks 3, 2, 1 before its closing pass, still reduces
    with pytest.raises(InternalError, match="did not shrink its pivot"):
        exact._echelon_columns([[Stuck(3)], [Stuck(5)]], [[1, 0], [0, 1]])
    assert kernel_lattice_basis([[5, 3]], 2) == ((3, -5),)


def test_lp_examples():
    a2 = [[2, -1], [-1, 2]]
    neg = int_mat([[-x for x in row] for row in a2])
    u = lp_feasible(neg)
    assert u is not None
    assert all(sum(r * x for r, x in zip(row, u)) > 0 for row in a2)

    assert lp_feasible(int_mat(a2)) is None


def test_lp_agrees_with_grid_search():
    for n in (2, 3):
        for a in all_small_gcms(n):
            neg = int_mat([[-x for x in row] for row in a])
            for matrix, grid_rel in ((neg, "gt"), (int_mat(a), "lt")):  # -Au < 0 is Au > 0
                got = lp_feasible(matrix)
                want = grid_certificate(a, grid_rel)
                assert (got is not None) == (want is not None), (a, grid_rel)


def test_lp_certificate_survives_clearing_denominators():
    a = int_mat([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
    u = lp_feasible(a)
    assert u is not None
    ints = primitive(u)
    assert all(sum(r * x for r, x in zip(row, ints)) <= 0 for row in a)
    assert all(x >= 1 for x in ints)


def test_nonneg_solve():
    # x >= 0 with x1*(1,0) + x2*(1,2) = (1,1): x = (1/2, 1/2)
    sol = nonneg_solve([[1, 1], [0, 2]], (1, 1))
    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert nonneg_solve([[1, 1], [0, 2]], (-1, 0)) is None


def test_simplex_agrees_with_the_reference_tableau():
    # the integer tableau takes the Fraction tableau's pivots, so both give
    # the same certificate, or both None, on every system
    rng = random.Random(6)
    outcomes = {"lp": [0, 0], "nonneg": [0, 0]}
    for _ in range(3000):
        nr, nc = rng.randrange(1, 5), rng.randrange(1, 7)
        m = tuple(tuple(rng.randrange(-3, 4) for _ in range(nc)) for _ in range(nr))
        got = lp_feasible(m)
        assert got == ref.lp_feasible(m, ("lt",) * nr), m
        outcomes["lp"][got is None] += 1
        b = tuple(rng.randrange(-3, 4) for _ in range(nr))
        got = nonneg_solve(m, b)
        assert got == ref.nonneg_solve(m, b), (m, b)
        outcomes["nonneg"][got is None] += 1
    # feasible and infeasible systems both well represented
    assert min(min(v) for v in outcomes.values()) > 1000, outcomes


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, True, "1"])
def test_lp_and_nonneg_solve_reject_non_int_entries(bad):
    with pytest.raises(ValueError):
        lp_feasible(((bad, -1), (-1, 2)))
    with pytest.raises(ValueError):
        nonneg_solve([[bad, 1]], (1,))
    with pytest.raises(ValueError):
        nonneg_solve([[1, 1]], (bad,))


@pytest.mark.parametrize("call,message", [
    # the -5 was dropped, and the full system is feasible
    (lambda: lp_feasible(((-1,), (1, -5))), "LP matrix is ragged"),
    # IndexError before
    (lambda: nonneg_solve([[1, 0], [0, 1]], (1,)),
     "nonneg_solve input right-hand side needs 2 entries, one per row"),
    # InternalError before
    (lambda: nonneg_solve([[1], [1, 1]], (1, 2)), "nonneg_solve input matrix is ragged"),
    (lambda: nonneg_solve([[1, 0], [0, 1]], (1, 2, 3)),
     "nonneg_solve input right-hand side needs 2 entries, one per row"),
    (lambda: nonneg_feasible([[1], [1, 1]], [(1, 2)]), "nonneg_feasible input matrix is ragged"),
    (lambda: nonneg_feasible([[1, 0], [0, 1]], [(1, 2), (1,)]),
     "nonneg_feasible input right-hand side is ragged"),
    (lambda: nonneg_feasible([[1, 0], [0, 1]], [(1, 2.0)]),
     "nonneg_feasible input right-hand side must have integer entries"),
    (lambda: int_mat([[1, 2], [3]]), "ragged matrix"),
    (lambda: lp_feasible(()), "need at least one variable"),
], ids=["lp-ragged", "solve-short-b", "solve-ragged", "solve-long-b", "feasible-ragged",
        "feasible-short-b", "feasible-float-b", "int-mat-ragged", "lp-no-variable"])
def test_malformed_lp_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_nonneg_feasible_agrees_with_nonneg_solve_and_the_reference():
    # half of the right-hand sides are A x for a random x >= 0, so both
    # answers are well represented; every fifth system is one of the
    # rank-deficient shapes (4, 1) and (4, 2).  The Fraction reference runs
    # on every tenth system: on all 60,000 points it takes about 20 s
    rng = random.Random(18)
    runs = 0
    answers = [0, 0]
    for k in range(3000):
        nr, nc = (4, 1 + k % 2) if k % 5 == 0 else (rng.randrange(1, 5), rng.randrange(1, 7))
        a = tuple(tuple(rng.randrange(-3, 4) for _ in range(nc)) for _ in range(nr))
        pts = [tuple(rng.randrange(-3, 4) for _ in range(nr)) if j % 2
               else mat_vec(a, [rng.randrange(3) for _ in range(nc)]) for j in range(20)]
        before = exact.simplex_runs()
        got = nonneg_feasible(a, pts)
        runs += exact.simplex_runs() - before
        assert list(got) == [nonneg_solve(a, b) is not None for b in pts], (a, pts)
        if k % 10 == 0:
            assert list(got) == [ref.nonneg_solve(a, b) is not None for b in pts], (a, pts)
        for g in got:
            answers[g] += 1
        assert nonneg_feasible(a, []) == ()
        assert nonneg_feasible(a, [(0,) * nr]) == (True,)
    assert min(answers) > 15000, answers
    # one simplex run decides about five points (11,850 runs for 60,000)
    assert runs < 15000, runs
    assert nonneg_feasible((), [(), ()]) == (True, True)
    assert nonneg_feasible(((), ()), [(0, 0), (1, 0)]) == (True, False)


def _ref_feasible(a, pts, order):
    """nonneg_feasible's answers and simplex runs when each point tries the
    kept certificates, Farkas vectors and then feasible bases, in the order
    that `order` (a function of a list) gives them."""
    farkas, bases, out = [], [], []
    runs = exact.simplex_runs()
    for b in pts:
        if any(exact.vec_dot(y, b) > 0 for y in order(farkas)):
            out.append(False)
        elif any(exact._basis_decides(a, cert, b) for cert in order(bases)):
            out.append(True)
        else:
            x, _, basis = exact._simplex_feasible(a, b)
            if x is None:
                farkas.append(exact._farkas(a, b, basis))
            else:
                bases.append((*exact._basis_inverse(a, b, basis), tuple(basis)))
            out.append(x is not None)
    return out, exact.simplex_runs() - runs


def test_nonneg_feasible_does_not_depend_on_the_certificate_order():
    # systems shaped as above, their points in the given, reversed and a
    # shuffled order.  Every certificate is a sound proof, so the order in
    # which the kept ones are tried changes neither an answer nor which
    # points miss them all: nonneg_feasible's answers and simplex runs are
    # those of the kept, reversed and shuffled certificate orders.  The
    # point order itself may change the misses, not the answers
    rng = random.Random(19)
    shuffled = lambda xs: rng.sample(xs, len(xs))
    runs = 0
    for k in range(300):
        nr, nc = (4, 1 + k % 2) if k % 5 == 0 else (rng.randrange(1, 5), rng.randrange(1, 7))
        a = tuple(tuple(rng.randrange(-3, 4) for _ in range(nc)) for _ in range(nr))
        pts = [tuple(rng.randrange(-3, 4) for _ in range(nr)) if j % 2
               else mat_vec(a, [rng.randrange(3) for _ in range(nc)]) for j in range(20)]
        want = [nonneg_solve(a, b) is not None for b in pts]
        for order in (pts, pts[::-1], shuffled(pts)):
            before = exact.simplex_runs()
            got = nonneg_feasible(a, order)
            got_runs = exact.simplex_runs() - before
            assert list(got) == [want[pts.index(b)] for b in order], (a, order)
            for certs in (list, lambda xs: xs[::-1], shuffled):
                assert _ref_feasible(a, order, certs) == (list(got), got_runs), (a, order)
            runs += got_runs
    assert runs > 1000, runs


FEASIBLE, INFEASIBLE = (1, 1), (-1, 0)  # for A = [[1, 1], [0, 2]]


@pytest.mark.parametrize("change, b, solve_checks_it", [
    # a feasible point reported infeasible: its basis gives no Farkas vector
    (lambda x, d, basis, n: (None, d, basis), FEASIBLE, True),
    # an infeasible point reported feasible
    (lambda x, d, basis, n: ([0] * n, 1, basis), INFEASIBLE, True),
    # a singular basis
    (lambda x, d, basis, n: (x, d, basis[:1] * len(basis)), INFEASIBLE, True),
    # the starting, all-artificial basis certifies neither point; nonneg_solve
    # re-substitutes its x and reads no basis for a feasible point
    (lambda x, d, basis, n: (x, d, [n + i for i in range(len(basis))]), INFEASIBLE, True),
    (lambda x, d, basis, n: (x, d, [n + i for i in range(len(basis))]), FEASIBLE, False),
], ids=["feasible-as-infeasible", "infeasible-as-feasible", "singular-basis",
        "start-basis-infeasible", "start-basis-feasible"])
def test_a_wrong_simplex_verdict_or_basis_is_an_internal_error(monkeypatch, change, b,
                                                               solve_checks_it):
    a = [[1, 1], [0, 2]]
    real = exact._simplex_feasible
    monkeypatch.setattr(exact, "_simplex_feasible",
                        lambda rows, rhs: change(*real(rows, rhs), len(rows[0])))
    with pytest.raises(InternalError):
        nonneg_feasible(a, [b])
    if solve_checks_it:
        with pytest.raises(InternalError):
            nonneg_solve(a, b)
    else:
        assert nonneg_solve(a, b) is not None


def test_int_rref_and_the_simplex_share_one_pivot_step(monkeypatch):
    calls = []
    step = exact._bareiss_pivot

    def counted(rows, r, c, prev):
        calls.append((r, c))
        return step(rows, r, c, prev)

    monkeypatch.setattr(exact, "_bareiss_pivot", counted)
    int_rref([[2, -1], [-1, 2]])
    assert len(calls) == 2
    lp_feasible(((-2, 1), (1, -2)))
    assert len(calls) > 2
    before = len(calls)
    nonneg_solve([[1, 1], [0, 2]], (1, 1))
    assert len(calls) > before


def test_an_infeasible_lp_verdict_rests_on_a_farkas_vector(monkeypatch):
    # lp_feasible returned None on the simplex's word alone; a feasible LP
    # reported infeasible now fails the final basis's Farkas check
    prob = ((-2, 1), (1, -2))
    assert lp_feasible(prob) is not None
    real = exact._simplex_feasible
    monkeypatch.setattr(exact, "_simplex_feasible",
                        lambda rows, rhs: (None, *real(rows, rhs)[1:]))
    with pytest.raises(InternalError, match="phase-1 basis gives no Farkas certificate"):
        lp_feasible(prob)


def test_an_invalid_simplex_answer_is_caught(monkeypatch):
    # x = (0, 2) over d = 1 gives u = (1, 3), and the first row reads 1,
    # not < 0; x with its zero slacks does not re-substitute
    monkeypatch.setattr(exact, "_simplex_feasible", lambda rows, rhs: ([0, 2, 0, 0], 1, [1, 0]))
    with pytest.raises(InternalError, match="is not a certificate of x >= 0 with A x = b"):
        lp_feasible(((-2, 1), (1, -2)))


@pytest.mark.parametrize("solve, x, basis", [
    (lambda: nonneg_solve([[1, -1]], (0,)), [-1, -1], [0]),
    # u = (3, 1) reads A u = (-5, 1); the slack s_2 = -2 balances the second row
    (lambda: lp_feasible(((-2, 1), (1, -2))), [2, 0, 4, -2], [0, 2]),
], ids=["nonneg_solve", "lp_feasible"])
def test_a_negative_simplex_answer_that_re_substitutes_is_caught(solve, x, basis, monkeypatch):
    # each x solves its system A x = b and was returned with a negative entry
    monkeypatch.setattr(exact, "_simplex_feasible", lambda rows, rhs: (x, 1, basis))
    with pytest.raises(InternalError, match="is not a certificate of x >= 0 with A x = b"):
        solve()
