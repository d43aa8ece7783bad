"""Reference eliminations over Fraction, kept for the tests only.

These are the Gaussian eliminations the package used before `exact.int_rref`
became its only one: rank, determinant and solve over Fraction, and the
realization completion that called `rank` once per simple root.  Tests
compare the package against them, so that no reference rests on
`int_rref` itself.
"""

from fractions import Fraction
from typing import Optional

from kmx.errors import InternalError
from kmx.exact import RatVec, mat_vec, primitive


def rank(m) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    rows = [list(map(Fraction, row)) for row in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    return r


def det(m) -> Fraction:
    rows = [list(map(Fraction, row)) for row in m]
    n = len(rows)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        pv = rows[c][c]
        d *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * d


def rat_solve(m, b) -> Optional[tuple[RatVec, tuple[RatVec, ...]]]:
    """Solve M x = b exactly.

    Returns (particular solution, kernel basis) or None when the system is
    inconsistent.  The result re-substitutes exactly: M x == b holds
    identically.  Kernel basis vectors are scaled to primitive integers.
    """
    rows = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(m, b)]
    nr = len(rows)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if rows[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = rows[i][nc]
    free = [c for c in range(nc) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fc]
        kernel.append(tuple(Fraction(z) for z in primitive(v)))
    sol = tuple(x)
    if mat_vec(m, sol) != tuple(Fraction(z) for z in b):
        raise InternalError("rat_solve solution fails to re-substitute")
    return sol, tuple(kernel)



def completion(a):
    """Simple roots of the canonical realization of A (n x n, rank l) in
    2n - l coordinates: column i of A, plus one extra unit coordinate when
    it is dependent on the completed rows before it."""
    n = len(a)
    m = 2 * n - rank(a)
    alpha: list[list[int]] = []
    basis_rows: list[list[Fraction]] = []
    extra = 0
    for i in range(n):
        row = [a[j][i] for j in range(n)] + [0] * (m - n)
        cand = basis_rows + [[Fraction(x) for x in row]]
        if rank(cand) == len(cand):
            basis_rows.append([Fraction(x) for x in row])
        else:
            row[n + extra] = 1
            extra += 1
            basis_rows.append([Fraction(x) for x in row])
        alpha.append(row)
    if extra != m - n or rank(alpha) != n:
        raise InternalError("realization completion failed")
    return tuple(tuple(r) for r in alpha)
