"""Exact rational and integer linear algebra plus LP feasibility.

One Gaussian elimination serves every rank and solve question: int_rref,
a fraction-free Gauss-Jordan elimination in Python ints.  rat_solve scales
each row of a rational system to integers and reads its answer off that one
elimination.  The other integer routines (smith_normal_form and the lattice
helpers) stay in Python ints too and never form a fraction; only the
simplex pivots over arbitrary-precision rationals (fractions.Fraction).  No
floating point is used anywhere in the package.  Matrices are dense tuples
of tuples, adequate for the small ranks this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Literal, Optional, Sequence

from .errors import InternalError

Rat = Fraction

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]
IntMat = tuple[IntVec, ...]
RatMat = tuple[RatVec, ...]

Relation = Literal["le", "eq", "lt"]


def int_mat(rows: Sequence[Sequence[int]]) -> IntMat:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def rat_mat(rows: Sequence[Sequence]) -> RatMat:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def primitive_ray(v: Sequence) -> IntVec:
    """Scale by a positive rational to a primitive integer vector (direction kept)."""
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)


def primitive(v: Sequence) -> IntVec:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    ints = list(primitive_ray(v))
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def int_rref(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], IntMat, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (pivots, rows, d).  `pivots` are the pivot columns in increasing
    order, i.e. the first columns, left to right, that are independent of
    the columns before them.  `rows` are the rank nonzero rows of d times
    the reduced row echelon form, and d > 0 is the common pivot (d = 1 for
    the zero matrix).  Column c of `rows` over d is thus the coordinate
    vector of column c of m in the pivot columns.

    The elimination is Bareiss's one-step fraction-free scheme (Bareiss
    1968) carried through the rows above the pivot too: every division is
    exact and every entry stays a minor of m, so no fraction is formed.
    The result re-substitutes exactly: m[:, pivots] * rows == d * m.
    """
    a = [list(row) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    prev = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(nr):
            if i != r:
                f = a[i][c]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = pv
        pivots.append(c)
    sign = -1 if prev < 0 else 1
    rows = tuple(tuple(sign * x for x in row) for row in a[:len(pivots)])
    d = sign * prev
    for row in m:
        if any(sum(row[p] * rr[j] for p, rr in zip(pivots, rows)) != d * row[j]
               for j in range(nc)):
            raise InternalError("int_rref fails to re-substitute")
    return tuple(pivots), rows, d


def rat_solve(m, b) -> Optional[tuple[RatVec, tuple[RatVec, ...]]]:
    """Solve M x = b exactly.

    Returns (particular solution, kernel basis) or None when the system is
    inconsistent.  The result re-substitutes exactly: M x == b holds
    identically.  Kernel basis vectors are scaled to primitive integers.

    Each row of [M | b] is scaled to integers and the whole goes through one
    `int_rref`: the system is inconsistent iff b is a pivot column, and x
    and the kernel are read off the reduced rows over the common pivot.
    """
    nc = len(m[0]) if m else 0
    pivots, rows, d = int_rref([primitive_ray(tuple(row) + (bi,)) for row, bi in zip(m, b)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for row, c in zip(rows, pivots):
        x[c] = Fraction(row[nc], d)
    kernel = []
    for fc in range(nc):
        if fc in pivots:
            continue
        v = [0] * nc
        v[fc] = d
        for row, c in zip(rows, pivots):
            v[c] = -row[fc]
        kernel.append(tuple(Fraction(z) for z in primitive(v)))
    sol = tuple(x)
    if mat_vec(m, sol) != tuple(Fraction(z) for z in b):
        raise InternalError("rat_solve solution fails to re-substitute")
    return sol, tuple(kernel)


def smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: U, D, V with U*M*V = D, U and V unimodular.

    D is diagonal with d_1 | d_2 | ... and nonnegative entries.  The identity
    U*M*V == D is asserted before returning.
    """
    a = [list(row) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [list(row) for row in identity(nr)]
    v = [list(row) for row in identity(nc)]

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # Pivot: smallest nonzero absolute value in the remaining block.
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # Enforce divisibility d_t | a[i][j] for the remaining block.
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    uu = tuple(tuple(row) for row in u)
    dd = tuple(tuple(row) for row in a)
    vv = tuple(tuple(row) for row in v)
    if mat_mul(mat_mul(uu, m), vv) != dd:
        raise InternalError("SNF identity U*M*V == D failed")
    return uu, dd, vv


def kernel_lattice_basis(m: IntMat) -> tuple[IntVec, ...]:
    """Basis of the saturated lattice {x in Z^nc : M x = 0}, via SNF."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nr == 0:
        return tuple(tuple(row) for row in identity(nc))
    _, d, v = smith_normal_form(m)
    cols = []
    for j in range(nc):
        dj = d[j][j] if j < nr else 0
        if dj == 0:
            cols.append(tuple(v[i][j] for i in range(nc)))
    return tuple(cols)


def saturate_span(vectors: Sequence[Sequence[int]], dim: int) -> tuple[IntVec, ...]:
    """Basis of the saturation (Q-span intersect Z^dim) of the given vectors.

    The saturation equals the kernel of the relations cutting out the span,
    so two SNF passes give a canonical saturated basis.
    """
    vs = [tuple(v) for v in vectors if any(v)]
    if not vs:
        return ()
    # Relations: integer functionals vanishing on the span.
    rel = kernel_lattice_basis(int_mat(vs))
    if not rel:
        return tuple(tuple(row) for row in identity(dim))
    return kernel_lattice_basis(int_mat(rel))


def lattice_coords(basis: Sequence[Sequence[int]], x: Sequence[int]) -> Optional[IntVec]:
    """Integer coordinates of x in a saturated lattice basis, or None off its span.

    The basis must be independent and saturated (its Z-span is its Q-span
    intersected with Z^n), as the bases of `saturate_span` and
    `kernel_lattice_basis` are.  A point of the span therefore has integer
    coordinates; a fractional one means the basis is not saturated and
    raises InternalError.
    """
    if not basis:
        return None if any(x) else ()
    sol = rat_solve(transpose(basis), tuple(x))
    if sol is None:
        return None
    coords, kernel = sol
    if kernel or any(c.denominator != 1 for c in coords):
        raise InternalError("lattice basis is not independent and saturated")
    return tuple(int(c) for c in coords)


@dataclass(frozen=True)
class LPProblem:
    """Homogeneous rational feasibility problem.

    Each row r of `matrix` is constrained by `relations[r]` against zero:
    'le' means (M u)_r <= 0, 'eq' means = 0, 'lt' means < 0.  When
    `strict_positive` is set every variable must satisfy u_i > 0.
    """

    matrix: RatMat
    relations: tuple[Relation, ...]
    strict_positive: bool = True

    def __post_init__(self):
        if not self.matrix or not self.matrix[0]:
            raise ValueError("need at least one variable")
        if len(self.relations) != len(self.matrix):
            raise ValueError("one relation per row required")
        if any(r not in ("le", "eq", "lt") for r in self.relations):
            raise ValueError("bad relation")


def lp_feasible(p: LPProblem) -> Optional[RatVec]:
    """Exact certificate u for an LPProblem, or None when infeasible.

    Strict relations are handled by margin normalization: the system is
    homogeneous, so u_i > 0 and (Mu)_r < 0 may be scaled to u_i >= 1 and
    (Mu)_r <= -1.  Phase-1 simplex with Bland's rule decides feasibility.
    The returned u satisfies every relation exactly, and still does after
    scaling to a primitive integer vector (`primitive`).
    """
    m = [list(row) for row in p.matrix]
    nr = len(m)
    nv = len(m[0])
    # Substitute u = 1 + x (x >= 0) when strictly positive, else u = xp - xm.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for r in range(nr):
        coeff = [Fraction(x) for x in m[r]]
        if p.strict_positive:
            base = sum(coeff)
            body = coeff
        else:
            base = Fraction(0)
            body = coeff + [-c for c in coeff]
        if p.relations[r] == "le":
            rows.append(body)
            rhs.append(-base)
            kinds.append("le")
        elif p.relations[r] == "eq":
            rows.append(body)
            rhs.append(-base)
            kinds.append("eq")
        else:  # strict: (Mu)_r <= -1
            rows.append(body)
            rhs.append(Fraction(-1) - base)
            kinds.append("le")
    width = nv if p.strict_positive else 2 * nv
    x = _simplex_feasible(rows, rhs, kinds, width)
    if x is None:
        return None
    if p.strict_positive:
        u = tuple(Fraction(1) + xi for xi in x[:nv])
    else:
        u = tuple(x[i] - x[nv + i] for i in range(nv))
    for r in range(nr):
        val = vec_dot(p.matrix[r], u)
        ok = {"le": val <= 0, "eq": val == 0, "lt": val < 0}[p.relations[r]]
        if not ok or (p.strict_positive and any(ui <= 0 for ui in u)):
            raise InternalError("simplex returned an invalid certificate")
    return u


def _simplex_feasible(rows, rhs, kinds, width) -> Optional[list[Fraction]]:
    nr = len(rows)
    # Normalize b >= 0, tracking slack signs.
    slack_sign = []
    for i in range(nr):
        s = Fraction(1)
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            s = Fraction(-1)
        slack_sign.append(s if kinds[i] == "le" else Fraction(0))
    ns = sum(1 for k in kinds if k == "le")
    total = width + ns + nr
    tab = [[Fraction(0)] * (total + 1) for _ in range(nr)]
    si = 0
    basis = [0] * nr
    for i in range(nr):
        for j in range(width):
            tab[i][j] = rows[i][j]
        if kinds[i] == "le":
            tab[i][width + si] = slack_sign[i]
            si += 1
        tab[i][width + ns + i] = Fraction(1)
        tab[i][total] = rhs[i]
        basis[i] = width + ns + i
    # Objective: minimize sum of artificials -> reduced cost row.
    obj = [Fraction(0)] * (total + 1)
    for i in range(nr):
        for j in range(total + 1):
            obj[j] += tab[i][j]
    for k in range(width + ns, total):
        obj[k] = Fraction(0)
    while True:
        enter = next((j for j in range(width + ns) if obj[j] > 0), None)
        if enter is None:
            break
        # Bland: smallest eligible entering index; ratio test, ties by index.
        leave = None
        best = None
        for i in range(nr):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalError("phase-1 objective unbounded")
        pv = tab[leave][enter]
        tab[leave] = [v / pv for v in tab[leave]]
        for i in range(nr):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[total] != 0:
        return None
    x = [Fraction(0)] * (width + ns)
    for i in range(nr):
        if basis[i] < width + ns:
            x[basis[i]] = tab[i][total]
        elif tab[i][total] != 0:
            return None  # artificial stuck at a positive level
    return x[:width]


def nonneg_solve(a: Sequence[Sequence], b: Sequence) -> Optional[RatVec]:
    """Some x >= 0 with A x = b, or None.  Phase-1 simplex, exact."""
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    width = len(rows[0]) if rows else 0
    x = _simplex_feasible(rows, rhs, ["eq"] * len(rows), width)
    if x is None:
        return None
    sol = tuple(x)
    if mat_vec(a, sol) != tuple(Fraction(z) for z in b):
        raise InternalError("nonneg_solve solution fails to re-substitute")
    return sol
