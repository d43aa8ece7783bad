"""Exact rational and integer linear algebra plus LP feasibility.

One fraction-free pivot step (`_bareiss_pivot`, Bareiss 1968) serves both
the Gauss-Jordan elimination `int_rref` and the phase-1 simplex, so every
elimination runs in Python ints.  rat_solve scales each row of a rational
system to integers and reads its answer off one `int_rref`; the simplex
keeps an integer tableau over its last pivot.  The other integer routines
stay in Python ints too, and a Fraction is formed only where a rational
number is the answer.  No floating point is used anywhere in the package.
Matrices are dense tuples of tuples, adequate for the small ranks this
library targets.

`kernel_lattice_basis` gives the saturated lattice cut out by a set of
integer rows from one unimodular column reduction (`_echelon_columns`):
`toric` reads each face of a lattice monoid off its core
`_kernel_lattice_basis`, which reads nothing.  The Smith normal form
runs the same reduction on columns and rows in turn; no library route
calls it.  The Tits-cone faces of `monoids`' T-hat need no such routine,
as a face w R(Theta) has the basis w Lambda_j (j not in Theta) in closed
form.  `character` reads t(x) = prod t_i ** x_i fraction-free for both
Hom monoids (T-hat and `toric`'s M-hat); an element that keeps its torus
element t reads its values through `character` and needs no coordinates
in the face lattice.

Every answer of the one simplex, `_simplex_feasible`, to its one question,
some x >= 0 with A x = b, is certified: a feasible x is checked >= 0 and
re-substituted (`_nonneg_solve`), or read off a basis B whose `int_rref`
proved B (d B^{-1}) = d I, and an infeasible end yields, from its final
basis B, the Farkas vector y = c_B^T B^{-1} with y . A <= 0 < y . b
(Farkas' lemma), checked before it is believed.  The library's one LP,
Vinberg's indefinite system u > 0 with A u < 0 (`lp_feasible`), reduces to
that question.  `nonneg_feasible` keeps these certificates, Farkas vectors
and feasible bases alike, and reuses them for every later right-hand side
they decide, so one simplex run answers many points of one matrix.  A
certificate that fails its check is an InternalError.
`simplex_runs()` counts the runs of the process.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import InternalError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]
IntMat = tuple[IntVec, ...]


def _exact_int(x) -> int:
    """x as a Python int: an int, or a Fraction with denominator 1; anything
    else is a ValueError, so nothing is truncated."""
    if type(x) is int:
        return x
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    raise ValueError(f"matrix entry {x!r} is not an integer")


def int_mat(rows: Sequence[Sequence]) -> IntMat:
    m = tuple(tuple(_exact_int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_dot(u, v):
    return sum(map(mul, u, v))


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def primitive_ray(v: Sequence) -> IntVec:
    """Scale by a positive rational to a primitive integer vector (direction kept).

    Entries are ints or Fractions; both carry `numerator` and `denominator`.
    """
    v = tuple(v)
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
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


def _bareiss_pivot(rows: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan step on the pivot rows[r][c] (Bareiss 1968).

    Every other row becomes (pv * row - row[c] * rows[r]) // prev, where pv
    is the pivot and prev the pivot of the step before (1 at the start).
    Every entry stays a minor of the starting matrix, so the division is
    exact; row r is kept.  A row with row[c] = 0 becomes pv * row // prev,
    and is kept when pv = prev.  Returns pv: the matrix over pv is the
    reduced one.
    """
    prow = rows[r]
    pv = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f:
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
            elif pv != prev:
                rows[i] = [pv * x // prev for x in row]
    return pv


def int_rref(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], IntMat, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (pivots, rows, d).  `pivots` are the pivot columns in increasing
    order, i.e. the first columns, left to right, that are independent of
    the columns before them.  `rows` are the rank nonzero rows of d times
    the reduced row echelon form, and d > 0 is the common pivot (d = 1 for
    the zero matrix).  Column c of `rows` over d is thus the coordinate
    vector of column c of m in the pivot columns.

    Each pivot is one `_bareiss_pivot`, carried through the rows above the
    pivot too, so no fraction is formed.
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
        prev = _bareiss_pivot(a, r, c, prev)
        pivots.append(c)
    sign = -1 if prev < 0 else 1
    rows = tuple(tuple(sign * x for x in row) for row in a[:len(pivots)])
    d = sign * prev
    # rows is d I at the pivot columns, so m[:, pivots] * rows == d * m holds
    # there and is multiplied out at the free columns alone
    for t, rr in enumerate(rows):
        unit = [rr[p] for p in pivots]
        if unit[t] != d or unit.count(0) != len(unit) - 1:
            raise InternalError("int_rref rows are not d I at the pivot columns")
    free = [(j, [rr[j] for rr in rows]) for j in range(nc) if j not in pivots]
    for row in m:
        at = [row[p] for p in pivots]
        if any(sum(map(mul, at, col)) != d * row[j] for j, col in free):
            raise InternalError("int_rref fails to re-substitute")
    return tuple(pivots), rows, d


def rat_solve(m, b) -> Optional[tuple[RatVec, tuple[RatVec, ...]]]:
    """Solve M x = b exactly.

    Returns (particular solution, kernel basis) or None when the system is
    inconsistent.  Kernel basis vectors are scaled to primitive integers.
    A b without one entry per row of M is a ValueError.

    Each row of [M | b] is scaled to integers and the whole goes through one
    `int_rref`: the system is inconsistent iff b is a pivot column, and x
    and the kernel are read off the reduced rows over the common pivot.
    M x == b needs no re-substitution: `int_rref` has checked
    m'[:, P] rows == d m' on every free column, b's column included, and
    each row of m' is a positive multiple of [row | b_i].
    """
    if len(b) != len(m):
        raise ValueError(f"right-hand side needs {len(m)} entries, one per row")
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
    return tuple(x), tuple(kernel)


def _echelon_columns(cols: list, track: list) -> int:
    """Unimodular column reduction of the matrix with columns `cols`, in
    place, each column operation applied to `track` too; returns the rank r.

    Row by row, the unpivoted column with the smallest nonzero entry in the
    row becomes the pivot and moves to the front of the unpivoted ones, and
    every other one loses its floor quotient times the pivot, until the row
    is zero past it; the pivot is then made positive.  Columns r.. end zero.
    Each remainder is smaller than its pivot, so from pass to pass of a row
    the pivot shrinks strictly until it is the one live column; a pass with
    two or more live columns whose pivot did not shrink is an InternalError.
    A zero column is never a pivot and loses nothing, so a later pass over
    the result moves and changes none of the columns r.. .
    """
    rank = 0
    for i in range(len(cols[0]) if cols else 0):
        size = None  # the pivot's size in the row's last pass
        while live := [j for j in range(rank, len(cols)) if cols[j][i]]:
            p = min(live, key=lambda j: abs(cols[j][i]))
            cols[rank], cols[p], track[rank], track[p] = cols[p], cols[rank], track[p], track[rank]
            pc, pt = cols[rank], track[rank]
            if len(live) == 1:
                if pc[i] < 0:
                    cols[rank], track[rank] = [-x for x in pc], [-x for x in pt]
                rank += 1
                break
            if size is not None and abs(pc[i]) >= size:
                raise InternalError("a column reduction pass did not shrink its pivot")
            size = abs(pc[i])
            for j in range(rank + 1, len(cols)):
                if q := cols[j][i] // pc[i]:
                    cols[j] = [x - q * y for x, y in zip(cols[j], pc)]
                    track[j] = [x - q * y for x, y in zip(track[j], pt)]
    return rank


def smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: U, D, V with U*M*V = D, U and V unimodular.

    D is diagonal with d_1 | d_2 | ... and nonnegative entries.  The matrix
    goes through `_echelon_columns` on its columns (tracking V) and on its
    rows (tracking U's rows) in turn until it is diagonal; where d_s does
    not divide d_{s+1}, row s + 1 is added to row s and it is reduced again.
    The first step is `kernel_lattice_basis`'s reduction, so V's columns at
    zero diagonal entries are its basis.  U*M*V == D is asserted.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rows, u, v = list(m), list(identity(nr)), list(identity(nc))
    while True:
        cols = [[row[j] for row in rows] for j in range(nc)]
        rank = _echelon_columns(cols, v)
        rows = [[col[i] for col in cols] for i in range(nr)]
        _echelon_columns(rows, u)
        if any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j):
            continue
        s = next((s for s in range(rank - 1) if rows[s + 1][s + 1] % rows[s][s]), None)
        if s is None:
            break
        rows[s] = [x + y for x, y in zip(rows[s], rows[s + 1])]
        u[s] = [x + y for x, y in zip(u[s], u[s + 1])]
    uu, dd, vv = tuple(map(tuple, u)), tuple(map(tuple, rows)), transpose(v)
    if mat_mul(mat_mul(uu, m), vv) != dd:
        raise InternalError("SNF identity U*M*V == D failed")
    return uu, dd, vv


def kernel_lattice_basis(rows: Sequence[Sequence[int]], dim: int) -> tuple[IntVec, ...]:
    """Saturated basis of the lattice {x in Z^dim : R x = 0}: one
    `_echelon_columns` of R's columns, tracking V = I, leaves R V zero past
    its rank r, so V's columns from r on are a basis, V being unimodular
    (H. Cohen, A Course in Computational Algebraic Number Theory, 1993,
    section 2.4).  Each is checked to be killed by R (InternalError).  No
    rows give the standard basis of Z^dim."""
    m = int_mat(rows)
    if m and len(m[0]) != dim:
        raise ValueError(f"kernel rows have {len(m[0])} entries, not {dim}")
    return _kernel_lattice_basis(m, dim)


def _kernel_lattice_basis(m: Sequence[IntVec], dim: int) -> tuple[IntVec, ...]:
    """`kernel_lattice_basis` of rows of dim ints already read: it reads
    nothing.  `toric` reads its lattices off it, on rows it built itself."""
    if not m:
        return identity(dim)
    v = list(identity(dim))
    basis = tuple(map(tuple, v[_echelon_columns(list(zip(*m)), v):]))
    if any(vec_dot(row, b) for b in basis for row in m):
        raise InternalError("a kernel basis vector is not killed by the rows")
    return basis


def character(t: Sequence[Fraction], x: Sequence[int]) -> Fraction:
    """t(x) = prod t_i ** x_i for nonzero rationals t (Fractions or ints) and
    an integer vector x of the same length: one integer numerator and one
    denominator, each a product of powers of the numerators and denominators
    of t, and one Fraction at the end."""
    num = den = 1
    for tv, c in zip(t, x):
        if c > 0:
            num *= tv.numerator ** c
            den *= tv.denominator ** c
        elif c < 0:
            num *= tv.denominator ** -c
            den *= tv.numerator ** -c
    return Fraction(num, den)


def _int_rows(m: Sequence[Sequence], what: str) -> None:
    """ValueError unless m is a rectangular matrix of Python ints; none is
    truncated, and no row is dropped or zipped short."""
    if any(type(x) is not int for row in m for x in row):
        raise ValueError(f"{what} must have integer entries")
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError(f"{what} is ragged")


def _nonneg_input(a: Sequence[Sequence], points: Sequence[Sequence],
                  what: str) -> tuple[IntMat, tuple[IntVec, ...]]:
    """A and the right-hand sides as int tuples, once A is a rectangular int
    matrix and each right-hand side has one int per row of A; else
    ValueError."""
    a = tuple(tuple(row) for row in a)
    points = tuple(tuple(b) for b in points)
    _int_rows(a, f"{what} matrix")
    _int_rows(points, f"{what} right-hand side")
    if any(len(b) != len(a) for b in points):
        raise ValueError(f"{what} right-hand side needs {len(a)} entries, one per row")
    return a, points


def lp_feasible(matrix: Sequence[Sequence[int]]) -> Optional[RatVec]:
    """Some u > 0 with A u < 0, Vinberg's indefinite system (Kac,
    Infinite-dimensional Lie algebras, Thm. 4.3), or None when there is
    none.  A ragged A, an entry that is not a Python int, or an A with no
    column is a ValueError.

    The system is homogeneous, so u may be scaled to u = 1 + x with x >= 0
    and A u <= -1: one `_nonneg_solve` of A x + s = -A 1 - 1, with one slack
    s_r >= 0 per row after the variables.  Its certificate proves x, s >= 0
    and A x + s = -A 1 - 1, so A u = A 1 + A x = -1 - s <= -1 < 0 and
    u = 1 + x >= 1 > 0; u needs no check of its own, and stays a solution
    when scaled to a primitive integer vector (`primitive`).  None rests on
    the final basis's Farkas vector (`_farkas`).
    """
    matrix = tuple(tuple(row) for row in matrix)
    if not matrix or not matrix[0]:
        raise ValueError("need at least one variable")
    _int_rows(matrix, "LP matrix")
    rows = tuple(row + e for row, e in zip(matrix, identity(len(matrix))))
    x = _nonneg_solve(rows, tuple(-sum(row) - 1 for row in matrix))
    return None if x is None else tuple(1 + xi for xi in x[:len(matrix[0])])


_simplex_runs = 0  # `_simplex_feasible` runs in this process


def simplex_runs() -> int:
    """How many phase-1 simplex runs this process has made; `kmx verify
    --timings` reports the count per check."""
    return _simplex_runs


def _simplex_feasible(rows, rhs) -> tuple[Optional[list[int]], int, list[int]]:
    """Phase-1 simplex on an integer tableau: some x >= 0 with A x = b, as
    (numerators, d, basis) with x = numerators / d, or (None, d, basis) when
    there is none.  `basis` is the final basic index of each row, the
    certificate `_basis_inverse` reads.

    The columns are the variables and b; row i's artificial basic variable
    has index width + i and never re-enters, so its column is not stored.
    The phase-1 objective is pivoted alongside as the last row.  Each pivot
    is one `_bareiss_pivot`, so the tableau is the integer one over the
    last pivot d > 0.  Bland's rule picks the entering column; the ratio
    test compares by cross-multiplying, ties to the smaller basic index.
    The last row's b entry is d times the phase-1 objective, the sum of the
    basic artificials' values, each nonnegative; so when it ends at zero,
    every artificial still basic sits at zero and x solves A x = b.
    """
    global _simplex_runs
    _simplex_runs += 1
    nr = len(rows)
    width = len(rows[0]) if rows else 0
    tab = []
    for row, b in zip(rows, rhs):
        s = -1 if b < 0 else 1  # keep b >= 0
        tab.append([s * v for v in row] + [s * b])
    tab.append([sum(t[j] for t in tab) for j in range(width + 1)])
    basis = list(range(width, width + nr))
    d = 1
    while True:
        enter = next((j for j in range(width) if tab[nr][j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(nr):
            e = tab[i][enter]
            if e > 0 and (leave is None or (tab[i][-1] * tab[leave][enter], basis[i])
                          < (tab[leave][-1] * e, basis[leave])):
                leave = i
        if leave is None:
            raise InternalError("phase-1 objective unbounded")
        d = _bareiss_pivot(tab, leave, enter, d)
        basis[leave] = enter
    if tab[nr][-1] != 0:
        return None, d, basis
    x = [0] * width
    for i in range(nr):
        if basis[i] < width:
            x[basis[i]] = tab[i][-1]
    return x, d, basis


def _basis_inverse(a: IntMat, b: IntVec, basis: Sequence[int]) -> tuple[IntMat, int]:
    """(d B^{-1}, d) for a final basis of `_simplex_feasible` on A x = b.

    B is that basis in the original system: column a_k for a structural
    index k, and s_i e_i for row i's artificial, where s_i = -1 if b_i < 0
    else 1 is the sign the simplex normalised row i with.  One `int_rref` of
    [B | I] gives [d I | d B^{-1}]; a singular B is an InternalError.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    sign = [-1 if bi < 0 else 1 for bi in b]
    rows = [[row[k] if k < n else (sign[i] if k - n == i else 0) for k in basis]
            + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    pivots, red, d = int_rref(rows)
    if pivots != tuple(range(m)):
        raise InternalError("the simplex's final basis is singular")
    return tuple(row[m:] for row in red), d


def _farkas(a: IntMat, b: IntVec, basis: Sequence[int]) -> IntVec:
    """The Farkas vector of an infeasible phase-1 end on A x = b: y = d c_B^T
    B^{-1} (`_basis_inverse`), where c is 1 on the artificials.

    InternalError unless y . a_j <= 0 for every column a_j and y . b > 0,
    which proves that no x >= 0 has A x = b (Schrijver, Theory of Linear and
    Integer Programming, 1986, section 7.3); y then decides every b' with
    y . b' > 0 the same way.
    """
    inv, _ = _basis_inverse(a, b, basis)
    n = len(a[0]) if a else 0
    y = (0,) * len(a)
    for row, k in zip(inv, basis):
        if k >= n:
            y = vec_add(y, row)
    if vec_dot(y, b) <= 0 or any(vec_dot(y, col) > 0 for col in zip(*a)):
        raise InternalError("phase-1 basis gives no Farkas certificate")
    return y


def _basis_decides(a: IntMat, cert: tuple[IntMat, int, tuple[int, ...]], b: IntVec) -> bool:
    """Whether a feasible basis certificate (d B^{-1}, d, basis) proves that
    some x >= 0 has A x = b: z = d B^{-1} b must be >= 0 and zero at the
    artificial positions.  Then x with x_{basis[r]} = z_r / d is one, with
    no re-substitution: `_basis_inverse`'s `int_rref` proved
    B (d B^{-1}) = d I, so A (d x) = B z = d b."""
    inv, _, basis = cert
    n = len(a[0]) if a else 0
    for row, k in zip(inv, basis):
        z = vec_dot(row, b)
        if z < 0 or (z and k >= n):
            return False
    return True


def _nonneg_solve(a: IntMat, b: IntVec) -> Optional[RatVec]:
    """Some x >= 0 with A x = b, or None, for an int matrix A and an int b
    with one entry per row: one `_simplex_feasible` run.  A feasible x must
    be >= 0 and re-substitute, A (d x) = d b, and None rests on the final
    basis's Farkas vector (`_farkas`); an answer that fails its check is an
    InternalError."""
    x, d, basis = _simplex_feasible(a, b)
    if x is None:
        _farkas(a, b, basis)
        return None
    sol = tuple(Fraction(xi, d) for xi in x)
    if min(sol, default=0) < 0 or mat_vec(a, x) != vec_scale(d, b):
        raise InternalError("the simplex's x is not a certificate of x >= 0 with A x = b")
    return sol


def nonneg_solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[RatVec]:
    """Some x >= 0 with A x = b, or None, certified by `_nonneg_solve`.  A
    ragged A, a right-hand side whose length is not the row count, or an
    entry that is not a Python int is a ValueError."""
    a, (b,) = _nonneg_input(a, (b,), "nonneg_solve input")
    return _nonneg_solve(a, b)


def nonneg_feasible(a: Sequence[Sequence[int]],
                    points: Sequence[Sequence[int]]) -> tuple[bool, ...]:
    """For each b of `points`, whether some x >= 0 has A x = b.

    Every answer rests on an exact certificate, and a certificate serves
    every later point it also decides.  A point that no kept certificate
    decides is a miss: one `_simplex_feasible` run.  An infeasible end keeps
    its Farkas vector y (`_farkas`), which decides b False when y . b > 0.
    A feasible end keeps (d B^{-1}, d, basis) (`_basis_inverse`), which
    decides b True when `_basis_decides` reads an x >= 0 off it.
    A certificate that decides a point moves to the front of its list, so
    neighbouring points try it first; each is a sound proof, so the order
    changes neither an answer nor a miss.  A miss that its own certificate
    does not decide is an InternalError.
    Input is checked as in `nonneg_solve`, and answered by the core
    `_nonneg_feasible`.
    """
    return _nonneg_feasible(*_nonneg_input(a, points, "nonneg_feasible input"))


def _nonneg_feasible(a: IntMat, points: Sequence[IntVec]) -> tuple[bool, ...]:
    """`nonneg_feasible` for an int matrix A and int points with one entry
    per row, read by `_nonneg_input` or built by kmx: it reads nothing."""
    farkas: list[IntVec] = []
    bases: list[tuple[IntMat, int, tuple[int, ...]]] = []

    def decide(b: IntVec) -> Optional[bool]:
        for k, y in enumerate(farkas):
            if vec_dot(y, b) > 0:
                farkas.insert(0, farkas.pop(k))
                return False
        for k, cert in enumerate(bases):
            if _basis_decides(a, cert, b):
                bases.insert(0, bases.pop(k))
                return True
        return None

    out = []
    for b in points:
        found = decide(b)
        if found is None:
            x, _, basis = _simplex_feasible(a, b)
            if x is None:
                farkas.append(_farkas(a, b, basis))
            else:
                bases.append((*_basis_inverse(a, b, basis), tuple(basis)))
            found = decide(b)
            if found is not (x is not None):
                raise InternalError("a phase-1 certificate does not decide its own point")
        out.append(found)
    return tuple(out)
