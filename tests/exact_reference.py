"""Reference eliminations over Fraction, kept for the tests only.

These are the Gaussian eliminations the package used before its one
fraction-free pivot step served them all: rank, determinant and solve over
Fraction, the realization completion that called `rank` once per simple
root, and the phase-1 simplex on a Fraction tableau behind `lp_feasible`
and `nonneg_solve`.  Tests compare the package against them, so that no
reference rests on the integer pivot itself.

Beside them sits Peterson's recurrence for root multiplicities, which the
package used before it read them off the Weyl denominator; it rests on the
invariant form alone, not on the Weyl group.  After it comes Freudenthal's
recursion for weight multiplicities in the pull form the package used
before it pushed each nonzero multiplicity up: every composition b reads
every mult(b - k alpha).  Then come the torus character
and the torus action as a product of Fraction powers, which the package
used before it kept one integer numerator and one denominator.

Then come the dense word matrix and the probe comparison the package used
before one height-ordered column pass served them: `evaluate_word` applies
the word to each basis vector of the column window in turn, and
`probe_equal` builds both words' dense Fraction matrices and scans them
row by row.  Beside them, `run_word` is the raw word pass as the package
ran it before it kept the matrix of each lift n_i per weight space: every
N(i) letter runs the three exponentials exp(e_i) exp(-f_i) exp(e_i) on the
whole vector.

Last come the lattice helpers the package used before each face lattice
became the saturated kernel of its normals and each Hom-monoid element
kept its torus element: `saturate_span` saturates the span of a set of
vectors by two Smith normal forms, and `eval_character` reads a character
given by its values on a saturated basis through the point's coordinates
in that basis (`lattice_coords`, one rational solve, which `same_lattice`
reads both ways).  Beside them, `toric_faces` builds a lattice monoid's
face list the way the package did before each face's dimension came from
one elimination: one Smith normal form per face, the faces sorted by (hull
size, ray set).  These helpers run the package's `exact.smith_normal_form`,
whose V holds the package's kernel basis at its zero diagonal entries, so
`toric_faces` reads the hulls the package reads.  Beside them,
`smith_normal_form` is the Smith normal form as the package ran it before
one column reduction (`exact._echelon_columns`) served it and the
saturated kernel: each pivot is the smallest entry of the whole remaining
block.  Its D and its kernel lattices are the reference for the
package's.

At the end sits the cell of a factored word as the package read it before
it multiplied in the Weyl monoid: `bruhat_cell` folds the normalizer
letters in N-hat, torus letters and their cocycles included, and sends the
product to W-hat by kappa at the end; a lowering letter after the block is
tested against the N-hat product's own face.

Then `dominant_rep` is the walk to the dominant chamber as the
package ran it before it walked in ints: it reflects a Fraction weight and
pairs it with every exposing coweight anew at each step.

Then `special_sets` is the enumeration the package ran before it
typed each connected subset once: every subset in (size, lex) order, each
one read and classified by `cartan.is_special`.

Then `component_type` is the typing the package ran before it read the
type off the leading minors of the symmetrized matrix: three simplex runs,
one per Vinberg system (A u > 0, A u = 0, A u < 0 with u > 0), of which
exactly one must be feasible.

Last of all, `scanned_root_multiplicities` is the Weyl-denominator
recurrence as the package ran it before it looked each g_{b - delta} up:
every delta of the denominator is compared with b entry by entry.  It pulls
each g_b at every composition b of every height, where the package pushes
each nonzero g_b to the b + delta above it and visits only the b that
receive a term.  `_compositions`, the lexicographic walk over the
compositions of a height, lives here now: the three pull-form references
(Peterson's recurrence, Freudenthal's recursion and this scan) share it,
and the package walks no compositions.

After it, `min_double_coset` is the double coset walk as the package ran
it before one left walk and one right walk served: it alternates the two
one-sided minimal representatives until a round moves the element no more.

Then `nelt_mul` is the normalizer product as the package ran it before it
read the cocycle as a parity vector: each left descent i met while n_w's
letters are folded into n_v multiplies the torus part by the Fraction torus
v'^{-1} t_{h_i}(-1), m characters of its own.

Last, `that_normalize` and `nhat_canonical` are the torus-monoid normal
forms as the package ran them before it read a face's lattice off its
normal form: the saturated basis of span(R) cap P is the kernel of the
face's normals by one Smith normal form per call, and the residual of
n_w t e(R) is found through the centralizer lift m = n_{w_R} n_vbar
n_{w_R}^{-1} of the leftover v = w_R vbar w_R^{-1}, read as v(s0 b) on
that basis.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from kmx import exact, monoids as MO, weyl as W
from kmx.cartan import (GCM, SPECIAL_SET_RANK_GUARD, ComponentType, RootDatum, check_index,
                        exact_ints, exact_rationals, is_special)
from kmx.errors import (DomainError, InternalError, NotFactored, NotInTitsCone, SizeGuard,
                        Undecided)
from kmx.exact import (IntMat, IntVec, RatVec, identity, int_mat, mat_mul,
                       mat_vec, primitive, vec_dot)
from kmx import highest_weight as HW
from kmx.highest_weight import Beta


def _compositions(n: int, h: int) -> list[Beta]:
    """All b in Z_{>=0}^n with sum h, in lexicographic order."""
    out = []

    def rec(pos, left, acc):
        if pos == n - 1:
            out.append(tuple(acc + [left]))
            return
        for k in range(left + 1):
            rec(pos + 1, left - k, acc + [k])

    rec(0, h, [])
    return out


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


def lp_feasible(matrix, relations) -> Optional[RatVec]:
    """Certificate u > 0 with (M u)_r <= 0, = 0 or < 0 per relation
    ('le', 'eq', 'lt'), or None; u = 1 + x with x >= 0 on a Fraction tableau."""
    m = [list(row) for row in matrix]
    nr = len(m)
    nv = len(m[0])
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for r in range(nr):
        coeff = [Fraction(x) for x in m[r]]
        base = sum(coeff)
        body = coeff
        if relations[r] == "le":
            rows.append(body)
            rhs.append(-base)
            kinds.append("le")
        elif relations[r] == "eq":
            rows.append(body)
            rhs.append(-base)
            kinds.append("eq")
        else:  # strict: (Mu)_r <= -1
            rows.append(body)
            rhs.append(Fraction(-1) - base)
            kinds.append("le")
    x = _simplex_feasible(rows, rhs, kinds, nv)
    if x is None:
        return None
    return tuple(Fraction(1) + xi for xi in x[:nv])


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


def nonneg_solve(a, b) -> Optional[RatVec]:
    """Some x >= 0 with A x = b, or None.  Phase-1 simplex, exact."""
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    width = len(rows[0]) if rows else 0
    x = _simplex_feasible(rows, rhs, ["eq"] * len(rows), width)
    if x is None:
        return None
    return tuple(x)


# -- root multiplicities (Peterson recurrence) -----------------------------------


def _form(bmat, b1: Beta, b2: Beta) -> Fraction:
    """(b1 | b2) on the root lattice, with bmat[i][j] = (alpha_i | alpha_j)
    (the symmetrized matrix B = gcm.b)."""
    n = len(b1)
    return sum(bmat[i][j] * b1[i] * b2[j] for i in range(n) for j in range(n)
               if b1[i] and b2[j])


def _weight_form(eps, wt: Sequence[int], b: Beta) -> Fraction:
    """(wt | b) = sum_i wt(h_i) b_i / eps_i; wt = rho = (1, ..., 1) gives
    (rho | b)."""
    return sum(Fraction(wt[i] * b[i]) / eps[i] for i in range(len(b)))


def root_multiplicities(datum: RootDatum, max_height: int) -> dict[Beta, int]:
    """Multiplicities of positive roots up to the given height.

    Peterson's recurrence over the root cone: with c_b = sum_k mult(b/k)/k,
    (b | b - 2 rho) c_b = sum over proper decompositions b' + b'' = b of
    (b' | b'') c_b' c_b''.  Where (b | b - 2 rho) = 0, b is not a root and
    c_b is the sum over k >= 2 alone.  Real roots come out with multiplicity
    one, which the test suite spot-checks against the Weyl orbit of the
    simple roots.  Unlike the package routine it keeps no cache on the
    datum, so a comparison never reads its own answer back.
    """
    n = datum.n
    bmat, eps, rho = datum.gcm.b, datum.gcm.eps, datum.rho()
    c: dict[Beta, Fraction] = {}
    mult: dict[Beta, int] = {}
    for h in range(1, max_height + 1):
        for b in _compositions(n, h):
            if h == 1:
                c[b] = Fraction(1)
                mult[b] = 1
                continue
            coeff = _form(bmat, b, b) - 2 * _weight_form(eps, rho, b)
            total = Fraction(0)
            for b1 in _proper_summands(b):
                b2 = tuple(x - y for x, y in zip(b, b1))
                cb1 = c.get(b1, Fraction(0))
                cb2 = c.get(b2, Fraction(0))
                if cb1 and cb2:
                    total += _form(bmat, b1, b2) * cb1 * cb2
            # the part of c_b that comes from proper divisors b/k, k >= 2
            below = sum((Fraction(mult.get(tuple(x // k for x in b), 0), k)
                         for k in range(2, h + 1) if all(x % k == 0 for x in b)),
                        Fraction(0))
            if coeff == 0:
                # b is not a root (e.g. b = 2 theta in A2), but c_b still
                # carries the multiples below it
                if total != 0:
                    raise InternalError("Peterson coefficient vanished unexpectedly")
                c[b] = below
                mult[b] = 0
                continue
            cb = total / coeff
            m = cb - below
            if m.denominator != 1 or m < 0:
                raise InternalError(f"root multiplicity {m} at {b} is not a natural number")
            c[b] = cb
            mult[b] = int(m)
    return {b: m for b, m in mult.items() if m > 0}


def _proper_summands(b: Beta):
    n = len(b)
    def rec(pos, acc, nonzero):
        if pos == n:
            if nonzero and any(x < y for x, y in zip(acc, b)):
                yield tuple(acc)
            return
        for k in range(b[pos] + 1):
            yield from rec(pos + 1, acc + [k], nonzero or k > 0)
    yield from rec(0, [], False)


# -- weight multiplicities (Freudenthal in pull form) -----------------------------


def weights_and_mults(datum: RootDatum, hw: Sequence[int], depth: int,
                      *, max_depth: Optional[int] = None) -> dict[IntVec, int]:
    """Exact weight multiplicities of L(hw) down to the given depth.

    Freudenthal's recursion in the pull form the package used before it
    pushed each nonzero multiplicity to the b above it: every composition b
    of every height h <= depth, and for each root alpha every k >= 1 with
    b - k alpha >= 0, reads mult(b - k alpha).  It takes its root
    multiplicities from the package's `root_multiplicities`, so a comparison
    isolates the recursion.  A null denominator with a nonzero numerator,
    and a quotient that is not a natural number, are InternalErrors.
    """
    lam_top = HW._check_dominant(datum, hw)
    HW._depth_guard(datum, depth, max_depth)
    n = datum.n
    eps = tuple(int(e) for e in datum.gcm.eps)
    scale = math.lcm(*eps)
    # L (alpha_i | alpha_j) = a_ij L / eps_i and L (Lambda_i | alpha_i) = L / eps_i
    lb = [[a * (scale // eps[i]) for a in row] for i, row in enumerate(datum.gcm.a)]
    lw = [scale // e for e in eps]
    # L (hw + rho | alpha_i); only the first n coordinates pair with the roots
    lam_rho = [lw[i] * (x + r) for i, (x, r) in
               enumerate(zip(lam_top[:n], datum.rho()))]
    # per root: alpha, its support (i, a_i > 0), mult, L (hw | alpha),
    # L (alpha | alpha), L B alpha
    roots = []
    for alpha, ma in HW.root_multiplicities(datum, depth).items():
        b_alpha = [vec_dot(row, alpha) for row in lb]
        roots.append((alpha, [(i, a) for i, a in enumerate(alpha) if a > 0], ma,
                      sum(lw[i] * lam_top[i] * alpha[i] for i in range(n)),
                      vec_dot(alpha, b_alpha), b_alpha))
    mult: dict[Beta, int] = {(0,) * n: 1}
    for h in range(1, depth + 1):
        for b in _compositions(n, h):
            denom = 2 * vec_dot(lam_rho, b) \
                - sum(b[i] * vec_dot(lb[i], b) for i in range(n) if b[i])
            total = 0
            for alpha, supp, ma, hw_a, a_a, b_alpha in roots:
                # the k >= 1 with b - k alpha >= 0
                kmax = min(b[i] // a for i, a in supp)
                if not kmax:
                    continue
                # L (lam + k alpha | alpha) with lam = hw - b
                base = hw_a - vec_dot(b, b_alpha)
                for k in range(1, kmax + 1):
                    mu = mult.get(tuple(b[i] - k * alpha[i] for i in range(n)))
                    if mu:
                        total += ma * mu * (base + k * a_a)
            total *= 2
            if denom == 0:
                if total != 0:
                    raise InternalError("Freudenthal numerator nonzero at a null denominator")
                mult[b] = 0
                continue
            m, rem = divmod(total, denom)
            if rem or m < 0:
                raise InternalError(f"weight multiplicity {total}/{denom} at {b} "
                                    "is not a natural number")
            mult[b] = m
    out: dict[IntVec, int] = {}
    for b, m in mult.items():
        if m > 0:
            wt = tuple(lam_top[j] - sum(b[i] * datum.alpha[i][j] for i in range(n))
                       for j in range(datum.m))
            out[wt] = m
    return out


def torus_eval(t: Sequence[Fraction], weight: Sequence[int]) -> Fraction:
    """t(lam): the product of the Fraction powers t_i ** lam_i."""
    val = Fraction(1)
    for tv, c in zip(t, weight):
        val *= tv ** c
    return val


def torus_act(u, t: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(u t)(lam) = t(u^{-1} lam): t on each column of u's matrix P^{-1}."""
    return tuple(torus_eval(t, col) for col in zip(*u.mat_p_inv))


def evaluate_word(slice_, word, max_height: Optional[int] = None):
    """((rows, cols), matrix) of the word over the slice basis, with the
    columns restricted to basis vectors of height <= max_height."""
    index = slice_.basis_index()
    pos = {key: p for p, key in enumerate(index)}
    col_index = index if max_height is None else tuple(
        (wt, k) for wt, k in index if slice_.spaces[wt].height <= max_height)
    cols = []
    for wt, k in col_index:
        dim = slice_.spaces[wt].dim
        basis = HW.Vector(slice_, {wt: tuple(int(j == k) for j in range(dim))})
        img = HW.apply_word(word, basis)
        col = [Fraction(0)] * len(index)
        for wt2, coeffs in img.parts.items():
            for j, x in enumerate(coeffs):
                col[pos[(wt2, j)]] = Fraction(x, img.den)
        cols.append(col)
    return (index, col_index), tuple(tuple(cols[c][r] for c in range(len(col_index)))
                                     for r in range(len(index)))


def run_word(sl, letters, parts, den):
    """The letters applied last first to the raw parts / den, every N(i) as
    n_i = exp(e_i) exp(-f_i) exp(e_i) on the whole vector: (parts, den)."""
    for letter in reversed(letters):
        tag = letter[0]
        if tag == "X+" or tag == "X-":
            parts, den = HW._exp(sl, parts, den, letter[1], 1 if tag == "X+" else -1, letter[2])
        elif tag == "N":
            for sign in (1, -1, 1):
                parts, den = HW._exp(sl, parts, den, letter[1], sign, sign)
        elif tag == "T":
            h, p, q = letter[1], letter[2].numerator, letter[2].denominator
            pieces = []
            for sp, u in parts.items():
                e = vec_dot(sp.weight, h)
                num, d = (p ** e, q ** e) if e >= 0 else (q ** -e, p ** -e)
                pieces.append(([num * x for x in u], d) if d > 0 else ([-num * x for x in u], -d))
            vecs, m = HW._over_common_den(pieces)
            parts, den = dict(zip(parts, vecs)), den * m
        else:
            c = letter[1].exposing()
            parts = {sp: u for sp, u in parts.items() if vec_dot(sp.weight, c) == 0}
    return parts, den


def probe_equal(datum, w1, w2, probes):
    """EqualOnProbes, or Distinct at the first differing entry of the two
    dense matrices in row-major order."""
    tried = []
    for probe in probes:
        hw, d = probe[0], probe[1]
        hmax = probe[2] if len(probe) > 2 else None
        sl = HW.build_basis(datum, hw, d)
        (rows, cols), m1 = evaluate_word(sl, w1, max_height=hmax)
        _, m2 = evaluate_word(sl, w2, max_height=hmax)
        if m1 != m2:
            for r in range(len(rows)):
                for c in range(len(cols)):
                    if m1[r][c] != m2[r][c]:
                        return HW.Distinct(probe=(sl.hw, d), row=rows[r],
                                           col=cols[c], left=m1[r][c], right=m2[r][c])
        tried.append((sl.hw, d))
    return HW.EqualOnProbes(probes=tuple(tried))


def smith_normal_form(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: U, D, V with U*M*V = D, U and V unimodular, as the
    package computed it before one column reduction served it and the
    saturated kernel: each pivot is the smallest nonzero entry of the whole
    remaining block, cleared by row and column operations, and where d_t
    does not divide an entry of the block below it, that entry's row is
    added to row t.  D is diagonal with d_1 | d_2 | ... and nonnegative entries.
    The identity U*M*V == D is asserted before returning.
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


def _kernel_lattice_basis(m) -> tuple[IntVec, ...]:
    """Basis of the saturated lattice {x in Z^nc : M x = 0}, via the
    package's SNF."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nr == 0:
        return tuple(tuple(row) for row in identity(nc))
    _, d, v = exact.smith_normal_form(m)
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
    rel = _kernel_lattice_basis(int_mat(vs))
    if not rel:
        return tuple(tuple(row) for row in identity(dim))
    return _kernel_lattice_basis(int_mat(rel))


def lattice_coords(basis: Sequence[Sequence[int]], x: Sequence[int]) -> Optional[IntVec]:
    """Integer coordinates of x in a saturated lattice basis, or None off its span.

    The basis must be independent and saturated (its Z-span is its Q-span
    intersected with Z^n).  A point of the span therefore has integer
    coordinates; a fractional one means the basis is not saturated and
    raises InternalError.
    """
    if not basis:
        return None if any(x) else ()
    sol = rat_solve(tuple(zip(*basis)), tuple(x))
    if sol is None:
        return None
    coords, kernel = sol
    if kernel or any(c.denominator != 1 for c in coords):
        raise InternalError("lattice basis is not independent and saturated")
    return tuple(int(c) for c in coords)


def same_lattice(basis: Sequence[Sequence[int]], reference: Sequence[Sequence[int]]) -> bool:
    """Each basis has integer coordinates in the other; `lattice_coords`
    raises InternalError on a basis that is dependent or not saturated."""
    return (all(lattice_coords(reference, v) is not None for v in basis)
            and all(lattice_coords(basis, v) is not None for v in reference))


def eval_character(basis: Sequence[Sequence[int]], values: Sequence, x: Sequence[int]) -> Fraction:
    """Value at x of the character taking values[k] on basis[k]: the product
    of values[k] ** c_k over the coordinates c of x (`lattice_coords`).

    InternalError when x is off the span of the basis.
    """
    coords = lattice_coords(basis, x)
    if coords is None:
        raise InternalError("point outside the span of the basis")
    val = Fraction(1)
    for v, c in zip(values, coords):
        val *= Fraction(v) ** c
    return val


def toric_faces(m) -> list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[IntVec, ...]]]:
    """(dimension, ray ids, active facets, hull) of every face of the lattice
    monoid m, in the package's face order: the ray sets of all intersections
    of facets, each face's hull the saturated kernel of the equalities and
    its active facets (one SNF), sorted by (len(hull), ray ids)."""
    nray = len(m.rays)
    facet_rays = [frozenset(k for k in range(nray)
                            if sum(a * r for a, r in zip(ineq, m.rays[k])) == 0)
                  for ineq in m.inequalities]
    ray_sets = {frozenset(range(nray))}
    for fs in facet_rays:
        ray_sets |= {rs & fs for rs in ray_sets}
    faces = []
    for rs in ray_sets:
        active = tuple(i for i, fs in enumerate(facet_rays) if rs <= fs)
        rows = m.equalities + tuple(m.inequalities[i] for i in active)
        hull = _kernel_lattice_basis(int_mat(rows)) if rows else identity(m.rank)
        faces.append((len(hull), tuple(sorted(rs)), active, hull))
    faces.sort(key=lambda t: (t[0], t[1]))
    return faces


def _absorbs(face, root: Beta, side: str) -> bool:
    """Whether exp(g_root) is killed against e(face) on the given side."""
    datum = face.datum
    g = tuple(int(c) for c in face.w.inv().act_root(root))
    supp = tuple(i for i in range(datum.n) if g[i] != 0)
    theta = set(face.theta)
    perp = set(datum.theta_perp(face.theta))
    if set(supp) <= theta:
        return True
    in_perp_part = set(supp) <= perp
    if side == "left":
        return all(c >= 0 for c in g) and not in_perp_part
    return all(c <= 0 for c in g) and not in_perp_part


def bruhat_cell(datum: RootDatum, word):
    """The Weyl-monoid class of a factored word, folded in N-hat."""
    middle = None
    stage = 0  # 0: lowering prefix, 1: middle
    pending_plus = []

    def fold(elt):
        nonlocal middle
        middle = elt if middle is None else MO.nhat_mul(middle, elt)

    for letter in word.letters:
        tag = letter[0]
        if tag in ("X+", "X-"):
            check_index(datum.n, letter[1])
        if tag == "X-":
            root = tuple(-1 if j == letter[1] else 0 for j in range(datum.n))
            if stage == 0:
                continue
            if stage == 1 and not pending_plus and middle is not None \
                    and _absorbs(middle.face, root, side="right"):
                continue
            raise NotFactored("lowering letter after the normalizer block")
        if tag == "X+":
            stage = 1
            pending_plus.append(letter)
            continue
        if tag == "T":
            fold(MO.nhat_from(W.identity_elt(datum),
                              MO.torus_from_coweight(datum, letter[1], letter[2])))
            continue
        if pending_plus:
            if tag != "E":
                raise NotFactored("raising letters blocked before a non-idempotent")
            for pl in pending_plus:
                root = tuple(1 if j == pl[1] else 0 for j in range(datum.n))
                if not _absorbs(letter[1], root, side="left"):
                    raise NotFactored("raising letter does not absorb into the idempotent")
            pending_plus = []
        stage = 1
        if tag == "N":
            fold(MO.nhat_from(W.simple(datum, letter[1])))
        elif tag == "E":
            fold(MO.nhat_idempotent(letter[1]))
        else:
            raise DomainError(f"unknown letter {letter!r}")
    if middle is None:
        return MO.wm_unit(datum)
    return MO.nhat_to_wmon(middle)


def dominant_rep(datum: RootDatum, weight: Sequence, cap: int = 2000) -> W.DominantResult:
    """Dominant representative of a weight, with a Weyl witness w*dom = weight,
    by the Fraction walk: every pairing is a `RootDatum.pair` over Fraction.
    The weight is read by `cartan.exact_rationals`: a coordinate that is
    not a Fraction or an int is a DomainError.

    Membership in the Tits cone is only semi-decidable; the loop reflects at
    the smallest negative coordinate and watches two exact negative
    certificates along the way:
      * lam(u * c_Theta) < 0 for a tracked exposing coweight, or
      * lam(u * c_Theta) = 0 while lam vanishes on no larger set than the
        face span requires.
    Raises NotInTitsCone with the certificate, or Undecided(cap) if the
    budget runs out without a verdict; its .weight is the last weight the
    walk reached.  The walk keeps the current weight and the applied
    letters; w is multiplied out once, when it is returned.  A cap (step
    budget) that is not a Python int, or is negative, is a DomainError.
    """
    if exact_ints((cap,), "step budget")[0] < 0:
        raise DomainError(f"step budget {cap} is negative")
    lam = tuple(Fraction(x, 1) for x in exact_rationals(weight, "weight coordinate"))
    if len(lam) != datum.m:
        raise DomainError(f"weight needs {datum.m} coordinates")
    specials = [t for t in datum.special_sets() if t]
    cvecs = [(t, datum.exposing_coweight(t)) for t in specials]
    support = datum.alpha_support
    letters: list[int] = []  # w = s_{letters[0]} s_{letters[1]} ..., w * current = input
    cur = list(lam)
    for _ in range(cap + 1):
        for theta, c in cvecs:
            val = datum.pair(cur, c)
            if val < 0:
                applied = W.from_word(datum, letters).inv().word
                cert = (f"pairing with the type-{tuple(i + 1 for i in theta)} exposing "
                        f"coweight is {val} < 0 after applying {applied}")
                raise NotInTitsCone(cert)
            if val == 0:
                bad = next((i for i in theta if cur[i] != 0), None)
                if bad is not None:
                    cert = (f"vanishes on the type-{tuple(i + 1 for i in theta)} exposing "
                            f"coweight but pairs to {cur[bad]} != 0 with coroot {bad + 1}")
                    raise NotInTitsCone(cert)
        i = next((i for i in range(datum.n) if cur[i] < 0), None)
        if i is None:
            dom = tuple(cur)
            w = W.from_word(datum, letters)
            facet = tuple(i for i in range(datum.n) if dom[i] == 0)
            if w.act_weight(dom) != lam:
                raise InternalError("dominant representative does not map back to the input")
            return W.DominantResult(dominant=dom, w=w, facet_type=facet)
        c = cur[i]  # s_i cur = cur - <cur, h_i> alpha_i
        for k, a in support[i]:
            cur[k] -= c * a
        letters.append(i)
    raise Undecided(cap, weight=tuple(cur))


def special_sets(gcm: GCM) -> tuple[tuple[int, ...], ...]:
    """All special subsets, ordered by (size, lex).  Includes the empty set."""
    if gcm.n > SPECIAL_SET_RANK_GUARD:
        raise SizeGuard(f"special-set enumeration guarded at n <= {SPECIAL_SET_RANK_GUARD}")
    out = [()]
    for k in range(1, gcm.n + 1):
        for t in combinations(range(gcm.n), k):
            if is_special(gcm, t):
                out.append(t)
    return tuple(out)


def component_type(gcm: GCM, comp: tuple[int, ...]) -> ComponentType:
    """The type of one connected component by the LP trichotomy, each of
    Vinberg's three systems on the Fraction tableau above."""
    sub = gcm.submatrix(comp)
    neg = tuple(tuple(-x for x in row) for row in sub)
    fin = lp_feasible(neg, ("lt",) * len(sub))
    aff = lp_feasible(sub, ("eq",) * len(sub))
    ind = lp_feasible(sub, ("lt",) * len(sub))
    hits = [t for t, u in (("FIN", fin), ("AFF", aff), ("IND", ind)) if u is not None]
    if len(hits) != 1:
        raise InternalError(f"classification trichotomy violated on {comp}: {hits}")
    return ComponentType(hits[0])


def scanned_root_multiplicities(datum: RootDatum, max_height: int) -> dict[Beta, int]:
    """`highest_weight.root_multiplicities` with each delta of the Weyl
    denominator compared with b entry by entry; no cache on the datum."""
    d = W.denominator(datum, max_height)
    steps = [(delta, sum(delta), e) for delta, e in d.items() if any(delta)]
    g: dict[Beta, int] = {}
    mult: dict[Beta, int] = {}
    for h in range(1, max_height + 1):
        for b in _compositions(datum.n, h):
            total = -h * d.get(b, 0)
            for delta, hd, e in steps:
                if hd < h and all(x <= y for x, y in zip(delta, b)):
                    total -= e * g[tuple(y - x for x, y in zip(delta, b))]
            g[b] = total
            below = sum(h // k * mult[tuple(x // k for x in b)]
                        for k in range(2, h + 1) if all(x % k == 0 for x in b))
            m, rem = divmod(total - below, h)
            if rem or m < 0:
                raise InternalError(f"root multiplicity {total - below}/{h} at {b} "
                                    "is not a natural number")
            mult[b] = m
    return {b: m for b, m in mult.items() if m > 0}


def min_double_coset(w: W.WeylElt, k: Sequence[int], j: Sequence[int]) -> W.WeylElt:
    """The minimal element of W_K w W_J by rounds of a left walk in K and a
    right walk in J, repeated until a round returns its own start."""
    cur = w
    while True:
        nxt = W.min_coset_right(W.min_coset_left(cur, k)[0], j)[0]
        if nxt == cur:
            return cur
        cur = nxt


def nelt_mul(a, b):
    """(n_w tau)(n_v s) = n_{wv} t, n_w folded into n_v one letter at a time;
    n_i n_u = n_{u'} u'^{-1}(t_{h_i}(-1)) with u' = s_i u when s_i u < u."""
    (w, tau), (v, s) = a, b
    datum = v.datum
    tau = tuple(Fraction(x) for x in tau)  # an int to a negative power is a float
    t = tuple(x * y for x, y in zip(torus_act(v.inv(), tau), s))
    for i in reversed(w.word):
        u = W.simple(datum, i) * v
        if v.left_descent(i):
            sign = MO.torus_from_coweight(datum, datum.coroot(i), Fraction(-1))
            t = tuple(x * y for x, y in zip(torus_act(u.inv(), sign), t))
        v = u
    return v, t


def that_normalize(t, face) -> MO.ThatElt:
    """t e(R) on the saturated kernel of R's normals, by one Smith normal form."""
    t = tuple(Fraction(x) for x in t)
    basis = exact.kernel_lattice_basis(face.span_normals(), face.datum.m)
    return MO.ThatElt(face=face, basis=basis,
                      values=tuple(torus_eval(t, b) for b in basis), rep=t)


def nhat_canonical(x: MO.NhatElt):
    """(kappa-class, face, residual values on `that_normalize`'s basis):
    n_sigma^{-1} n_w t = n_v s0, and the centralizer lift m = n_v b of
    v = w_R vbar w_R^{-1}, b a sign vector, gives the residual v(s0 b)."""
    kappa_class = MO.nhat_to_wmon(x)
    v, s0 = MO._nelt_mul(MO._nelt_inv(MO._lift(kappa_class.w)), (x.w, x.torus))
    vbar = x.face.w.inv() * v * x.face.w
    if not W._strip_read(vbar, x.face.theta)[0].is_identity():
        raise InternalError("leftover Weyl part does not centralize the face")
    m = MO._nelt_mul(MO._nelt_mul(MO._lift(x.face.w), MO._lift(vbar)),
                     MO._nelt_inv(MO._lift(x.face.w)))
    if m[0] != v:
        raise InternalError("centralizer lift failed to cancel the Weyl part")
    residual = torus_act(v, tuple(a * b for a, b in zip(s0, m[1])))
    return kappa_class, x.face, that_normalize(residual, x.face).values
