"""Generalized Cartan matrices and explicit realizations.

Validation, symmetrization, component classification by the leading
minors of the symmetrized matrix with exact Vinberg certificates, special
subsets, exposing coweights, and the canonical realization on dual lattices
of rank 2n - l.

A GCM keeps its hash, so each lookup in the process-wide caches of
component types and classifications hashes its n^2 entries once.  The
special subsets come from the connected subsets of the Dynkin graph, each
typed once by one elimination (`_component_type_cached`; an indefinite
one also runs the simplex once): a subset, held as a bitmask, is special iff
each of its components, found by a bitmask flood inside it, is not of
finite type, and its exposing coweight is read off its components' Vinberg
certificates, no simplex of its own.  The realization checks its invariant
form by one elimination that inverts the Gram matrix on all simple roots.

The functions that read a GCM (`special_sets`, `classify`, `is_special`,
`component_type`) take a `GCM` alone: anything else, a RootDatum or raw
rows, is a DomainError before any cache is read.

Index convention: 0-based everywhere inside the library; the CLI shifts to
1-based for user-facing text.  A library index is a Python int in 0..n-1,
read by `check_index`; a node subset is read by `index_set`, which reads
each of its indices by `check_index` and returns the subset sorted without
repeats.

The API boundary.  A public entry of kmx reads each object argument it is
handed once, before it uses it: a face, Weyl element, monoid element or
datum by `_expect` (`_check_datum` for a datum), and a vector, index set or
list by `entries` or a reader built on it.  A wrong type is a DomainError
naming it.  A private core (a leading underscore) reads nothing, and code
inside kmx calls the core whenever it holds values that kmx built or
already read, so each value is read once, where it enters.  An entry that
keeps what it builds on the datum (`weyl.identity_elt`, `weyl.simple`)
reads the datum only on the miss that builds it, as only a RootDatum keeps
one.  The RootDatum methods are outside the rule: `pair` is a bare dot
product on hot paths.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import exact
from .errors import (DomainError, InternalError, NotGCM, NotSpecial, NotSymmetrizable,
                     RankMismatch, SizeGuard, ZeroTorusValue)
from .exact import IntMat, IntVec, RatVec

if TYPE_CHECKING:
    from .faces import Face
    from .weyl import WeylElt

SPECIAL_SET_RANK_GUARD = 16


class ComponentType(Enum):
    FIN = "FIN"
    AFF = "AFF"
    IND = "IND"


@dataclass(frozen=True)
class GCM:
    """A validated symmetrizable generalized Cartan matrix.

    `eps` is the positive rational symmetrizer: with D = diag(eps) the matrix
    B = D^{-1} A is symmetric, i.e. A = D B.  eps is normalized per
    component to positive integers with gcd 1.

    The hash of (a, eps) is kept in `_hash` on first use; init=False, so
    dataclasses.replace starts a new matrix without it.
    """

    a: IntMat
    eps: tuple[Fraction, ...]
    _hash: Optional[int] = field(init=False, compare=False, repr=False, default=None)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.a, self.eps)))
        return self._hash  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def b(self) -> tuple[RatVec, ...]:
        return tuple(
            tuple(Fraction(self.a[i][j], 1) / self.eps[i] for j in range(self.n))
            for i in range(self.n)
        )

    def submatrix(self, subset: Sequence[int]) -> IntMat:
        idx = sorted(subset)
        return tuple(tuple(self.a[i][j] for j in idx) for i in idx)


def _components(a: IntMat, subset: Sequence[int]) -> list[tuple[int, ...]]:
    """Connected components of the zero-pattern graph restricted to subset."""
    left = sorted(subset)
    comps = []
    seen: set[int] = set()
    for start in left:
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in left:
                if j not in seen and a[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def check_index(n: int, i: int, what: str = "simple index") -> None:
    """A 0-based index that is not a Python int (a bool, float, str), or is
    outside 0..n-1 (named 1-based), is a DomainError."""
    if type(i) is not int or not 0 <= i < n:
        exact_ints((i,), what)
        raise DomainError(f"{what} {i + 1} out of range 1..{n}")


def entries(vals: Iterable, what: str) -> tuple:
    """The entries of vals as a tuple.  A vals that has none to give (a
    scalar, None) is a DomainError naming `what`; a TypeError raised while
    an iterable vals runs passes through."""
    try:
        return tuple(vals)
    except TypeError:
        if hasattr(vals, "__iter__"):
            raise
        raise DomainError(f"{what} list {vals!r} is not a sequence") from None


def index_set(n: int, idx: Iterable, what: str = "simple index") -> tuple[int, ...]:
    """The subset idx of 0..n-1 sorted without repeats, each index read by
    `check_index` before any two meet in a set (set((1, True)) is {1})."""
    idx = entries(idx, what)
    for i in idx:
        check_index(n, i, what)
    return tuple(sorted(set(idx)))


def one_based(n: int, toks: Iterable, what: str = "simple index") -> tuple[int, ...]:
    """0-based indices of the 1-based ones a user typed, each in 1..n.

    Anything else (0, n + 1, -1, a non-number) raises DomainError naming
    the token as typed.
    """
    index = {str(i + 1): i for i in range(n)}
    toks = entries(toks, what)
    for t in toks:
        if str(t) not in index:
            raise DomainError(f"{what} {t} out of range 1..{n}")
    return tuple(index[str(t)] for t in toks)


_NUMBER = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def typed_numbers(toks: Iterable, what: str, *, integral: bool = False) -> tuple:
    """The exact numbers a user typed: Fractions written [+-]digits or
    [+-]digits/digits with a nonzero denominator, or ints written [+-]digits
    when `integral` is set.

    Anything else (1/0, a letter, 0.5, 1e3, 3/2 where an integer is
    expected) raises DomainError naming the token as typed, and so does a
    token longer than Python converts to int (4300 digits by default).
    """
    kind = "an integer" if integral else "a number a/b with b != 0"
    limit = sys.get_int_max_str_digits()  # 0: no limit
    out = []
    for t in toks:
        if limit and len(str(t)) > limit:
            raise DomainError(f"{what} has {len(str(t))} characters, more than {limit}")
        mm = _NUMBER.fullmatch(str(t))
        if mm is None or mm[2] is not None and (integral or int(mm[2]) == 0):
            raise DomainError(f"{what} {t} is not {kind}")
        num = int(mm[1])
        out.append(num if integral else Fraction(num, int(mm[2] or 1)))
    return tuple(out)


def exact_ints(vals: Iterable, what: str) -> tuple[int, ...]:
    """The entries of an integer vector as given, read by `entries`: an
    entry that is not a Python int (a bool, float, Fraction, str) is a
    DomainError naming it."""
    vals = entries(vals, what)
    for x in vals:
        if type(x) is not int:
            raise DomainError(f"{what} {x!r} is not an integer")
    return vals


def natural(x, what: str) -> int:
    """A natural number read: one that is not a Python int (`exact_ints`),
    or is negative, is a DomainError naming it."""
    if exact_ints((x,), what)[0] < 0:
        raise DomainError(f"{what} {x} is negative")
    return x


def exact_rationals(vals: Iterable, what: str) -> tuple:
    """The entries of a rational vector as given, read by `entries`: a
    character reads their numerators and denominators, so an entry that is
    not a Fraction or a Python int (a bool, float, str) is a DomainError
    naming it."""
    vals = entries(vals, what)
    for x in vals:
        if not isinstance(x, (Fraction, int)) or isinstance(x, bool):
            raise DomainError(f"{what} {x!r} is not a Fraction or an int")
    return vals


def torus_values(vals: Iterable, m: int) -> tuple:
    """The m values of a torus element as given, read by `exact_rationals`:
    a wrong count is a RankMismatch and a zero value a ZeroTorusValue."""
    vals = exact_rationals(vals, "torus value")
    if len(vals) != m:
        raise RankMismatch(f"torus element needs {m} values")
    if 0 in vals:
        raise ZeroTorusValue("torus values must be nonzero")
    return vals


def validate_and_symmetrize(rows: Sequence[Sequence[int]]) -> GCM:
    """Validate a GCM and compute its canonical positive symmetrizer.
    Messages name entries 1-based."""
    n = len(rows) if isinstance(rows, (list, tuple)) else 0
    if n == 0 or any(not isinstance(r, (list, tuple)) or len(r) != n for r in rows):
        raise NotGCM("matrix must be a square nonempty list of rows")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if type(x) is not int:  # bool, float and str are rejected, not rounded
                raise NotGCM(f"entry a[{i + 1}][{j + 1}] = {x!r} is not an integer")
    a = exact.int_mat(rows)
    for i in range(n):
        if a[i][i] != 2:
            raise NotGCM(f"diagonal entry a[{i + 1}][{i + 1}] = {a[i][i]} != 2")
        for j in range(n):
            if i != j and a[i][j] > 0:
                raise NotGCM(f"positive off-diagonal entry a[{i + 1}][{j + 1}]")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise NotGCM(f"zero-pattern asymmetry at ({i + 1},{j + 1})")
    # Solve eps_i * a_ji = eps_j * a_ij along edges, per component.
    eps: list[Optional[Fraction]] = [None] * n
    for comp in _components(a, range(n)):
        root = comp[0]
        eps[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in comp:
                if a[i][j] != 0 and i != j and eps[j] is None:
                    eps[j] = eps[i] * Fraction(a[j][i], a[i][j])
                    stack.append(j)
        # Verify on every pair (cycles may be inconsistent).
        for i in comp:
            for j in comp:
                if eps[i] * a[j][i] != eps[j] * a[i][j]:
                    raise NotSymmetrizable(
                        f"no positive symmetrizer: cycle through ({i + 1},{j + 1})")
        # Normalize the component to integers with gcd 1.  Every node of the
        # component was reached from eps = 1, each step a ratio of two
        # negative entries, and primitive_ray keeps the signs: eps > 0.
        for i, x in zip(comp, exact.primitive_ray([eps[i] for i in comp])):
            eps[i] = Fraction(x, 1)
    return GCM(a=a, eps=tuple(eps))  # type: ignore[arg-type]


@lru_cache(maxsize=None)
def _component_type_cached(gcm: GCM, comp: tuple[int, ...]) -> tuple[ComponentType, IntVec]:
    """(type, y) of the connected component C = comp: the type decided by
    Sylvester's criterion and proven by Vinberg certificates, y the primitive
    certificate on A_C^T below, which `RootDatum._exposing` takes.

    Decide.  With D = diag(eps) and L the lcm of eps on C, S = L D^{-1} A_C
    is a symmetric integer matrix, and by Kac (Infinite-dimensional Lie
    algebras, Prop. 4.7, with Vinberg's trichotomy, Thm. 4.3) C is FIN iff
    S is positive definite and AFF iff S is positive semidefinite of corank
    1.  [S | L D^{-1} 1] is pivoted down its diagonal by `_bareiss_pivot`
    with no row exchange, so the r-th pivot is the leading minor D_r.  If
    every D_r > 0, C is FIN, and the last column is d u with u = A_C^{-1} 1.
    If D_1, ..., D_{k-1} > 0 and D_k = 0, S is semidefinite of corank 1, C
    is AFF, and column k gives the null vector delta.  Otherwise S is not
    semidefinite, or a proper principal minor vanishes, which no affine
    matrix has, so C is IND, and one `exact.lp_feasible` finds u > 0 with
    A_C u < 0.

    Prove.  u > 0 must give A_C u > 0, = 0 or < 0, the system of its type,
    and then y = L D^{-1} u > 0 must give A_C^T y the same strict sign.  For
    an x > 0 that solved one of the other two systems, y^T A_C x would be
    the sign of A_C^T y as (A_C^T y) . x and another sign as y . (A_C x), so
    those systems are unsolvable and the type is proven in ints.  A failed
    certificate, or an eps that does not symmetrize A_C, is an InternalError
    naming C.
    """
    sub, eps = gcm.submatrix(comp), [gcm.eps[i] for i in comp]
    nums = [e.numerator for e in eps]
    if min(nums) <= 0:
        raise InternalError(f"symmetrizer is not positive on component {comp}")
    big = lcm(*nums)
    scale = [big * e.denominator // p for e, p in zip(eps, nums)]  # L / eps_i
    k = len(comp)
    rows = [[s * x for x in row] + [s] for row, s in zip(sub, scale)]
    if any(rows[r][c] != rows[c][r] for r in range(k) for c in range(r)):
        raise InternalError(f"eps does not symmetrize the component {comp}")
    d, r = 1, 0
    while r < k and rows[r][r] > 0:
        d = exact._bareiss_pivot(rows, r, r, d)
        r += 1
    if r == k:
        kind, sign, u = ComponentType.FIN, 1, [row[k] for row in rows]
    elif r == k - 1 and rows[r][r] == 0:
        kind, sign, u = ComponentType.AFF, 0, [-row[r] for row in rows[:r]] + [d]
    else:
        kind, sign = ComponentType.IND, -1
        found = exact.lp_feasible(sub)
        if found is None:
            raise InternalError(f"indefinite component {comp} has no u > 0 with A u < 0")
        u = exact.primitive(found)
    y = [s * x for s, x in zip(scale, u)]
    signs = {(v > 0) - (v < 0) for v in [sum(map(mul, row, u)) for row in sub]
             + [sum(map(mul, col, y)) for col in zip(*sub)]}
    if min(u) <= 0 or signs != {sign}:
        raise InternalError(f"{kind.value} certificate fails on component {comp}")
    return kind, exact.primitive(y)


def _check_gcm(gcm) -> GCM:
    """gcm itself if it is a GCM; anything else (a RootDatum, raw rows) is a
    DomainError naming its type and the GCM to pass instead."""
    if type(gcm) is not GCM:
        raise DomainError(f"expected a GCM, got {type(gcm).__name__}: pass datum.gcm "
                          "for a RootDatum, validate_and_symmetrize(rows) for rows")
    return gcm


def _expect(x, cls: type, what: str):
    """x itself if it is a cls; anything else is a DomainError naming its type."""
    if not isinstance(x, cls):
        raise DomainError(f"expected {what}, got {type(x).__name__}")
    return x


def _check_datum(datum) -> "RootDatum":
    """datum itself if it is a RootDatum; anything else is a DomainError
    naming its type."""
    return _expect(datum, RootDatum, "a RootDatum")


def component_type(gcm: GCM, comp: Sequence[int]) -> ComponentType:
    """The type FIN, AFF or IND of one indecomposable principal submatrix:
    Sylvester's criterion on the symmetrized matrix, proven by Vinberg
    certificates in ints (`_component_type_cached`)."""
    return _component_type_cached(_check_gcm(gcm), index_set(gcm.n, comp))[0]


@dataclass(frozen=True)
class Classification:
    components: tuple[tuple[tuple[int, ...], ComponentType], ...]
    theta0: tuple[int, ...]
    theta_inf: tuple[int, ...]


@lru_cache(maxsize=None)
def _classify_cached(gcm: GCM, idx: tuple[int, ...]) -> Classification:
    comps = []
    t0: list[int] = []
    tinf: list[int] = []
    for comp in _components(gcm.a, idx):
        ct = _component_type_cached(gcm, comp)[0]
        comps.append((comp, ct))
        (t0 if ct is ComponentType.FIN else tinf).extend(comp)
    return Classification(
        components=tuple(comps), theta0=tuple(sorted(t0)), theta_inf=tuple(sorted(tinf))
    )


def classify(gcm: GCM, subset: Optional[Sequence[int]] = None) -> Classification:
    """Classify the components of A restricted to a subset (None: all) of indices."""
    n = _check_gcm(gcm).n
    return _classify_cached(gcm, index_set(n, range(n) if subset is None else subset))


def is_special(gcm: GCM, theta: Iterable[int]) -> bool:
    t = index_set(_check_gcm(gcm).n, theta)
    return not t or _classify_cached(gcm, t).theta0 == ()


def special_sets(gcm: GCM) -> tuple[tuple[int, ...], ...]:
    """All special subsets, ordered by (size, lex).  Includes the empty set.

    Subsets are bitmasks.  The component of the lowest node of a mask is
    found by a flood through the Dynkin graph inside the mask; it is a
    connected subset, and every connected subset is the component of its
    lowest node in itself, so each connected subset is typed once, by the
    core `_component_type_cached` on the GCM read once.  A mask is special
    iff that component is not FIN and the rest of the mask, a smaller
    mask, is special.
    """
    n = _check_gcm(gcm).n
    if n > SPECIAL_SET_RANK_GUARD:
        raise SizeGuard(f"special-set enumeration guarded at n <= {SPECIAL_SET_RANK_GUARD}")
    adjacent = [sum(1 << j for j in range(n) if j != i and gcm.a[i][j]) for i in range(n)]
    nbr = [0] * (1 << n)  # nbr[mask]: the nodes adjacent to a node of mask
    special = [True] * (1 << n)
    types: dict[int, ComponentType] = {}
    for mask in range(1, 1 << n):
        comp = mask & -mask
        nbr[mask] = nbr[mask ^ comp] | adjacent[comp.bit_length() - 1]
        while (grown := (comp | nbr[comp]) & mask) != comp:
            comp = grown
        if comp not in types:
            types[comp] = _component_type_cached(gcm, _nodes(comp))[0]
        special[mask] = types[comp] is not ComponentType.FIN and special[mask ^ comp]
    return tuple(sorted((_nodes(mask) for mask in range(1 << n) if special[mask]),
                        key=lambda t: (len(t), t)))


def _nodes(mask: int) -> tuple[int, ...]:
    """The nodes of a bitmask, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class RootDatum:
    """A GCM together with an explicit optimal realization.

    The realization is the canonical one: H = Z^m with m = 2n - l and
    h_i = e_i for every i; P is the dual lattice with the dual basis as
    fundamental weights.  The simple root alpha_i has coordinates
    (a_{1i}, ..., a_{ni}, c_i) in the fundamental-weight basis, where the
    integer completion c assigns one extra unit coordinate to each column
    of A that is linearly dependent on its predecessors.  With this choice
    the coroot lattice is the coordinate sublattice Z^n, visibly saturated,
    and every pairing identity holds by construction.
    """

    def __init__(self, gcm: GCM):
        self.gcm = gcm
        a = gcm.a
        n = gcm.n
        self.n = n
        # Column i of A is alpha_i's first n coordinates.  The pivot columns
        # are the ones independent of the columns before them; each other
        # column gets one extra unit coordinate, completing A^T to rank n.
        pivots, _, _ = exact.int_rref(a)
        self.l = len(pivots)
        self.m = m = 2 * n - self.l
        alpha = [[a[j][i] for j in range(n)] + [0] * (m - n) for i in range(n)]
        for extra, i in enumerate(i for i in range(n) if i not in pivots):
            alpha[i][n + extra] = 1
        self.alpha: tuple[IntVec, ...] = tuple(tuple(r) for r in alpha)
        # (k, alpha_i[k]) for the nonzero coordinates of each simple root: the
        # sparse form that the Weyl kernel's rank-1 updates read.
        self.alpha_support: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, x) for k, x in enumerate(r) if x) for r in self.alpha)
        # Invariant form on the coweight side, Gram matrix in the e-basis;
        # eps is integral, so its entries are ints.
        eps = tuple(int(e) for e in gcm.eps)
        if eps != gcm.eps:
            raise InternalError("symmetrizer is not integral")
        gram = [[0] * m for _ in range(m)]
        for i in range(n):
            for j in range(m):
                gram[i][j] = gram[j][i] = self.alpha[i][j] * eps[i]
        self.gram: IntMat = tuple(tuple(r) for r in gram)
        self._verify()
        self._perp: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._ctheta: dict[tuple[int, ...], IntVec] = {}
        self._stab: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the face each coweight exposes, filled by faces._face_exposed_by
        self._exposed: dict[IntVec, Face] = {}
        # the table of Weyl elements, one per P, and the canonical copy of
        # each matrix row they hold; filled by weyl._element
        self._weyl: dict[IntMat, WeylElt] = {}
        self._weyl_rows: dict[IntVec, IntVec] = {}
        self._special: Optional[tuple[tuple[int, ...], ...]] = None
        self._root_mults: dict[int, dict[IntVec, int]] = {}

    def _verify(self):
        """Re-check the realization's form: (alpha_i | alpha_i) = 2 / eps_i.
        The coroot lattice needs no check: h_i = e_i spans the coordinate
        sublattice Z^n, saturated as built.  Nor does the pairing
        alpha_i(h_j) = a_ji: `__init__` copies those coordinates from A, and
        the completion writes only coordinates n and above.

        The form is checked by one `int_rref` of [gram | alpha_1 ... alpha_n |
        omega] (columns; omega = sum_i eps_i Lambda_i): its pivots are 0..m-1
        iff the form is nondegenerate, and then column m + i of the reduced
        rows, over the common pivot den, is gram^{-1} alpha_i = h_i / eps_i, so
        every (alpha_i | alpha_i) is read in ints from the one elimination.
        Column m + n is den x, x = gram^{-1} omega, so alpha_i(x) = 1 and
        <beta, x> = ht(beta): `_height` = (den x, den, den <rho, x>)."""
        n, m = self.n, self.m
        omega = [int(e) for e in self.gcm.eps] + [0] * (m - n)
        pivots, rows, den = exact.int_rref(
            [row + col + (w,) for row, col, w in zip(self.gram, zip(*self.alpha), omega)])
        if pivots != tuple(range(m)):
            raise InternalError("invariant form is degenerate")
        # (alpha_i | alpha_i) = 2 / eps_i > 0 under A = diag(eps) B, i.e.
        # eps_i <alpha_i, den gram^{-1} alpha_i> = 2 den.
        x = tuple(row[m + n] for row in rows)
        for i, (alpha, eps) in enumerate(zip(self.alpha, self.gcm.eps)):
            if eps * exact.vec_dot(alpha, [row[m + i] for row in rows]) != 2 * den:
                raise InternalError("|alpha_i|^2 != 2/eps_i")
            if exact.vec_dot(alpha, x) != den:
                raise InternalError("alpha_i(x) != 1 for the height coweight x")
        self._height = (x, den, sum(x))

    # -- pairings and forms -------------------------------------------------

    def pair(self, weight: Sequence, coweight: Sequence):
        """<weight, coweight> in (Lambda-basis, e-basis) coordinates: an int
        on int input, a Fraction on Fraction input."""
        return exact.vec_dot(weight, coweight)

    def _weight(self, x: Sequence) -> tuple:
        """x read by `exact_rationals` as a weight of m coordinates."""
        x = exact_rationals(x, "weight coordinate")
        if len(x) != self.m:
            raise DomainError(f"weight needs {self.m} coordinates")
        return x

    def form_weights(self, l1: Sequence, l2: Sequence) -> Fraction:
        """(l1 | l2) on the weight side, via nu^{-1} = gram^{-1}, which
        exists: `_verify` proved gram nondegenerate."""
        l1, l2 = self._weight(l1), self._weight(l2)
        return self.pair(l1, exact.rat_solve(self.gram, l2)[0])

    def fundamental_weight(self, i: int) -> IntVec:
        check_index(self.m, i, "fundamental weight index")
        return tuple(1 if j == i else 0 for j in range(self.m))

    def coroot(self, i: int) -> IntVec:
        """The i-th basis coweight e_i of H = Z^m: the coroot h_i for i < n,
        one of the added directions for n <= i < m."""
        check_index(self.m, i, "coroot index")
        return tuple(1 if j == i else 0 for j in range(self.m))

    def rho(self) -> IntVec:
        """The fixed strictly dominant weight: sum of all 2n-l fundamentals."""
        return (1,) * self.m

    def weight_height(self, top: Sequence, low: Sequence) -> Optional[int]:
        """Height of top - low as a nonnegative root-lattice element, whose
        expansion is unique: row i < n of gram is eps_i alpha_i, and
        `_verify` proved gram nondegenerate."""
        top, low = self._weight(top), self._weight(low)
        sol = exact.rat_solve(exact.transpose(self.alpha), exact.vec_sub(top, low))
        if sol is None:
            return None
        coords = sol[0]
        if any(c.denominator != 1 or c < 0 for c in coords):
            return None
        return int(sum(coords))

    # -- special machinery ---------------------------------------------------

    def special_sets(self) -> tuple[tuple[int, ...], ...]:
        if self._special is None:
            self._special = special_sets(self.gcm)
        return self._special

    def theta_perp(self, theta: Sequence[int]) -> tuple[int, ...]:
        return self._theta_perp(index_set(self.n, theta))

    def _theta_perp(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """`theta_perp` of a Theta already read by `index_set`."""
        if key not in self._perp:
            self._perp[key] = tuple(i for i in range(self.n) if i not in key
                                    and all(self.gcm.a[i][j] == 0 for j in key))
        return self._perp[key]

    def stabilizer_type(self, theta: Sequence[int]) -> tuple[int, ...]:
        """Theta u Theta^perp, sorted, for a special Theta: the type of the
        parabolic subgroup that stabilizes the standard face of type Theta.
        A Theta that is not special raises NotSpecial."""
        return self._stabilizer(index_set(self.n, theta))

    def _stabilizer(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """`stabilizer_type` of a Theta already read by `index_set`."""
        stab = self._stab.get(key)
        if stab is None:
            if _classify_cached(self.gcm, key).theta0:
                raise NotSpecial(key)
            stab = self._stab[key] = tuple(sorted(key + self._theta_perp(key)))
        return stab

    def exposing_coweight(self, theta: Sequence[int]) -> IntVec:
        """Canonical integer coweight c_Theta with support Theta.

        Positive on its support, with alpha_j(c) <= 0 for every j; the zero
        set of c on the Tits cone is exactly the face of type Theta.  On each
        component C of Theta, c is C's primitive Vinberg certificate y > 0
        (`_component_type_cached`): A_C^T y = 0 on an affine C, which makes
        y its primitive null vector, and A_C^T y < 0 on an indefinite one.
        Any valid certificate defines the same face; canonicality is only
        for reproducibility.  alpha_j(c) <= 0 off Theta rests on the GCM's
        sign pattern, which a hand-built GCM can break, so it is checked.
        """
        return self._exposing(index_set(self.n, theta))

    def _exposing(self, key: tuple[int, ...]) -> IntVec:
        """`exposing_coweight` of a Theta already read by `index_set`."""
        if key in self._ctheta:
            return self._ctheta[key]
        cls = _classify_cached(self.gcm, key)
        if cls.theta0:
            raise NotSpecial(key)
        coef: dict[int, int] = {}
        for comp, _ in cls.components:
            coef.update(zip(comp, _component_type_cached(self.gcm, comp)[1]))
        c = tuple(coef.get(j, 0) for j in range(self.n)) + (0,) * (self.m - self.n)
        for j in range(self.n):
            val = self.pair(self.alpha[j], c)
            if val > 0 or (j in key) != (c[j] > 0):
                raise InternalError("exposing coweight fails its defining inequalities")
        self._ctheta[key] = c
        return c


def build_realization(rows_or_gcm) -> RootDatum:
    """Validate (if needed) and construct the canonical optimal realization."""
    gcm = rows_or_gcm if isinstance(rows_or_gcm, GCM) else validate_and_symmetrize(rows_or_gcm)
    return RootDatum(gcm)


# Shared test data used across the package and the verification suite.
A2_ROWS = ((2, -1), (-1, 2))
AFFINE_A1_ROWS = ((2, -2), (-2, 2))
HYPERBOLIC_ROWS = ((2, -2, 0), (-2, 2, -1), (0, -1, 2))
