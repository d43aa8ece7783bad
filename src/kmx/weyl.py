"""Coxeter/Weyl engine with exact integer matrices.

An element w is stored as P, its matrix on the weight lattice in the
fundamental-weight basis, and P^{-1}; equality is decided by P, never by
words.  A product with a simple reflection s_i = I - alpha_i e_i^T is a
rank-1 update, a product with the identity returns the other factor, and
any other product takes two matrix products.  Descents are signs of w.rho,
where rho = (1, ..., 1): s_i w < w iff (P rho)_i < 0, w s_i < w iff
(P^{-1} rho)_i < 0.  The stored word is the lexicographically smallest
reduced word, read by walking v = w.rho down to rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import exact
from .cartan import RootDatum, exact_ints
from .errors import (DomainError, InternalError, NotInTitsCone, PreconditionViolated,
                     Undecided)
from .exact import IntMat

Vec = tuple


def _minus_column(mat: IntMat, i: int, al: Sequence[int]) -> IntMat:
    """mat * s_i: column i of mat becomes mat[:, i] - mat * alpha_i."""
    nz = [(k, a) for k, a in enumerate(al) if a]
    return tuple(row[:i] + (row[i] - sum(row[k] * a for k, a in nz),) + row[i + 1:]
                 for row in mat)


def _minus_rows(mat: IntMat, i: int, al: Sequence[int]) -> IntMat:
    """s_i * mat: row r of mat becomes mat[r] - alpha_i[r] * mat[i]."""
    top = mat[i]
    return tuple(tuple(x - a * y for x, y in zip(row, top)) if a else row
                 for row, a in zip(mat, al))


@dataclass(frozen=True)
class WeylElt:
    datum: RootDatum = field(compare=False)
    mat_p: IntMat
    mat_p_inv: IntMat = field(compare=False)
    # canonical reduced word; computed lazily from w.rho when needed
    _word: Optional[tuple[int, ...]] = field(compare=False, default=None)

    def __hash__(self):
        return hash((id(self.datum), self.mat_p))

    def __eq__(self, other):
        if not isinstance(other, WeylElt):
            return NotImplemented
        return self.datum is other.datum and self.mat_p == other.mat_p

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            object.__setattr__(self, "_word", _canonical_word(self.datum, self.mat_p))
        return self._word  # type: ignore[return-value]

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return self.mat_p == identity_elt(self.datum).mat_p

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        if self.datum is not other.datum:
            raise PreconditionViolated("product of Weyl elements of two root data")
        alpha = self.datum.alpha
        if other._word is not None and len(other._word) == 1:
            i = other._word[0]
            return WeylElt(self.datum, _minus_column(self.mat_p, i, alpha[i]),
                           _minus_rows(self.mat_p_inv, i, alpha[i]))
        if self._word is not None and len(self._word) == 1:
            i = self._word[0]
            return WeylElt(self.datum, _minus_rows(other.mat_p, i, alpha[i]),
                           _minus_column(other.mat_p_inv, i, alpha[i]))
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return WeylElt(self.datum, exact.mat_mul(self.mat_p, other.mat_p),
                       exact.mat_mul(other.mat_p_inv, self.mat_p_inv))

    def inv(self) -> "WeylElt":
        return WeylElt(self.datum, self.mat_p_inv, self.mat_p)

    # -- actions -------------------------------------------------------------

    def act_weight(self, x: Sequence) -> Vec:
        return exact.mat_vec(self.mat_p, tuple(x))

    def act_coweight(self, y: Sequence) -> Vec:
        # contragredient action: the H-matrix is the transpose of mat_p_inv
        mi = self.mat_p_inv
        rng = range(len(y))
        return tuple(sum(mi[r][c] * y[r] for r in rng) for c in rng)

    def act_root(self, c: Sequence) -> Vec:
        """w on the root lattice in the simple-root basis: the reflections of
        the canonical word, s_i acting by c_i -= sum_j a_ij c_j."""
        a = self.datum.gcm.a
        v = list(c)
        for i in reversed(self.word):
            v[i] -= sum(x * y for x, y in zip(a[i], v))
        return tuple(v)

    # -- descents ------------------------------------------------------------

    def right_descent(self, i: int) -> bool:
        """True iff w(alpha_i) is a negative root, i.e. (P^{-1} rho)_i < 0."""
        return sum(self.mat_p_inv[i]) < 0

    def left_descent(self, i: int) -> bool:
        """True iff w^{-1}(alpha_i) is a negative root, i.e. (P rho)_i < 0."""
        return sum(self.mat_p[i]) < 0

    def right_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.right_descent(i))

    def left_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.left_descent(i))


def _canonical_word(datum: RootDatum, mat_p: IntMat) -> tuple[int, ...]:
    """Lex-smallest reduced word: strip the smallest left descent of w.rho."""
    v = [sum(row) for row in mat_p]
    word = []
    while (i := next((i for i in range(datum.n) if v[i] < 0), None)) is not None:
        word.append(i)  # s_i v = v - <v, h_i> alpha_i
        v = [x - v[i] * a for x, a in zip(v, datum.alpha[i])]
    if tuple(v) != datum.rho():
        raise InternalError("w.rho is dominant but differs from rho")
    return tuple(word)


def identity_elt(datum: RootDatum) -> WeylElt:
    if not hasattr(datum, "_identity_elt"):
        ident = exact.identity(datum.m)
        datum._identity_elt = WeylElt(datum, ident, ident, ())
    return datum._identity_elt


def simple(datum: RootDatum, i: int) -> WeylElt:
    if not hasattr(datum, "_simple_elts"):
        ident = exact.identity(datum.m)
        mats = (_minus_column(ident, j, datum.alpha[j]) for j in range(datum.n))
        datum._simple_elts = tuple(WeylElt(datum, s, s, (j,)) for j, s in enumerate(mats))
    return datum._simple_elts[i]


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    """Multiply out a word of 0-based simple indices; the result carries its
    canonical reduced word, length and descent data."""
    w = identity_elt(datum)
    for i in word:
        if not 0 <= i < datum.n:
            raise DomainError(f"simple index {i + 1} out of range 1..{datum.n}")
        w = w * simple(datum, i)
    return w


# -- coset normal forms -------------------------------------------------------


def min_coset_right(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = w' * u with u in W_J and w' the minimal representative of
    w W_J (no right descent inside J)."""
    js = sorted(set(j))
    cur = w
    u = identity_elt(w.datum)
    while True:
        i = next((i for i in js if cur.right_descent(i)), None)
        if i is None:
            return cur, u
        s = simple(w.datum, i)
        cur = cur * s
        u = s * u


def min_coset_left(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = u * w' with u in W_J and w' minimal in W_J w."""
    js = sorted(set(j))
    cur = w
    u = identity_elt(w.datum)
    while True:
        i = next((i for i in js if cur.left_descent(i)), None)
        if i is None:
            return cur, u
        s = simple(w.datum, i)
        cur = s * cur
        u = u * s


def min_double_coset(w: WeylElt, k: Sequence[int], j: Sequence[int]) -> WeylElt:
    """The unique minimal element of W_K w W_J."""
    cur = w
    while True:
        cur2, _ = min_coset_left(cur, k)
        cur3, _ = min_coset_right(cur2, j)
        if cur3 == cur:
            return cur
        cur = cur3


def in_parabolic(w: WeylElt, j: Sequence[int]) -> bool:
    rep, _ = min_coset_right(w, j)
    return rep.is_identity()


def in_parabolic_product(w: WeylElt, k: Sequence[int], j: Sequence[int]) -> bool:
    """Membership w in W_K W_J, decided by the minimal double coset rep."""
    return min_double_coset(w, k, j).is_identity()


# -- dominance ----------------------------------------------------------------


@dataclass(frozen=True)
class DominantResult:
    dominant: Vec
    w: WeylElt
    facet_type: tuple[int, ...]


def dominant_rep(datum: RootDatum, weight: Sequence, cap: int = 2000) -> DominantResult:
    """Dominant representative of a weight, with a Weyl witness w*dom = weight.

    Membership in the Tits cone is only semi-decidable; the loop reflects at
    the smallest negative coordinate and watches two exact negative
    certificates along the way:
      * lam(u * c_Theta) < 0 for a tracked exposing coweight, or
      * lam(u * c_Theta) = 0 while lam vanishes on no larger set than the
        face span requires.
    Raises NotInTitsCone with the certificate, or Undecided(cap) if the
    budget runs out without a verdict.
    """
    lam = tuple(Fraction(x) for x in weight)
    specials = [t for t in datum.special_sets() if t]
    cvecs = [(t, datum.exposing_coweight(t)) for t in specials]
    w = identity_elt(datum)  # applied word, so that w * current = input
    cur = lam
    for _ in range(cap + 1):
        for theta, c in cvecs:
            val = datum.pair(cur, c)
            if val < 0:
                cert = (f"pairing with the type-{tuple(i + 1 for i in theta)} exposing "
                        f"coweight is {val} < 0 after applying {w.inv().word}")
                raise NotInTitsCone(cert)
            if val == 0:
                bad = next((i for i in theta if cur[i] != 0), None)
                if bad is not None:
                    cert = (f"vanishes on the type-{tuple(i + 1 for i in theta)} exposing "
                            f"coweight but pairs to {cur[bad]} != 0 with coroot {bad + 1}")
                    raise NotInTitsCone(cert)
        i = next((i for i in range(datum.n) if cur[i] < 0), None)
        if i is None:
            facet = tuple(i for i in range(datum.n) if cur[i] == 0)
            if w.act_weight(cur) != lam:
                raise InternalError("dominant representative does not map back to the input")
            return DominantResult(dominant=cur, w=w, facet_type=facet)
        s = simple(datum, i)
        cur = s.act_weight(cur)
        w = w * s
    raise Undecided(cap)


def antidominant_coweight(datum: RootDatum, coweight: Sequence) -> tuple[Vec, WeylElt]:
    """Minimize an integer coweight to its antidominant representative.

    The coweight has datum.m Python-int coordinates; anything else is a
    DomainError.  Precondition (caller-guaranteed): the input is a
    nonnegative integer combination of Weyl images of exposing coweights,
    which forces rho(u*d) >= 0 for every u.  Each step strictly decreases
    the nonnegative integer rho(d), so the loop ends within rho(d) steps;
    violations raise PreconditionViolated.
    """
    d = exact_ints(coweight, "coweight coordinate")
    if len(d) != datum.m:
        raise DomainError(f"coweight needs {datum.m} coordinates")
    rho = datum.rho()
    budget = exact.vec_dot(rho, d)
    if budget < 0:
        raise PreconditionViolated(f"rho(d) = {budget} < 0")
    v = identity_elt(datum)
    steps = 0
    while True:
        i = next((i for i in range(datum.n)
                  if datum.pair(datum.alpha[i], d) > 0), None)
        if i is None:
            if any(x < 0 for x in d):
                raise PreconditionViolated("antidominant limit has a negative coordinate")
            return d, v
        steps += 1
        if steps > budget:
            raise PreconditionViolated("descent exceeded the rho budget")
        s = simple(datum, i)
        d = s.act_coweight(d)
        v = s * v
