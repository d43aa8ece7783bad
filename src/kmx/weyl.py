"""Coxeter/Weyl engine with exact integer matrices.

An element w is stored as P, its matrix on the weight lattice in the
fundamental-weight basis, and P^{-1}; equality is decided by P, never by
words.  A product with a simple reflection s_i = I - alpha_i e_i^T is a
rank-1 update that reads only the support of alpha_i (its nonzero
coordinates, kept by the root datum as `alpha_support`): w s_i rewrites one
column of P, s_i w the rows of P on that support.  A product with the
identity returns the other factor, and any other product takes two matrix
products.  The coweight action y -> y^T P^{-1} adds the rows of P^{-1} at
the nonzero coordinates of y.  Descents are signs of w.rho, where
rho = (1, ..., 1): s_i w < w iff (P rho)_i < 0, w s_i < w iff
(P^{-1} rho)_i < 0.  The stored word is the lexicographically smallest
reduced word, read by walking v = w.rho down to rho.

Every coset normal form runs one descent walk, which strips simple
reflections from the right and records their indices; the left-hand forms
walk w^{-1}.  The factor u in W_J is multiplied out from those indices
only by `min_coset_right` and `min_coset_left`, which return it; the
double coset, the parabolic membership tests and the callers in `faces`
and `monoids` read only the representative.
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


Support = Sequence[tuple[int, int]]


def _minus_column(mat: IntMat, i: int, support: Support) -> IntMat:
    """mat * s_i: column i of mat becomes mat[:, i] - mat * alpha_i, where
    support lists (k, alpha_i[k]) for the nonzero coordinates of alpha_i."""
    out = []
    for row in mat:
        x = row[i]
        for k, a in support:
            x -= row[k] * a
        new = list(row)
        new[i] = x
        out.append(tuple(new))
    return tuple(out)


def _minus_rows(mat: IntMat, i: int, support: Support) -> IntMat:
    """s_i * mat: row r of mat becomes mat[r] - alpha_i[r] * mat[i]; only the
    rows r in the support of alpha_i change."""
    top = mat[i]
    out = list(mat)
    for r, a in support:
        out[r] = tuple([x - a * y for x, y in zip(mat[r], top)])
    return tuple(out)


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
        support = self.datum.alpha_support
        if other._word is not None and len(other._word) == 1:
            i = other._word[0]
            return WeylElt(self.datum, _minus_column(self.mat_p, i, support[i]),
                           _minus_rows(self.mat_p_inv, i, support[i]))
        if self._word is not None and len(self._word) == 1:
            i = self._word[0]
            return WeylElt(self.datum, _minus_rows(other.mat_p, i, support[i]),
                           _minus_column(other.mat_p_inv, i, support[i]))
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
        """Contragredient action y^T P^{-1}: the rows of mat_p_inv at the
        nonzero coordinates of y, scaled and added."""
        m = len(self.mat_p_inv)
        if len(y) != m:
            raise DomainError(f"coweight needs {m} coordinates")
        out = [0] * m
        for yr, row in zip(y, self.mat_p_inv):
            if yr:
                out = [o + yr * x for o, x in zip(out, row)]
        return tuple(out)

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
        mats = (_minus_column(ident, j, datum.alpha_support[j]) for j in range(datum.n))
        datum._simple_elts = tuple(WeylElt(datum, s, s, (j,)) for j, s in enumerate(mats))
    return datum._simple_elts[i]


def _check_index(datum: RootDatum, i: int) -> None:
    if not 0 <= i < datum.n:
        raise DomainError(f"simple index {i + 1} out of range 1..{datum.n}")


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    """Multiply out a word of 0-based simple indices; the result carries its
    canonical reduced word, length and descent data."""
    w = identity_elt(datum)
    for i in word:
        _check_index(datum, i)
        w = w * simple(datum, i)
    return w


# -- coset normal forms -------------------------------------------------------


def _strip_right(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, list[int]]:
    """The descent walk: w' = w s_{i1} ... s_{ik}, stripping the smallest
    right descent in J at each step until none is left, and the stripped
    indices i1, ..., ik.  Every index of J is checked first."""
    datum = w.datum
    js = sorted(set(j))
    for i in js:
        _check_index(datum, i)
    letters: list[int] = []
    while (i := next((i for i in js if w.right_descent(i)), None)) is not None:
        w = w * simple(datum, i)
        letters.append(i)
    return w, letters


def _rep_left(w: WeylElt, j: Sequence[int]) -> WeylElt:
    """The minimal representative of W_J w: w^{-1} walked on the right."""
    return _strip_right(w.inv(), j)[0].inv()


def min_coset_right(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = w' * u with u in W_J and w' the minimal representative of
    w W_J (no right descent inside J)."""
    rep, letters = _strip_right(w, j)
    return rep, from_word(w.datum, reversed(letters))


def min_coset_left(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = u * w' with u in W_J and w' minimal in W_J w."""
    rep, letters = _strip_right(w.inv(), j)
    return rep.inv(), from_word(w.datum, letters)


def min_double_coset(w: WeylElt, k: Sequence[int], j: Sequence[int]) -> WeylElt:
    """The unique minimal element of W_K w W_J."""
    cur = w
    while True:
        nxt = _strip_right(_rep_left(cur, k), j)[0]
        if nxt == cur:
            return cur
        cur = nxt


def in_parabolic(w: WeylElt, j: Sequence[int]) -> bool:
    return _strip_right(w, j)[0].is_identity()


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
