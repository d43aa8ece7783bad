"""Coxeter/Weyl engine with exact integer matrices.

Elements act on the weight lattice P in the fundamental-weight basis and on
the root lattice in the simple-root basis; equality is always decided by the
P-matrix, never by words.  The stored word is the lexicographically smallest
reduced word, recomputed from the matrix by greedy left-descent stripping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import exact
from .cartan import RootDatum
from .errors import InternalError, NotInTitsCone, PreconditionViolated, Undecided
from .exact import IntMat

Vec = tuple


def _simple_matrices(datum: RootDatum) -> tuple[tuple[IntMat, ...], tuple[IntMat, ...]]:
    """Reflection matrices on P (Lambda-basis) and on Q (alpha-basis)."""
    m, n = datum.m, datum.n
    ps = []
    qs = []
    for i in range(n):
        al = datum.alpha[i]
        p = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
        for r in range(m):
            p[r][i] -= al[r]
        ps.append(tuple(tuple(row) for row in p))
        a = datum.gcm.a
        q = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for c in range(n):
            q[i][c] -= a[i][c]
        qs.append(tuple(tuple(row) for row in q))
    return tuple(ps), tuple(qs)


def simple_mats(datum: RootDatum):
    if datum._simple_p is None:
        datum._simple_p, datum._simple_q = _simple_matrices(datum)
    return datum._simple_p, datum._simple_q


@dataclass(frozen=True)
class WeylElt:
    datum: RootDatum = field(compare=False)
    mat_p: IntMat
    mat_p_inv: IntMat = field(compare=False)
    mat_q: IntMat = field(compare=False)
    mat_q_inv: IntMat = field(compare=False)
    # canonical reduced word; computed lazily from the matrix when needed
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
            object.__setattr__(self, "_word", _canonical_word(
                self.datum, self.mat_p, self.mat_p_inv, self.mat_q, self.mat_q_inv))
        return self._word  # type: ignore[return-value]

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return self.mat_p == exact.identity(self.datum.m)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        if self.datum is not other.datum:
            raise PreconditionViolated("product of Weyl elements of two root data")
        return _from_mats(
            self.datum,
            exact.mat_mul(self.mat_p, other.mat_p),
            exact.mat_mul(other.mat_p_inv, self.mat_p_inv),
            exact.mat_mul(self.mat_q, other.mat_q),
            exact.mat_mul(other.mat_q_inv, self.mat_q_inv),
        )

    def inv(self) -> "WeylElt":
        return _from_mats(self.datum, self.mat_p_inv, self.mat_p,
                          self.mat_q_inv, self.mat_q)

    # -- actions -------------------------------------------------------------

    def act_weight(self, x: Sequence) -> Vec:
        return exact.mat_vec(self.mat_p, tuple(x))

    def act_coweight(self, y: Sequence) -> Vec:
        # contragredient action: the H-matrix is the transpose of mat_p_inv
        mi = self.mat_p_inv
        rng = range(len(y))
        return tuple(sum(mi[r][c] * y[r] for r in rng) for c in rng)

    def act_root(self, c: Sequence) -> Vec:
        return exact.mat_vec(self.mat_q, tuple(c))

    # -- descents ------------------------------------------------------------

    def right_descent(self, i: int) -> bool:
        """True iff w(alpha_i) is a negative root."""
        return all(self.mat_q[r][i] <= 0 for r in range(self.datum.n))

    def left_descent(self, i: int) -> bool:
        return all(self.mat_q_inv[r][i] <= 0 for r in range(self.datum.n))

    def right_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.right_descent(i))

    def left_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.left_descent(i))


def _canonical_word(datum, mat_p, mat_p_inv, mat_q, mat_q_inv) -> tuple[int, ...]:
    """Lex-smallest reduced word by greedy smallest-left-descent stripping."""
    ps, qs = simple_mats(datum)
    n, m = datum.n, datum.m
    word = []
    p, pi, q, qi = mat_p, mat_p_inv, mat_q, mat_q_inv
    ident = exact.identity(m)
    while p != ident:
        i = next((i for i in range(n) if all(qi[r][i] <= 0 for r in range(n))), None)
        if i is None:
            raise InternalError("nonidentity element with no left descent")
        word.append(i)
        p = exact.mat_mul(ps[i], p)
        pi = exact.mat_mul(pi, ps[i])
        q = exact.mat_mul(qs[i], q)
        qi = exact.mat_mul(qi, qs[i])
    return tuple(word)


def _from_mats(datum, mat_p, mat_p_inv, mat_q, mat_q_inv) -> WeylElt:
    return WeylElt(datum, mat_p, mat_p_inv, mat_q, mat_q_inv)


def identity_elt(datum: RootDatum) -> WeylElt:
    cached = getattr(datum, "_identity_elt", None)
    if cached is None:
        m, n = datum.m, datum.n
        cached = WeylElt(datum, exact.identity(m), exact.identity(m),
                         exact.identity(n), exact.identity(n), ())
        setattr(datum, "_identity_elt", cached)
    return cached


def simple(datum: RootDatum, i: int) -> WeylElt:
    cached = getattr(datum, "_simple_elts", None)
    if cached is None:
        ps, qs = simple_mats(datum)
        cached = tuple(WeylElt(datum, ps[j], ps[j], qs[j], qs[j], (j,))
                       for j in range(datum.n))
        setattr(datum, "_simple_elts", cached)
    return cached[i]


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    """Multiply out a word of simple indices; the result carries its
    canonical reduced word, length and descent data."""
    w = identity_elt(datum)
    for i in word:
        if not 0 <= i < datum.n:
            raise ValueError(f"simple index {i} out of range")
        w = w * simple(datum, i)
    return w


mul_reduce = from_word


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


def coset_normalize(w: WeylElt, j: Sequence[int], side: str = "right",
                    k: Sequence[int] = ()):
    """Dispatch for one-sided and double coset normal forms."""
    if side == "right":
        return min_coset_right(w, j)
    if side == "left":
        return min_coset_left(w, j)
    if side == "double":
        return min_double_coset(w, k, j)
    raise ValueError(f"unknown side {side!r}")


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

    Precondition (caller-guaranteed): the input is a nonnegative integer
    combination of Weyl images of exposing coweights, which forces
    rho(u*d) >= 0 for every u.  Each step strictly decreases the nonnegative
    integer rho(d), so the loop ends within rho(d) steps; violations raise
    PreconditionViolated.
    """
    d = tuple(int(x) for x in coweight)
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
