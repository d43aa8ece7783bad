"""Coxeter/Weyl engine with exact integer matrices.

An element w is stored as P, its matrix on the weight lattice in the
fundamental-weight basis, and P^{-1}; equality is decided by P, never by
words.  A product with a simple reflection s_i = I - alpha_i e_i^T is a
rank-1 update that reads only the support of alpha_i (its nonzero
coordinates, kept by the root datum as `alpha_support`): w s_i rewrites one
column of P and the rows of P^{-1} on that support, s_i w the same on the
inverse side.  Each update is a C-level `operator` map over whole rows:
for k != i on the support, row k of P^{-1} becomes map(add, row_k, row_i)
when alpha_i[k] = -1, map(sub, row_k, row_i) when it is 1 (an extra
coordinate) and map(sub, row_k, map(mul, row_i, repeat(a))) otherwise, and
row i becomes map(neg, row_i), since alpha_i[i] = a_ii = 2; column i of P
takes the same maps over P's columns.  A word is multiplied out once:
`_multiply_out` transposes P once into a list of columns, applies the
updates letter by letter to it and to a list of the rows of P^{-1}, and
freezes the two into one element, so `from_word` builds at most one
element however long the word.  A product u v multiplies out the shorter
canonical word: v's on u, or u's reversed on v^{-1}, then inverted, as
u v = (v^{-1} u^{-1})^{-1}; the identity and the simple reflections are
cases of this rule.  The actions read a weight or
coweight by `cartan.exact_rationals` and a root by `cartan.exact_ints`, and
check the length of their vector; the coweight action y -> y^T P^{-1}
adds, with the same maps, the rows of P^{-1} at the nonzero coordinates of
y, scaled.  Descents are signs of w.rho, where rho = (1, ..., 1):
s_i w < w iff (P rho)_i < 0, w s_i < w iff (P^{-1} rho)_i < 0.  The stored
word is the lexicographically smallest reduced word, read by walking
v = w.rho down to rho, each step an update of v on the support of alpha_i.

The walks run on one vector and build no element per step.  Every coset
normal form runs one descent walk (`_strip_read`), which reads the right
descents from v = w^{-1} rho (s_i takes v to v - v_i alpha_i), records the
stripped indices and multiplies them out once; the left-hand forms walk
w^{-1}, and `min_double_coset` is one left walk, then one right walk.  The
public entries read each index set once, by `cartan.index_set`, and the
walk takes only a set so read; `faces` and `monoids` pass it the sets they
hold read (a face's Theta, its stabilizer type, `theta_perp`).  Only
`min_coset_right` and `min_coset_left` multiply the factor u in W_J out of
the stripped indices.  `dominant_rep` walks in ints: it reflects the
integer numerator of its weight in place and keeps its pairings with the
exposing coweights, updated in O(1) each per reflection, and forms a
Fraction only at its exits.  `antidominant_coweight` keeps the pairings
alpha_j(d), updated in O(n) per reflection.  Each walk hands its letters
to `_multiply_out` once, at the end, not back through `from_word`'s reader.

`denominator` walks the signed orbit of rho, truncated by height, on the
vectors rho - w rho alone: it reads the GCM and builds no element.

The entries read their arguments at the API boundary (`cartan`):
`identity_elt` and `simple` read the datum only on the miss that builds the
identity or the reflections.  The cores that `faces` and `monoids` call on
what kmx built (`_strip_read`, `_multiply_out`, `_antidominant`,
`_dominant`, `WeylElt._act_coweight`) read nothing; `_dominant` takes the
exposing coweights by `RootDatum._exposing` on the datum's special sets.

One object per element.  Each root datum keeps a table of its Weyl elements
keyed by P (`RootDatum._weyl`), and every element this module builds comes
from it (`_element`): the identity, the simple reflections, inverses, words
multiplied out and products.  A new entry shares its rows with the datum's
other elements (`RootDatum._weyl_rows`): row r of P is w^{-1} h_r, a real
coroot for r < n, so few distinct rows occur.  An element keeps what it has
worked out: its canonical word, its hash, its inverse (linked both ways),
`_multiply_out` by the letters (so `from_word` on a word met before is a
lookup on the identity), its descent walks by the J read, and the faces
it represents (`faces.normalize_face`).  The table grows by one entry per
distinct element the datum meets, about 0.6 KB each at rank 10 with its
memos; it lives as long as its datum, so building a new `RootDatum` starts
a fresh table.  A `WeylElt` built directly equals and hashes like the
table's element with the same P, but is not in the table; its products
read its word, so one that is no Weyl element raises there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence

from . import exact
from .cartan import (RootDatum, _check_datum, _expect, check_index, entries, exact_ints,
                     exact_rationals, index_set)
from .errors import (DomainError, InternalError, NotInTitsCone, PreconditionViolated,
                     Undecided)
from .exact import IntMat

Vec = tuple

# the default step budget of the Tits-cone walk (`dominant_rep`)
STEP_BUDGET = 2000


@dataclass(frozen=True, eq=False, slots=True)
class WeylElt:
    """An element of W, equal to another by P.  `_word` and the fields after
    it are what the element keeps once worked out (module docstring, "One
    object per element")."""
    datum: RootDatum
    mat_p: IntMat
    mat_p_inv: IntMat
    # canonical reduced word; computed lazily from w.rho when needed
    _word: Optional[tuple[int, ...]] = None
    _hash: Optional[int] = field(init=False, repr=False, default=None)
    _inv: Optional["WeylElt"] = field(init=False, repr=False, default=None)
    _products: Optional[dict] = field(init=False, repr=False, default=None)  # letters -> w s...
    _strips: Optional[dict] = field(init=False, repr=False, default=None)  # J read -> walk
    _faces: Optional[dict] = field(init=False, repr=False, default=None)  # Theta -> Face

    def __hash__(self):
        if self._hash is None:
            _keep(self, "_hash", hash((id(self.datum), self.mat_p)))
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, WeylElt):
            return NotImplemented
        return self.datum is other.datum and self.mat_p == other.mat_p

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            _keep(self, "_word", _canonical_word(self.datum, self.mat_p))
        return self._word  # type: ignore[return-value]

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        e = identity_elt(self.datum)
        return self is e or self.mat_p == e.mat_p

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        if not isinstance(other, WeylElt):
            return NotImplemented
        if self.datum is not other.datum:
            raise PreconditionViolated("product of Weyl elements of two root data")
        if len(other.word) <= len(self.word):
            return _multiply_out(self, other.word)
        return _multiply_out(other.inv(), self.word[::-1]).inv()  # u v = (v^-1 u^-1)^-1

    def inv(self) -> "WeylElt":
        if self._inv is None:
            other = _element(self.datum, self.mat_p_inv, self.mat_p)
            _keep(self, "_inv", other)
            if self.datum._weyl.get(self.mat_p) is self:  # a table element: link back
                _keep(other, "_inv", self)
        return self._inv  # type: ignore[return-value]

    # -- actions -------------------------------------------------------------

    def act_weight(self, x: Sequence) -> Vec:
        """P x, for a weight read by `RootDatum._weight`."""
        return exact.mat_vec(self.mat_p, self.datum._weight(x))

    def act_coweight(self, y: Sequence) -> Vec:
        """Contragredient action y^T P^{-1} on a coweight read by
        `cartan.exact_rationals` (a rational point of H, as the weights are of
        P)."""
        y = exact_rationals(y, "coweight coordinate")
        m = len(self.mat_p_inv)
        if len(y) != m:
            raise DomainError(f"coweight needs {m} coordinates")
        return self._act_coweight(y)

    def _act_coweight(self, y: Vec) -> Vec:
        """act_coweight of a coweight of m coordinates that kmx built: the
        rows of mat_p_inv at the nonzero coordinates of y, scaled and added."""
        out = repeat(0, len(y))
        for yr, row in zip(y, self.mat_p_inv):
            if yr:
                out = map(add, out, map(mul, row, repeat(yr)))
        return tuple(out)

    def act_root(self, c: Sequence) -> Vec:
        """w on the root lattice in the simple-root basis, for an integer
        root read by `cartan.exact_ints`: the reflections of the canonical
        word, s_i acting by c_i -= sum_j a_ij c_j."""
        a = self.datum.gcm.a
        v = list(exact_ints(c, "root coordinate"))
        if len(v) != self.datum.n:
            raise DomainError(f"root needs {self.datum.n} coordinates")
        for i in reversed(self.word):
            v[i] -= exact.vec_dot(a[i], v)
        return tuple(v)

    # -- descents ------------------------------------------------------------

    def right_descent(self, i: int) -> bool:
        """True iff w(alpha_i) is a negative root, i.e. (P^{-1} rho)_i < 0."""
        check_index(self.datum.n, i)
        return sum(self.mat_p_inv[i]) < 0

    def left_descent(self, i: int) -> bool:
        """True iff w^{-1}(alpha_i) is a negative root, i.e. (P rho)_i < 0."""
        check_index(self.datum.n, i)
        return sum(self.mat_p[i]) < 0

    def right_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.right_descent(i))

    def left_descents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.datum.n) if self.left_descent(i))


def _canonical_word(datum: RootDatum, mat_p: IntMat) -> tuple[int, ...]:
    """Lex-smallest reduced word: strip the smallest left descent of w.rho."""
    v = [sum(row) for row in mat_p]
    word = _descend(datum, v, range(datum.n))
    if tuple(v) != datum.rho():
        raise InternalError("w.rho is dominant but differs from rho")
    return tuple(word)


def _descend(datum: RootDatum, v: list, js: Iterable[int]) -> list[int]:
    """The letters i of the walk v -> s_i v = v - v_i alpha_i (in place), i the
    first in js with v_i < 0.  A step raises v by a positive multiple of
    alpha_i, so from v = w.rho it takes at most ht(rho - v) steps; more (a
    WeylElt built directly) is an InternalError."""
    x, d, rho_x = datum._height  # alpha_i(x) = d, so ht(rho - v) = <rho - v, x> / d
    steps = (rho_x - exact.vec_dot(v, x)) // d
    support = datum.alpha_support
    letters: list[int] = []
    while True:
        for i in js:  # a plain loop: a generator per step costs more than the bound
            if v[i] < 0:
                break
        else:
            return letters
        if len(letters) >= steps:
            raise InternalError(f"the walk from w.rho passed ht(rho - w.rho) = {steps} steps")
        c = v[i]
        for k, a in support[i]:
            v[k] -= c * a
        letters.append(i)


def _keep(w: WeylElt, name: str, value) -> None:
    """Store a value an element has worked out (the element is frozen)."""
    object.__setattr__(w, name, value)


def _memo(w: WeylElt, name: str) -> dict:
    """The element's memo dict `name`, created empty on first use."""
    d = getattr(w, name)
    if d is None:
        d = {}
        _keep(w, name, d)
    return d


_added = 0  # elements added to the tables of all root data in this process


def elements_added() -> int:
    """How many Weyl elements the tables of all root data have taken in this
    process; `kmx verify --timings` reports the growth per check."""
    return _added


def _element(datum: RootDatum, p: IntMat, p_inv: IntMat) -> WeylElt:
    """The datum's element with matrix P, from its table `RootDatum._weyl`.
    On a miss every row of P and P^{-1} becomes the datum's canonical copy of
    that row (`RootDatum._weyl_rows`): row r of P is the coweight w^{-1} h_r,
    a real coroot for r < n, so few distinct rows occur."""
    global _added
    w = datum._weyl.get(p)
    if w is None:
        rows = datum._weyl_rows
        p = tuple([rows.setdefault(r, r) for r in p])
        w = datum._weyl[p] = WeylElt(datum, p, tuple([rows.setdefault(r, r) for r in p_inv]))
        _added += 1
    return w


def identity_elt(datum: RootDatum) -> WeylElt:
    """The datum's identity, built on first use; only a RootDatum keeps one,
    so the datum's type is read there."""
    e = getattr(datum, "_identity_elt", None)
    if e is None:
        ident = exact.identity(_check_datum(datum).m)
        e = datum._identity_elt = _element(datum, ident, ident)
        _keep(e, "_word", ())
    return e


def simple(datum: RootDatum, i: int) -> WeylElt:
    """The simple reflection s_i, the datum's reflections built on first
    use; only a RootDatum keeps them, so the datum's type is read there."""
    elts = getattr(datum, "_simple_elts", None)
    if elts is None:
        e = identity_elt(_check_datum(datum))
        elts = tuple(_multiply_out(e, (j,)) for j in range(datum.n))
        for j, s in enumerate(elts):
            _keep(s, "_word", (j,))  # its canonical word, known without a walk
        datum._simple_elts = elts
    check_index(datum.n, i)
    return elts[i]


def _multiply_out(w: WeylElt, letters: Sequence[int]) -> WeylElt:
    """w s_{i1} ... s_{ik} for the 0-based letters i1, ..., ik, kept in w's
    memo under the letters.

    Each s_i = I - alpha_i e_i^T is a rank-1 update read over the support of
    alpha_i, as `operator` maps on whole vectors.  P is held by columns
    (one transpose in, one out): column i becomes P[:, i] - P alpha_i, the
    sum over the support of map(neg, P[:, i]) and, for k != i, of
    P[:, k] added when alpha_i[k] = -1 or subtracted when it is 1, else
    map(mul, P[:, k], repeat(a)) subtracted.  Row k of P^{-1} on the
    support becomes P^{-1}[k] - alpha_i[k] P^{-1}[i] by the same maps, and
    row i becomes map(neg, P^{-1}[i]).  The two are frozen once and looked
    up in the table.  No letters: w itself."""
    if not letters:
        return w
    key = tuple(letters)
    memo = _memo(w, "_products")
    out = memo.get(key)
    if out is None:
        support = w.datum.alpha_support
        cols = list(zip(*w.mat_p))
        p_inv = list(w.mat_p_inv)
        for i in key:
            top = p_inv[i]
            col = map(neg, cols[i])
            for k, a in support[i]:
                if k == i:
                    p_inv[i] = tuple(map(neg, top))
                elif a == -1:
                    p_inv[k] = tuple(map(add, p_inv[k], top))
                    col = map(add, col, cols[k])
                elif a == 1:  # the extra coordinate of a realization with m > n
                    p_inv[k] = tuple(map(sub, p_inv[k], top))
                    col = map(sub, col, cols[k])
                else:
                    p_inv[k] = tuple(map(sub, p_inv[k], map(mul, top, repeat(a))))
                    col = map(sub, col, map(mul, cols[k], repeat(a)))
            cols[i] = tuple(col)
        out = memo[key] = _element(w.datum, tuple(zip(*cols)), tuple(p_inv))
    return out


def from_word(datum: RootDatum, word: Iterable[int]) -> WeylElt:
    """Multiply out a word of 0-based simple indices; the result carries its
    canonical reduced word, length and descent data.  A word met before is
    a lookup in the identity's memo."""
    n = _check_datum(datum).n
    word = entries(word, "simple index")
    for i in word:
        check_index(n, i)
    return _multiply_out(identity_elt(datum), word)


# -- coset normal forms -------------------------------------------------------


def _strip_read(w: WeylElt, js: tuple[int, ...]) -> tuple[WeylElt, tuple[int, ...]]:
    """The descent walk for a J read by `index_set`, kept in w's memo under
    J: (w', (i1, ..., ik)) with w' = w s_{i1} ... s_{ik}, each i the smallest
    right descent in J left, found by `_descend` on v = w^{-1} rho (i is a
    right descent iff v_i < 0); w' is multiplied out once at the end."""
    memo = _memo(w, "_strips")
    walk = memo.get(js)
    if walk is None:
        letters = _descend(w.datum, [sum(row) for row in w.mat_p_inv], js)
        walk = memo[js] = (_multiply_out(w, letters), tuple(letters))
    return walk


def _rep_left(w: WeylElt, js: tuple[int, ...]) -> WeylElt:
    """The minimal representative of W_J w, J read: w^{-1} walked on the right."""
    return _strip_read(w.inv(), js)[0].inv()


def min_coset_right(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = w' * u with u in W_J and w' the minimal representative of
    w W_J (no right descent inside J); J is read by `index_set`."""
    rep, letters = _strip_read(w, index_set(_expect(w, WeylElt, "a WeylElt").datum.n, j))
    return rep, _multiply_out(identity_elt(w.datum), letters[::-1])


def min_coset_left(w: WeylElt, j: Sequence[int]) -> tuple[WeylElt, WeylElt]:
    """Split w = u * w' with u in W_J and w' minimal in W_J w."""
    rep, letters = _strip_read(_expect(w, WeylElt, "a WeylElt").inv(), index_set(w.datum.n, j))
    return rep.inv(), _multiply_out(identity_elt(w.datum), letters)


def min_double_coset(w: WeylElt, k: Sequence[int], j: Sequence[int]) -> WeylElt:
    """The unique minimal element of W_K w W_J: one left walk, then one
    right walk, K and J each read once by `index_set`.

    The left walk gives x with no left descent in K.  Each step y -> y s of
    the right walk (y s < y) keeps that: were t in K a left descent of y s,
    then l(t y) = l(t (y s) s) <= l(t y s) + 1 = l(y) - 1, so t would be a
    left descent of y.  The walk ends at x' in W_K w W_J with no left
    descent in K and no right descent in J, and the minimal element is the
    only such element of its double coset (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, ch. 2)."""
    ks, js = index_set(_expect(w, WeylElt, "a WeylElt").datum.n, k), index_set(w.datum.n, j)
    return _strip_read(_rep_left(w, ks), js)[0]


def in_parabolic(w: WeylElt, j: Sequence[int]) -> bool:
    """w in W_J, J read by `index_set`: w's right walk in J ends at 1."""
    return _strip_read(w, index_set(_expect(w, WeylElt, "a WeylElt").datum.n, j))[0].is_identity()


def in_parabolic_product(w: WeylElt, k: Sequence[int], j: Sequence[int]) -> bool:
    """Membership w in W_K W_J, decided by the minimal double coset rep."""
    return min_double_coset(w, k, j).is_identity()


# -- dominance ----------------------------------------------------------------


@dataclass(frozen=True)
class DominantResult:
    dominant: Vec
    w: WeylElt
    facet_type: tuple[int, ...]


def dominant_rep(datum: RootDatum, weight: Sequence, cap: int = STEP_BUDGET) -> DominantResult:
    """Dominant representative of a weight, with a Weyl witness w*dom = weight.
    The weight is read by `RootDatum._weight`: a coordinate that is not a
    Fraction or an int, or a length other than m, is a DomainError.

    Membership in the Tits cone is only semi-decidable; the loop reflects at
    the smallest negative coordinate and watches two exact negative
    certificates along the way:
      * lam(u * c_Theta) < 0 for a tracked exposing coweight, or
      * lam(u * c_Theta) = 0 while lam vanishes on no larger set than the
        face span requires.
    Raises NotInTitsCone with the certificate, or Undecided(cap) if the
    budget runs out without a verdict; its .weight is the last weight the
    walk reached.  A cap (step budget) that is not a Python int, or is
    negative, is a DomainError.

    The walk runs in ints.  The weight is scaled once by d, the lcm of its
    denominators, and the walk reflects the integer numerator cur = d lam
    in place, and beside it one pairing <cur, c_Theta> per special
    Theta; a step with s_i subtracts cur_i <alpha_i, c_Theta> from each, so
    the certificates cost O(1) per Theta and reflection.  A Fraction x / d
    is formed only at the exits: the dominant weight, Undecided.weight and
    the two certificates' values.  The walk keeps the applied letters; w is
    multiplied out once, when it is returned.
    """
    return _dominant(datum, _check_datum(datum)._weight(weight), _budget(cap))


def _budget(cap) -> int:
    """A step budget read: one that is not a Python int, or is negative, is
    a DomainError."""
    if exact_ints((cap,), "step budget")[0] < 0:
        raise DomainError(f"step budget {cap} is negative")
    return cap


def _dominant(datum: RootDatum, lam: tuple, cap: int) -> DominantResult:
    """dominant_rep of a weight read by `RootDatum._weight`, under a budget
    read by `_budget`."""
    d = lcm(*(x.denominator for x in lam))
    numerator = tuple([x.numerator * (d // x.denominator) for x in lam])
    cur = list(numerator)
    n, alpha, support = datum.n, datum.alpha, datum.alpha_support
    thetas = [t for t in datum.special_sets() if t]
    cvecs = [datum._exposing(t) for t in thetas]
    vals = [exact.vec_dot(cur, c) for c in cvecs]  # <cur, c_Theta>
    steps = [[exact.vec_dot(alpha[i], c) for c in cvecs] for i in range(n)]  # <alpha_i, c_Theta>
    letters: list[int] = []  # w = s_{letters[0]} s_{letters[1]} ..., w * current = input
    for _ in range(cap + 1):
        for theta, val in zip(thetas, vals):
            if val < 0:
                applied = _multiply_out(identity_elt(datum), letters).inv().word
                cert = (f"pairing with the type-{tuple(i + 1 for i in theta)} exposing "
                        f"coweight is {Fraction(val, d)} < 0 after applying {applied}")
                raise NotInTitsCone(cert)
            if val == 0:
                bad = next((i for i in theta if cur[i] != 0), None)
                if bad is not None:
                    cert = (f"vanishes on the type-{tuple(i + 1 for i in theta)} exposing "
                            f"coweight but pairs to {Fraction(cur[bad], d)} != 0 with "
                            f"coroot {bad + 1}")
                    raise NotInTitsCone(cert)
        i = next((i for i in range(n) if cur[i] < 0), None)
        if i is None:
            w = _multiply_out(identity_elt(datum), letters)
            if exact.mat_vec(w.mat_p, cur) != numerator:
                raise InternalError("dominant representative does not map back to the input")
            return DominantResult(dominant=tuple([Fraction(x, d) for x in cur]), w=w,
                                  facet_type=tuple(i for i in range(n) if cur[i] == 0))
        c = cur[i]  # s_i cur = cur - <cur, h_i> alpha_i
        for k, a in support[i]:
            cur[k] -= c * a
        vals = [x - c * y for x, y in zip(vals, steps[i])]
        letters.append(i)
    raise Undecided(cap, weight=tuple([Fraction(x, d) for x in cur]))


def antidominant_coweight(datum: RootDatum, coweight: Sequence) -> tuple[Vec, WeylElt]:
    """Minimize an integer coweight to its antidominant representative.

    The coweight has datum.m Python-int coordinates; anything else is a
    DomainError.  Precondition (caller-guaranteed): the input is a
    nonnegative integer combination of Weyl images of exposing coweights,
    which forces rho(u*d) >= 0 for every u.  Each step strictly decreases
    the nonnegative integer rho(d), so the loop ends within rho(d) steps;
    violations raise PreconditionViolated.

    The walk keeps the pairings alpha_j(d): a step with s_i, c = alpha_i(d)
    > 0, takes d_i -= c and alpha_j(d) -= c a_ij, O(n) per reflection.  The
    returned v, with v * coweight = d, is multiplied out once at the end.
    """
    d = exact_ints(coweight, "coweight coordinate")
    if len(d) != _check_datum(datum).m:
        raise DomainError(f"coweight needs {datum.m} coordinates")
    return _antidominant(datum, d)


def _antidominant(datum: RootDatum, coweight: Vec) -> tuple[Vec, WeylElt]:
    """antidominant_coweight of an int coweight of m coordinates that kmx
    built (`faces._face_exposed_by`)."""
    d = list(coweight)
    budget = exact.vec_dot(datum.rho(), d)
    if budget < 0:
        raise PreconditionViolated(f"rho(d) = {budget} < 0")
    n, a = datum.n, datum.gcm.a
    pairs = [exact.vec_dot(datum.alpha[j], d) for j in range(n)]
    letters: list[int] = []
    while (i := next((j for j in range(n) if pairs[j] > 0), None)) is not None:
        if len(letters) == budget:
            raise PreconditionViolated("descent exceeded the rho budget")
        c = pairs[i]
        d[i] -= c
        pairs = [x - c * y for x, y in zip(pairs, a[i])]
        letters.append(i)
    if any(x < 0 for x in d):
        raise PreconditionViolated("antidominant limit has a negative coordinate")
    return tuple(d), _multiply_out(identity_elt(datum), letters[::-1])


# -- the Weyl denominator -----------------------------------------------------


def denominator(datum: RootDatum, max_height: int) -> dict[Vec, int]:
    """The Weyl denominator sum_w eps(w) e^{w rho - rho}, truncated: the map
    rho - w rho (in simple-root coordinates) -> eps(w), for every w with
    ht(rho - w rho) <= max_height.  The key 0 is w = 1.

    A breadth-first walk from beta = 0.  At beta = rho - w rho the pairing
    p = <w rho, h_i> = 1 - sum_k a_ik beta_k; the walk steps to
    beta + p e_i = rho - s_i w rho only when p > 0.  Then w^{-1} alpha_i is
    positive, so l(s_i w) = l(w) + 1: level k of the walk holds the w of
    length k, and eps(w) = (-1)^k is the parity of the level.  Every w != 1
    is reached from s_i w, for i a left descent of w, whose beta has
    smaller height; rho is regular, so beta names w, and a beta met twice in
    a level is one element.  A step raises the height by p > 0, so the
    walk stops at max_height without losing an element below it.  A
    max_height that is not a Python int, or is negative, is a DomainError.
    """
    if exact_ints((max_height,), "height")[0] < 0:
        raise DomainError(f"height {max_height} is negative")
    a, n = _check_datum(datum).gcm.a, datum.n
    level: dict[Vec, int] = {(0,) * n: 1}
    out = dict(level)
    sign = 1
    while level:
        sign = -sign
        nxt: dict[Vec, int] = {}
        for beta in level:
            h = sum(beta)
            for i in range(n):
                p = 1 - exact.vec_dot(a[i], beta)
                if p > 0 and h + p <= max_height:
                    nxt[beta[:i] + (beta[i] + p,) + beta[i + 1:]] = sign
        out.update(nxt)
        level = nxt
    return out
