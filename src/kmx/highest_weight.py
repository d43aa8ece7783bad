"""Depth-truncated integrable highest-weight modules and operator words.

Everything is exact.  A slice stores, per weight down to a fixed height, a
basis of lowering monomials, its Gram matrix under the contravariant form,
and the raising and lowering operator matrices in those bases.  The slice
is a weight graph: the build forms each weight lam = mu - alpha_i once,
together with the spaces above it, and each weight space keeps one edge
per operator, up[i] = (the space at weight + alpha_i, ints, den) for e_i
and down[i] = (the space at weight - alpha_i, ints, den) for f_i, which
every later step reads.  A missing key is an operator that is zero there.
At each weight the candidates are f_i b (b a basis vector one step up).
L(hw) is irreducible, so a vector below hw is zero iff every e_j kills it
(Kac, Infinite-dimensional Lie algebras, ch. 9): the linear relations of
the candidates are the column relations of their stacked e-images.  One
fraction-free Gauss-Jordan elimination of that matrix (exact.int_rref)
picks the first independent candidates in degree-lex order as the basis
and gives every candidate's coordinates in it, which are the lowering
matrices.  The Gram matrix is formed on the basis only, and certified by
its symmetry: each entry <f_i b_k | c> = <b_k | e_i c> is formed from both
sides.  Operator application is either exact (all terms stay inside the
slice) or a hard DepthExceeded error; results are never silently
truncated.

Every rational object of the engine is Python ints over one denominator,
in the style of Bareiss's fraction-free elimination.  An edge holds its
matrix as ints over den: down[i] the int_rref rows over their common pivot
d, and up[i] the selected candidates' e-images over the lcm of their
denominators.  Each e-image is a gcd-reduced (ints, den) pair, and each
Gram entry is the exact quotient of an integer dot product by den (a
remainder is an InternalError).  A Vector is int parts over one den in
lowest terms, with den 1 on the zero vector, so equal vectors compare
equal.  A word runs in one raw pass: its letters act on int parts keyed
by the WeightSpace, over one running denominator, along the edges, and
the word reduces once, to a Vector, at its end.  An X+- letter sums its
exponential series in ints and drops the parts that cancel; the T letter
reads s^<wt,h> as an int pair.  The Chevalley generators e_i and f_i reach
a Vector by one route, apply_chevalley: one `_step` per generator along
the edges, in the same raw pass, so only this module knows the raw format.

The N letter is the lift n_i = exp(e_i) exp(-f_i) exp(e_i), which maps the
space at mu onto the one at s_i mu (Kac, Lemma 3.8).  Each WeightSpace keeps
n_mat[i] = (the space at s_i mu, ints, den), the matrix of n_i there,
formed on first use by the three exponentials on each basis vector.  Where
one of those runs raises DepthExceeded, the memo keeps that refusal instead,
so the exponentials run at most once per space and letter.  A word applies
the matrix to each part of its vector, or raises DepthExceeded at the weight
where the basis run of the first part without one left the window.  So a
vector whose own three exponentials would stay inside the window is refused
too: a refusal may stand where the whole vector's run would give a value,
but a value is never a different one.  When every part has a matrix, the
value is exact:
- every intermediate term of the three exponentials is linear in v, and a
  DepthExceeded is raised only at a nonzero part whose step exits the
  window;
- so if no basis vector's run leaves a nonzero part at such a weight, no
  vector's run does, and the value on v is the matrix times v;
- n_i maps distinct parts to distinct spaces (s_i is a bijection on
  weights), so their images never cancel, and no part of the result is
  zero (n_i is invertible).
theta reads the top coordinate of the raw pass on v_top, since the top Gram
matrix is ((1,),).  The one column pass, `_columns`, applies words to the
basis in height order up to a height bound and raises DepthExceeded at the
first vector a word leaves the window from.  word_columns and probe_equal
wrap its raw images as Vectors, which probe_equal compares and verify's
fitted probes cut below the vector it stopped at; evaluate_word reads them
raw.  Fraction appears only in the letter parameters and in the values
handed back by theta, matrix_coefficient, inner, evaluate_word and
Distinct.

A Letter reads its fields once, when it is built; the one word reader,
`_read_word`, checks each letter against the datum before any is applied,
and format_word only prints.  The entries read their other arguments at the
API boundary (`cartan`); build_basis and probe_equal take a slice through
one cache lookup, `_cached_slice`, which builds a slice it has not cached
without reading again (`ModuleSlice._setup`), and bruhat_cell runs the
Weyl-monoid cores.
bruhat_cell reads the cell of a factored word in the Weyl monoid W-hat,
where kappa lands, so it forms no torus cocycle.

The build decides in closed form which weights it visits (Kac,
Infinite-dimensional Lie algebras, ch. 11), so it forms no space at a
non-weight.  The window is a set of edges: its last pass marks down[i] =
_BEYOND on each bottom-layer space whose f_i lands at a weight one step
past the window, and forms nothing there.  So a step reads a DepthExceeded
off the edge, and forms only the weight that the error names.
Write nu = hw - sum_k c_k alpha_k, with <nu, h_i> its i-th coordinate
(i < n).  Walk nu to the dominant chamber: while some <nu, h_i> < 0, apply
s_i, which adds <nu, h_i> to c_i.  Then nu is a weight of L(hw) iff c stays
>= 0 on the walk and, at its dominant end lam, every connected component of
supp c in the Dynkin graph holds a node i with <hw, h_i> > 0.  c only falls,
so the walk ends within sum c steps.
- W permutes the weights, and every weight lies below hw.  So a negative
  c_i rules nu out, and nu is a weight iff lam is.
- Necessity of the support rule.  Let C be a component of supp c with
  <hw, h_j> = 0 on C.  In a lowering monomial of weight lam, the letters
  f_j with j in C commute with the others ([f_j, f_k] = 0 when a_jk = 0).
  So they can act first, and f_j v_hw = 0.
- Sufficiency.  Let lam be dominant and obey the rule.  Grow s from 0 to c
  one unit at a time, adding 1 to s_i while s_i < c_i and <hw - s, h_i> > 0.
  Each hw - s stays a weight: on an integrable module, f_i kills no nonzero
  vector at a weight mu with <mu, h_i> > 0 (sl2).  Suppose the growth stops
  at s != c.  Let C be a component of R = supp(c - s), and A_C the GCM on
  C.  On R, <hw - s, h_i> <= 0, since no step is left, and <hw - c, h_i>
  >= 0, since lam is dominant.  So d = c - s has <d, h_i> <= 0 on its
  support: A_C d_C <= 0 with d_C > 0, and A_C is not of finite type (Kac,
  Thm 4.3).  On C, <s, h_i> >= <hw, h_i>, that is,
  (A_C s_C)_i >= <hw, h_i> + sum over j outside C of |a_ij| s_j >= 0.  For
  affine or indefinite A_C this forces A_C s_C = 0 (Thm 4.3).  Then
  <hw, h_i> = 0 on C, and s_j = 0 at every neighbour j of C.  Such j lie
  outside R, so c_j = s_j = 0, and C is a component of supp c on which hw
  vanishes, which the rule excludes.
A predicted weight whose candidates' e-images all vanish is an
InternalError.

Weight multiplicities come from two independent routes: the Freudenthal
recursion (fed by root multiplicities read off the Weyl denominator, an
integer recurrence on ht(b) c_b, pushed from its nonzero terms) and the
e-image ranks that build the bases.  Both recursions visit only the b that
receive a term.  The test suite crosses the routes against each other;
neither consults the other here, and the recursion reads no weight test.
The build does not assume that the contravariant form is nondegenerate;
the test suite checks that every basis Gram matrix is nonsingular.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from . import exact, faces as FC, monoids as MO, weyl as W
from .cartan import (RootDatum, _check_datum, _components, _expect, check_index, entries,
                     exact_ints, exact_rationals, natural, one_based, torus_values,
                     typed_numbers)
from .errors import (DepthExceeded, DepthTooLarge, DomainError, InternalError,
                     NotDominant, NotFactored, PreconditionViolated, SizeGuard)
from .exact import IntMat, IntVec
from .faces import Face
from .monoids import NhatElt, WmonElt

DEFAULT_MAX_DEPTH = 8
DEFAULT_MAX_RANK = 3

Wt = IntVec  # weight in fundamental-weight coordinates
Beta = IntVec  # element of the positive root cone in simple-root coordinates


def _lowest(ints: Sequence[int], den: int) -> tuple[IntVec, int]:
    """The rational vector ints / den (den > 0) in lowest terms."""
    g = math.gcd(den, *ints)
    if g == 1:
        return tuple(ints), den
    return tuple(x // g for x in ints), den // g


def _over_common_den(pairs: Sequence[tuple[IntVec, int]]) -> tuple[list[IntVec], int]:
    """(ints, den) pairs over the lcm of their denominators: the scaled
    ints, in order, and that lcm."""
    if len(pairs) == 1:
        return [pairs[0][0]], pairs[0][1]
    den = math.lcm(*[d for _, d in pairs])
    return [v if d == den else [x * (den // d) for x in v] for v, d in pairs], den


# -- root multiplicities (Weyl denominator) ------------------------------------


def root_multiplicities(datum: RootDatum, max_height: int) -> dict[Beta, int]:
    """Multiplicities of positive roots up to the given height.

    Read off the Weyl denominator d = weyl.denominator (Kac, ch. 10):
    prod_{a > 0} (1 - e^{-a})^mult(a) = sum_b d_b e^{-b}, so
    -log sum_b d_b e^{-b} = sum_b c_b e^{-b} with c_b = sum_k mult(b/k)/k.
    The height derivation e^{-b} -> ht(b) e^{-b} turns the logarithm into a
    recurrence on the integers g_b = ht(b) c_b = sum_k ht(b/k) mult(b/k):
    g_b = -ht(b) d_b - sum of d_delta g_{b - delta} over delta in supp d
    with 0 < delta < b.  Then ht(b) mult(b) is g_b less its k >= 2 terms.
    It runs in push form: g_b starts as -ht(b) d_b, and each nonzero g_b,
    once known, adds -d_delta g_b to every b + delta in the window.  These
    sums wait in one dict per height, and height h visits only the b that
    hold one, in sorted order, where the natural-number check runs.  A b
    that nothing reaches has g_b = 0, and since every term ht(b/k) mult(b/k)
    of g_b is >= 0, mult(b) = 0 and every mult(b/k) = 0 there.  Real roots
    come out with multiplicity one, which the test suite spot-checks against
    the Weyl orbit of the simple roots.  Each call returns its own copy of
    the dict cached on the datum.
    """
    _check_datum(datum)
    exact_ints((max_height,), "height")
    cache = datum._root_mults
    if max_height not in cache:
        d = W.denominator(datum, max_height)
        steps = sorted((sum(delta), delta, e) for delta, e in d.items() if any(delta))
        # pending[h][b]: g_b, summed over the b - delta pushed so far
        pending: list[dict[Beta, int]] = [{} for _ in range(max_height + 1)]
        for hd, delta, e in steps:
            pending[hd][delta] = -hd * e
        mult: dict[Beta, int] = {}
        for h in range(1, max_height + 1):
            for b, g in sorted(pending[h].items()):
                # the part of g_b that comes from proper divisors b/k, k >= 2,
                # the k that divide every entry of b
                common = math.gcd(*b)
                below = sum(h // k * mult.get(tuple(x // k for x in b), 0)
                            for k in range(2, common + 1) if common % k == 0)
                m, rem = divmod(g - below, h)
                if rem or m < 0:
                    raise InternalError(f"root multiplicity {g - below}/{h} at {b} "
                                        "is not a natural number")
                if m:
                    mult[b] = m
                if g:
                    for hd, delta, e in steps:
                        if h + hd > max_height:
                            break
                        key = tuple(map(add, b, delta))
                        up = pending[h + hd]
                        up[key] = up.get(key, 0) - e * g
        cache[max_height] = mult
    return dict(cache[max_height])


def real_roots_with_witness(datum: RootDatum, max_height: int
                            ) -> dict[Beta, tuple[W.WeylElt, int]]:
    """Real roots alpha = u(alpha_i) of |height| <= max_height (a Python
    int; none below 1), with (u, i)."""
    _check_datum(datum)
    exact_ints((max_height,), "height")
    if max_height < 1:
        return {}
    frontier = [(tuple(int(j == i) for j in range(datum.n)), W.identity_elt(datum), i)
                for i in range(datum.n)]
    out = {b: (u, i) for b, u, i in frontier}
    while frontier:
        new = []
        for b, u, i in frontier:
            for j in range(datum.n):
                s = W.simple(datum, j)
                nb = s.act_root(b)
                if sum(abs(x) for x in nb) <= max_height and nb not in out:
                    out[nb] = (s * u, i)
                    new.append((nb, *out[nb]))
        frontier = new
    return out


# -- Freudenthal weight multiplicities --------------------------------------------


def _check_dominant(datum: RootDatum, hw: Sequence[int]) -> Wt:
    """hw read as a dominant weight of a datum read."""
    m = datum.m
    lam = exact_ints(hw, "highest weight coordinate")
    if len(lam) != m:
        raise NotDominant(f"highest weight needs {m} coordinates")
    if any(lam[i] < 0 for i in range(datum.n)):
        raise NotDominant(f"{lam} is not dominant")
    return lam


def weights_and_mults(datum: RootDatum, hw: Sequence[int], depth: int,
                      *, max_depth: Optional[int] = None) -> dict[Wt, int]:
    """Exact weight multiplicities of L(hw) down to the given depth.

    Freudenthal's recursion at lam = hw - b reads
    (|hw + rho|^2 - |lam + rho|^2) mult(b) = 2 sum over alpha > 0 and k >= 1
    of mult(alpha) (lam + k alpha | alpha) mult(b - k alpha).
    It runs in push form: with b' = b - k alpha, (lam + k alpha | alpha) is
    (hw - b' | alpha), which does not depend on k.  So each nonzero mult(b')
    adds mult(alpha) mult(b') (hw - b' | alpha), once per root, to every
    b' + k alpha in the window.  These sums wait in one dict per height, and
    height h visits only the b that hold one, in sorted order; every other b
    has numerator 0, so multiplicity 0.  The denominator
    |hw + rho|^2 - |lam + rho|^2 vanishes only off the weight system, where
    the numerator is checked to vanish as well.  The loop runs in ints: the
    form is scaled by L = lcm(eps), which makes (alpha_i | alpha_j) and
    (Lambda_i | alpha_j) integral, and each multiplicity is the exact
    quotient of two integers.
    """
    lam_top = _check_dominant(_check_datum(datum), hw)
    _depth_guard(datum, depth, max_depth)
    n = datum.n
    eps = tuple(int(e) for e in datum.gcm.eps)
    scale = math.lcm(*eps)
    # L (alpha_i | alpha_j) = a_ij L / eps_i and L (Lambda_i | alpha_i) = L / eps_i
    lb = [[a * (scale // eps[i]) for a in row] for i, row in enumerate(datum.gcm.a)]
    lw = [scale // e for e in eps]
    # L (hw + rho | alpha_i); only the first n coordinates pair with the roots
    lam_rho = [lw[i] * (x + r) for i, (x, r) in
               enumerate(zip(lam_top[:n], datum.rho()))]
    # per root in height order: alpha, its height, mult, L (hw | alpha), L B alpha
    roots = sorted((sum(alpha), alpha, ma, sum(lw[i] * lam_top[i] * alpha[i] for i in range(n)),
                    [exact.vec_dot(row, alpha) for row in lb])
                   for alpha, ma in root_multiplicities(datum, depth).items())
    # pending[h][b]: half the numerator at b, summed over the b' pushed so far
    pending: list[dict[Beta, int]] = [{} for _ in range(depth + 1)]

    def push(b: Beta, h: int, m: int):
        for ha, alpha, ma, hw_a, b_alpha in roots:
            if h + ha > depth:
                return
            # mult(alpha) mult(b) L (hw - b | alpha), the same for every k
            val = ma * m * (hw_a - exact.vec_dot(b, b_alpha))
            if val:
                nb = b
                for row in pending[h + ha::ha]:  # the heights of b + k alpha
                    nb = tuple(map(add, nb, alpha))
                    row[nb] = row.get(nb, 0) + val

    mult: dict[Beta, int] = {(0,) * n: 1}
    push((0,) * n, 0, 1)
    for h in range(1, depth + 1):
        for b, half in sorted(pending[h].items()):
            denom = 2 * exact.vec_dot(lam_rho, b) \
                - sum(b[i] * exact.vec_dot(lb[i], b) for i in range(n) if b[i])
            total = 2 * half
            if denom == 0:
                if total != 0:
                    raise InternalError("Freudenthal numerator nonzero at a null denominator")
                continue
            m, rem = divmod(total, denom)
            if rem or m < 0:
                raise InternalError(f"weight multiplicity {total}/{denom} at {b} "
                                    "is not a natural number")
            if m:
                mult[b] = m
                push(b, h, m)
    return {tuple(lam_top[j] - sum(b[i] * datum.alpha[i][j] for i in range(n))
                  for j in range(datum.m)): m for b, m in mult.items()}


def _depth_guard(datum: RootDatum, depth: int, max_depth: Optional[int]):
    natural(depth, "depth")
    if max_depth is not None:
        natural(max_depth, "max depth")
        if depth > max_depth:
            raise DepthTooLarge(f"depth {depth} over the requested cap {max_depth}")
        return  # an explicit cap also lifts the default rank guard
    if depth > DEFAULT_MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} over the default cap {DEFAULT_MAX_DEPTH}")
    if datum.n > DEFAULT_MAX_RANK:
        raise SizeGuard(f"slice construction guarded to rank <= {DEFAULT_MAX_RANK}; "
                        "pass max_depth to lift")


# -- module slices ----------------------------------------------------------------


# An operator edge (target space, ints, den): the integer matrix ints over
# den > 0 from one weight space to the target.
Edge = tuple["WeightSpace", IntMat, int]
# the f_i edge of a bottom-layer space whose target is a weight past the window
_BEYOND = object()


# the n_i memo where a basis vector's run leaves the window: its DepthExceeded's
# needed depth and weight, not the exception, whose traceback frames would hold
# the slice in a cycle that `ModuleSlice.__del__` does not cut
class _Refused(NamedTuple):
    needed: int
    weight: Wt


@dataclass(eq=False)  # hashed by identity: the operators key raw parts by the space
class WeightSpace:
    weight: Wt
    height: int
    words: tuple[tuple[int, ...], ...]
    gram: IntMat
    # up[i], down[i]: the edges of e_i and f_i, to the spaces at weight +- alpha_i;
    # no key where the operator is zero, and down[i] may be _BEYOND
    up: dict[int, Edge] = field(default_factory=dict, repr=False)
    down: dict[int, Edge] = field(default_factory=dict, repr=False)
    # n_mat[i]: the edge of n_i, to the space at s_i weight, formed on first
    # use; a _Refused record where a basis vector's run leaves the window
    n_mat: dict[int, Edge | _Refused] = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.words)


class ModuleSlice:
    """L(hw) truncated to weights of height <= depth below the top."""

    def __init__(self, datum: RootDatum, hw: Sequence[int], depth: int,
                 *, max_depth: Optional[int] = None):
        hw = _check_dominant(_check_datum(datum), hw)
        _depth_guard(datum, depth, max_depth)
        self._setup(datum, hw, depth)

    def _setup(self, datum: RootDatum, hw: Wt, depth: int):
        """The build, for a datum, highest weight and depth read and guarded."""
        self.spaces: dict[Wt, WeightSpace] = {}
        self.datum = datum
        self.hw = hw
        self.depth = depth
        self._build()
        # the build inserts the spaces in (height, weight) order
        self.order: tuple[Wt, ...] = tuple(self.spaces)
        # the basis never changes after the build: its index, and the row of
        # each (wt, 0) in it
        self._index: tuple[tuple[Wt, int], ...] = tuple(
            (wt, k) for wt in self.order for k in range(self.spaces[wt].dim))
        self._first_row: dict[Wt, int] = {wt: p for p, (wt, k) in enumerate(self._index)
                                          if k == 0}

    def __del__(self):
        # The edges and the n_i memos link the spaces in cycles.
        # Cutting them frees a dropped slice at once, not at the next full
        # garbage collection.
        for sp in getattr(self, "spaces", {}).values():  # none if a check refused the slice
            sp.up.clear()
            sp.down.clear()
            sp.n_mat.clear()

    # construction ---------------------------------------------------------------

    def _build(self):
        top = WeightSpace(weight=self.hw, height=0, words=((),), gram=((1,),))
        self.spaces[self.hw] = top
        # c[wt]: the c with wt = hw - sum_k c_k alpha_k, for each built wt
        c = {self.hw: (0,) * self.datum.n}
        level = [top]
        for h in range(1, self.depth + 2):
            # each weight lam one step down, formed once, with the spaces
            # above it: i -> the space at lam + alpha_i, in increasing i
            targets: dict[Wt, dict[int, WeightSpace]] = {}
            for i, a in enumerate(self.datum.alpha):
                for mu in level:
                    targets.setdefault(tuple(map(sub, mu.weight, a)), {})[i] = mu
            new_level = []
            for lam in sorted(targets):
                above = targets[lam]
                i, mu = next(iter(above.items()))
                c_lam = tuple(x + (k == i) for k, x in enumerate(c[mu.weight]))
                if not self._is_weight(lam, c_lam):
                    continue
                if h > self.depth:  # lam is nonzero past the window
                    for i, mu in above.items():
                        mu.down[i] = _BEYOND
                    continue
                ws = self._build_space(lam, h, above)
                if ws is None:
                    raise InternalError(f"predicted weight {lam} has a zero space")
                self.spaces[lam], c[lam] = ws, c_lam
                new_level.append(ws)
            level = new_level
            if not level:
                break

    def _is_weight(self, nu: Wt, c: IntVec) -> bool:
        """Whether nu = hw - sum_k c_k alpha_k is a weight of L(hw): the walk
        to the dominant chamber and the support rule of the module
        docstring.  A step lowers sum c, so a walk past sum c steps is an
        InternalError."""
        nu, c = list(nu[:self.datum.n]), list(c)
        steps = sum(c)
        while (i := next((i for i, x in enumerate(nu) if x < 0), None)) is not None:
            if steps == 0:
                raise InternalError(f"the dominance walk to {nu} passed sum c steps")
            steps -= 1
            k = nu[i]
            c[i] += k
            if c[i] < 0:
                return False
            nu = [x - k * a for x, a in zip(nu, self.datum.alpha[i])]
        return all(any(self.hw[i] > 0 for i in comp)
                   for comp in _components(self.datum.gcm.a, [i for i, x in enumerate(c) if x]))

    @staticmethod
    def _e_images(above: dict[int, WeightSpace]):
        """The spanning set f_i b_k of the space below `above` (b_k running
        over the basis of above[i], degree-lex order) and each candidate's
        e_j-images in the bases above, each a gcd-reduced (ints, den) pair."""
        cands = [(i, k) for i, src in above.items() for k in range(src.dim)]
        e_imgs: list[dict[int, tuple[IntVec, int]]] = []
        for (i, k) in cands:
            src = above[i]
            imgs: dict[int, tuple[IntVec, int]] = {}
            for j, tgt in above.items():
                # e_j f_i b_k = f_i (e_j b_k) + [j == i] * up(h_i) * b_k
                up_e = src.up.get(j)
                if up_e is None:
                    vec, den = [0] * tgt.dim, 1
                else:
                    mid, emat, de = up_e
                    _, fmat, df = mid.down[i]
                    col = [row[k] for row in emat]
                    vec = [exact.vec_dot(row, col) for row in fmat]
                    den = de * df
                if j == i:  # [e_i, f_i] = h_i acts by up(h_i) on b_k
                    vec[k] += src.weight[i] * den
                imgs[j] = _lowest(vec, den)
            e_imgs.append(imgs)
        return cands, e_imgs

    def _build_space(self, lam: Wt, h: int, above: dict[int, WeightSpace]
                     ) -> Optional[WeightSpace]:
        """The space at lam below `above` (i -> the space at lam + alpha_i),
        linked to it both ways; None when every candidate's e-images vanish,
        which at a weight of L(hw) does not happen."""
        cands, e_imgs = self._e_images(above)
        # L(hw) is irreducible, so a vector below hw is zero iff every e_j
        # kills it (Kac, ch. 9): the linear relations of the candidates are
        # the column relations of their stacked e-images.  Block j is scaled
        # to ints over its own common denominator; scaling rows keeps the
        # column relations.  So the pivot columns are the first independent
        # candidates in degree-lex order, and column c of the reduced form
        # over d holds candidate c's coordinates in that basis.
        stacked = []
        for j in above:
            cols, _ = _over_common_den([imgs[j] for imgs in e_imgs])
            stacked.extend(zip(*cols))
        selected, rows, d = exact.int_rref(stacked)
        if not selected:
            return None
        basis = [cands[c] for c in selected]
        # <f_i b_k | c> = <b_k | e_i c> by contravariance, on the basis only.
        # The entries are Shapovalov values of lowering monomials on an
        # integral weight, so they are integers, and the form is symmetric:
        # each entry is formed from both sides, and they must agree.
        gram = []
        for i, k in basis:
            src_row = above[i].gram[k]
            row = []
            for s in selected:
                img, den = e_imgs[s][i]
                num = exact.vec_dot(src_row, img)
                x, rem = divmod(num, den)
                if rem:
                    raise InternalError(f"Gram entry {num}/{den} at weight {lam} "
                                        "is not an integer")
                row.append(x)
            gram.append(tuple(row))
        gram = tuple(gram)
        if gram != tuple(zip(*gram)):
            raise InternalError(f"Gram matrix at weight {lam} is not symmetric")
        words = tuple((i,) + above[i].words[k] for i, k in basis)
        ws = WeightSpace(weight=lam, height=h, words=words, gram=gram)
        # f_i into this space and e_i out of it, both against above[i].
        for i, src in above.items():
            first = cands.index((i, 0))
            cols, den = _over_common_den([e_imgs[s][i] for s in selected])
            src.down[i] = (ws, tuple(row[first:first + src.dim] for row in rows), d)
            ws.up[i] = (src, tuple(zip(*cols)), den)
        return ws

    # queries ---------------------------------------------------------------------

    def dims(self) -> dict[Wt, int]:
        return {wt: sp.dim for wt, sp in self.spaces.items()}

    def height_of(self, wt: Wt) -> int:
        return self.spaces[wt].height

    def basis_index(self) -> tuple[tuple[Wt, int], ...]:
        return self._index

    def highest_vector(self) -> "Vector":
        return Vector(self, {self.hw: (1,)})


def build_basis(datum: RootDatum, hw: Sequence[int], depth: int,
                *, max_depth: Optional[int] = None) -> ModuleSlice:
    """ModuleSlice(datum, hw, depth), cached on the datum.  The input checks
    and guards run on every call, before the cache is read; a miss builds
    the slice without reading them again (`ModuleSlice._setup`)."""
    hw = _check_dominant(_check_datum(datum), hw)
    _depth_guard(datum, depth, max_depth)
    return _cached_slice(datum, hw, depth)


def _cached_slice(datum: RootDatum, hw: Wt, depth: int) -> ModuleSlice:
    """`build_basis` on a datum, highest weight and depth read and guarded:
    the cache lookup, which reads nothing."""
    cache = datum.__dict__.setdefault("_slice_cache", {})
    key = (hw, depth)
    if key not in cache:
        sl = ModuleSlice.__new__(ModuleSlice)
        sl._setup(datum, hw, depth)
        cache[key] = sl
    return cache[key]


# -- vectors and operators ---------------------------------------------------------


@dataclass
class Vector:
    """The vector sum over wt of parts[wt] / den in the slice bases, with
    int tuples parts[wt] and den > 0.  It is kept in lowest terms: no zero
    part, den and the entries coprime, and den 1 on the zero vector.  So two
    vectors compare equal exactly when they are the same vector.  A slice
    that is not a ModuleSlice, parts that are not a mapping, a den that is
    not a positive Python int, a weight outside the slice, or a part that is
    not dim ints for its space (read by `cartan.entries`) is a
    DomainError."""

    slice: ModuleSlice
    parts: dict[Wt, IntVec]
    den: int = 1

    def __post_init__(self):
        if not isinstance(self.slice, ModuleSlice):
            raise DomainError(f"vector of {self.slice!r}, not of a ModuleSlice")
        if not isinstance(self.parts, Mapping):
            raise DomainError(f"vector parts {self.parts!r} are not a mapping")
        den = self.den
        if type(den) is not int or den <= 0:
            raise DomainError(f"vector denominator {den!r} is not a positive int")
        spaces, parts, g = self.slice.spaces, {}, den
        for wt, v in self.parts.items():
            sp = spaces.get(wt)
            if sp is None:
                raise DomainError(f"weight {wt} is not in the slice")
            v = entries(v, "part")
            if len(v) != sp.dim:
                raise DomainError(f"part {v!r} at weight {wt} has {len(v)} entries, "
                                  f"not {sp.dim}")
            for x in v:
                if type(x) is not int:  # a bool too: gcd would read True as 1
                    raise DomainError(f"part {v!r} at weight {wt} holds a non-integer {x!r}")
            g = math.gcd(g, *v)
            if any(v):
                parts[sp.weight] = v
        if g != 1:
            parts = {wt: tuple(x // g for x in v) for wt, v in parts.items()}
        self.parts, self.den = parts, (den // g if parts else 1)

    def is_zero(self) -> bool:
        return not self.parts


def _read_slice(slice_: ModuleSlice, *vectors: Vector) -> ModuleSlice:
    """The check of each slice reader, vectors first (so `apply_word` may pass
    a vector's own slice); a Vector of another slice is a PreconditionViolated."""
    for v in vectors:
        if not isinstance(v, Vector):
            raise DomainError(f"{v!r} is not a Vector")
    if not isinstance(slice_, ModuleSlice):
        raise DomainError(f"{slice_!r} is not a ModuleSlice")
    for v in vectors:
        if v.slice is not slice_:
            raise PreconditionViolated("vector of another slice")
    return slice_


# Raw parts: int sequences keyed by the weight space itself, standing for
# the vector sum over sp of parts[sp] / den, den > 0 kept beside them.
Raw = dict[WeightSpace, Sequence[int]]


def _step(sl: ModuleSlice, parts: Raw, i: int, sign: int) -> tuple[Raw, int]:
    """X = e_i (sign 1) or f_i (sign -1) on raw parts: (ints, m) with
    X parts = ints / m, zero parts dropped.  Each image lands in the target
    of the edge up[i] or down[i].  A missing edge is a certified zero, a
    _BEYOND edge a DepthExceeded at the weight it leaves to, formed only
    then."""
    spaces, images = [], []
    for sp, coeffs in parts.items():
        edge = (sp.up if sign > 0 else sp.down).get(i)
        if edge is None:
            continue  # certified zero: the target weight space vanishes
        if edge is _BEYOND:
            raise DepthExceeded(needed=sp.height + 1, depth=sl.depth, weight=tuple(
                map(add if sign > 0 else sub, sp.weight, sl.datum.alpha[i])))
        # distinct source spaces have distinct targets
        tgt, mat, den = edge
        img = [exact.vec_dot(row, coeffs) for row in mat]
        if any(img):
            spaces.append(tgt)
            images.append((img, den))
    if not images:
        return {}, 1
    vecs, m = _over_common_den(images)
    return dict(zip(spaces, vecs)), m


def _exp(sl: ModuleSlice, parts: Raw, den: int, i: int, sign: int, t) -> tuple[Raw, int]:
    """exp(t X) on raw parts / den, for X = e_i (sign 1) or f_i (sign -1)
    locally nilpotent on it and t = p/q.  X^k v is term / (den q_k), q_k the
    product of the _step denominators, and its coefficient p^k / (q^k k!)
    is folded in as ints.  Each term's denominator den q_k q^k k! divides
    the next one's, so the total is rescaled by the quotient at each step.
    A part that cancels is dropped: the next letter could lower that zero
    out of the window and raise DepthExceeded."""
    term, m = _step(sl, parts, i, sign)
    if not term:
        return parts, den
    p, q = t.numerator, t.denominator
    total, pk, k = dict(parts), 1, 1
    while term:
        pk *= p
        grow = m * q * k  # the quotient of the term denominators k and k - 1
        den *= grow
        if grow != 1:
            total = {sp: [grow * x for x in u] for sp, u in total.items()}
        for sp, u in term.items():
            old = total.get(sp)
            total[sp] = ([pk * x for x in u] if old is None
                         else [a + pk * x for a, x in zip(old, u)])
        k += 1
        if k > 2 * sl.depth + 4:
            raise InternalError("exponential failed to terminate inside the slice")
        term, m = _step(sl, term, i, sign)
    return {sp: u for sp, u in total.items() if any(u)}, den


def _n_mat(sl: ModuleSlice, sp: WeightSpace, i: int) -> Edge:
    """sp.n_mat[i], formed on first use: the three exponentials of
    n_i = exp(e_i) exp(-f_i) exp(e_i) run on each basis vector of sp, whose
    image lies in the one space at s_i sp.weight.  Where one of those runs
    raises DepthExceeded, the memo keeps its `_Refused` record, and every use
    raises a fresh DepthExceeded from it."""
    if i not in sp.n_mat:
        target = tuple(x - sp.weight[i] * a for x, a in zip(sp.weight, sl.datum.alpha[i]))
        cols = []
        try:
            for k in range(sp.dim):
                parts, den = {sp: [int(j == k) for j in range(sp.dim)]}, 1
                for sign in (1, -1, 1):
                    parts, den = _exp(sl, parts, den, i, sign, sign)
                if [s.weight for s in parts] != [target]:
                    raise InternalError(f"n_{i + 1} maps a basis vector at {sp.weight} "
                                        f"outside the space at {target}")
                ((tgt, u),) = parts.items()
                cols.append((u, den))
            cols, den = _over_common_den(cols)
            sp.n_mat[i] = (tgt, tuple(zip(*cols)), den)
        except DepthExceeded as exc:
            sp.n_mat[i] = _Refused(exc.needed, exc.weight)
    if type(memo := sp.n_mat[i]) is _Refused:
        raise DepthExceeded(memo.needed, sl.depth, weight=memo.weight)
    return memo


def _run_word(sl: ModuleSlice, letters: Sequence[Letter], parts: Raw, den: int
              ) -> tuple[Raw, int]:
    """The letters, read by `_read_word`, applied last first to parts / den."""
    for letter in reversed(letters):
        tag = letter[0]
        if tag == "X+" or tag == "X-":
            parts, den = _exp(sl, parts, den, letter[1], 1 if tag == "X+" else -1, letter[2])
        elif tag == "N":  # n_i = exp(e_i) exp(-f_i) exp(e_i), by its matrix on each part
            mats = [_n_mat(sl, sp, letter[1]) for sp in parts]
            # the parts land in distinct spaces, so their images never cancel
            vecs, m = _over_common_den([([exact.vec_dot(row, u) for row in mat], d)
                                        for (_, mat, d), u in zip(mats, parts.values())])
            parts, den = {tgt: v for (tgt, _, _), v in zip(mats, vecs)}, den * m
        elif tag == "T":
            h, p, q = letter[1], letter[2].numerator, letter[2].denominator
            pieces = []
            for sp, u in parts.items():
                # s^e as num / d with d > 0: (p^e, q^e) or (q^-e, p^-e)
                e = exact.vec_dot(sp.weight, h)
                num, d = (p ** e, q ** e) if e >= 0 else (q ** -e, p ** -e)
                pieces.append(([num * x for x in u], d) if d > 0 else ([-num * x for x in u], -d))
            vecs, m = _over_common_den(pieces)
            parts, den = dict(zip(parts, vecs)), den * m
        else:  # E: keep the weights that the face's exposing coweight kills
            c = letter[1].exposing()
            parts = {sp: u for sp, u in parts.items() if exact.vec_dot(sp.weight, c) == 0}
    return parts, den


def _vector(sl: ModuleSlice, parts: Raw, den: int) -> Vector:
    """The raw parts / den as a Vector in lowest terms, zero parts dropped:
    the one reduction of a word, on kmx's own ints, so without the reads of
    `Vector.__post_init__`."""
    g = den
    for u in parts.values():
        g = math.gcd(g, *u)
    v = object.__new__(Vector)
    v.slice = sl
    v.parts = {sp.weight: tuple(u) if g == 1 else tuple(x // g for x in u)
               for sp, u in parts.items() if any(u)}
    v.den = den // g if v.parts else 1
    return v


_FIELDS = {"X+": 3, "X-": 3, "T": 3, "N": 2, "E": 2}


class Letter(tuple):
    """Letter("X+", i, t), ("X-", i, t), ("T", h, s), ("N", i) or ("E", face),
    its fields read here, once: an unknown tag or field count is a DomainError,
    an index must be a Python int >= 0, t is read by exact_rationals, h by
    exact_ints, s by torus_values, face must be a Face; t, s become Fractions."""

    __slots__ = ()

    def __new__(cls, *fields):
        tag = fields[0] if fields else None
        if type(tag) is not str or tag not in _FIELDS:
            raise DomainError(f"unknown letter {fields!r}")
        if len(fields) != _FIELDS[tag]:
            raise DomainError(f"{tag} letter needs {_FIELDS[tag]} fields, not {len(fields)}")
        if tag == "T":
            h = exact_ints(fields[1], "torus coweight coordinate")
            (s,) = torus_values((fields[2],), 1)
            fields = (tag, h, s if type(s) is Fraction else Fraction(s, 1))
        elif tag == "E":
            if not isinstance(fields[1], Face):
                raise DomainError(f"idempotent letter on {fields[1]!r}, not on a Face")
        else:
            (i,) = exact_ints((fields[1],), "simple index")
            if i < 0:
                raise DomainError(f"simple index {i + 1} is below 1")
            if tag != "N":
                (t,) = exact_rationals((fields[2],), "letter parameter")
                fields = (tag, i, t if type(t) is Fraction else Fraction(t, 1))
        return tuple.__new__(cls, fields)

    def __getnewargs__(self):  # copy and pickle build through __new__
        return tuple(self)


# xplus(i, t), xminus(i, t), torus_letter(h, s), nsimple(i) and idem(face)
xplus, xminus, torus_letter = partial(Letter, "X+"), partial(Letter, "X-"), partial(Letter, "T")
nsimple, idem = partial(Letter, "N"), partial(Letter, "E")


@dataclass(frozen=True)
class GhatWord:
    """A word in Letters, read by `cartan.entries` when built; a plain tuple is a DomainError."""
    letters: tuple[Letter, ...]

    def __post_init__(self):
        letters = entries(self.letters, "letter")
        for letter in letters:
            if not isinstance(letter, Letter):
                raise DomainError(f"{letter!r} is not a Letter")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "GhatWord") -> "GhatWord":
        if not isinstance(other, GhatWord):
            return NotImplemented
        return GhatWord(self.letters + other.letters)


def _read_word(datum: Optional[RootDatum], word: GhatWord) -> tuple[Letter, ...]:
    """The letters of the word, each checked against the datum before any is
    applied: the one reader of a word.  A Letter read its fields; left are an
    index by check_index, a T coweight of datum.m coordinates and an E face
    of this datum.  Anything but a GhatWord is a DomainError.  With no datum
    (`format_word`) only the type is read."""
    if not isinstance(word, GhatWord):
        raise DomainError(f"{word!r} is not a GhatWord")
    if datum is None:
        return word.letters
    for letter in word.letters:
        tag = letter[0]
        if tag == "T":
            if len(letter[1]) != datum.m:
                raise DomainError(f"torus coweight needs {datum.m} coordinates")
        elif tag == "E":
            if letter[1].datum is not datum:
                raise PreconditionViolated("idempotent letter of a face of another root datum")
        else:
            check_index(datum.n, letter[1])
    return word.letters


def apply_word(word: GhatWord, v: Vector) -> Vector:
    """The word applied to v: read once, run on raw parts, reduced once."""
    sl = _read_slice(getattr(v, "slice", None), v)
    letters = _read_word(sl.datum, word)
    return _vector(sl, *_run_word(sl, letters, {sl.spaces[wt]: u for wt, u in v.parts.items()},
                                  v.den))


def apply_chevalley(ops: Sequence, v: Vector) -> Vector:
    """The Chevalley generators e_i and f_i applied to v: ops is a sequence
    of ("e", i) and ("f", i), applied last first, as `apply_word` applies its
    letters.  Every op is read before any step: an op that is not such a
    pair is a DomainError, and its index is read by check_index.  The steps
    run on raw parts over one running denominator, reduced once.  An
    operator that leaves the window raises DepthExceeded, as a word does; a
    missing edge is a certified zero."""
    sl = _read_slice(getattr(v, "slice", None), v)
    steps = []
    for op in entries(ops, "op"):
        if not (isinstance(op, tuple) and len(op) == 2 and op[0] in ("e", "f")):
            raise DomainError(f"op {op!r} is not ('e', i) or ('f', i)")
        check_index(sl.datum.n, op[1])
        steps.append((op[1], 1 if op[0] == "e" else -1))
    parts, den = {sl.spaces[wt]: u for wt, u in v.parts.items()}, v.den
    for i, sign in reversed(steps):
        parts, m = _step(sl, parts, i, sign)
        den *= m
    return _vector(sl, parts, den)


def _columns(sl: ModuleSlice, read: Sequence[Sequence[Letter]],
             max_height: Optional[int]):
    """`word_columns` on words read by `_read_word`, each image the raw
    (parts, den) of the pass: the one column pass, which reads nothing."""
    for wt in sl.order:
        sp = sl.spaces[wt]
        if max_height is not None and sp.height > max_height:
            return
        for k in range(sp.dim):
            basis = {sp: [int(j == k) for j in range(sp.dim)]}
            yield wt, k, [_run_word(sl, letters, basis, 1) for letters in read]


def word_columns(slice_: ModuleSlice, words: Sequence[GhatWord],
                 max_height: Optional[int] = None):
    """(wt, k, images of `words`) for each basis vector k at wt, in
    basis_index() order, up to height `max_height` (all of the slice when
    None).  The words are read once, before any column, and applied to one
    vector before the next is taken; the first vector that a word leaves the
    window from raises DepthExceeded, so a caller either lets it raise or
    keeps the columns yielded before it.  A `max_height` that is not a
    Python int, or is negative, is a DomainError."""
    _read_slice(slice_)
    if max_height is not None:
        natural(max_height, "height")
    read = [_read_word(slice_.datum, word) for word in entries(words, "word")]
    for wt, k, images in _columns(slice_, read, max_height):
        yield wt, k, [_vector(slice_, *image) for image in images]


def evaluate_word(slice_: ModuleSlice, word: GhatWord,
                  max_height: Optional[int] = None):
    """Matrix of the word over the slice basis.

    With `max_height`, columns are restricted to basis vectors of height at
    most that bound (rows always run over the whole slice); the restricted
    matrix is still exact, applications beyond the window still raise.
    Read as `word_columns` reads, from its raw pass: one Fraction per
    nonzero entry, and one shared tuple of zeros for every zero row.
    """
    _read_slice(slice_)
    if max_height is not None:
        natural(max_height, "height")
    letters = _read_word(slice_.datum, word)
    first, col_index, nonzero = slice_._first_row, [], {}
    for c, (wt, k, ((parts, den),)) in enumerate(_columns(slice_, (letters,), max_height)):
        col_index.append((wt, k))
        for sp, u in parts.items():
            for j, x in enumerate(u, first[sp.weight]):
                if x:
                    nonzero.setdefault(j, {})[c] = Fraction(x, den)
    zero = (Fraction(0),) * len(col_index)
    rows = [zero] * len(slice_._index)
    for j, at in nonzero.items():
        row = list(zero)
        for c, x in at.items():
            row[c] = x
        rows[j] = tuple(row)
    return (slice_.basis_index(), tuple(col_index)), tuple(rows)


def inner(slice_: ModuleSlice, v: Vector, u: Vector) -> Fraction:
    """<v | u> under the slice's contravariant form, read by `_read_slice`."""
    _read_slice(slice_, v, u)
    total = 0
    for wt, a in v.parts.items():
        b = u.parts.get(wt)
        if b is None:
            continue
        g = slice_.spaces[wt].gram
        total += sum(x * exact.vec_dot(row, b) for x, row in zip(a, g) if x)
    return Fraction(total, v.den * u.den)


def matrix_coefficient(slice_: ModuleSlice, v: Vector, u: Vector,
                       word: GhatWord) -> Fraction:
    """<v | w(u)> under the slice's contravariant form (`inner`)."""
    _read_slice(slice_, v, u)
    return inner(slice_, v, apply_word(word, u))


def theta(slice_: ModuleSlice, word: GhatWord) -> Fraction:
    """<v_top | w v_top> / <v_top | v_top>: the highest matrix coefficient.

    Independent of the choice of highest-weight vector and of the scaling of
    the contravariant form.  The top Gram matrix is ((1,),), so this is the
    top coordinate of the raw pass on v_top, read without forming a Vector.
    """
    _read_slice(slice_)
    top = slice_.spaces[slice_.hw]
    parts, den = _run_word(slice_, _read_word(slice_.datum, word), {top: (1,)}, 1)
    u = parts.get(top)
    return Fraction(u[0], den) if u else Fraction(0)


# -- probes -----------------------------------------------------------------------


@dataclass(frozen=True)
class EqualOnProbes:
    """Equality of operator matrices on the probes tried.

    This is a semi-decision: NOT a proof of equality in the ambient monoid.
    """

    probes: tuple[tuple[Wt, int], ...]


@dataclass(frozen=True)
class Distinct:
    probe: tuple[Wt, int]
    row: tuple[Wt, int]
    col: tuple[Wt, int]
    left: Fraction
    right: Fraction


def _first_difference(a: Vector, b: Vector) -> tuple[int, Wt, int]:
    """(height, wt, j) of the first row, in basis order, at which the
    unequal vectors a and b differ; the entries are compared as integers."""
    sl = a.slice
    zeros = {wt: (0,) * sl.spaces[wt].dim for wt in a.parts.keys() | b.parts.keys()}
    return min((sl.spaces[wt].height, wt, j) for wt, zero in zeros.items()
               for j, (x, y) in enumerate(zip(a.parts.get(wt, zero), b.parts.get(wt, zero)))
               if x * b.den != y * a.den)


def _entry(v: Vector, wt: Wt, j: int) -> Fraction:
    part = v.parts.get(wt)
    return Fraction(part[j] if part else 0, v.den)


def probe_equal(datum: RootDatum, w1: GhatWord, w2: GhatWord, probes: Sequence):
    """Compare two words as operators on the given probes.

    Each probe is (hw, depth) or (hw, depth, max_height), and anything else
    is a DomainError, as is an empty probe list; the third entry restricts
    the compared columns to basis vectors of bounded height so that words
    with lowering content fit inside the window on infinite modules.  Both
    words and every probe are read, once, before any slice is built, so a
    malformed argument raises whatever the words are.  Each word makes its
    own full pass over the columns, w1 first, so a word that leaves the
    window raises DepthExceeded even when the other already differs.  The
    images are compared as sparse vectors; Distinct holds the first
    differing entry in row-major order, the only one formed as a Fraction.  EqualOnProbes is NOT a proof of equality in
    the ambient monoid; Distinct returns an exact witness coefficient.
    """
    _check_datum(datum)
    read1, read2 = _read_word(datum, w1), _read_word(datum, w2)
    probes = entries(probes, "probe")
    if not probes:
        raise DomainError("probe list is empty, so no probe could tell the words apart")
    shapes = []
    for probe in probes:
        shape = entries(probe, "probe")
        if len(shape) not in (2, 3):
            raise DomainError(f"probe {probe!r} is not (hw, depth) or (hw, depth, max_height)")
        hw, d, hmax = (*shape, None)[:3]
        hw = _check_dominant(datum, hw)
        _depth_guard(datum, d, None)
        if hmax is not None:
            natural(hmax, "height")
        shapes.append((hw, d, hmax))
    tried = []
    for hw, d, hmax in shapes:
        sl = _cached_slice(datum, hw, d)
        cols1 = [(wt, k, _vector(sl, *image)) for wt, k, (image,)
                 in _columns(sl, (read1,), hmax)]
        cols2 = [_vector(sl, *image) for _, _, (image,) in _columns(sl, (read2,), hmax)]
        diffs = [(_first_difference(a, b), c) for c, ((_, _, a), b)
                 in enumerate(zip(cols1, cols2)) if a != b]
        if diffs:
            (_, wt, j), c = min(diffs)
            col_wt, k, a = cols1[c]
            b = cols2[c]
            return Distinct(probe=(sl.hw, d), row=(wt, j), col=(col_wt, k),
                            left=_entry(a, wt, j), right=_entry(b, wt, j))
        tried.append((sl.hw, d))
    return EqualOnProbes(probes=tuple(tried))


# -- cell identification ------------------------------------------------------------


def nhat_letters(x: NhatElt) -> list[Letter]:
    """Letters realizing n_w * t * e(face) exactly as a slice operator."""
    if not isinstance(x, NhatElt):
        raise DomainError(f"expected an NhatElt, got {type(x).__name__}")
    return ([nsimple(i) for i in x.w.word]
            + [torus_letter(x.datum.coroot(j), val) for j, val in enumerate(x.torus) if val != 1]
            + ([] if x.face.is_full_cone() else [idem(x.face)]))


def _absorbs(face: Face, root: Beta, side: str) -> bool:
    """Whether exp(g_root) is killed against e(face) on the given side.

    side='left' tests x e(face) = e(face); side='right' tests e(face) x =
    e(face).  The root is conjugated through the face's minimal
    representative and compared against the combinatorial absorption sets.
    """
    g = face.w.inv().act_root(root)
    supp = {i for i, c in enumerate(g) if c}
    if supp <= set(face.theta):
        return True
    signed = all(c >= 0 for c in g) if side == "left" else all(c <= 0 for c in g)
    return signed and not supp <= set(face.datum._theta_perp(face.theta))


def bruhat_cell(datum: RootDatum, word: GhatWord) -> WmonElt:
    """Cell of a word presented in (or reducible to) factored shape.

    Supported inputs: a block of lowering exponentials, then normalizer
    letters (lifts, torus, face idempotents), then raising exponentials.
    Simple-root exponentials adjacent to an idempotent are also absorbed
    when the absorption predicate allows it.  Anything else raises
    NotFactored; a general word-to-normal-form rewriter is out of scope.

    The word is read by `_read_word`, and the cell in W-hat through kappa:
    N(i) is the unit s_i, E(face) the face's idempotent, T the unit.
    """
    full = FC.full_cone(_check_datum(datum))
    middle = MO._wm_class(full.w, full)
    started = False  # past the lowering prefix
    pending_plus: list[Letter] = []
    for letter in _read_word(datum, word):
        tag = letter[0]
        if tag == "X-":
            if not started:
                continue  # part of the lowering prefix; irrelevant for the cell
            # middle is e(F) n_sigma = n_sigma e(sigma^-1 F): its right face
            root = tuple(-1 if j == letter[1] else 0 for j in range(datum.n))
            if not pending_plus and _absorbs(FC._act_face(middle.w.inv(), middle.face),
                                             root, side="right"):
                continue
            raise NotFactored("lowering letter after the normalizer block")
        if tag == "X+":
            started = True
            pending_plus.append(letter)
            continue
        if tag == "T":
            # torus letters commute across exponentials (rescaling their
            # parameters) and are the unit of W-hat: they drop out anywhere
            continue
        if pending_plus:
            if tag != "E":
                raise NotFactored("raising letters blocked before a non-idempotent")
            for pl in pending_plus:
                root = tuple(1 if j == pl[1] else 0 for j in range(datum.n))
                if not _absorbs(letter[1], root, side="left"):
                    raise NotFactored("raising letter does not absorb into the idempotent")
            pending_plus = []
        started = True
        middle = MO._wm_mul(middle, MO._wm_class(W._multiply_out(full.w, (letter[1],)), full)
                            if tag == "N" else MO._wm_class(full.w, letter[1]))
    return middle


# -- word syntax --------------------------------------------------------------------

_LETTER_RE = re.compile(
    r"X\+\(([^)]*)\)|X-\(([^)]*)\)|T\(([^)]*)\)|N\(([^)]*)\)|E\(([^)]*)\)")


def format_word(word: GhatWord) -> str:
    """The word in the syntax of `parse_word`; a Letter read its fields when built."""
    parts = []
    for letter in _read_word(None, word):
        tag = letter[0]
        if tag in ("X+", "X-"):
            parts.append(f"{tag}({letter[1] + 1};{letter[2]})")
        elif tag == "T":
            h = letter[1]
            if sum(1 for x in h if x) == 1 and sum(h) == 1:
                parts.append(f"T(h{h.index(1) + 1};{letter[2]})")
            else:
                parts.append(f"T(v={','.join(str(x) for x in h)};{letter[2]})")
        elif tag == "N":
            parts.append(f"N({letter[1] + 1})")
        else:
            face = letter[1]
            wtxt = " ".join(str(i + 1) for i in face.w.word)
            ttxt = ",".join(str(i + 1) for i in face.theta)
            parts.append(f"E(w={wtxt}; theta={ttxt})")
    return " ".join(parts)


def parse_word(datum: RootDatum, text: str) -> GhatWord:
    """Parse the external word syntax, e.g.
    "X+(1;3/2) X-(2;-1) T(h1;2) N(1) E(w=3 1; theta=1,2)"."""
    _check_datum(datum)
    letters: list[Letter] = []
    rest = _expect(text, str, "a str").strip()
    pos = 0
    while pos < len(rest):
        mm = _LETTER_RE.match(rest, pos)
        if mm is None:
            if rest[pos].isspace():
                pos += 1
                continue
            raise DomainError(f"cannot parse word at: {rest[pos:]!r}")
        xp, xm, tt, nn, ee = mm.groups()
        body = xp if xp is not None else xm if xm is not None else tt
        if body is not None:
            spec, sep, val = body.partition(";")
            if not sep or ";" in val:
                raise DomainError(f"letter {mm.group(0)} needs two fields 'a;b'")
            spec = spec.strip()
            (t,) = typed_numbers([val.strip()], "letter parameter")
        if xp is not None or xm is not None:
            (i,) = one_based(datum.n, [spec])
            letters.append(xplus(i, t) if xp is not None else xminus(i, t))
        elif tt is not None:
            if spec.startswith("h"):
                (j,) = one_based(datum.m, [spec[1:].strip()], "coweight index")
                h = tuple(1 if k == j else 0 for k in range(datum.m))
            elif spec.startswith("v="):
                h = typed_numbers([x.strip() for x in spec[2:].split(",")],
                                  "torus coweight coordinate", integral=True)
                if len(h) != datum.m:
                    raise DomainError(f"torus coweight {spec[2:]} needs "
                                      f"{datum.m} coordinates")
            else:
                raise DomainError(f"bad torus coweight {spec!r}")
            letters.append(torus_letter(h, t))
        elif nn is not None:
            (i,) = one_based(datum.n, [nn.strip()])
            letters.append(nsimple(i))
        else:
            letters.append(idem(FC.parse_face(datum, ee)))
        pos = mm.end()
    return GhatWord(tuple(letters))
