"""The slice build against the greedy reference it replaced.

`RefSlice` keeps the earlier construction of `ModuleSlice`: candidates are
picked one by one by Gaussian elimination over Fraction in degree-lex order,
and each candidate's coordinates come from its own solve of the selected
Gram matrix, by the Fraction elimination kept in `exact_reference`.  It
keeps its own spaces, `RefSpace`, with Fraction matrices e_mat[i] and
f_mat[i], and the set `_nonzero_beyond` of the weights one step past the
window that a Gram probe finds nonzero.  The fraction-free build must give
the same slices, entry for entry: `read_edges` reads a library slice's
edges back in that form.

`_ref_word` keeps the earlier Fraction operator code: it applies a word to
Fraction coordinates with the reference slice's Fraction matrices.  The
integer vectors of the engine must give the same theta values and
evaluate_word matrices.

`exact_reference.weights_and_mults` keeps Freudenthal's recursion in the
pull form it had before the push form: the package must give the same
multiplicities.
"""

import gc
import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import exact_reference
import pytest
from conftest import all_small_gcms

from kmx import highest_weight as HW
from kmx.cartan import build_realization, validate_and_symmetrize
from kmx.errors import DepthExceeded, InternalError, NotSymmetrizable
from kmx.exact import vec_dot
from kmx.highest_weight import Wt

ALGEBRAS = {
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A1^(1)": ((2, -2), (-2, 2)),
    "A2^(2)": ((2, -4), (-1, 2)),
    "A2^(1)": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "hyperbolic-3": ((2, -2, 0), (-2, 2, -1), (0, -1, 2)),
}
# rho and Lambda_1 on every algebra at depth 8, but rho on A2^(1) and on the
# hyperbolic matrix at depth 5: the slices of the benchmark's hw-slices stream
SPECS = [(alg, hw, 5 if hw == "rho" and alg in ("A2^(1)", "hyperbolic-3") else 8)
         for alg in ALGEBRAS for hw in ("rho", "L1")]


@dataclass(eq=False)
class RefSpace:
    """A weight space of `RefSlice`: e_mat[i] and f_mat[i] are the Fraction
    matrices of e_i and f_i to the spaces at weight +- alpha_i, with no key
    where no space lies there."""

    weight: Wt
    height: int
    words: tuple
    gram: tuple
    f_mat: dict = field(default_factory=dict)
    e_mat: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.words)


class RefSlice(HW.ModuleSlice):
    """ModuleSlice built by greedy pivoting and one rat_solve per candidate."""

    def __del__(self):
        pass  # its spaces hold no links to cut

    def _build(self):
        datum = self.datum
        n, m = datum.n, datum.m
        # weights just past the window whose Gram probe is nonzero
        self._nonzero_beyond: set[Wt] = set()
        top = RefSpace(weight=self.hw, height=0, words=((),), gram=((Fraction(1),),))
        self.spaces[self.hw] = top
        level: list[Wt] = [self.hw]
        for h in range(1, self.depth + 2):
            probe_only = h == self.depth + 1
            targets: dict[Wt, None] = {}
            for mu in level:
                for i in range(n):
                    lam = tuple(mu[j] - datum.alpha[i][j] for j in range(m))
                    targets.setdefault(lam, None)
            new_level = []
            for lam in sorted(targets):
                ws = self._build_space(lam, h, register=not probe_only)
                if ws is None:
                    continue
                if probe_only:
                    self._nonzero_beyond.add(lam)
                else:
                    self.spaces[lam] = ws
                    new_level.append(lam)
            level = new_level
            if not level:
                break

    def _build_space(self, lam: Wt, h: int, register: bool = True
                     ) -> Optional[RefSpace]:
        datum = self.datum
        n, m = datum.n, datum.m
        cands: list[tuple[int, int]] = []  # (i, index in basis of lam + alpha_i)
        for i in range(n):
            up = tuple(lam[j] + datum.alpha[i][j] for j in range(m))
            src = self.spaces.get(up)
            if src is not None:
                cands.extend((i, k) for k in range(src.dim))
        if not cands:
            return None
        # e_j-image of each candidate, in the basis at lam + alpha_j.
        e_imgs: list[dict[int, tuple[Fraction, ...]]] = []
        for (i, k) in cands:
            up = tuple(lam[j] + datum.alpha[i][j] for j in range(m))
            src = self.spaces[up]
            imgs: dict[int, tuple[Fraction, ...]] = {}
            for jj in range(n):
                tgt_wt = tuple(lam[j] + datum.alpha[jj][j] for j in range(m))
                tgt = self.spaces.get(tgt_wt)
                if tgt is None:
                    continue
                vec = [Fraction(0)] * tgt.dim
                # e_jj f_i b_k = f_i (e_jj b_k) + [jj == i] * up(h_i) * b_k
                up_e = src.e_mat.get(jj)
                if up_e is not None:
                    mid_wt = tuple(up[j] + datum.alpha[jj][j] for j in range(m))
                    mid = self.spaces.get(mid_wt)
                    if mid is not None:
                        fmat = mid.f_mat.get(i)
                        if fmat is not None:
                            col = [up_e[r][k] for r in range(len(up_e))]
                            for r in range(tgt.dim):
                                vec[r] += sum(fmat[r][c] * col[c] for c in range(mid.dim))
                if jj == i:  # [e_i, f_i] = h_i acts by up(h_i) on b_k
                    vec[k] += Fraction(up[i])
                imgs[jj] = tuple(vec)
            e_imgs.append(imgs)
        # Gram matrix of the candidates via contravariance.
        nc = len(cands)
        gram_full = [[Fraction(0)] * nc for _ in range(nc)]
        for b in range(nc):
            for a in range(nc):
                i, k = cands[a]
                up = tuple(lam[j] + datum.alpha[i][j] for j in range(m))
                src = self.spaces[up]
                img = e_imgs[b].get(i)
                if img is None:
                    continue
                gram_full[a][b] = sum(src.gram[k][c] * img[c] for c in range(src.dim))
        # Greedy pivot selection in degree-lex candidate order.
        selected: list[int] = []
        reduced: list[list[Fraction]] = []
        for c in range(nc):
            col = [gram_full[r][c] for r in range(nc)]
            for rc in reduced:
                piv = next((r for r, x in enumerate(rc) if x != 0), None)
                if piv is not None and col[piv] != 0:
                    f = col[piv] / rc[piv]
                    col = [x - f * y for x, y in zip(col, rc)]
            if any(col):
                selected.append(c)
                reduced.append(col)
        if not selected:
            return None
        if not register:  # probe pass: only the nonvanishing matters
            return RefSpace(weight=lam, height=h, words=((),) * len(selected), gram=())
        words = []
        for c in selected:
            i, k = cands[c]
            up = tuple(lam[j] + datum.alpha[i][j] for j in range(m))
            words.append((i,) + self.spaces[up].words[k])
        gram = tuple(tuple(gram_full[a][b] for b in selected) for a in selected)
        ws = RefSpace(weight=lam, height=h, words=tuple(words), gram=gram)
        # Coordinates of every candidate in the selected basis.
        coords: list[tuple[Fraction, ...]] = []
        for c in range(nc):
            rhs = tuple(gram_full[s][c] for s in selected)
            sol = exact_reference.rat_solve(gram, rhs)
            if sol is None:
                raise InternalError("Gram matrix singular on the selected basis")
            coords.append(sol[0])
        # f-matrices into this space, and e-matrices out of it.
        for i in range(self.datum.n):
            up = tuple(lam[j] + datum.alpha[i][j] for j in range(m))
            src = self.spaces.get(up)
            if src is None:
                continue
            cols = []
            for k in range(src.dim):
                c = cands.index((i, k))
                cols.append(coords[c])
            src.f_mat[i] = tuple(tuple(cols[k][r] for k in range(src.dim))
                                 for r in range(ws.dim))
        for j in range(self.datum.n):
            tgt_wt = tuple(lam[jj] + datum.alpha[j][jj] for jj in range(m))
            tgt = self.spaces.get(tgt_wt)
            if tgt is None:
                continue
            rows = []
            for r in range(tgt.dim):
                rows.append(tuple(e_imgs[s][j][r] for s in selected))
            ws.e_mat[j] = tuple(rows)
        return ws


def _fractions(op):
    """An (ints, den) operator matrix as the Fraction matrix it stands for."""
    ints, den = op
    return tuple(tuple(Fraction(x, den) for x in row) for row in ints)


def read_edges(sl):
    """A library slice's edges read back: ({wt: {i: (ints, den)}} of e_i,
    the same of f_i, the set of weights past the window).  A weight past
    the window is wt - alpha_i at each down[i] that is `_BEYOND`; an up
    edge that is `_BEYOND` fails here."""
    e_mats, f_mats, beyond = {}, {}, set()
    for wt, sp in sl.spaces.items():
        assert HW._BEYOND not in sp.up.values(), wt
        e_mats[wt] = {i: (ints, den) for i, (_, ints, den) in sp.up.items()}
        f_mats[wt] = {}
        for i, edge in sp.down.items():
            if edge is HW._BEYOND:
                beyond.add(tuple(x - a for x, a in zip(wt, sl.datum.alpha[i])))
            else:
                f_mats[wt][i] = edge[1:]
    return e_mats, f_mats, beyond


def _slice(cls, alg, hw_name, depth):
    datum = build_realization(ALGEBRAS[alg])
    hw = datum.rho() if hw_name == "rho" else datum.fundamental_weight(0)
    return cls(datum, hw, depth)


@pytest.mark.parametrize("alg,hw_name,depth", SPECS,
                         ids=[f"{a}-{h}-{d}" for a, h, d in SPECS])
def test_slice_equals_greedy_reference(alg, hw_name, depth):
    new = _slice(HW.ModuleSlice, alg, hw_name, depth)
    ref = _slice(RefSlice, alg, hw_name, depth)
    e_mats, f_mats, beyond = read_edges(new)
    assert beyond == ref._nonzero_beyond
    assert new.order == ref.order
    for wt, sp in ref.spaces.items():
        got = new.spaces[wt]
        assert (got.height, got.words, got.gram) == (sp.height, sp.words, sp.gram), wt
        assert {i: _fractions(op) for i, op in f_mats[wt].items()} == sp.f_mat, wt
        assert {i: _fractions(op) for i, op in e_mats[wt].items()} == sp.e_mat, wt


@pytest.mark.parametrize("alg,hw_name,depth", SPECS,
                         ids=[f"{a}-{h}-{d}" for a, h, d in SPECS])
def test_each_space_keeps_its_neighbours(alg, hw_name, depth):
    sl = _slice(HW.ModuleSlice, alg, hw_name, depth)
    ref = _slice(RefSlice, alg, hw_name, depth)
    for wt, sp in sl.spaces.items():
        for i, a in enumerate(sl.datum.alpha):
            for edges, sign in ((sp.up, 1), (sp.down, -1)):
                nbr_wt = tuple(x + sign * y for x, y in zip(wt, a))
                edge = edges.get(i)
                # down[i] is _BEYOND exactly where f_i leaves the window at
                # a weight that the reference finds nonzero; no up edge is
                beyond = sign < 0 and nbr_wt in ref._nonzero_beyond
                assert (edge is HW._BEYOND) == beyond, (wt, i, sign)
                if not beyond:
                    # the edge's space is the one at wt +- alpha_i, and the
                    # edge is absent exactly when no space lies there
                    tgt = None if edge is None else edge[0]
                    assert tgt is sl.spaces.get(nbr_wt), (wt, i, sign)
    assert list(sl.order) == sorted(sl.spaces, key=lambda wt: (sl.spaces[wt].height, wt))


def _refuse_n_memos(sl):
    """Apply each N(i) to the first basis vector of every bottom-layer space;
    the number of letters refused."""
    refused = 0
    for sp in sl.spaces.values():
        for i in range(sl.datum.n if sp.height == sl.depth else 0):
            try:
                HW.apply_word(HW.GhatWord((HW.nsimple(i),)),
                              HW.Vector(sl, {sp.weight: (1,) + (0,) * (sp.dim - 1)}))
            except DepthExceeded:
                refused += 1
    return refused


def test_a_dropped_slice_is_freed_at_once():
    # the neighbour maps and the n_i memos are cut when the slice goes, so no
    # space waits for the cycle collector; a memo that holds a refusal keeps
    # no exception, whose traceback frames would hold the slice
    gc.disable()
    try:
        for refuse in (False, True):
            sl = _slice(HW.ModuleSlice, "A2^(1)", "rho", 3)
            assert not refuse or _refuse_n_memos(sl)
            top = weakref.ref(sl.spaces[sl.hw])
            del sl
            assert top() is None, refuse
    finally:
        gc.enable()


def _ref_step(sl, parts, i, sign):
    """e_i (sign 1) or f_i (sign -1) on {wt: Fraction coordinates}."""
    out = {}
    for wt, v in parts.items():
        sp = sl.spaces[wt]
        tgt = tuple(x + sign * a for x, a in zip(wt, sl.datum.alpha[i]))
        mat = (sp.e_mat if sign > 0 else sp.f_mat).get(i)
        if mat is None:
            if tgt in sl._nonzero_beyond:
                raise DepthExceeded(needed=sp.height + 1, depth=sl.depth)
            continue
        out[tgt] = [sum(x * c for x, c in zip(row, v)) for row in mat]
    return {wt: v for wt, v in out.items() if any(v)}


def _ref_word(sl, word, parts):
    for letter in reversed(word.letters):
        tag = letter[0]
        if tag in ("X+", "X-"):
            total, term, k = dict(parts), parts, 1
            while True:
                term = _ref_step(sl, term, letter[1], 1 if tag == "X+" else -1)
                if not term:
                    break
                c = letter[2] ** k / math.factorial(k)
                for wt, v in term.items():
                    acc = total.get(wt, [Fraction(0)] * len(v))
                    total[wt] = [a + c * x for a, x in zip(acc, v)]
                k += 1
            parts = {wt: v for wt, v in total.items() if any(v)}
        elif tag == "T":
            parts = {wt: [letter[2] ** vec_dot(wt, letter[1]) * x for x in v]
                     for wt, v in parts.items()}
        else:  # N(i) = exp(e_i) exp(-f_i) exp(e_i)
            i = letter[1]
            parts = _ref_word(sl, HW.GhatWord((HW.xplus(i, 1), HW.xminus(i, -1),
                                               HW.xplus(i, 1))), parts)
    return parts


def _random_word(rng, datum, values=None):
    """One to four letters; each parameter is drawn from `values` when given."""
    letters = []
    for _ in range(rng.randrange(1, 5)):
        i, kind = rng.randrange(datum.n), rng.randrange(4)
        t = rng.choice(values) if values else \
            Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 3)))
        if kind == 0:
            letters.append(HW.xplus(i, t))
        elif kind == 1:
            letters.append(HW.xminus(i, t))
        elif kind == 2:
            letters.append(HW.torus_letter(datum.coroot(i), t))
        else:
            letters.append(HW.nsimple(i))
    return HW.GhatWord(tuple(letters))


@pytest.mark.parametrize("alg,hw_name", [("A2", "rho"), ("G2", "rho"), ("A2^(2)", "L1"),
                                         ("A1^(1)", "rho"), ("hyperbolic-3", "L1")])
def test_word_values_equal_the_fraction_reference(alg, hw_name):
    new = _slice(HW.ModuleSlice, alg, hw_name, 4)
    ref = _slice(RefSlice, alg, hw_name, 4)
    rng = random.Random(f"{alg}-{hw_name}")
    checked = 0
    for _ in range(40):
        word = _random_word(rng, new.datum)
        try:
            want = _ref_word(ref, word, {ref.hw: [Fraction(1)]})
        except DepthExceeded:
            with pytest.raises(DepthExceeded):
                HW.theta(new, word)
            continue
        # the top Gram entry is 1, so theta is the top coordinate
        got = HW.theta(new, word)
        assert type(got) is Fraction
        assert got == want.get(ref.hw, [0])[0], HW.format_word(word)
        try:
            (rows, cols), mat = HW.evaluate_word(new, word, max_height=1)
        except DepthExceeded:
            continue
        for c, (wt, k) in enumerate(cols):
            unit = [Fraction(int(j == k)) for j in range(new.spaces[wt].dim)]
            col = _ref_word(ref, word, {wt: unit})
            for r, (wt2, j) in enumerate(rows):
                assert type(mat[r][c]) is Fraction
                assert mat[r][c] == col.get(wt2, [0] * (j + 1))[j]
        checked += 1
    assert checked > 10


def test_a_part_that_cancels_is_not_lowered_out_of_the_window():
    # on A2^(1) rho at depth 5, a part at the window's bottom cancels inside
    # one of this word's exponentials; kept, a later exponential lowered that
    # zero past the window and raised DepthExceeded
    new = _slice(HW.ModuleSlice, "A2^(1)", "rho", 5)
    ref = _slice(RefSlice, "A2^(1)", "rho", 5)
    word = HW.parse_word(new.datum, "X-(1;2) N(2) N(2)")
    (rows, cols), mat = HW.evaluate_word(new, word, max_height=2)
    assert len(cols) == sum(sp.dim for sp in new.spaces.values() if sp.height <= 2)
    for c, (wt, k) in enumerate(cols):
        col = _ref_word(ref, word, {wt: [Fraction(int(j == k)) for j in range(new.spaces[wt].dim)]})
        for r, (wt2, j) in enumerate(rows):
            assert mat[r][c] == col.get(wt2, [0] * (j + 1))[j], (wt, k, wt2, j)


def _assert_canonical(v):
    """v is in lowest terms: no zero part, den coprime to the entries, den 1
    on the zero vector."""
    assert v.den > 0 and all(any(part) for part in v.parts.values())
    assert math.gcd(v.den, *[x for part in v.parts.values() for x in part]) == 1
    assert v.parts or v.den == 1


@pytest.mark.parametrize("alg,hw_name,depth", SPECS,
                         ids=[f"{a}-{h}-{d}" for a, h, d in SPECS])
def test_whole_images_equal_the_fraction_reference(alg, hw_name, depth):
    # the slices of the benchmark's hw-slices stream; letter parameters with
    # negative numerators and denominators > 1
    new = _slice(HW.ModuleSlice, alg, hw_name, depth)
    ref = _slice(RefSlice, alg, hw_name, depth)
    starts = [(HW.Vector(new, {new.hw: (2,)}, 4), {ref.hw: [Fraction(1, 2)]})]
    for wt in new.order:
        sp = new.spaces[wt]
        if sp.height > 2:
            break
        for k in range(sp.dim):
            starts.append((HW.Vector(new, {wt: tuple(int(j == k) for j in range(sp.dim))}),
                           {wt: [Fraction(int(j == k)) for j in range(sp.dim)]}))
    rng = random.Random(f"{alg}-{hw_name}-{depth}")
    values = (Fraction(-2, 3), Fraction(3, 2), Fraction(-1, 2))
    compared = 0
    for _ in range(10):
        word = _random_word(rng, new.datum, values)
        for v, parts in starts:
            try:
                want = _ref_word(ref, word, parts)
            except DepthExceeded:
                with pytest.raises(DepthExceeded):
                    HW.apply_word(word, v)
                continue
            got = HW.apply_word(word, v)
            _assert_canonical(got)
            assert {wt: [Fraction(x, got.den) for x in part]
                    for wt, part in got.parts.items()} == want, HW.format_word(word)
            compared += 1
    assert compared >= 5 * len(starts)


def test_non_integral_gram_entry_is_an_internal_error():
    datum = build_realization(ALGEBRAS["A2"])
    sl = HW.ModuleSlice(datum, (1, 1), 1)
    top = sl.spaces[(1, 1)]
    top.gram = ((Fraction(1, 2),),)
    with pytest.raises(InternalError):
        sl._build_space((-1, 2), 1, {0: top})


def test_an_asymmetric_gram_matrix_is_an_internal_error(monkeypatch):
    # one e-image entry shifted by one: the basis Gram entries read from its
    # two sides no longer agree
    real = HW.ModuleSlice._e_images

    def corrupted(above):
        cands, e_imgs = real(above)
        if len(cands) >= 2:
            i = cands[0][0]
            ints, den = e_imgs[1][i]
            e_imgs[1][i] = ((ints[0] + den,) + ints[1:], den)
        return cands, e_imgs

    monkeypatch.setattr(HW.ModuleSlice, "_e_images", staticmethod(corrupted))
    for alg, hw in (("A2", (1, 1)), ("hyperbolic-3", (1, 1, 1))):
        with pytest.raises(InternalError, match="is not symmetric"):
            HW.ModuleSlice(build_realization(ALGEBRAS[alg]), hw, 3)


# -- Freudenthal in push form against the pull form --------------------------------


def _both_forms(datum, hw, depth):
    cap = depth if datum.n > HW.DEFAULT_MAX_RANK else None  # lifts the rank guard
    return (HW.weights_and_mults(datum, hw, depth, max_depth=cap),
            exact_reference.weights_and_mults(datum, hw, depth, max_depth=cap))


FREUDENTHAL_CASES = [(ALGEBRAS[alg], hw, depth) for alg, hw, depth in SPECS] + [
    (((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)), "rho", 8),  # A3^(1)
    (ALGEBRAS["hyperbolic-3"], (4, 4, 4), 8),
]


@pytest.mark.parametrize("rows,hw,depth", FREUDENTHAL_CASES,
                         ids=[f"{a}-{h}-{d}" for a, h, d in SPECS] + ["A3^(1)-rho-8",
                                                                       "hyperbolic-3-444-8"])
def test_push_form_equals_the_pull_form(rows, hw, depth):
    datum = build_realization(rows)
    hw = datum.rho() if hw == "rho" else datum.fundamental_weight(0) if hw == "L1" else hw
    push, pull = _both_forms(datum, hw, depth)
    assert push == pull
    assert list(push) == list(pull)  # the same order: by height, then b


def symmetrizable_small_gcms():
    """Every symmetrizable GCM of rank 2 and 3 from `all_small_gcms`."""
    out = []
    for n in (2, 3):
        for rows in all_small_gcms(n):
            try:
                validate_and_symmetrize(rows)
            except NotSymmetrizable:
                continue
            out.append(rows)
    return out


def test_push_form_equals_the_pull_form_on_small_gcms():
    # highest weights with entries from {0, 0, 1, 2}, so that the support
    # of hw is often partial
    rng = random.Random(26)
    gcms = symmetrizable_small_gcms()
    for _ in range(60):
        datum = build_realization(rng.choice(gcms))
        hw = tuple(rng.choice((0, 0, 1, 2)) for _ in range(datum.n)) + (0,) * (datum.m - datum.n)
        push, pull = _both_forms(datum, hw, 6)
        assert push == pull, (datum.gcm.a, hw)
