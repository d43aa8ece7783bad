"""Seeded workloads of the kmx benchmark.

A generator turns a seed into plain input data: words of simple indices,
index sets, weights and operator letters.  Generators import nothing from
kmx, so the program sees only their output.  A runner builds kmx objects from
those inputs (untimed), runs one operation per op (timed), checks the output
against an independent identity (untimed) and renders the canonical output
for the digest.

Workloads:
  coxeter-rank10  Weyl, face and monoid ops on over-extended D8 (rank 10).
  hw-slices       highest-weight module slices of eight rank-2/3 algebras,
                  each followed by Freudenthal, theta and evaluate reads.
  verify          the `kmx verify` battery; its seeds are fixed inside it.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Over-extended D8 (D8^{++}) in Bourbaki order: nodes 0..7 are alpha_1..alpha_8
# of D8, node 8 is the affine node alpha_0 (joined to alpha_2) and node 9 the
# over-extending node (joined to alpha_0).  Rank 10, hyperbolic.  This order
# makes the exposing-coweight grid search of the full set take seconds, which
# is what set-up measures.
D8PP_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (1, 8), (8, 9))
D8PP_RANK = 10
# Its special sets: the empty set, the affine D8 subset, two E8^{(1)} subsets
# and the whole (hyperbolic) set.
D8PP_SPECIALS = (
    (),
    (0, 1, 2, 3, 4, 5, 6, 7, 8),
    (0, 1, 2, 3, 4, 5, 6, 8, 9),
    (0, 1, 2, 3, 4, 5, 7, 8, 9),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
)

COX_KINDS = ("word", "product", "coset_right", "coset_left", "double_coset",
             "normalize_face", "act_face", "includes", "intersect",
             "face_of_point", "wm_chain", "wm_invert", "nhat_mul", "stabilizers")
COX_CYCLES = 36          # one op of every kind per cycle
COX_SMOKE_CYCLES = 1

HW_ALGEBRAS = {
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A1^(1)": ((2, -2), (-2, 2)),
    "A2^(2)": ((2, -4), (-1, 2)),
    "A2^(1)": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "hyperbolic-3": ((2, -2, 0), (-2, 2, -1), (0, -1, 2)),
}
# (algebra, highest weight, depth).  rho on affine A2 and on the hyperbolic
# matrix stops at depth 5 (0.4-0.6 s each): depth 6 takes 1.5-3.3 s, 7 takes
# 11-13 s and 8 takes 50-60 s, and a run must repeat the stream a few times
# within its time to give a steady median on this noisy a host.
# The stream visits every slice three times, so that its slowest ops (the
# tail) are builds that recur rather than single ops.
HW_SLICES = 3 * tuple(
    (alg, hw, 5 if hw == "rho" and alg in ("A2^(1)", "hyperbolic-3") else 8)
    for alg in HW_ALGEBRAS for hw in ("rho", "L1"))
HW_READS = 30             # theta and evaluate ops after each slice
HW_SMOKE_SLICES = 3
HW_SMOKE_READS = 4

VERIFY_SMOKE_CHECKS = ("1", "7", "8")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def coxeter_inputs(seed: int, cycles: int = COX_CYCLES) -> list[tuple[str, tuple]]:
    rng = _rng("coxeter-rank10", seed)
    n = D8PP_RANK

    def word(lo, hi):
        out: list[int] = []
        for _ in range(rng.randint(lo, hi)):
            i = rng.randrange(n)
            while out and i == out[-1]:
                i = rng.randrange(n)
            out.append(i)
        return tuple(out)

    def parabolic():
        return tuple(sorted(rng.sample(range(n), rng.randint(1, 4))))

    def face():
        return (word(2, 4), rng.choice(D8PP_SPECIALS))

    def wm():
        return (word(2, 4), face())

    def dominant():
        theta = rng.choice(D8PP_SPECIALS[1:-1])
        if rng.randrange(2):  # a point of a proper face: zero on a special set
            return tuple(0 if i in theta else rng.randint(1, 2) for i in range(n))
        lam = [rng.choice((0, 0, 1, 2)) for _ in range(n)]
        lam[rng.randrange(n)] = rng.randint(1, 2)
        return tuple(lam)

    def torus():
        return tuple(Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2)))
                     for _ in range(n))

    ops = []
    for _ in range(cycles):
        for kind in COX_KINDS:
            if kind == "word":
                args = (word(7, 9),)
            elif kind == "product":
                args = (word(4, 6), word(4, 6))
            elif kind in ("coset_right", "coset_left"):
                args = (word(5, 7), parabolic())
            elif kind == "double_coset":
                args = (word(5, 7), parabolic(), parabolic())
            elif kind == "normalize_face":
                args = face()
            elif kind == "act_face":
                args = (word(3, 5), face())
            elif kind in ("includes", "intersect"):
                args = (face(), face())
            elif kind == "face_of_point":
                # inside the Tits cone (w applied to a dominant weight) or
                # outside it (w applied to minus a nonzero dominant weight)
                args = (rng.choice(("in", "in", "out")), word(3, 5), dominant())
            elif kind == "wm_chain":
                args = (wm(), wm(), wm())
            elif kind == "wm_invert":
                args = (wm(),)
            elif kind == "nhat_mul":
                args = ((word(2, 3), torus(), face()), (word(2, 3), torus(), face()))
            else:  # stabilizers: u is a random word or conjugates W_Theta
                args = (face(), rng.randrange(2), word(3, 4))
            ops.append((kind, args))
    return ops


def _letters(rng: random.Random, n: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        kind = rng.randrange(4)
        i = rng.randrange(n)
        if kind == 0:
            out.append(("X+", i, Fraction(rng.choice((1, 2, -1)), rng.choice((1, 2)))))
        elif kind == 1:
            out.append(("X-", i, Fraction(rng.choice((1, 2, -1)), rng.choice((1, 2)))))
        elif kind == 2:
            out.append(("T", i, Fraction(rng.choice((2, 3, -1)), rng.choice((1, 2)))))
        else:
            out.append(("N", i))
    return tuple(out)


def hw_inputs(seed: int, slices=HW_SLICES, reads: int = HW_READS
              ) -> list[tuple[str, tuple]]:
    rng = _rng("hw-slices", seed)
    ops = []
    for idx, spec in enumerate(slices):
        n = len(HW_ALGEBRAS[spec[0]])
        ops.append(("build", (idx,) + spec))
        ops.append(("freudenthal", (idx,)))
        for r in range(reads):
            if r % 3 == 2:
                ops.append(("evaluate", (idx, _letters(rng, n, 3), rng.randint(1, 2))))
            else:
                ops.append(("theta", (idx, _letters(rng, n, 5))))
    return ops


def inputs(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, tuple]]:
    """The op stream of a workload; `verify` has no seeded input."""
    if workload == "coxeter-rank10":
        return coxeter_inputs(seed, COX_SMOKE_CYCLES if smoke else COX_CYCLES)
    if workload == "hw-slices":
        if smoke:
            return hw_inputs(seed, HW_SLICES[:HW_SMOKE_SLICES], HW_SMOKE_READS)
        return hw_inputs(seed)
    if workload == "verify":
        return [("verify", ("verify",))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("coxeter-rank10", "hw-slices", "verify")


# -- runners ---------------------------------------------------------------------
# Runners import kmx lazily so that the generators above stay kmx-free.


def cold_caches(datums=()) -> None:
    """Raise unless the process-wide and per-datum kmx caches are empty, so
    that a run times cold work and never another run's cache hits."""
    from kmx import cartan

    warm = [f.__name__ for f in (cartan._classify_cached, cartan._component_type_cached)
            if f.cache_info().currsize]
    warm += ["RootDatum caches" for d in datums
             if d._ctheta or hasattr(d, "_slice_cache")]
    if warm:
        raise RuntimeError(f"caches are warm at the start of the run: {warm}")


class Verdict:
    """A kmx answer given as an exception (Undecided, NotInTitsCone, ...).

    Only the kind is kept: certificate strings may change between versions.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __repr__(self):
        return f"!{self.kind}"


def canon(x) -> str:
    """Canonical text of an output: words, face and monoid normal forms,
    dims, values and verdict kinds; no certificates, no exposing coweights."""
    from kmx import faces, highest_weight, monoids, weyl

    if isinstance(x, weyl.WeylElt):
        return "w" + ",".join(map(str, x.word))
    if isinstance(x, faces.Face):
        return f"F({canon(x.w)};{','.join(map(str, x.theta))})"
    if isinstance(x, monoids.WmonElt):
        return f"M({canon(x.face)};{canon(x.w)})"
    if isinstance(x, monoids.NhatElt):  # its kappa class and face
        return f"N({canon(monoids.nhat_to_wmon(x))};{canon(x.face)})"
    if isinstance(x, highest_weight.ModuleSlice):
        return canon(x.dims())
    if isinstance(x, (tuple, list)):
        return "(" + " ".join(canon(e) for e in x) + ")"
    if isinstance(x, dict):
        return "{" + " ".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x) if isinstance(x, Verdict) else str(x)


class CoxeterRank10:
    def render(self, kind: str, out) -> str:
        return canon(out)

    def setup(self):
        from kmx import cartan

        n = D8PP_RANK
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in D8PP_EDGES:
            rows[i][j] = rows[j][i] = -1
        self.datum = cartan.build_realization(rows)
        cold_caches([self.datum])
        if self.datum.special_sets() != D8PP_SPECIALS:
            raise RuntimeError("D8++ special sets differ from the workload's")
        for theta in D8PP_SPECIALS[1:]:
            self.datum.exposing_coweight(theta)

    def w(self, word):
        from kmx import weyl as W
        return W.from_word(self.datum, word)

    def face(self, spec):
        from kmx import faces as F
        return F.normalize_face(self.w(spec[0]), spec[1])

    def wm(self, spec):
        from kmx import monoids as M
        return M.wm_normalize(self.w(spec[0]), self.face(spec[1]))

    def prepare(self, kind: str, args: tuple):
        """(thunk, check).  The timed thunk builds the op's kmx inputs from
        their words, as the CLI verbs do, and runs the op; the untimed check
        sees those inputs and the output."""
        from kmx import faces as F, monoids as M, weyl as W

        w, face, wm = self.w, self.face, self.wm
        if kind == "word":
            build = lambda word: (word,)
            op = lambda word: worded(w(word))

            def check(word, x):
                return (w(x.word) == x and len(x.word) <= len(word)
                        and (len(word) - len(x.word)) % 2 == 0
                        and (not x.word or x.word[0] == min(x.left_descents())))
        elif kind == "product":
            build = lambda a, b: (w(a), w(b))
            op = lambda u, v: worded(u * v)
            check = lambda u, v, p: p * v.inv() == u
        elif kind in ("coset_right", "coset_left"):
            right = kind == "coset_right"
            build = lambda word, j: (w(word), j)
            op = lambda x, j: tuple(map(worded, (W.min_coset_right if right
                                                 else W.min_coset_left)(x, j)))

            def check(x, j, out):
                rep, u = out
                desc = rep.right_descents() if right else rep.left_descents()
                return ((rep * u if right else u * rep) == x and not set(desc) & set(j)
                        and len(rep.word) + len(u.word) == len(x.word))
        elif kind == "double_coset":
            build = lambda word, k, j: (w(word), k, j)
            op = lambda x, k, j: worded(W.min_double_coset(x, k, j))

            def check(x, k, j, d):
                return (not set(d.left_descents()) & set(k)
                        and not set(d.right_descents()) & set(j)
                        and len(d.word) <= len(x.word))
        elif kind == "normalize_face":
            build = lambda word, theta: (w(word), theta)
            op = lambda x, theta: worded_face(F.normalize_face(x, theta))

            def check(x, theta, f):
                stab = set(theta) | set(self.datum.theta_perp(theta))
                return (F.normalize_face(f.w, f.theta) == f and f.theta == theta
                        and not set(f.w.right_descents()) & stab)
        elif kind == "act_face":
            build = lambda word, f: (w(word), face(f))
            op = lambda u, f: worded_face(F.act_face(u, f))
            check = lambda u, f, g: F.act_face(u.inv(), g) == f
        elif kind in ("includes", "intersect"):
            build = lambda r, s: (face(r), face(s))
            if kind == "includes":
                op = F.includes
                check = lambda r, s, b: b == (F.intersect(r, s) == s)
            else:
                op = lambda r, s: worded_face(F.intersect(r, s))
                check = lambda r, s, m: (m == F.intersect(s, r) and F.includes(r, m)
                                         and F.includes(s, m))
        elif kind == "face_of_point":
            where, lam_plus = args[0], args[2]
            sign = 1 if where == "in" else -1
            build = lambda where, word, lam_plus: (
                w(word).act_weight(tuple(sign * x for x in lam_plus)),)
            op = lambda lam: worded_face(F.face_of_point(self.datum, lam))

            def check(lam, out):
                if isinstance(out, Verdict):
                    return out.kind == "Undecided" or (
                        where == "out" and out.kind == "NotInTitsCone")
                # the dominant representative is unique, and the face holds lam
                return (where == "in"
                        and W.dominant_rep(self.datum, lam).dominant == lam_plus
                        and self.datum.pair(lam, out.exposing()) == 0)
            return timed(build, op, check, args, answers_only=False)
        elif kind == "wm_chain":
            build = lambda *specs: tuple(map(wm, specs))
            op = lambda x, y, z: (M.wm_mul(M.wm_mul(x, y), z), M.wm_mul(x, M.wm_mul(y, z)))
            check = lambda x, y, z, pq: pq[0] == pq[1]
        elif kind == "wm_invert":
            build = lambda spec: (wm(spec),)
            op = M.wm_invert
            check = lambda x, xi: M.wm_mul(M.wm_mul(x, xi), x) == x
        elif kind == "nhat_mul":
            build = lambda *specs: tuple(M.nhat_from(w(u), t, face(f)) for u, t, f in specs)
            op = M.nhat_mul
            check = lambda a, b, c: M.nhat_to_wmon(c) == M.wm_mul(M.nhat_to_wmon(a),
                                                                  M.nhat_to_wmon(b))
        elif kind == "stabilizers":
            def build(spec, conj, word):
                r, u = face(spec), w(word)
                if conj:  # conjugate of a word in W_Theta: u centralizes the face
                    u = r.w * w(tuple(i for i in word if i in r.theta)) * r.w.inv()
                return r, u, conj
            op = lambda r, u, conj: (F.centralizes(r, u), F.normalizes(r, u))

            def check(r, u, conj, out):
                cent, norm = out
                return (norm == (F.act_face(u, r) == r) and (norm or not cent)
                        and (cent or not conj))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return timed(build, op, check, args)


def timed(build, op, check, args, answers_only=True):
    """(thunk, check) around one op; with `answers_only`, a verdict (an
    answer given as an exception) fails the check."""
    inputs = []

    def thunk():
        inputs.append(build(*args))
        return op(*inputs[0])

    def checked(out):
        if answers_only and isinstance(out, Verdict):
            return False
        return check(*inputs[0], out)
    return thunk, checked


def worded(x):
    x.word  # the canonical word is part of the op
    return x


def worded_face(f):
    worded(f.w)
    return f


class HwSlices:
    def render(self, kind: str, out):
        """Freudenthal output is left out of the digest: it is checked against
        the Gram-rank dims, and the Peterson defect makes it fail today."""
        return None if kind == "freudenthal" else canon(out)

    def setup(self):
        from kmx import cartan

        self.data = {alg: cartan.build_realization(rows)
                     for alg, rows in HW_ALGEBRAS.items()}
        cold_caches(self.data.values())
        self.slices: dict[int, object] = {}

    def word(self, idx, letters, adjoint=False):
        """The operator word; with `adjoint`, the word of its adjoint under
        the contravariant form (reversed, X+ and X- swapped, N(i) expanded
        as X+(1) X-(-1) X+(1) whose adjoint is X-(1) X+(-1) X-(1))."""
        from kmx import highest_weight as HW

        datum = self.slices[idx].datum
        out = []
        for letter in (reversed(letters) if adjoint else letters):
            tag, i = letter[0], letter[1]
            if tag == "T":
                out.append(HW.torus_letter(datum.coroot(i), letter[2]))
            elif tag == "N" and not adjoint:
                out.append(HW.nsimple(i))
            elif tag == "N":
                out += [HW.xminus(i, 1), HW.xplus(i, -1), HW.xminus(i, 1)]
            elif (tag == "X+") != adjoint:
                out.append(HW.xplus(i, letter[2]))
            else:
                out.append(HW.xminus(i, letter[2]))
        return HW.GhatWord(tuple(out))

    def prepare(self, kind: str, args: tuple):
        from kmx import highest_weight as HW
        from kmx.errors import DepthExceeded

        idx = args[0]
        if kind == "build":
            alg, hw_name, depth = args[1:]
            datum = self.data[alg]
            hw = datum.rho() if hw_name == "rho" else datum.fundamental_weight(0)

            def run():
                self.slices.clear()  # reads of earlier slices are done
                self.slices[idx] = HW.ModuleSlice(datum, hw, depth)
                return self.slices[idx]
            return run, lambda sl: not isinstance(sl, Verdict) and weyl_invariant(sl)
        sl = self.slices[idx]
        if kind == "freudenthal":
            return ((lambda: HW.weights_and_mults(sl.datum, sl.hw, sl.depth)),
                    lambda out: out == sl.dims())
        word, star = self.word(idx, args[1]), self.word(idx, args[1], adjoint=True)
        if kind == "theta":
            def check(val):
                if isinstance(val, Verdict):
                    return val.kind == "DepthExceeded"
                try:
                    return HW.theta(sl, star) == val
                except DepthExceeded:
                    return True
            return (lambda: HW.theta(sl, word)), check
        if kind == "evaluate":
            hmax = args[2]

            def check(out):
                if isinstance(out, Verdict):
                    return out.kind == "DepthExceeded"
                try:
                    _, mstar = HW.evaluate_word(sl, star, max_height=hmax)
                except DepthExceeded:
                    return True
                return adjoint_pair(sl, out, mstar)
            return (lambda: HW.evaluate_word(sl, word, max_height=hmax)), check
        raise ValueError(f"unknown op kind {kind!r}")


def weyl_invariant(sl) -> bool:
    """Weight multiplicities are Weyl-invariant: dim(lam) = dim(s_i lam)
    whenever s_i lam lies inside the depth window."""
    datum, dims = sl.datum, sl.dims()
    for lam, d in dims.items():
        h = sl.height_of(lam)
        for i in range(datum.n):
            if h + lam[i] > sl.depth:
                continue
            image = tuple(lam[j] - lam[i] * datum.alpha[i][j] for j in range(datum.m))
            if dims.get(image, 0) != d:
                return False
    return dims[sl.hw] == 1


def adjoint_pair(sl, out, mstar) -> bool:
    """<b_r | w b_c> = <w* b_r | b_c> for basis vectors b_r, b_c in the window."""
    (rows, cols), m = out
    pos = {key: p for p, key in enumerate(rows)}

    def form(mat, key, c):  # <b_key | column c of mat>
        wt, a = key
        g = sl.spaces[wt].gram
        return sum(g[a][b] * mat[pos[(wt, b)]][c] for b in range(len(g)))

    return all(form(m, kr, c) == form(mstar, kc, r)
               for c, kc in enumerate(cols) for r, kr in enumerate(cols))


def prepare_runner(workload: str):
    if workload == "coxeter-rank10":
        return CoxeterRank10()
    if workload == "hw-slices":
        return HwSlices()
    raise ValueError(f"no op runner for {workload!r}")
