"""The Weyl monoid, the torus monoid and the normalizer monoid.

Weyl monoid elements are congruence classes of pairs (face R, sigma) under
(R, sigma) ~ (R, sigma') iff sigma' sigma^{-1} centralizes R; the class acts
on the Tits cone by lam -> sigma(lam) if sigma(lam) lies in R, else an
explicit absorbing Zero.  The class representative is w_R tau' with tau'
minimal in W_Theta tau, tau = w_R^{-1} sigma; it is sigma itself unless tau
has a left descent in Theta, read from the one vector tau rho, and only
then is the coset walked.  The product (R, sigma)(S, tau) has face
R cap sigma S, the face exposed by c_R + sigma c_S for exposing coweights
c_R, c_S (`faces._face_exposed_by`), so no face is acted on; `nhat_mul`
takes its face the same way.  That meet is looked up in the root datum's
table of exposed faces and computed only the first time its coweight
comes up, and the faces it returns keep their exposing coweights, so a
face met again costs neither a walk nor a Weyl action.

One object per class.  Each face keeps a table of its classes
(`Face._classes`, sigma -> class): `_wm_class` looks sigma up there,
computes the representative only on a miss and keeps the class under both
sigma and its representative, so `wm_normalize`, `wm_idempotent`,
`wm_invert`, `nhat_to_wmon` and `NhatElt.canonical` meet each class as one
object.  A class keeps its products (`WmonElt._products`, y -> x y, keyed
by y's value equality), so `wm_mul` computes each meet once per pair of
classes.  The tables live as long as their datum; a class built directly
equals and hashes like the table's by (face, w).  A Weyl element and a face
of two root data make no class, and elements of two root data have no
product (`wm_mul`, `nhat_mul`) or meet (`faces.intersect`): a
PreconditionViolated.

Torus-monoid elements t e(R) are canonicalized by the values of t on the
basis w_R Lambda_j (j not in Theta) of span(R) cap P, for the normal form
R = w_R R(Theta): the columns j of P_{w_R}, as h_i = e_i, so no Smith normal
form is run.  Each keeps the torus element t it was normalized from, and
its product, its Weyl action and its value on a weight work through t: t
agrees with the canonical values on that lattice, and every weight they
read t on lies in it.  `toric`'s M-hat keeps its torus element the same
way.  The entries read their arguments at the API boundary (`cartan`): a
torus element by `cartan.torus_values`, the parameter s of t_h(s) as a
one-value torus element.  Every route inside runs the private cores
(`_wm_class`, `_wm_mul`, `_that`, `_nelt_mul`, `_nelt_inv`, `_nhat_mul`,
`_lift`, `_kappa`) on what it read or built, so `NhatElt.canonical` reads
nothing, and `wm_apply` and `that_eval` certify the weight they read by
`faces._contains`.  A character t(lam) is `exact.character`, evaluated
fraction-free.

Each monoid has one constructor of the idempotent e(R), which also holds
its identity e(full cone): `wm_idempotent`, `that_idempotent`,
`nhat_idempotent` (`toric.mhat_idempotent`).  A unit is the normal form on
the full cone; no monoid has a unit constructor.

The torus T and the normalizer N are the unit groups of T-hat and N-hat
(the elements on the full cone), so they have no entries of their own:
their arithmetic is the cores `_one`, `_torus_mul`, `_torus_inv`,
`_torus_act`, `_lift`, `_nelt_mul` and `_nelt_inv`, reached through units
(`nhat_from(w, t)` with `nhat_mul` and `nhat_inv`; `that_act`).  Two torus
entries stay: `torus_from_coweight` builds t_h(s), and `torus_eval` gives
t's character at any integer weight, off the Tits cone too.

Normalizer elements are n_w t e(R), n_w the canonical lift of a reduced
word, with the one cocycle n_i^2 = t_{h_i}(-1).  If s_i u < u (row i of
P_u sums below 0), n_i n_u = n_i^2 n_{s_i u} = n_{s_i u} t_c(-1) with
c = (s_i u)^{-1} h_i = -u^{-1} h_i, minus row i of P_u; t_c(-1) is
(-1)^{c_j} at Lambda_j, so `_nelt_mul` xors row i mod 2 into one flip
vector and negates the flagged values once, at the end; `NhatElt.canonical`
reads its residual off one product, n_sigma^{-1} (n_w t) n_{w_R}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import exact, faces as F, weyl as W
from .cartan import RootDatum, _check_datum, _expect, exact_ints, torus_values
from .errors import DomainError, InternalError, PreconditionViolated
from .exact import IntVec
from .faces import Face
from .weyl import WeylElt


class ZeroWeight:
    """Absorbing value of the Tits-cone action; distinct from the zero weight."""

    _instance: Optional["ZeroWeight"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"


ZERO = ZeroWeight()


# -- Weyl monoid ---------------------------------------------------------------


@dataclass(frozen=True)
class WmonElt:
    face: Face
    w: WeylElt  # canonical representative of Z_W(face) * w
    # y -> x y, filled by `wm_mul`; init=False, compare=False, so equality
    # and hashing stay by (face, w) and a directly built element works alike
    _products: Optional[dict] = field(init=False, compare=False, repr=False, default=None)

    @property
    def datum(self) -> RootDatum:
        return self.face.datum

    def is_idempotent(self) -> bool:
        return self.w.is_identity()

    def is_unit(self) -> bool:
        return self.face.is_full_cone()


def _centralizer_rep(face: Face, sigma: WeylElt) -> WeylElt:
    """Canonical representative of the right coset Z_W(face) * sigma.

    Conjugate into W_Theta form through the face's minimal representative,
    strip to the minimal element of W_Theta tau, and conjugate back.  The
    left descents of tau = w_R^{-1} sigma are the negative coordinates of
    tau rho = P_{w_R}^{-1} (sigma rho); when none lies in Theta (always so
    for Theta empty), tau is already minimal and the answer is sigma.
    """
    if face.theta:
        tau_rho = exact.mat_vec(face.w.mat_p_inv, [sum(row) for row in sigma.mat_p])
        if any(tau_rho[i] < 0 for i in face.theta):
            return face.w * W._rep_left(face.w.inv() * sigma, face.theta)
    return sigma


def wm_normalize(w: WeylElt, face: Face) -> WmonElt:
    """The class of (face, w); a Weyl element and a face of two root data
    are a PreconditionViolated."""
    if _expect(w, WeylElt, "a WeylElt").datum is not _expect(face, Face, "a Face").datum:
        raise PreconditionViolated("Weyl-monoid class of a Weyl element and a face "
                                   "of two root data")
    return _wm_class(w, face)


def _wm_class(w: WeylElt, face: Face) -> WmonElt:
    """The class of (face, w), looked up in the face's table of classes by w.
    On a miss the representative is computed once and the class is kept
    under both w and its representative."""
    classes = W._memo(face, "_classes")
    x = classes.get(w)
    if x is None:
        rep = _centralizer_rep(face, w)
        x = classes.get(rep)
        if x is None:
            x = classes[rep] = WmonElt(face=face, w=rep)
        classes[w] = x
    return x


def wm_idempotent(face: Face) -> WmonElt:
    """e(R), the class of (face, 1); on the full cone it is the identity."""
    return _wm_class(W.identity_elt(_expect(face, Face, "a Face").datum), face)


def wm_mul(x: WmonElt, y: WmonElt) -> WmonElt:
    """The product x y of two classes of one root datum (`_wm_mul`)."""
    if _expect(x, WmonElt, "a WmonElt").datum is not _expect(y, WmonElt, "a WmonElt").datum:
        raise PreconditionViolated("Weyl-monoid product of classes of two root data")
    return _wm_mul(x, y)


def _wm_mul(x: WmonElt, y: WmonElt) -> WmonElt:
    """(R, sigma)(S, tau) = (R cap sigma S, sigma tau): the meet is the face
    exposed by c_R + sigma c_S, for exposing coweights c_R of R and c_S of S.
    The product is kept on x, keyed by y, and computed only on a miss."""
    kept = W._memo(x, "_products")
    z = kept.get(y)
    if z is None:
        d = exact.vec_add(x.face.exposing(), x.w._act_coweight(y.face.exposing()))
        z = kept[y] = _wm_class(x.w * y.w, F._face_exposed_by(x.datum, d))
    return z


def wm_invert(x: WmonElt) -> WmonElt:
    u = _expect(x, WmonElt, "a WmonElt").w.inv()
    return _wm_class(u, F._act_face(u, x.face))


def wm_apply(x: WmonElt, weight: Sequence):
    """Action on the Tits cone: sigma(lam) when it lands in the face, else Zero.

    Well-defined on congruence classes: replacing sigma by z sigma with z
    centralizing the face changes neither the membership test nor the image.
    The Tits-cone walk certifies the image (`faces._contains`), so its
    verdicts (NotInTitsCone / Undecided) pass through.  `WeylElt.act_weight`
    reads the weight by `cartan.exact_rationals`.
    """
    img = _expect(x, WmonElt, "a WmonElt").w.act_weight(weight)
    if F._contains(x.face, img, W.STEP_BUDGET):
        return tuple(img)
    return ZERO


# -- torus monoid ---------------------------------------------------------------

TorusVals = tuple[Fraction, ...]  # values on the fundamental-weight basis of P


def _one(datum: RootDatum) -> TorusVals:
    return (Fraction(1),) * datum.m


def torus_from_coweight(datum: RootDatum, h: Sequence[int], s: Fraction) -> TorusVals:
    """t_h(s): the homomorphism lam -> s^{lam(h)}.  The coweight h has
    datum.m Python-int coordinates; anything else is a DomainError.  s is
    read as a one-value torus element (`cartan.torus_values`)."""
    m = _check_datum(datum).m
    h = exact_ints(h, "torus coweight coordinate")
    if len(h) != m:
        raise DomainError(f"torus coweight needs {m} coordinates")
    (s,) = torus_values((s,), 1)
    s = Fraction(s, 1)  # an int to a negative power is a float
    return tuple(s ** y for y in h)


def _torus_mul(a: TorusVals, b: TorusVals) -> TorusVals:
    return tuple(x * y for x, y in zip(a, b))


def _torus_inv(a: TorusVals) -> TorusVals:
    return tuple(Fraction(1) / x for x in a)


def torus_eval(t: TorusVals, weight: Sequence[int]) -> Fraction:
    """t(lam) for an integer weight: a coordinate that is not a Python int
    is a DomainError, and t is read by `cartan.torus_values` as one value
    per coordinate."""
    weight = exact_ints(weight, "weight coordinate")
    return exact.character(torus_values(t, len(weight)), weight)


def _torus_act(u: WeylElt, t: TorusVals) -> TorusVals:
    """(u t)(lam) = t(u^{-1} lam), exact via the integer matrix of u^{-1}."""
    cols = exact.transpose(u.mat_p_inv)
    return tuple(exact.character(t, col) for col in cols)


@dataclass(frozen=True)
class ThatElt:
    """t e(R) in canonical form: values of t on the basis w_R Lambda_j
    (j not in Theta) of span(R) cap P, for R = w_R R(Theta).

    `rep` is the torus element t itself, kept out of equality: it agrees
    with the canonical values on span(R) cap P, the only place it is read."""

    face: Face
    basis: tuple[IntVec, ...]
    values: TorusVals
    rep: TorusVals = field(compare=False, repr=False)

    @property
    def datum(self) -> RootDatum:
        return self.face.datum


def that_normalize(t: TorusVals, face: Face) -> ThatElt:
    return _that(torus_values(t, _expect(face, Face, "a Face").datum.m), face)


def _that(t: TorusVals, face: Face) -> ThatElt:
    """t e(face) in canonical form, for a t of m values."""
    basis = tuple(col for j, col in enumerate(zip(*face.w.mat_p)) if j not in face.theta)
    return ThatElt(face=face, basis=basis,
                   values=tuple(exact.character(t, b) for b in basis), rep=t)


def that_idempotent(face: Face) -> ThatElt:
    return _that(_one(_expect(face, Face, "a Face").datum), face)


def that_mul(x: ThatElt, y: ThatElt) -> ThatElt:
    """(t e(R)) (t' e(S)) = t t' e(R cap S), the meet exposed by c_R + c_S."""
    if _expect(x, ThatElt, "a ThatElt").datum is not _expect(y, ThatElt, "a ThatElt").datum:
        raise PreconditionViolated("meet of faces of two root data")
    d = exact.vec_add(x.face.exposing(), y.face.exposing())
    return _that(_torus_mul(x.rep, y.rep), F._face_exposed_by(x.datum, d))


def that_act(u: WeylElt, x: ThatElt) -> ThatElt:
    """sigma(t e(R)) = sigma(t) e(sigma R)."""
    x = _expect(x, ThatElt, "a ThatElt")
    face = F._act_face(_expect(u, WeylElt, "a WeylElt"), x.face)
    return _that(_torus_act(u, x.rep), face)


def that_eval(x: ThatElt, weight: Sequence[int]):
    """Operator value on a weight: t(lam) on the face, else Zero.  The
    weight is read as m integers by `cartan.exact_ints`, so a coordinate
    that is not a Python int is a DomainError wherever the weight lies."""
    lam = exact_ints(weight, "weight coordinate")
    if len(lam) != _expect(x, ThatElt, "a ThatElt").datum.m:
        raise DomainError(f"weight needs {x.datum.m} coordinates")
    if F._contains(x.face, lam, W.STEP_BUDGET):
        return exact.character(x.rep, lam)
    return ZERO


# -- canonical Weyl lifts and the normalizer monoid ------------------------------

NElt = tuple[WeylElt, TorusVals]  # n_w followed by a torus element: n_w * t


def _nelt_mul(a: NElt, b: NElt) -> NElt:
    """The product (n_w tau)(n_v s) = n_{wv} t: n_w folded into n_v from
    the right, the cocycles kept as one flip vector (module docstring)."""
    (w, tau), (v, s) = a, b
    t = _torus_mul(_torus_act(v.inv(), tau), s)
    flip = [0] * len(t)
    for i in reversed(w.word):
        row = v.mat_p[i]
        if sum(row) < 0:  # s_i v < v
            flip = [f ^ (r & 1) for f, r in zip(flip, row)]
        v = W._multiply_out(v.inv(), (i,)).inv()  # s_i v = (v^{-1} s_i)^{-1}
    return v, tuple(-x if f else x for x, f in zip(t, flip))


def _lift(w: WeylElt) -> NElt:
    return (w, _one(w.datum))


def _nelt_inv(a: NElt) -> NElt:
    """The inverse of n_w tau in the normalizer."""
    w, tau = a
    wi = w.inv()
    _, c0 = _nelt_mul(_lift(wi), _lift(w))
    corr = _torus_act(w, _torus_inv(_torus_mul(tau, c0)))
    return (wi, corr)


@dataclass(frozen=True)
class NhatElt:
    """n_w * t * e(face), with e applied first."""

    w: WeylElt
    torus: TorusVals
    face: Face

    @property
    def datum(self) -> RootDatum:
        return self.w.datum

    def canonical(self) -> tuple[WmonElt, Face, TorusVals]:
        """(kappa-class, face, residual torus values on the face span).

        sigma^{-1} w centralizes R = w_R R(Theta), so (u, r) = n_sigma^{-1} n_w t
        n_{w_R} has u = w_R vbar, vbar in W_Theta; w_R is minimal in w_R W_Theta,
        so n_u = n_{w_R} n_vbar, and n_vbar fixes v_{Lambda_j} (j not in Theta):
        n_w t e(R) = n_sigma s e(R) for s = w_R r, whose value on w_R Lambda_j is r_j."""
        cached = self.__dict__.get("_canon")
        if cached is not None:
            return cached
        kappa_class = _kappa(self)
        face = self.face
        u, r = _nelt_mul(_nelt_mul(_nelt_inv(_lift(kappa_class.w)), (self.w, self.torus)),
                         _lift(face.w))
        if not W._strip_read(face.w.inv() * u, face.theta)[0].is_identity():
            raise InternalError("leftover Weyl part does not lie in the face's W_Theta")
        canon = (kappa_class, face, tuple(x for j, x in enumerate(r) if j not in face.theta))
        object.__setattr__(self, "_canon", canon)
        return canon

    def __eq__(self, other):
        if not isinstance(other, NhatElt) or self.datum is not other.datum:
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


def nhat_from(w: WeylElt, t: Optional[TorusVals] = None,
              face: Optional[Face] = None) -> NhatElt:
    datum = _expect(w, WeylElt, "a WeylElt").datum
    t = _one(datum) if t is None else torus_values(t, datum.m)
    if face is None:
        face = F.full_cone(datum)
    elif _expect(face, Face, "a Face").datum is not datum:
        raise PreconditionViolated("normalizer element of a Weyl element and a face "
                                   "of two root data")
    return NhatElt(w=w, torus=t, face=face)


def nhat_idempotent(face: Face) -> NhatElt:
    face = _expect(face, Face, "a Face")
    return NhatElt(w=W.identity_elt(face.datum), torus=_one(face.datum), face=face)


def nhat_mul(x: NhatElt, y: NhatElt) -> NhatElt:
    """The product x y of two elements of one root datum (`_nhat_mul`)."""
    if _expect(x, NhatElt, "an NhatElt").datum is not _expect(y, NhatElt, "an NhatElt").datum:
        raise PreconditionViolated("normalizer-monoid product of elements of two root data")
    return _nhat_mul(x, y)


def _nhat_mul(x: NhatElt, y: NhatElt) -> NhatElt:
    """e(R) n_v = n_v e(v^{-1} R) moves both idempotents to the right."""
    w, tau = _nelt_mul((x.w, x.torus), (y.w, y.torus))
    d = exact.vec_add(y.w.inv()._act_coweight(x.face.exposing()), y.face.exposing())
    return NhatElt(w=w, torus=tau, face=F._face_exposed_by(x.datum, d))


def nhat_to_wmon(x: NhatElt) -> WmonElt:
    """kappa: N-hat / T  ->  W-hat (a monoid isomorphism)."""
    return _kappa(_expect(x, NhatElt, "an NhatElt"))


def _kappa(x: NhatElt) -> WmonElt:
    """kappa(n_w t e(R)) = (wR, w), the class of w on the face it maps R to."""
    return _wm_class(x.w, F._act_face(x.w, x.face))


def nhat_conj_idem(x: NhatElt, face: Face) -> Face:
    """n e(R) n^{-1} = e(wR) for n in the unit group N: e's new face, wR."""
    face = _expect(face, Face, "a Face")
    if not _expect(x, NhatElt, "an NhatElt").face.is_full_cone():
        raise PreconditionViolated("conjugation of idempotents needs a unit of N-hat")
    if x.datum is not face.datum:
        raise PreconditionViolated("normalizer-monoid product of elements of two root data")
    return F._act_face(x.w, face)


def nhat_inv(x: NhatElt) -> NhatElt:
    """Monoid inverse: (n t e(R))^inv = e(R) (n t)^{-1} = (nt)^{-1} e(wR)."""
    w, tau = _nelt_inv((_expect(x, NhatElt, "an NhatElt").w, x.torus))
    return NhatElt(w=w, torus=tau, face=F._act_face(x.w, x.face))
