"""The face lattice of the Tits cone, in normal form, with its Weyl action.

A face is stored as (w, Theta) with Theta special and w the minimal coset
representative modulo W_{Theta u Theta^perp}; this pair is unique per face.
Faces are never enumerated globally (there can be infinitely many);
every query is normal-form local.

Normalizing strips the right descents in the stabilizer type
Theta u Theta^perp, which the root datum keeps in a table per special Theta
(`RootDatum.stabilizer_type`); Theta is read once, by `cartan.index_set`,
and the table is read by that key.  A Theta the package built itself,
sorted without repeats (a face's own, the support of an exposing coweight,
the theta_inf of a classification), goes to `_normal_face` unread, as a
face's Theta, stabilizer type and Theta^perp (`RootDatum._theta_perp`) go to
`weyl._strip_read`.

Intersection realizes faces as exposed faces: each face is the zero set on
the Tits cone of an integer coweight (a Weyl image of an exposing coweight),
the coweights add, and antidominant minimization of the sum lands on a
canonical exposing coweight whose support is special (`_face_exposed_by`).
Any Weyl image u c of an exposing coweight c of S exposes uS, and the normal
form of a face is unique, so the Weyl-monoid products in `monoids` take
their meets from c_R + u c_S the same way, without acting on S.  The Galois
property with inclusion cross-validates this route against the double-coset
route.

A root datum's face lattice is fixed, so each meet is computed once per
datum: `_face_exposed_by` keeps the face that each coweight exposed in the
datum's table `RootDatum._exposed` (keyed by the coweight's coordinates; a
failed walk stores nothing), and a face keeps its exposing coweight
w c_Theta once `Face.exposing` has computed it.

One object per face.  `normalize_face` keeps the face of each Theta on its
representative w, which is the datum's one object for that element
(`weyl`), and its descent walk is kept on the element it started from.  A
face met again, by normalizing, by a meet or as the full cone, is the same
object, so `exposing` runs once per face, and its table of Weyl-monoid
classes (`Face._classes`, filled by `monoids._wm_class`) is one table.

The entries read their arguments at the API boundary (`cartan`); the
routes inside kmx run the cores `_normal_face`, `_act_face`,
`_face_exposed_by` and `_conjugate_in`, which read nothing.  A point query
reads its weight by `RootDatum._weight` and its step budget by
`weyl._budget`, then walks once (`weyl._dominant`): `_face_of` types the
walk's facet, and `_contains` certifies a weight by the walk alone and
pairs it.  Each predicate is one entry.  A Tits-cone point with face F
lies in a face R iff F <= R (`includes`), since faces are unions of the
relative interiors of their subfaces, and in R's relative interior iff
F == R; so a caller that holds a point's face, as `kmx face-of-point
--predicates` does, reads both answers off it without a second walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import weyl as W
from .cartan import RootDatum, _check_datum, _classify_cached, _expect, index_set, one_based
from .errors import DomainError, PreconditionViolated
from .exact import IntVec, vec_add
from .weyl import WeylElt


@dataclass(frozen=True)
class Face:
    w: WeylElt
    theta: tuple[int, ...]
    # w c_Theta, filled by `exposing` on first use; init=False, so
    # dataclasses.replace never carries it over to another w or Theta
    _exposing: Optional[IntVec] = field(init=False, compare=False, repr=False, default=None)
    # sigma -> the Weyl-monoid class (this face, sigma), filled by
    # `monoids._wm_class`; init=False as above
    _classes: Optional[dict] = field(init=False, compare=False, repr=False, default=None)

    @property
    def datum(self) -> RootDatum:
        return self.w.datum

    def is_full_cone(self) -> bool:
        return self.theta == ()

    def exposing(self) -> IntVec:
        """Integer coweight w c_Theta whose zero set on the Tits cone is this face."""
        if self._exposing is None:
            object.__setattr__(self, "_exposing",
                               self.w._act_coweight(self.datum._exposing(self.theta)))
        return self._exposing  # type: ignore[return-value]

    def span_normals(self) -> tuple[IntVec, ...]:
        """Coweights w*h_i (i in Theta) cutting out the linear span: with
        h_i = e_i, rows i of P_w^{-1}."""
        return tuple(self.w.mat_p_inv[i] for i in self.theta)


def _face(rep: WeylElt, key: tuple[int, ...]) -> Face:
    """The face (rep, Theta) in normal form, kept on its representative."""
    kept = W._memo(rep, "_faces")
    face = kept.get(key)
    if face is None:
        face = kept[key] = Face(w=rep, theta=key)
    return face


def normalize_face(w: WeylElt, theta: Sequence[int]) -> Face:
    """The face w R(Theta) in normal form, Theta read by `index_set`; a
    Theta that is not special is NotSpecial."""
    return _normal_face(w, index_set(_expect(w, WeylElt, "a WeylElt").datum.n, theta))


def _normal_face(w: WeylElt, key: tuple[int, ...]) -> Face:
    """`normalize_face` of a Theta already sorted without repeats; its
    stabilizer type, sorted too, is walked unread (`weyl._strip_read`)."""
    return _face(W._strip_read(w, w.datum._stabilizer(key))[0], key)


def full_cone(datum: RootDatum) -> Face:
    return _face(W.identity_elt(datum), ())


def standard_face(datum: RootDatum, theta: Sequence[int]) -> Face:
    return _normal_face(W.identity_elt(datum), index_set(datum.n, theta))


def parse_face(datum: RootDatum, text: str) -> Face:
    """The face written "w=3 1; theta=1,2": a 1-based Weyl word and special
    set (theta separated by commas or spaces), either field left out when
    empty.  An unknown or repeated key, or a field without '=', is a
    DomainError."""
    _check_datum(datum)
    fields: dict[str, str] = {}
    for part in filter(str.strip, _expect(text, str, "a str").split(";")):
        key, sep, val = (x.strip() for x in part.partition("="))
        if not sep:
            raise DomainError(f"face field {part.strip()!r} is not key=value")
        if key not in ("w", "theta"):
            raise DomainError(f"unknown face field {key!r}")
        if key in fields:
            raise DomainError(f"face field {key!r} given twice")
        fields[key] = val
    w = W._multiply_out(W.identity_elt(datum), one_based(datum.n, fields.get("w", "").split()))
    return _normal_face(w, index_set(datum.n, one_based(
        datum.n, fields.get("theta", "").replace(",", " ").split())))


def act_face(u: WeylElt, r: Face) -> Face:
    return _act_face(_expect(u, WeylElt, "a WeylElt"), _expect(r, Face, "a Face"))


def _act_face(u: WeylElt, r: Face) -> Face:
    """The face u R in normal form."""
    return _normal_face(u * r.w, r.theta)


def includes(r: Face, s: Face) -> bool:
    """S <= R, i.e. S is a subset of R (double-coset criterion)."""
    if not set(_expect(s, Face, "a Face").theta) >= set(_expect(r, Face, "a Face").theta):
        return False
    perp = r.datum._theta_perp(r.theta)
    return W._strip_read(W._rep_left(r.w.inv() * s.w, perp), s.theta)[0].is_identity()


def _face_exposed_by(datum: RootDatum, d: IntVec) -> Face:
    """The face that d exposes, for d a nonnegative integer combination of
    Weyl images of exposing coweights.  The antidominant walk gives
    d' = v d, whose support Theta is special and exposes R(Theta); so d
    exposes v^{-1} R(Theta).  The zero coweight exposes the full cone.
    The answer is looked up in, or else stored in, the datum's table."""
    key = tuple(d)
    face = datum._exposed.get(key)
    if face is None:
        if not any(d):
            face = full_cone(datum)
        else:
            dmin, v = W._antidominant(datum, key)
            face = _normal_face(v.inv(), tuple(i for i in range(datum.n) if dmin[i] != 0))
        datum._exposed[key] = face
    return face


def intersect(r: Face, s: Face) -> Face:
    """Meet in the face lattice via added exposing coweights."""
    if _expect(r, Face, "a Face").datum is not _expect(s, Face, "a Face").datum:
        raise PreconditionViolated("meet of faces of two root data")
    return _face_exposed_by(r.datum, vec_add(r.exposing(), s.exposing()))


def face_of_point(datum: RootDatum, weight: Sequence, cap: int = W.STEP_BUDGET) -> Face:
    """Smallest face containing a Tits-cone weight.

    Propagates NotInTitsCone / Undecided verdicts from dominance
    minimization.  For lam = w * lam+ with facet type J, the face is
    w R(J^infty): finite-type components of J keep the point in the
    relative interior.
    """
    return _face_of(datum, _check_datum(datum)._weight(weight), W._budget(cap))


def _face_of(datum: RootDatum, lam: tuple, cap: int) -> Face:
    """`face_of_point` of a weight and a budget read; the facet type is
    sorted without repeats, so it is classified unread."""
    res = W._dominant(datum, lam, cap)
    return _normal_face(res.w, _classify_cached(datum.gcm, res.facet_type).theta_inf)


def contains(r: Face, weight: Sequence, *, cap: int = W.STEP_BUDGET) -> bool:
    """Point containment: lam in X and lam(c_R) = 0 for the exposing coweight."""
    return _contains(r, _expect(r, Face, "a Face").datum._weight(weight), W._budget(cap))


def _contains(r: Face, lam: tuple, cap: int) -> bool:
    """`contains` of a weight and a budget read: the walk certifies the
    weight in the Tits cone, or raises its verdict; a weight so certified
    lies in r iff it pairs to zero with c_R."""
    W._dominant(r.datum, lam, cap)
    return r.datum.pair(lam, r.exposing()) == 0


def in_span(r: Face, weight: Sequence) -> bool:
    lam = _expect(r, Face, "a Face").datum._weight(weight)
    return all(r.datum.pair(lam, h) == 0 for h in r.span_normals())


def centralizes(r: Face, u: WeylElt) -> bool:
    """u fixes the face pointwise iff u lies in w_R W_Theta w_R^{-1}."""
    return _conjugate_in(_expect(r, Face, "a Face"), _expect(u, WeylElt, "a WeylElt"), r.theta)


def normalizes(r: Face, u: WeylElt) -> bool:
    """u maps the face onto itself iff u lies in w_R W_{Theta u Theta^perp} w_R^{-1}."""
    return _conjugate_in(_expect(r, Face, "a Face"), _expect(u, WeylElt, "a WeylElt"),
                         r.datum._stabilizer(r.theta))


def _conjugate_in(r: Face, u: WeylElt, js: tuple[int, ...]) -> bool:
    """w_R^{-1} u w_R lies in W_J, for a J read."""
    return W._strip_read(r.w.inv() * u * r.w, js)[0].is_identity()
