"""Saturated submonoids of a lattice and their Hom-monoids.

Implements the finitely generated case of the cone/monoid correspondence:
saturation as cone-intersect-lattice via exact double description, the full
face lattice, relative interiors, hulls, dual faces, and the monoid of
homomorphisms into the rationals with its idempotent and orbit structure.

Every lattice here, the lineality, the equalities and each face's hull,
is the saturated kernel of integer rows (`exact.kernel_lattice_basis`): a
face's hull is the kernel of the equalities and its active facets.  An
element t e(F) of the Hom monoid M-hat keeps its torus element t, as
`monoids`' T-hat does: its values on the hull, its product (t t' on the
meet) and its value at a point of F are all `exact.character` of t, so no
point is written in coordinates of a hull basis.

Every point query reads one pass over the facet pairings (`_locate`): x
lies in a face F iff F's active facets vanish at x, and in its relative
interior iff exactly they do.  The face lattice is built once, with
indexes by active set and by ray set, so `face_of` and `face_meet` are
lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import exact
from .cartan import exact_ints, exact_rationals
from .errors import (NotAFace, NotInMonoid, PreconditionViolated, RankMismatch, SizeGuard,
                     ZeroTorusValue)
from .exact import IntVec

RANK_GUARD = 8
GENERATOR_GUARD = 64


def _dd_pair(inequalities: Sequence[IntVec], dim: int) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Double description: (lineality basis, extreme rays) of
    {y : a . y >= 0 for all a}.  The lineality is the kernel of the
    inequalities, read as a saturated lattice (`exact.kernel_lattice_basis`).

    Exact incremental method in primitive integer vectors; zero sets are
    recomputed against all inequalities processed so far, which keeps the
    combinatorial adjacency test sound.
    """
    lineality: list[IntVec] = list(exact.identity(dim))
    rays: list[IntVec] = []
    processed: list[IntVec] = []

    def zero_set(r):
        return frozenset(j for j, b in enumerate(processed)
                         if exact.vec_dot(b, r) == 0)

    for a in inequalities:
        av = [exact.vec_dot(a, v) for v in lineality]
        pivot = next((k for k, val in enumerate(av) if val != 0), None)
        if pivot is not None:
            # Split one lineality direction into a ray; project the rest
            # onto a . y = 0 along it, scaled to primitive integer vectors.
            v0 = lineality[pivot]
            c0 = av[pivot]
            sgn = 1 if c0 > 0 else -1
            lineality = [exact.primitive(exact.vec_sub(exact.vec_scale(c0, v),
                                                       exact.vec_scale(av[k], v0)))
                         for k, v in enumerate(lineality) if k != pivot]
            new_rays = [exact.primitive_ray(exact.vec_sub(
                exact.vec_scale(abs(c0), r), exact.vec_scale(sgn * exact.vec_dot(a, r), v0)))
                for r in rays]
            r0 = exact.primitive_ray(exact.vec_scale(sgn, v0))
            rays = list(dict.fromkeys(new_rays + [r0]))
        else:
            vals = [exact.vec_dot(a, r) for r in rays]
            zsets = [zero_set(r) for r in rays]
            plus = [k for k, v in enumerate(vals) if v > 0]
            minus = [k for k, v in enumerate(vals) if v < 0]
            keep = [rays[k] for k, v in enumerate(vals) if v >= 0]
            for p in plus:
                for m_ in minus:
                    common = zsets[p] & zsets[m_]
                    if any(common <= zsets[k] for k in range(len(rays))
                           if k not in (p, m_)):
                        continue
                    newr = exact.vec_sub(exact.vec_scale(vals[p], rays[m_]),
                                         exact.vec_scale(vals[m_], rays[p]))
                    keep.append(exact.primitive_ray(newr))
            rays = list(dict.fromkeys(keep))
        processed.append(tuple(a))

    prim_rays = sorted({exact.primitive_ray(r) for r in rays if any(r)})
    return exact.kernel_lattice_basis(inequalities, dim), tuple(prim_rays)


@dataclass(frozen=True)
class MonoidFace:
    """A face of a finitely generated saturated monoid."""

    index: int
    ray_ids: tuple[int, ...]       # cone rays contained in the face
    active: tuple[int, ...]        # facet inequalities vanishing on the face
    hull: tuple[IntVec, ...]       # saturated basis of (span F) cap lattice
    dim: int


class LatticeMonoid:
    """Saturation of the monoid generated by integer vectors: cone cap lattice."""

    def __init__(self, generators: Sequence[Sequence[int]], rank: int):
        if rank < 0:
            raise RankMismatch(f"rank {rank} is negative")
        if rank > RANK_GUARD:
            raise SizeGuard(f"rank guarded to <= {RANK_GUARD}")
        gens = [exact_ints(g, "generator coordinate") for g in generators]
        if any(len(g) != rank for g in gens):
            raise RankMismatch("generator length differs from the ambient rank")
        if len(gens) > GENERATOR_GUARD:
            raise SizeGuard(f"at most {GENERATOR_GUARD} generators supported")
        self.rank = rank
        self.generators = tuple(gens)
        # Dual cone {y : g.y >= 0}: its lineality cuts equalities, its rays
        # cut the facet inequalities of the primal cone.
        dual_lin, dual_rays = _dd_pair(self.generators, rank)
        self.equalities: tuple[IntVec, ...] = dual_lin
        self.inequalities: tuple[IntVec, ...] = dual_rays
        # Primal description back from the inequalities: lineality and rays.
        ineqs = list(self.inequalities)
        for eq in self.equalities:
            ineqs.append(eq)
            ineqs.append(tuple(-x for x in eq))
        self.lineality, self.rays = _dd_pair(ineqs, rank)
        self._faces: Optional[tuple[MonoidFace, ...]] = None

    # -- membership ----------------------------------------------------------

    def _locate(self, x: Sequence[int]) -> Optional[tuple[int, ...]]:
        """The facets vanishing at x, or None when x is outside the monoid."""
        if len(x) != self.rank:
            raise RankMismatch("point has the wrong length")
        if any(exact.vec_dot(a, x) for a in self.equalities):
            return None
        vals = [exact.vec_dot(a, x) for a in self.inequalities]
        return None if min(vals, default=0) < 0 else tuple(i for i, v in enumerate(vals) if v == 0)

    def contains(self, x: Sequence[int]) -> bool:
        return self._locate(x) is not None

    def active_set(self, x: Sequence[int]) -> tuple[int, ...]:
        act = self._locate(x)
        if act is None:
            raise NotInMonoid(f"{tuple(x)} is outside the monoid")
        return act

    # -- face lattice ----------------------------------------------------------

    def faces(self) -> tuple[MonoidFace, ...]:
        """All faces, ordered by (dimension, ray set), indexed by active set
        and by ray set.

        Faces are intersections of facets; each is identified by the set of
        extreme rays it contains (every face contains the lineality).  A
        face's span is cut out by the equalities and its active facets
        (Schrijver, Theory of Linear and Integer Programming, 1986, 8.3), so
        its hull is their saturated kernel: one Smith normal form per face
        with any such row.
        """
        if self._faces is not None:
            return self._faces
        nray = len(self.rays)
        facet_rays = [frozenset(k for k in range(nray) if exact.vec_dot(a, self.rays[k]) == 0)
                      for a in self.inequalities]
        # the ray sets of all intersections of facets, the empty one included
        ray_sets = {frozenset(range(nray))}
        for fs in facet_rays:
            ray_sets |= {rs & fs for rs in ray_sets}
        faces = []
        for rs in ray_sets:
            active = tuple(i for i, fs in enumerate(facet_rays) if rs <= fs)
            hull = exact.kernel_lattice_basis(
                self.equalities + tuple(self.inequalities[i] for i in active), self.rank)
            faces.append((len(hull), tuple(sorted(rs)), active, hull))
        faces.sort(key=lambda t: (t[0], t[1]))
        self._faces = tuple(
            MonoidFace(index=i, ray_ids=rids, active=act, hull=hull, dim=d)
            for i, (d, rids, act, hull) in enumerate(faces)
        )
        self._by_active = {f.active: f for f in self._faces}
        self._by_rays = {f.ray_ids: f for f in self._faces}
        return self._faces

    def face_of(self, x: Sequence[int]) -> MonoidFace:
        """Smallest face containing x; its full active set matches that of x."""
        act = self.active_set(x)
        self.faces()
        if (f := self._by_active.get(act)) is None:
            raise NotAFace(f"no face with active set {act}")
        return f

    def face_contains(self, f: MonoidFace, x: Sequence[int]) -> bool:
        """x lies in f: a saturated monoid meets the zero set of f's active
        facets exactly in f, so no test against the hull lattice is needed."""
        act = self._locate(x)
        return act is not None and set(f.active).issubset(act)

    def top_face(self) -> MonoidFace:
        return self.faces()[-1]

    def face_leq(self, f: MonoidFace, g: MonoidFace) -> bool:
        return set(f.ray_ids) <= set(g.ray_ids)

    def face_meet(self, f: MonoidFace, g: MonoidFace) -> MonoidFace:
        rs = tuple(sorted(set(f.ray_ids) & set(g.ray_ids)))
        self.faces()
        if (h := self._by_rays.get(rs)) is None:
            raise NotAFace("meet fell outside the computed lattice")
        return h

    def subfaces(self, f: MonoidFace) -> tuple[MonoidFace, ...]:
        return tuple(g for g in self.faces() if self.face_leq(g, f))

    # -- section 1.2 operations -------------------------------------------------

    def relative_interior_contains(self, f: MonoidFace, x: Sequence[int]) -> bool:
        """In f but in no proper subface: active sets coincide."""
        return self._locate(x) == f.active

    def dual_face(self, f: MonoidFace) -> "LatticeMonoid":
        """The monoid M - F, generated by M and the negated hull of F."""
        gens = list(self.generators)
        for v in f.hull:
            gens.append(v)
            gens.append(tuple(-x for x in v))
        return LatticeMonoid(gens, self.rank)

    def principal_open(self, m: Sequence[int]) -> tuple[MonoidFace, ...]:
        """Faces G with e(G)(m) != 0, i.e. G containing the ri-face of m."""
        fm = self.face_of(m)
        return tuple(g for g in self.faces() if self.face_leq(fm, g))


# -- the Hom monoid -------------------------------------------------------------


@dataclass(frozen=True)
class MhatElt:
    """t e(F), a rational-valued monoid homomorphism with support face `face`:
    the values of t on the hull basis of the face, zero off the face.

    Elements of two monoids differ: a LatticeMonoid compares by identity.
    `rep` is the torus element t itself, kept out of equality: it agrees
    with the canonical values on the hull lattice, the only place it is
    read."""

    monoid: LatticeMonoid
    face_index: int
    values: tuple[Fraction, ...]
    rep: tuple[Fraction, ...] = field(compare=False, repr=False)

    @property
    def face(self) -> MonoidFace:
        return self.monoid.faces()[self.face_index]

    def __call__(self, x: Sequence[int]) -> Fraction:
        if set(self.face.active).issubset(self.monoid.active_set(x)):
            return exact.character(self.rep, x)
        return Fraction(0)


def mhat_normalize(monoid: LatticeMonoid, t: Sequence[Fraction], f: MonoidFace) -> MhatElt:
    """t e(F) for a torus element t of `monoid.rank` nonzero values, each a
    Fraction or an int: another value type is a DomainError, a wrong length
    a RankMismatch and a zero value a ZeroTorusValue.  A face of another
    monoid is a PreconditionViolated."""
    faces = monoid.faces()
    if f.index >= len(faces) or faces[f.index] is not f:
        raise PreconditionViolated("Hom-monoid element on a face of another monoid")
    t = exact_rationals(t, "torus value")
    if len(t) != monoid.rank:
        raise RankMismatch(f"torus element needs {monoid.rank} values, one per coordinate")
    if any(v == 0 for v in t):
        raise ZeroTorusValue("torus values must be nonzero")
    return MhatElt(monoid=monoid, face_index=f.index,
                   values=tuple(exact.character(t, b) for b in f.hull), rep=t)


def mhat_idempotent(monoid: LatticeMonoid, f: MonoidFace) -> MhatElt:
    return mhat_normalize(monoid, (Fraction(1),) * monoid.rank, f)


def mhat_idempotents(monoid: LatticeMonoid) -> tuple[MhatElt, ...]:
    return tuple(mhat_idempotent(monoid, f) for f in monoid.faces())


def mhat_unit(monoid: LatticeMonoid, t: Sequence[Fraction]) -> MhatElt:
    """A unit: t e(F) for the whole monoid F, t checked as in `mhat_normalize`."""
    return mhat_normalize(monoid, t, monoid.top_face())


def mhat_mul(x: MhatElt, y: MhatElt) -> MhatElt:
    """(t e(F)) (t' e(G)) = t t' e(F cap G)."""
    if x.monoid is not y.monoid:
        raise PreconditionViolated("product of elements of two different monoids")
    m = x.monoid
    return mhat_normalize(m, tuple(a * b for a, b in zip(x.rep, y.rep)),
                          m.face_meet(x.face, y.face))
