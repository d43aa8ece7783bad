"""Saturated submonoids of a lattice and their Hom-monoids.

Implements the finitely generated case of the cone/monoid correspondence:
saturation as cone-intersect-lattice via exact double description, the full
face lattice, relative interiors, hulls, dual faces, and the monoid of
homomorphisms into the rationals with its idempotent and orbit structure.

Every lattice here, the lineality, the equalities and each face's hull,
is the saturated kernel of integer rows (`exact._kernel_lattice_basis`, on
rows that this module built itself, so it reads none of them again): a
face's hull is the kernel of the equalities and its active facets.  An
element t e(F) of the Hom monoid M-hat reads its torus element t by
`cartan.torus_values` and keeps it, as `monoids`' T-hat does: its values
on the hull, its product (t t' on the meet) and its value at a point of F
are all `exact.character` of t, so no point is written in coordinates of a
hull basis.

Every point query reads its point once (`LatticeMonoid._point`), so a
point that is not an integer vector of the ambient rank is an error for
every query, and makes one pass over the facet pairings (`_locate`), which
ends at the first negative pairing: x lies in a face F iff F's active
facets vanish at x, and in its relative interior iff exactly they do.  The
face lattice is built once, with indexes by active set and by ray set, so
`face_of` and the meet (`_meet`) are lookups.  A face's dimension comes
from one elimination of its normals (`exact.int_rref`); its hull, one
column reduction of its normals, is built when it is first read.  The
entries read their arguments at the API boundary (`cartan`): every query
that takes a face reads it through one check (`LatticeMonoid._own`), and a
face of another monoid is a PreconditionViolated; `mhat_mul` meets its
operands' faces unread.  `subfaces` and `principal_open` read none of the
faces that they enumerate themselves.

One route per question: f <= g is `f in subfaces(g)`, x in the relative
interior of f is `contains(x) and face_of(x) == f`, and a unit is
`mhat_normalize` on the top face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional, Sequence

from . import exact
from .cartan import _expect, entries, exact_ints, torus_values
from .errors import (InternalError, NotInMonoid, PreconditionViolated, RankMismatch,
                     SizeGuard)
from .exact import IntVec

RANK_GUARD = 8
GENERATOR_GUARD = 64


def _dd_pair(inequalities: Sequence[IntVec], dim: int) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Double description: (lineality basis, extreme rays) of
    {y : a . y >= 0 for all a}.  The lineality is the kernel of the
    inequalities, read as a saturated lattice (`exact._kernel_lattice_basis`).

    Exact incremental method in primitive integer vectors; zero sets are
    recomputed against all inequalities processed so far, which keeps the
    combinatorial adjacency test sound.  After each inequality every kept
    ray must be primitive, so rays come out distinct and primitive, and a
    ray whose entries grow is an InternalError, not a slower step.
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
        if not all(gcd(*r) == 1 for r in rays):  # gcd 0: a zero ray
            raise InternalError("double description kept a ray that is zero or "
                                f"not primitive at inequality {len(processed)}")

    return exact._kernel_lattice_basis(inequalities, dim), tuple(sorted(rays))


@dataclass(frozen=True, eq=False)
class MonoidFace:
    """A face of a finitely generated saturated monoid.

    Its hull, a saturated basis of (span F) cap lattice, is the kernel of
    its normals, built on first read.  Faces compare and hash by index, ray
    set, active set, hull and dimension."""

    index: int
    ray_ids: tuple[int, ...]       # cone rays contained in the face
    active: tuple[int, ...]        # facet inequalities vanishing on the face
    dim: int
    normals: tuple[IntVec, ...] = field(repr=False)  # equalities and active facets
    rank: int = field(repr=False)                    # of the ambient lattice

    @cached_property
    def hull(self) -> tuple[IntVec, ...]:
        hull = exact._kernel_lattice_basis(self.normals, self.rank)
        if len(hull) != self.dim:
            raise InternalError(f"face hull has {len(hull)} vectors, not dimension {self.dim}")
        return hull

    def _key(self):
        return self.index, self.ray_ids, self.active, self.hull, self.dim

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class LatticeMonoid:
    """Saturation of the monoid generated by integer vectors: cone cap lattice."""

    def __init__(self, generators: Sequence[Sequence[int]], rank: int):
        exact_ints((rank,), "rank")
        if rank < 0:
            raise RankMismatch(f"rank {rank} is negative")
        if rank > RANK_GUARD:
            raise SizeGuard(f"rank guarded to <= {RANK_GUARD}")
        gens = [exact_ints(g, "generator coordinate") for g in entries(generators, "generator")]
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

    # -- membership ----------------------------------------------------------

    def _point(self, x: Sequence[int]) -> IntVec:
        """x read as a lattice point: a coordinate that is not a Python int
        is a DomainError, a length other than the rank a RankMismatch."""
        x = exact_ints(x, "point coordinate")
        if len(x) != self.rank:
            raise RankMismatch("point has the wrong length")
        return x

    def _locate(self, x: IntVec) -> Optional[tuple[int, ...]]:
        """The facets vanishing at a point read by `_point`, or None when it
        is outside the monoid: one pass that ends at the first nonzero
        equality or negative facet pairing."""
        for a in self.equalities:
            if sum(map(mul, a, x)):
                return None
        active = []
        for i, a in enumerate(self.inequalities):
            v = sum(map(mul, a, x))
            if v < 0:
                return None
            if not v:
                active.append(i)
        return tuple(active)

    def contains(self, x: Sequence[int]) -> bool:
        return self._locate(self._point(x)) is not None

    def active_set(self, x: Sequence[int]) -> tuple[int, ...]:
        return self._active(self._point(x))

    def _active(self, x: IntVec) -> tuple[int, ...]:
        """`active_set` of a point read by `_point`."""
        act = self._locate(x)
        if act is None:
            raise NotInMonoid(f"{x} is outside the monoid")
        return act

    # -- face lattice ----------------------------------------------------------

    def faces(self) -> tuple[MonoidFace, ...]:
        """All faces, ordered by (dimension, ray set)."""
        return self._lattice[0]

    @cached_property
    def _lattice(self) -> tuple[tuple[MonoidFace, ...], dict, dict]:
        """The faces, and the same faces indexed by active set and by ray
        set, built together on first use.

        Faces are intersections of facets; each is identified by the set of
        extreme rays it contains (every face contains the lineality).  A
        face's span is cut out by its normals, the equalities and its active
        facets (Schrijver, Theory of Linear and Integer Programming, 1986,
        8.3), so its dimension is the rank less theirs, read off one
        `exact.int_rref`, and its hull is their saturated kernel, built on
        first read.
        """
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
            normals = self.equalities + tuple(self.inequalities[i] for i in active)
            dim = self.rank - len(exact.int_rref(normals)[0])
            faces.append((dim, tuple(sorted(rs)), active, normals))
        faces.sort(key=lambda t: (t[0], t[1]))
        faces = tuple(
            MonoidFace(index=i, ray_ids=rids, active=act, dim=d, normals=normals, rank=self.rank)
            for i, (d, rids, act, normals) in enumerate(faces)
        )
        return faces, {f.active: f for f in faces}, {f.ray_ids: f for f in faces}

    def face_of(self, x: Sequence[int]) -> MonoidFace:
        """Smallest face containing x; its full active set matches that of x,
        since the facets that vanish at x are the active set of x's face."""
        act = self.active_set(x)
        if (f := self._lattice[1].get(act)) is None:
            raise InternalError(f"no face with active set {act}")
        return f

    def _own(self, f: MonoidFace) -> MonoidFace:
        """f, once checked to be a face of this monoid: a face of another
        monoid is a PreconditionViolated."""
        faces = self.faces()
        if _expect(f, MonoidFace, "a MonoidFace").index >= len(faces) or faces[f.index] is not f:
            raise PreconditionViolated("face of another monoid")
        return f

    def face_contains(self, f: MonoidFace, x: Sequence[int]) -> bool:
        """x lies in f: a saturated monoid meets the zero set of f's active
        facets exactly in f, so no test against the hull lattice is needed."""
        self._own(f)
        act = self._locate(self._point(x))
        return act is not None and set(f.active).issubset(act)

    def top_face(self) -> MonoidFace:
        return self.faces()[-1]

    def face_meet(self, f: MonoidFace, g: MonoidFace) -> MonoidFace:
        """The meet, whose ray set is the rays that f and g share."""
        return self._meet(self._own(f), self._own(g))

    def _meet(self, f: MonoidFace, g: MonoidFace) -> MonoidFace:
        """`face_meet` of two faces of this monoid."""
        rs = tuple(sorted(set(f.ray_ids) & set(g.ray_ids)))
        if (h := self._lattice[2].get(rs)) is None:
            raise InternalError("meet fell outside the computed lattice")
        return h

    def subfaces(self, f: MonoidFace) -> tuple[MonoidFace, ...]:
        rs = set(self._own(f).ray_ids)
        return tuple(g for g in self.faces() if rs.issuperset(g.ray_ids))

    # -- section 1.2 operations -------------------------------------------------

    def dual_face(self, f: MonoidFace) -> "LatticeMonoid":
        """The monoid M - F, generated by M and the negated hull of F."""
        gens = list(self.generators)
        for v in self._own(f).hull:
            gens.append(v)
            gens.append(tuple(-x for x in v))
        return LatticeMonoid(gens, self.rank)

    def principal_open(self, m: Sequence[int]) -> tuple[MonoidFace, ...]:
        """Faces G with e(G)(m) != 0, i.e. G containing the ri-face of m."""
        rs = self.face_of(m).ray_ids
        return tuple(g for g in self.faces() if set(g.ray_ids).issuperset(rs))


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
        x = self.monoid._point(x)
        if set(self.face.active).issubset(self.monoid._active(x)):
            return exact.character(self.rep, x)
        return Fraction(0)


def mhat_normalize(monoid: LatticeMonoid, t: Sequence[Fraction], f: MonoidFace) -> MhatElt:
    """t e(F) for a torus element t of `monoid.rank` values, read by
    `cartan.torus_values`.  A face of another monoid is a
    PreconditionViolated."""
    f = _expect(monoid, LatticeMonoid, "a LatticeMonoid")._own(f)
    return _mhat(monoid, torus_values(t, monoid.rank), f)


def _mhat(monoid: LatticeMonoid, t: tuple, f: MonoidFace) -> MhatElt:
    """t e(F) for t of `monoid.rank` values and a face of the monoid."""
    return MhatElt(monoid=monoid, face_index=f.index,
                   values=tuple(exact.character(t, b) for b in f.hull), rep=t)


def mhat_idempotent(monoid: LatticeMonoid, f: MonoidFace) -> MhatElt:
    """e(F), the idempotent of the face F: t e(F) for the torus element of
    ones."""
    f = _expect(monoid, LatticeMonoid, "a LatticeMonoid")._own(f)
    return _mhat(monoid, (Fraction(1),) * monoid.rank, f)


def mhat_mul(x: MhatElt, y: MhatElt) -> MhatElt:
    """(t e(F)) (t' e(G)) = t t' e(F cap G)."""
    if _expect(x, MhatElt, "an MhatElt").monoid is not _expect(y, MhatElt, "an MhatElt").monoid:
        raise PreconditionViolated("product of elements of two different monoids")
    m = x.monoid
    return _mhat(m, tuple(a * b for a, b in zip(x.rep, y.rep)), m._meet(x.face, y.face))
