import random
from fractions import Fraction as Fr
from itertools import product

import exact_reference as ref
import pytest

from kmx import exact, verify
from kmx.cli import main
from kmx.errors import (DomainError, NotInMonoid, PreconditionViolated, RankMismatch, SizeGuard,
                        ZeroTorusValue)
from kmx.exact import int_mat, nonneg_solve, rat_solve, transpose, vec_dot
from kmx.toric import LatticeMonoid, mhat_idempotent, mhat_idempotents, mhat_mul, mhat_unit


def N2():
    return LatticeMonoid([(1, 0), (0, 1)], 2)


def test_quadrant_faces():
    m = N2()
    assert m.contains((3, 5)) and not m.contains((-1, 0))
    faces = m.faces()
    assert len(faces) == 4
    assert sorted(f.dim for f in faces) == [0, 1, 1, 2]


def test_saturation_fills_gaps():
    m = LatticeMonoid([(1, 0), (1, 2)], 2)
    assert m.contains((1, 1))  # not a nonnegative integer combination of the
    # generators, but inside the rational cone
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert m.contains((x, y)) == (y >= 0 and 2 * x - y >= 0)


def test_subgroup_single_face():
    g = LatticeMonoid([(1, 0), (-1, 0)], 2)
    assert len(g.faces()) == 1
    assert g.contains((7, 0)) and not g.contains((0, 1))


def test_relative_interior_and_hull():
    m = N2()
    top = m.top_face()
    assert m.relative_interior_contains(top, (1, 1))
    assert not m.relative_interior_contains(top, (1, 0))
    zero = m.faces()[0]
    assert zero.dim == 0 and zero.hull == ()
    xaxis = next(f for f in m.faces() if f.dim == 1 and m.face_contains(f, (1, 0)))
    hull = xaxis.hull
    assert len(hull) == 1 and tuple(abs(c) for c in hull[0]) == (1, 0)


def test_ri_faces_partition_box():
    rng = random.Random(40)
    for _ in range(15):
        rank = rng.randrange(2, 4)
        gens = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(rng.randrange(1, 5))]
        m = LatticeMonoid(gens, rank)
        for x in product(range(-2, 3), repeat=rank):
            if not m.contains(x):
                continue
            hits = [f.index for f in m.faces()
                    if m.relative_interior_contains(f, x)]
            assert len(hits) == 1
            assert m.face_of(x).index == hits[0]


def test_dual_face_examples():
    m = N2()
    zero = m.faces()[0]
    dual0 = m.dual_face(zero)
    for x in product(range(-3, 4), repeat=2):
        assert dual0.contains(x) == m.contains(x)
    xaxis = next(f for f in m.faces() if f.dim == 1 and m.face_contains(f, (1, 0)))
    dual = m.dual_face(xaxis)
    for x in product(range(-3, 4), repeat=2):
        assert dual.contains(x) == (x[1] >= 0)
    # Fa(M - F) = {G - F : G contains F}: two faces here
    assert len(dual.faces()) == 2


def test_dual_face_lattice_formula():
    rng = random.Random(41)
    for _ in range(10):
        rank = rng.randrange(2, 4)
        gens = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(rng.randrange(1, 4))]
        m = LatticeMonoid(gens, rank)
        for f in m.faces():
            above = [g for g in m.faces() if m.face_leq(f, g)]
            dual = m.dual_face(f)
            assert len(dual.faces()) == len(above)


def test_closure_order_and_principal_open():
    m = N2()
    top = m.top_face()
    assert len(m.subfaces(top)) == 4
    zero = m.faces()[0]
    assert m.subfaces(zero) == (zero,)
    po = m.principal_open((1, 1))
    assert [f.index for f in po] == [top.index]
    assert len(m.principal_open((0, 0))) == 4
    xaxis = next(f for f in m.faces() if f.dim == 1 and m.face_contains(f, (1, 0)))
    po = m.principal_open((2, 0))
    assert {f.index for f in po} == {xaxis.index, top.index}


def test_mhat_operations():
    m = N2()
    xaxis = next(f for f in m.faces() if f.dim == 1 and m.face_contains(f, (1, 0)))
    yaxis = next(f for f in m.faces() if f.dim == 1 and m.face_contains(f, (0, 1)))
    zero = m.faces()[0]
    e_top = mhat_idempotent(m, m.top_face())
    # e(F) e(G) = e(F cap G)
    assert mhat_mul(mhat_idempotent(m, xaxis), mhat_idempotent(m, yaxis)) \
        == mhat_idempotent(m, zero)
    assert mhat_mul(e_top, e_top) == e_top
    # unit times idempotent: restricted values
    u = mhat_unit(m, (Fr(2), Fr(3)))
    x = mhat_mul(u, mhat_idempotent(m, xaxis))
    assert x.face_index == xaxis.index
    b = xaxis.hull[0]
    pos_b = b if m.contains(b) else tuple(-c for c in b)
    assert x(pos_b) in (Fr(2), Fr(1, 2))
    assert x((0, 1)) == 0
    # idempotent count equals face count
    assert len(mhat_idempotents(m)) == len(m.faces())


def test_mhat_unit_rejects_bad_values_as_domain_errors():
    # a torus element has one nonzero Fraction or int per coordinate; a
    # float, a bool or a str is never read as a number
    m = N2()
    for values, kind, msg in (
            ((Fr(2),), RankMismatch, "torus element needs 2 values"),
            ((Fr(2), Fr(3), Fr(1)), RankMismatch, "torus element needs 2 values"),
            ((Fr(0), Fr(3)), ZeroTorusValue, "torus values must be nonzero"),
            ((0.1, 2.0), DomainError, "torus value 0.1 is not a Fraction or an int"),
            ((True, 2), DomainError, "torus value True is not a Fraction or an int"),
            (("3", 2), DomainError, "torus value '3' is not a Fraction or an int")):
        with pytest.raises(kind, match=msg):
            mhat_unit(m, values)
        assert issubclass(kind, DomainError)


def test_mhat_on_a_face_of_another_monoid_is_a_precondition_violation():
    # face 0 of the half-plane is its lineality, dim 1; face 0 of the
    # quadrant is the origin, dim 0
    m, half = N2(), LatticeMonoid([(1, 0), (-1, 0), (0, 1)], 2)
    for f in (half.faces()[0], half.top_face()):
        with pytest.raises(PreconditionViolated, match="face of another monoid"):
            mhat_idempotent(m, f)
    with pytest.raises(PreconditionViolated, match="two different monoids"):
        mhat_mul(mhat_unit(m, (2, 3)), mhat_unit(half, (2, 3)))


FACE_READERS = {
    "face_contains": lambda m, f: m.face_contains(f, (0, 0)),
    "relative_interior_contains": lambda m, f: m.relative_interior_contains(f, (0, 0)),
    "face_leq-left": lambda m, f: m.face_leq(f, m.top_face()),
    "face_leq-right": lambda m, f: m.face_leq(m.faces()[0], f),
    "face_meet": lambda m, f: m.face_meet(m.top_face(), f),
    "subfaces": lambda m, f: m.subfaces(f),
    "dual_face": lambda m, f: m.dual_face(f),
}


@pytest.mark.parametrize("reader", list(FACE_READERS))
def test_face_readers_refuse_a_face_of_another_monoid(reader):
    # with the quadrant m1 and m2 generated by (1, 0) and (1, 2),
    # m1.subfaces(m2.top_face()) listed all four faces of m1 and a meet of
    # two faces of m2 returned a face of m1
    m1, m2 = N2(), LatticeMonoid([(1, 0), (1, 2)], 2)
    for f in m2.faces():
        with pytest.raises(PreconditionViolated, match="face of another monoid"):
            FACE_READERS[reader](m1, f)
    for f in m1.faces():
        FACE_READERS[reader](m1, f)


def test_elements_of_two_monoids_differ():
    # the same face index and values, but face 1 is the y-axis of a and the
    # x-axis of b
    a, b = N2(), LatticeMonoid([(1, 0), (1, 1)], 2)
    x, y = mhat_idempotent(a, a.faces()[1]), mhat_idempotent(b, b.faces()[1])
    assert (x.face_index, x.values) == (y.face_index, y.values)
    assert (x((1, 0)), y((1, 0))) == (0, 1)
    assert x != y
    assert len({x, y}) == 2
    assert x == mhat_idempotent(a, a.faces()[1])


def test_mhat_respects_addition():
    m = LatticeMonoid([(1, 0), (1, 2)], 2)
    u = mhat_unit(m, (Fr(2), Fr(5)))
    pts = [x for x in product(range(0, 3), repeat=2) if m.contains(x)]
    for a in pts:
        for b in pts:
            s = tuple(x + y for x, y in zip(a, b))
            assert u(a) * u(b) == u(s)


def test_unit_group_is_hom_of_hull():
    # the torus element is seen only on the hull lattice, the x-axis here
    g = LatticeMonoid([(1, 0), (-1, 0)], 2)
    u = mhat_unit(g, (Fr(3, 2), Fr(7)))
    assert u((2, 0)) == Fr(9, 4)
    assert u((-1, 0)) == Fr(2, 3)
    assert u == mhat_unit(g, (Fr(3, 2), 1))


def test_guards_and_errors():
    with pytest.raises(SizeGuard):
        LatticeMonoid([(0,) * 9], 9)
    with pytest.raises(SizeGuard, match="^at most 64 generators supported$"):
        LatticeMonoid([(1, 0)] * 65, 2)
    with pytest.raises(RankMismatch):
        LatticeMonoid([(1, 0, 0)], 2)
    # generator entries are read as they are, never truncated
    with pytest.raises(DomainError, match=r"generator coordinate 1\.5 is not an integer"):
        LatticeMonoid([(1.5, 0), (0, 1)], 2)
    with pytest.raises(DomainError, match="generator coordinate True is not an integer"):
        LatticeMonoid([(1, 0), (0, True)], 2)
    with pytest.raises(DomainError, match=r"generator coordinate Fraction\(1, 2\)"):
        LatticeMonoid([(Fr(1, 2), 0)], 2)
    m = N2()
    with pytest.raises(NotInMonoid):
        m.active_set((-1, 0))
    with pytest.raises(RankMismatch):
        m.contains((1, 2, 3))


def test_gordan_roundtrip_small():
    rng = random.Random(42)
    for _ in range(20):
        rank = rng.randrange(2, 4)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank))
                for _ in range(rng.randrange(1, 5))]
        m1 = LatticeMonoid(gens, rank)
        regen = list(m1.rays) + [v for b in m1.lineality
                                 for v in (b, tuple(-c for c in b))]
        m2 = LatticeMonoid(regen or [(0,) * rank], rank)
        for x in product(range(-2, 3), repeat=rank):
            assert m1.contains(x) == m2.contains(x)
        assert len(m1.faces()) == len(m2.faces())


def test_monoid_face_axioms_on_box():
    # each computed face is a submonoid whose complement is a semigroup ideal
    rng = random.Random(43)
    for _ in range(8):
        rank = 2
        gens = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(rng.randrange(1, 4))]
        m = LatticeMonoid(gens, rank)
        pts = [x for x in product(range(-3, 4), repeat=rank) if m.contains(x)]
        for f in m.faces():
            for a in pts:
                for b in pts:
                    s = tuple(x + y for x, y in zip(a, b))
                    if not m.contains(s) or max(map(abs, s)) > 3:
                        continue
                    ina, inb, ins = (m.face_contains(f, v) for v in (a, b, s))
                    assert ins == (ina and inb)


def _face_contains_by_hull(m, f, x):
    """Reference: the active facets of f vanish on x and x has integer
    coordinates in the hull basis of f."""
    if not (m.contains(x) and all(vec_dot(m.inequalities[i], x) == 0 for i in f.active)):
        return False
    if not f.hull:
        return not any(x)
    sol = rat_solve(transpose(int_mat(f.hull)), tuple(x))
    return sol is not None and all(c.denominator == 1 for c in sol[0])


def test_face_contains_agrees_with_hull_lattice_test():
    # a saturated monoid meets the active facets' zero set exactly in the face
    rng = random.Random(44)
    checked = 0
    for _ in range(30):
        rank = rng.randrange(2, 5)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank))
                for _ in range(rng.randrange(1, rank + 3))]
        m = LatticeMonoid(gens, rank)
        for x in product(range(-2, 3), repeat=rank):
            if not m.contains(x):
                continue
            for f in m.faces():
                assert m.face_contains(f, x) == _face_contains_by_hull(m, f, x)
                checked += 1
    assert checked > 1000


def test_cross_module_tits_cone_monoid_finite_type():
    # finite type: the Tits cone is the whole weight space, so its monoid of
    # lattice points is the full lattice with a single face; compare the face
    # module's membership against the toric machinery on a box
    from kmx import faces as FC
    from kmx.cartan import A2_ROWS, build_realization

    datum = build_realization(A2_ROWS)
    full = LatticeMonoid([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert len(full.faces()) == 1
    x_face = FC.full_cone(datum)
    for a in range(-3, 4):
        for b in range(-3, 4):
            lam = (a, b)
            assert full.contains(lam)
            assert FC.contains(x_face, lam)  # certifies lam in the Tits cone
            assert FC.face_of_point(datum, lam) == x_face


def test_cross_module_tits_cone_monoid_affine_type():
    # affine type: X cap P is not finitely generated (the cone is not closed),
    # so it stays symbolic on the face-module side; check the saturated-monoid
    # axioms and the two-face structure against face-module membership on a box
    from kmx import faces as FC, weyl as W
    from kmx.cartan import AFFINE_A1_ROWS, build_realization
    from kmx.errors import NotInTitsCone

    datum = build_realization(AFFINE_A1_ROWS)
    edge = FC.standard_face(datum, (0, 1))
    c = edge.exposing()  # (1, 1, 0)

    def member(lam):
        try:
            W.dominant_rep(datum, lam, cap=200)
            return True
        except NotInTitsCone:
            return False

    box = [(a, b, t) for a in range(-2, 3) for b in range(-2, 3)
           for t in range(-2, 3)]
    members = [lam for lam in box if member(lam)]
    for lam in members:
        pairing = sum(x * y for x, y in zip(lam, c))
        # known description: strictly positive level, or the edge line
        assert pairing > 0 or (lam[0] == 0 and lam[1] == 0)
        # saturation: any divisor point is again a member
        for k in (2, 3):
            if all(x % k == 0 for x in lam):
                assert member(tuple(x // k for x in lam))
        # edge face membership matches the face module predicate
        on_edge = pairing == 0
        assert FC.contains(edge, lam) == on_edge
    # monoid closure on members (stay inside the box to keep it cheap)
    small = [lam for lam in members if all(abs(x) <= 1 for x in lam)]
    for lam in small:
        for mu in small:
            s = tuple(x + y for x, y in zip(lam, mu))
            assert member(s)


def test_lineality_and_equalities_checked_without_the_double_description():
    # the integer lineality path against the reference rank and the simplex:
    # equalities cut out span(gens), lineality is the span of the generators
    # whose negatives lie in the cone
    rng = random.Random(61)
    seen_lin = seen_eq = 0
    for _ in range(200):
        rank = rng.randrange(1, 6)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank))
                for _ in range(rng.randrange(1, rank + 4))]
        m = LatticeMonoid(gens, rank)
        cols = transpose(gens)
        assert all(vec_dot(e, g) == 0 for e in m.equalities for g in gens)
        assert len(m.equalities) == rank - ref.rank(gens) == ref.rank(m.equalities)
        for v in m.lineality:
            for s in (1, -1):
                assert nonneg_solve(cols, tuple(s * x for x in v)) is not None
        neg_in_cone = [g for g in gens if nonneg_solve(cols, tuple(-x for x in g)) is not None]
        assert len(m.lineality) == ref.rank(neg_in_cone)
        seen_lin += bool(m.lineality)
        seen_eq += bool(m.equalities)
    assert seen_lin > 30 and seen_eq > 30, (seen_lin, seen_eq)


def test_face_lineality_and_equality_lattices_match_the_saturated_spans():
    # every lattice of a cone is the saturated kernel of integer rows; the
    # reference saturates a spanning set by two Smith normal forms instead:
    # the hull of a face is spanned by its rays and the lineality, the
    # lineality by the generators whose negatives lie in the cone, and the
    # equalities by the rational kernel of the generators
    rng = random.Random(62)
    faces = 0
    for _ in range(300):
        rank = rng.randrange(1, 6)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank))
                for _ in range(rng.randrange(1, rank + 4))]
        m = LatticeMonoid(gens, rank)
        cols = transpose(gens)
        neg_in_cone = [g for g in gens
                       if ref.nonneg_solve(cols, tuple(-x for x in g)) is not None]
        assert ref.same_lattice(m.lineality, ref.saturate_span(neg_in_cone, rank))
        _, kernel = ref.rat_solve(gens, (0,) * len(gens))
        assert ref.same_lattice(m.equalities, ref.saturate_span(kernel, rank))
        for f in m.faces():
            span = [m.rays[k] for k in f.ray_ids] + list(m.lineality)
            assert ref.same_lattice(f.hull, ref.saturate_span(span, rank))
            assert f.dim == len(f.hull)
            faces += 1
    assert faces > 2000, faces


def test_no_library_route_runs_a_smith_normal_form(monkeypatch, capsys):
    # every saturated kernel is one column reduction; one `kmx verify` ran
    # 376 Smith normal forms, all for toric, before
    snfs = []
    real = exact.smith_normal_form
    monkeypatch.setattr(exact, "smith_normal_form", lambda m: snfs.append(m) or real(m))
    assert verify.check_toric().passed
    monoid = '{"rank": 3, "generators": [[1,3,-2],[1,-2,2],[-1,0,-3],[2,-3,0]]}'
    assert main(["toric-saturate", "--monoid", monoid, "--contains", "1,1,0"]) == 0
    assert main(["toric-faces", "--monoid", monoid, "--face", "3", "--dual"]) == 0
    assert "hull" in capsys.readouterr().out and not snfs
