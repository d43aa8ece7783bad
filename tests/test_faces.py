import random

import pytest

from kmx import faces as FC, weyl as W
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS,
                        build_realization, classify)
from kmx.errors import DomainError, NotInTitsCone, NotSpecial
from test_weyl import KERNEL_DATA

A2 = build_realization(A2_ROWS)
AFF = build_realization(AFFINE_A1_ROWS)
HYP = build_realization(HYPERBOLIC_ROWS)


def rand_face(rng, datum, maxlen=6):
    w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(rng.randrange(maxlen + 1))])
    return FC.normalize_face(w, rng.choice(datum.special_sets()))


def sample_points(rng, face, count=6):
    """Integral points of the face: w * (W_perp orbit of closed-facet points)."""
    return [lam for lam, _ in sample_points_and_faces(rng, face, count)]


def sample_points_and_faces(rng, face, count=6):
    """`sample_points`, each with its own face by construction, no walk: the
    point is (w u) mu for mu dominant with facet type J, so it lies in the
    relative interior of (w u) R(J^infty)."""
    datum = face.datum
    perp = datum.theta_perp(face.theta)
    pts = []
    for _ in range(count):
        coords = [0] * datum.m
        for i in range(datum.m):
            if i < datum.n and i in face.theta:
                continue
            coords[i] = rng.randrange(0, 3)
        u = W.from_word(datum, [rng.choice(perp) for _ in range(rng.randrange(3))]) \
            if perp else W.identity_elt(datum)
        jset = tuple(i for i in range(datum.n) if coords[i] == 0)
        pts.append((tuple((face.w * u).act_weight(tuple(coords))),
                    FC.normalize_face(face.w * u, classify(datum.gcm, jset).theta_inf)))
    return pts


def test_normalize_examples():
    s1 = W.simple(HYP, 0)
    assert FC.normalize_face(s1, (0, 1)) == FC.Face(W.identity_elt(HYP), (0, 1))
    assert FC.normalize_face(W.identity_elt(HYP), ()) == FC.full_cone(HYP)
    with pytest.raises(NotSpecial):
        FC.normalize_face(s1, (0,))


def test_includes_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    edge = FC.standard_face(HYP, (0, 1, 2))
    s3R = FC.act_face(W.simple(HYP, 2), R12)
    assert FC.includes(s3R, edge)
    assert not FC.includes(R12, s3R)
    assert FC.includes(FC.full_cone(HYP), R12)
    # geometric witness: sigma_3(Lambda_3) lies in s3R but pairs to 1 with c_{12}
    wit = W.simple(HYP, 2).act_weight(HYP.fundamental_weight(2))
    assert HYP.pair(wit, s3R.exposing()) == 0
    assert HYP.pair(wit, R12.exposing()) == 1


def test_intersect_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    edge = FC.standard_face(HYP, (0, 1, 2))
    s3R = FC.act_face(W.simple(HYP, 2), R12)
    assert FC.intersect(R12, edge) == edge
    assert FC.intersect(R12, s3R) == edge
    assert FC.intersect(R12, FC.full_cone(HYP)) == R12
    # standard types intersect by union of types
    assert FC.intersect(R12, FC.standard_face(HYP, (0, 1, 2))) == edge


def test_act_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    assert FC.act_face(W.simple(HYP, 0), R12) == R12
    assert FC.act_face(W.simple(HYP, 2), R12) != R12
    u = W.from_word(HYP, (1, 2))
    assert FC.act_face(u, FC.full_cone(HYP)) == FC.full_cone(HYP)


def test_face_of_point_examples():
    assert FC.face_of_point(HYP, HYP.fundamental_weight(2)) \
        == FC.standard_face(HYP, (0, 1))
    assert FC.face_of_point(HYP, (0, 0, 0)) == FC.standard_face(HYP, (0, 1, 2))
    assert FC.face_of_point(HYP, HYP.fundamental_weight(0)) == FC.full_cone(HYP)
    with pytest.raises(NotInTitsCone):
        FC.face_of_point(AFF, (1, -1, 0))


def test_predicates_examples():
    R12 = FC.standard_face(HYP, (0, 1))
    edge = FC.standard_face(HYP, (0, 1, 2))
    assert FC.contains(edge, (0, 0, 0))
    assert FC.contains(R12, (0, 0, 0))
    # Lambda_3 lies in the relative interior of R12: its own face is R12
    own = FC.face_of_point(HYP, HYP.fundamental_weight(2))
    assert own == R12 and own != edge
    assert FC.includes(R12, own) and not FC.includes(edge, own)
    assert FC.in_span(R12, HYP.fundamental_weight(2))
    assert FC.centralizes(R12, W.simple(HYP, 0))
    assert not FC.centralizes(R12, W.simple(HYP, 2))
    assert FC.normalizes(R12, W.from_word(HYP, (0, 1)))
    assert FC.normalizes(R12, W.simple(HYP, 0))


def test_face_predicates_walk_the_weight_once(monkeypatch):
    # `kmx face-of-point --predicates` reads contains and the relative
    # interior off the point's own face, from one Tits-cone walk: a point
    # lies in r iff its face does, and in r's relative interior iff its face
    # is r.  The answers are those of `contains` (the pairing with c_R) and
    # of the face each point was built in
    rng = random.Random(13)
    cases = []
    data = (AFF, HYP, A2, KERNEL_DATA["D8++"])
    for datum in data:
        for _ in range(25):
            r, s = rand_face(rng, datum), rand_face(rng, datum)
            for lam, built in sample_points_and_faces(rng, s, count=2):
                cases.append((r, lam, built, {"contains": FC.contains(r, lam),
                                              "in_relative_interior": built == r,
                                              "in_span": FC.in_span(r, lam)}))
    assert {tuple(want.values()) for *_, want in cases} >= {
        (True, True, True), (True, False, True), (False, False, False)}
    # A2's Tits cone is the whole space, its one face; on each infinite
    # datum some point lies in r and some does not
    assert all(r.is_full_cone() for r, *_ in cases if r.datum is A2)
    for value in (True, False):
        assert {id(r.datum) for r, *_, want in cases if want["contains"] is value} >= {
            id(AFF), id(HYP), id(KERNEL_DATA["D8++"])}
    walks = []
    real = W._dominant

    def counting(*args, **kwargs):
        walks.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(W, "_dominant", counting)
    for r, lam, built, want in cases:
        walks.clear()
        own = FC.face_of_point(r.datum, lam)
        assert len(walks) == 1 and own == built
        assert {"contains": FC.includes(r, own), "in_relative_interior": own == r,
                "in_span": FC.in_span(r, lam)} == want


def test_lattice_laws_random():
    rng = random.Random(10)
    for datum in (AFF, HYP):
        for _ in range(120):
            r, s, t = (rand_face(rng, datum) for _ in range(3))
            rs = FC.intersect(r, s)
            assert rs == FC.intersect(s, r)
            assert FC.intersect(r, r) == r
            assert FC.intersect(FC.intersect(r, s), t) == FC.intersect(r, FC.intersect(s, t))
            assert FC.includes(r, rs) and FC.includes(s, rs)
            u = W.from_word(datum, [rng.randrange(datum.n) for _ in range(4)])
            assert FC.act_face(u, rs) == FC.intersect(FC.act_face(u, r), FC.act_face(u, s))
            # Galois
            assert FC.includes(r, s) == (rs == s)


def test_inclusion_point_soundness():
    rng = random.Random(11)
    for datum in (AFF, HYP):
        for _ in range(60):
            r, s = rand_face(rng, datum), rand_face(rng, datum)
            if FC.includes(r, s):
                for pt in sample_points(rng, s):
                    assert datum.pair(pt, r.exposing()) == 0


def test_membership_multiplicativity():
    rng = random.Random(12)
    datum = HYP
    faces = [rand_face(rng, datum) for _ in range(6)]
    pts = []
    for f in faces:
        pts.extend(sample_points(rng, f, count=3))
    pts.extend(tuple(W.from_word(datum, [rng.randrange(3) for _ in range(4)])
                     .act_weight((1, 2, 0))) for _ in range(6))
    for r in faces:
        c = r.exposing()
        for lam in pts:
            for mu in pts:
                pl, pm = datum.pair(lam, c), datum.pair(mu, c)
                assert pl >= 0 and pm >= 0  # the points lie in the Tits cone
                assert ((pl + pm) == 0) == (pl == 0 and pm == 0)


def test_face_counts_small():
    rng = random.Random(13)
    finite_faces = {rand_face(rng, A2) for _ in range(200)}
    assert finite_faces == {FC.full_cone(A2)}
    affine_faces = {rand_face(rng, AFF) for _ in range(400)}
    assert affine_faces == {FC.full_cone(AFF), FC.standard_face(AFF, (0, 1))}


def test_parabolic_restriction_image():
    # faces above the standard face of type J-infinity are exactly those of
    # type inside J-infinity with a representative in the J-infinity parabolic
    rng = random.Random(14)
    datum = HYP
    for jset in ((0, 1), (0, 1, 2), (1, 2), ()):
        jinf = classify(datum.gcm, jset).theta_inf
        base = FC.standard_face(datum, jinf)
        for _ in range(40):
            r = rand_face(rng, datum)
            lhs = FC.includes(r, base)
            rhs = (set(r.theta) <= set(jinf)
                   and W.min_coset_right(r.w, jinf)[0].is_identity())
            assert lhs == rhs, (r, jset)


def test_full_cone_and_edge_are_absorbing():
    rng = random.Random(15)
    for datum in (AFF, HYP):
        edge_theta = max(datum.special_sets(), key=len)
        edge = FC.standard_face(datum, edge_theta)
        for _ in range(30):
            r = rand_face(rng, datum)
            assert FC.intersect(r, FC.full_cone(datum)) == r
            if datum is AFF:
                assert FC.intersect(r, edge) == edge


def test_intersect_results_verified_by_sampled_points():
    # the meet is exactly the pairing-zero locus of both exposing coweights;
    # relative-interior samples of the computed meet must lie in both inputs
    rng = random.Random(16)
    for _ in range(50):
        r = rand_face(rng, HYP, maxlen=10)
        s = rand_face(rng, HYP, maxlen=10)
        meet = FC.intersect(r, s)
        for pt in sample_points(rng, meet, count=4):
            assert HYP.pair(pt, r.exposing()) == 0
            assert HYP.pair(pt, s.exposing()) == 0
        # and points of r that pair nonzero with s's coweight avoid the meet
        for pt in sample_points(rng, r, count=4):
            in_s = HYP.pair(pt, s.exposing()) == 0
            in_meet = HYP.pair(pt, meet.exposing()) == 0
            assert in_meet == in_s


def test_two_affine_walls_datum():
    # two affine sub-blocks share an index; their standard faces meet in the edge
    rows = ((2, -2, 0), (-2, 2, -2), (0, -2, 2))
    datum = build_realization(rows)
    from kmx.cartan import special_sets
    assert special_sets(datum.gcm) == ((), (0, 1), (1, 2), (0, 1, 2))
    r12 = FC.standard_face(datum, (0, 1))
    r23 = FC.standard_face(datum, (1, 2))
    edge = FC.standard_face(datum, (0, 1, 2))
    assert FC.intersect(r12, r23) == edge
    assert not FC.includes(r12, r23) and not FC.includes(r23, r12)
    rng = random.Random(17)
    for _ in range(80):
        a, b = rand_face(rng, datum), rand_face(rng, datum)
        assert FC.includes(a, b) == (FC.intersect(a, b) == b)


def test_decomposable_product_face_lattice():
    # block sum of two affine rank-2 matrices: exactly four faces, the
    # product of two two-element lattices
    rows = ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))
    datum = build_realization(rows)
    from kmx.cartan import special_sets
    assert special_sets(datum.gcm) == ((), (0, 1), (2, 3), (0, 1, 2, 3))
    # the exposing coweight of the union assembles per component
    c = datum.exposing_coweight((0, 1, 2, 3))
    assert c[:4] == (1, 1, 1, 1)
    rng = random.Random(18)
    faces = set()
    for _ in range(400):
        f = rand_face(rng, datum, maxlen=7)
        faces.add(f)
    assert len(faces) == 4
    # meet table is the product lattice
    by_type = {f.theta: f for f in faces}
    a, b = by_type[(0, 1)], by_type[(2, 3)]
    assert FC.intersect(a, b) == by_type[(0, 1, 2, 3)]
    assert FC.intersect(a, by_type[()]) == a


def test_affine_membership_always_decides():
    # on affine data the dominance walk plus the exact certificates settle
    # every lattice weight: no Undecided within a generous budget
    from kmx.errors import NotInTitsCone
    for a in range(-2, 3):
        for b in range(-2, 3):
            for t in range(-2, 3):
                try:
                    W.dominant_rep(AFF, (a, b, t), cap=500)
                except NotInTitsCone:
                    pass


@pytest.mark.parametrize("theta,message", [
    ((5,), "simple index 6 out of range 1..2"),  # it was an IndexError
    ((-1,), "simple index 0 out of range 1..2"),  # it was NotSpecial naming (-1,)
    ((0, 1, 2), "simple index 3 out of range 1..2"),
])
def test_normalize_face_rejects_out_of_range_theta_one_based(theta, message):
    datum = build_realization(AFFINE_A1_ROWS)
    with pytest.raises(DomainError, match=message):
        FC.normalize_face(W.from_word(datum, (0, 1)), theta)
    # the bad key is checked before the stabilizer table is read or filled
    assert datum._stab == {} and datum._perp == {}
    FC.normalize_face(W.identity_elt(datum), (1, 0, 1))
    assert set(datum._stab) == {(0, 1)}


def test_normalize_face_reads_theta_once(monkeypatch):
    # normalize_face reads Theta by index_set and looks its stabilizer type up
    # by that key; the stabilizer table and the descent walks are warm after
    # the first pass, so a second pass makes one index_set call per face
    from kmx import cartan
    calls = []
    real = cartan.index_set

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    datum = build_realization(HYPERBOLIC_ROWS)
    rng = random.Random(5)
    jobs = [(W.from_word(datum, [rng.randrange(3) for _ in range(rng.randrange(6))]), theta[::-1])
            for theta in datum.special_sets() for _ in range(4)]
    first = [FC.normalize_face(w, theta) for w, theta in jobs]
    for module in (cartan, FC, W):
        monkeypatch.setattr(module, "index_set", counted)
    assert [FC.normalize_face(w, theta) for w, theta in jobs] == first
    assert len(calls) == len(jobs)


def test_act_face_reads_no_theta(monkeypatch):
    # act_face hands the face's own Theta, sorted without repeats, to the
    # normalizer unread; the stabilizer table is warm after normalize_face
    from kmx import cartan

    def forbidden(*args, **kwargs):
        raise AssertionError("act_face reads Theta by index_set")

    datum = build_realization(HYPERBOLIC_ROWS)
    rng = random.Random(6)

    def word():
        return W.from_word(datum, [rng.randrange(3) for _ in range(rng.randrange(7))])

    jobs = [(word(), FC.normalize_face(word(), theta))
            for theta in datum.special_sets() for _ in range(4)]
    for module in (cartan, FC, W):
        monkeypatch.setattr(module, "index_set", forbidden)
    acted = [FC.act_face(u, r) for u, r in jobs]
    monkeypatch.undo()
    assert acted == [FC.normalize_face(u * r.w, r.theta) for u, r in jobs]
