"""One pairing pass per point, and the indexed face lattice.

Every point predicate of a `LatticeMonoid` reads the point's active facet
set from one pass over the facet pairings, and `face_of` and `face_meet`
look faces up by active set and by ray set.  These tests hold the results
against scan and pairing references kept here, on seeded random cones with
lineality and equalities, and count the pairings and locations each query
makes.  A point that is not an integer vector is a DomainError for every
query.  Faces read their dimensions off one elimination and build their
hulls when first read, in the face order of the one-SNF-per-face
reference (`exact_reference.toric_faces`).  An
element of M-hat reads its values through the torus element it keeps; it
is held against the character of its canonical values read through
coordinates in the hull basis (`exact_reference.eval_character`).
"""

import random
from fractions import Fraction as Fr
from itertools import product

import pytest
from exact_reference import eval_character, toric_faces

from kmx import exact
from kmx.errors import DomainError, InternalError, NotInMonoid, RankMismatch
from kmx.exact import vec_dot
from kmx.toric import LatticeMonoid, MonoidFace, mhat_mul, mhat_normalize


def _cones(seed=63, count=80):
    """Seeded cones of ranks 1-5, drawn as in the lineality/equality test of
    test_toric.py, so that many have lineality or equalities."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randrange(1, 6)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(rank))
                for _ in range(rng.randrange(1, rank + 4))]
        yield LatticeMonoid(gens, rank)


def _box(rank):
    span = 2 if rank <= 3 else 1
    return list(product(range(-span, span + 1), repeat=rank))


# -- references: pair every inequality with the point or the rays ---------------


def _ref_active(m, x):
    if any(vec_dot(a, x) != 0 for a in m.equalities):
        return None
    if any(vec_dot(a, x) < 0 for a in m.inequalities):
        return None
    return tuple(i for i, a in enumerate(m.inequalities) if vec_dot(a, x) == 0)


def _ref_face_active(m, f):
    return tuple(i for i, a in enumerate(m.inequalities)
                 if all(vec_dot(a, m.rays[k]) == 0 for k in f.ray_ids))


def _ref_face_contains(m, f, x):
    return (_ref_active(m, x) is not None
            and all(vec_dot(m.inequalities[i], x) == 0 for i in f.active))


def _ref_face_of(m, x):
    act = _ref_active(m, x)
    return next(f for f in m.faces() if f.active == act)


def _ref_meet(m, f, g):
    rs = tuple(sorted(set(f.ray_ids) & set(g.ray_ids)))
    return next(h for h in m.faces() if h.ray_ids == rs)


def test_point_queries_agree_with_scan_and_pairing_references():
    rng = random.Random(66)
    seen_lin = seen_eq = points = inside = 0
    for m in _cones():
        seen_lin += bool(m.lineality)
        seen_eq += bool(m.equalities)
        fl = m.faces()
        for f in fl:
            assert f.active == _ref_face_active(m, f)
        for f in fl:
            for g in fl:
                assert m.face_meet(f, g) is _ref_meet(m, f, g)
        elts = [mhat_normalize(m, tuple(Fr(rng.choice([2, 3, -1]), rng.choice([1, 5]))
                                        for _ in range(m.rank)), f) for f in fl]
        for x in _box(m.rank):
            points += 1
            act = _ref_active(m, x)
            assert m.contains(x) == (act is not None)
            for f in fl:
                assert m.face_contains(f, x) == _ref_face_contains(m, f, x)
            if act is None:
                for call in (m.active_set, m.face_of, m.principal_open, elts[-1]):
                    with pytest.raises(NotInMonoid):
                        call(x)
                continue
            inside += 1
            assert m.active_set(x) == act
            assert m.face_of(x) is _ref_face_of(m, x)
            own = m.face_of(x)
            assert m.principal_open(x) == tuple(g for g in fl if own in m.subfaces(g))
            for e in elts:
                want = (eval_character(e.face.hull, e.values, x)
                        if _ref_face_contains(m, e.face, x) else Fr(0))
                assert e(x) == want
    assert seen_lin > 10 and seen_eq > 10, (seen_lin, seen_eq)
    assert points > 2000 and inside > 300, (points, inside)


def test_mhat_products_agree_with_the_canonical_character():
    # the product works through t t'; the characters of the two factors'
    # canonical values, read through hull coordinates, give the same values
    # on the meet's hull, and the product is the pointwise product
    rng = random.Random(67)
    products = 0
    for m in _cones(seed=71, count=40):
        fl = m.faces()
        elts = [mhat_normalize(m, tuple(Fr(rng.choice([2, 3, -1]), rng.choice([1, 5]))
                                        for _ in range(m.rank)), f) for f in fl]
        box = [x for x in _box(m.rank)[::4] if m.contains(x)]
        for x in elts:
            for y in rng.sample(elts, min(4, len(elts))):
                prod = mhat_mul(x, y)
                assert prod.face is m.face_meet(x.face, y.face)
                assert prod.values == tuple(eval_character(x.face.hull, x.values, b)
                                            * eval_character(y.face.hull, y.values, b)
                                            for b in prod.face.hull)
                assert all(prod(p) == x(p) * y(p) for p in box)
                products += 1
    assert products > 300, products


def test_wrong_length_is_a_rank_mismatch_for_every_point_query():
    m = LatticeMonoid([(1, 0), (0, 1)], 2)
    top = m.top_face()
    for call in (m.contains, m.active_set, m.face_of, m.principal_open,
                 lambda x: m.face_contains(top, x),
                 lambda x: m.contains(x) and m.face_of(x) == top):
        with pytest.raises(RankMismatch):
            call((1, 2, 3))


def _counting(monkeypatch, name):
    """Count the calls of `exact.<name>`."""
    calls = []
    real = getattr(exact, name)

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exact, name, counting)
    return calls


@pytest.fixture
def pairings(monkeypatch):
    """Count the integer pairings the toric layer makes."""
    return _counting(monkeypatch, "vec_dot")


class _Rows(tuple):
    """Normal rows that count how many are read out of them."""

    read = 0

    def __iter__(self):
        for row in tuple.__iter__(self):
            _Rows.read += 1
            yield row


def test_each_point_query_makes_one_pairing_pass():
    for m in _cones(seed=64, count=25):
        fl = m.faces()
        elt = mhat_normalize(m, (Fr(2),) * m.rank, fl[-1])
        m.equalities, m.inequalities = _Rows(m.equalities), _Rows(m.inequalities)
        one_pass = len(m.equalities) + len(m.inequalities)
        for x in _box(m.rank)[::7]:
            member = _ref_active(m, x) is not None
            queries = [m.contains, lambda x: m.face_contains(fl[0], x)]
            if member:
                queries += [m.active_set, m.face_of, m.principal_open, elt]
            for query in queries:
                _Rows.read = 0
                query(x)
                # every query locates x, and a location reads each row at most once
                assert min(one_pass, 1) <= _Rows.read <= one_pass


def test_face_lattice_pairs_each_facet_with_each_ray_once(pairings):
    for m in _cones(seed=65, count=25):
        pairings.clear()
        fl = m.faces()
        assert len(pairings) == len(m.inequalities) * len(m.rays)
        pairings.clear()
        for f in fl:
            for g in fl:
                m.face_meet(f, g)
        assert not pairings


def test_mhat_products_units_and_values_solve_no_system(monkeypatch):
    # M-hat keeps its torus element, so no point is written in coordinates
    # of a hull basis
    solves = _counting(monkeypatch, "rat_solve")
    rng = random.Random(68)
    ops = 0
    for m in _cones(seed=69, count=25):
        fl = m.faces()
        units = [mhat_normalize(m, tuple(Fr(rng.choice([2, -3]), rng.choice([1, 7]))
                                         for _ in range(m.rank)), fl[-1]) for _ in range(2)]
        elts = units + [mhat_mul(units[0], mhat_normalize(m, units[1].rep, f)) for f in fl]
        for x in _box(m.rank)[::3]:
            if m.contains(x):
                for e in elts:
                    e(x)
                    ops += 1
    assert ops > 1000 and not solves, (ops, len(solves))


def test_face_lattice_runs_one_smith_normal_form_per_face(monkeypatch):
    # each hull is the saturated kernel of the equalities and the face's
    # active facets, built when first read by one column reduction (the
    # first step of a Smith normal form); a face with neither is the whole
    # lattice, and no reduction.  Building the lattice reads no hull
    snfs = _counting(monkeypatch, "_echelon_columns")
    for m in _cones(seed=70, count=25):
        snfs.clear()
        fl = m.faces()
        assert not snfs
        hulls = [f.hull for f in fl]
        assert len(snfs) == sum(bool(m.equalities or f.active) for f in fl)
        assert len(snfs) >= len(fl) - 1
        snfs.clear()
        assert [f.hull for f in fl] == hulls and not snfs


def test_face_dims_hulls_and_order_match_the_one_snf_per_face_reference():
    # dim = rank - rank(normals) is the hull's length, so the face order by
    # (dimension, ray set) is the old one by (hull size, ray set)
    checked = 0
    for m in _cones(seed=72, count=150):
        fl = m.faces()
        for f in fl:
            assert f.dim == len(f.hull)
            assert f.hull == exact.kernel_lattice_basis(
                m.equalities + tuple(m.inequalities[i] for i in f.active), m.rank)
        assert [(f.dim, f.ray_ids, f.active, f.hull) for f in fl] == toric_faces(m)
        checked += len(fl)
    assert checked > 1000, checked


def test_a_face_missing_from_an_index_is_an_internal_error():
    # the facets vanishing at a point are its face's active set, and the rays
    # two faces share are their meet's ray set, so a lookup can miss only if
    # an index lost a face: drop each entry of each index in turn
    dropped = 0
    for m in _cones(seed=73, count=20):
        faces, by_active, by_rays = m._lattice
        for f in faces:
            x = tuple(map(sum, zip((0,) * m.rank, *(m.rays[k] for k in f.ray_ids))))
            assert m.face_of(x) is f and m.face_meet(f, f) is f
            m.__dict__["_lattice"] = (faces, {a: g for a, g in by_active.items() if g is not f},
                                      by_rays)
            with pytest.raises(InternalError, match="no face with active set"):
                m.face_of(x)
            m.__dict__["_lattice"] = (faces, by_active,
                                      {r: g for r, g in by_rays.items() if g is not f})
            with pytest.raises(InternalError, match="meet fell outside the computed lattice"):
                m.face_meet(f, f)
            m.__dict__["_lattice"] = (faces, by_active, by_rays)
            dropped += 1
    assert dropped > 100, dropped


def test_faces_compare_and_hash_by_their_hulls():
    m = LatticeMonoid([(1, 0), (0, 1)], 2)
    m2 = LatticeMonoid([(1, 0), (0, 1)], 2)
    assert m.faces() == m2.faces() and len(set(m.faces() + m2.faces())) == len(m.faces())
    # a face that differs from faces()[1] only in its normals, those of
    # faces()[2], differs in its hull, so it is another face
    f, g = m.faces()[1:3]
    other = MonoidFace(index=f.index, ray_ids=f.ray_ids, active=f.active, dim=f.dim,
                       normals=g.normals, rank=2)
    assert other.hull == g.hull != f.hull and other != f
    # a non-face is left to its own __eq__
    assert f.__eq__(f.index) is NotImplemented and f != f.index and f != m


def test_a_hull_of_the_wrong_size_is_an_internal_error():
    f = LatticeMonoid([(1, 0), (0, 1)], 2).faces()[1]
    wrong = MonoidFace(index=f.index, ray_ids=f.ray_ids, active=f.active, dim=2,
                       normals=f.normals, rank=2)
    with pytest.raises(InternalError):
        wrong.hull


def _point_queries(m):
    """Every point query of m, by name: the monoid's, an M-hat value, and
    the relative interior of the top face, `contains` and `face_of`."""
    top = m.top_face()
    return {"contains": m.contains, "active_set": m.active_set, "face_of": m.face_of,
            "face_contains": lambda x: m.face_contains(top, x),
            "relative_interior_contains": lambda x: m.contains(x) and m.face_of(x) == top,
            "principal_open": m.principal_open,
            "mhat_value": mhat_normalize(m, tuple(Fr(k + 2) for k in range(m.rank)), top)}


@pytest.mark.parametrize("query", ["contains", "active_set", "face_of", "face_contains",
                                   "relative_interior_contains", "principal_open",
                                   "mhat_value"])
@pytest.mark.parametrize("point", [(0.1, 0.2), (1.0, 0), (True, 0), (1, False), ("1", 0),
                                   (1, None), (Fr(1), 0), (0, Fr(1, 2))],
                         ids=["float", "integral-float", "bool", "false", "str", "none",
                              "integral-fraction", "fraction"])
def test_a_point_that_is_not_an_integer_vector_is_a_domain_error(query, point):
    # (0.1, 0.2) was a member with active set () and (True, 0) was read as
    # (1, 0); ("1", 0) and (1, None) were raw TypeErrors
    m = LatticeMonoid([(1, 0), (0, 1)], 2)
    with pytest.raises(DomainError):
        _point_queries(m)[query](point)


def test_each_point_query_locates_its_point_once(monkeypatch):
    calls = []
    real = LatticeMonoid._locate

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(LatticeMonoid, "_locate", counting)
    asked = 0
    for m in _cones(seed=73, count=15):
        queries = _point_queries(m)
        for x in _box(m.rank)[::5]:
            if _ref_active(m, x) is None:
                continue
            for name, query in queries.items():
                calls.clear()
                query(x)
                # the relative interior is two entries, `contains` and `face_of`
                assert len(calls) == 1 + (name == "relative_interior_contains"), name
                asked += 1
    assert asked > 100, asked
