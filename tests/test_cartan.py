import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import exact_reference as ref
import pytest
from conftest import all_small_gcms

from kmx import cartan, exact
from kmx import faces as FC
from kmx import highest_weight as HW
from kmx import weyl as W
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, GCM, HYPERBOLIC_ROWS, ComponentType,
                        RootDatum, build_realization, classify, component_type, is_special,
                        special_sets, typed_numbers, validate_and_symmetrize)
from kmx.errors import DomainError, InternalError, NotGCM, NotSpecial, NotSymmetrizable


def test_validate_a2():
    g = validate_and_symmetrize(A2_ROWS)
    assert g.eps == (Fraction(1), Fraction(1))
    assert g.b == tuple(tuple(Fraction(x) for x in row) for row in A2_ROWS)


def test_validate_hyperbolic_symmetric():
    g = validate_and_symmetrize(HYPERBOLIC_ROWS)
    assert g.eps == (Fraction(1), Fraction(1), Fraction(1))


def test_validate_rejects_zero_pattern_asymmetry():
    with pytest.raises(NotGCM):
        validate_and_symmetrize([[2, -1], [0, 2]])


def test_validate_rejects_bad_diagonal_and_positive_offdiag():
    with pytest.raises(NotGCM):
        validate_and_symmetrize([[1, -1], [-1, 2]])
    with pytest.raises(NotGCM):
        validate_and_symmetrize([[2, 1], [1, 2]])


@pytest.mark.parametrize("bad,where", [
    (-1.5, "a[1][2] = -1.5"), (-1.0, "a[1][2] = -1.0"), ("-1", "a[1][2] = '-1'"),
    (Fraction(-1), "a[1][2] = Fraction(-1, 1)"), (False, "a[1][2] = False"),
])
def test_validate_rejects_non_integer_entries(bad, where):
    with pytest.raises(NotGCM, match=re.escape(where) + " is not an integer"):
        validate_and_symmetrize([[2, bad], [-1, 2]])
    with pytest.raises(NotGCM, match=re.escape("a[1][1] = True")):
        validate_and_symmetrize([[True, -1], [-1, 2]])
    # the exact layer still takes integral fractions from internal callers
    assert exact.int_mat([[Fraction(2), Fraction(-4, 2)]]) == ((2, -2),)


def test_typed_numbers_read_only_integers_and_quotients():
    assert typed_numbers(["3", "-3/6", "+0", "7/1", 2], "x") == (
        Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(7), Fraction(2))
    assert typed_numbers(["-12", "+4", 5], "x", integral=True) == (-12, 4, 5)
    for tok in ("1e3", "0.5", "1.", ".5", "1_000", "inf", "nan", " 1", "1/-2", "1/0",
                "1//2", "/2", "", "--1", "3/2/1"):
        with pytest.raises(DomainError, match=re.escape(f"x {tok} is not a number a/b")):
            typed_numbers([tok], "x")
    for tok in ("4/2", "1.0", "1e0", "3/2", "true"):
        with pytest.raises(DomainError, match=re.escape(f"x {tok} is not an integer")):
            typed_numbers([tok], "x", integral=True)


def test_validate_messages_are_one_based():
    with pytest.raises(NotGCM, match=re.escape("a[1][1] = 1 != 2")):
        validate_and_symmetrize([[1, -1], [-1, 2]])
    with pytest.raises(NotGCM, match=re.escape("a[2][1]")):
        validate_and_symmetrize([[2, -1], [1, 2]])


def test_weight_height_is_none_off_the_nonnegative_root_lattice():
    # on affine A1 the roots span {(x, -x, z)}: (1, 0, 0) is off their span,
    # alpha_0 - alpha_1 is a root-lattice element with a negative coordinate
    aff = build_realization(AFFINE_A1_ROWS)
    a0, a1 = aff.alpha
    assert aff.weight_height((1, 0, 0), (0, 0, 0)) is None
    assert aff.weight_height(a0, a1) is None
    assert aff.weight_height(exact.vec_add(a0, a1), (0, 0, 0)) == 2


def test_validate_rejects_nonsymmetrizable():
    # 3-cycle with mismatched products: eps propagation is inconsistent
    with pytest.raises(NotSymmetrizable):
        validate_and_symmetrize([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]])


def test_symmetrizer_nonsymmetric_case():
    g = validate_and_symmetrize([[2, -1], [-4, 2]])
    # eps_i a_ji = eps_j a_ij and A = diag(eps) B with B symmetric
    a = g.a
    for i in range(2):
        for j in range(2):
            assert g.eps[i] * a[j][i] == g.eps[j] * a[i][j]
            assert g.b[i][j] == g.b[j][i]
            assert Fraction(a[i][j]) == g.eps[i] * g.b[i][j]


def test_classify_examples():
    a2 = validate_and_symmetrize(A2_ROWS)
    assert classify(a2).components[0][1] is ComponentType.FIN
    aff = validate_and_symmetrize(AFFINE_A1_ROWS)
    assert classify(aff).components[0][1] is ComponentType.AFF
    hyp = validate_and_symmetrize(HYPERBOLIC_ROWS)
    cls = classify(hyp)
    assert cls.components == (((0, 1, 2), ComponentType.IND),)
    assert cls.theta_inf == (0, 1, 2) and cls.theta0 == ()


def test_classify_subset_split():
    hyp = validate_and_symmetrize(HYPERBOLIC_ROWS)
    cls = classify(hyp, (0, 1))
    assert cls.components[0][1] is ComponentType.AFF
    cls = classify(hyp, (1, 2))
    assert cls.components[0][1] is ComponentType.FIN
    cls = classify(hyp, (0, 2))  # disconnected: two A1 components
    assert len(cls.components) == 2
    assert all(t is ComponentType.FIN for _, t in cls.components)


def test_trichotomy_exhaustive_small():
    from conftest import all_small_gcms
    for n in (1, 2, 3):
        for rows in all_small_gcms(n):
            try:
                g = validate_and_symmetrize(rows)
            except NotSymmetrizable:
                continue
            for comp, t in classify(g).components:
                # exactly one certificate family is feasible; classify would
                # have raised InternalError otherwise
                assert t in (ComponentType.FIN, ComponentType.AFF, ComponentType.IND)


def test_special_sets_examples():
    hyp = validate_and_symmetrize(HYPERBOLIC_ROWS)
    assert special_sets(hyp) == ((), (0, 1), (0, 1, 2))
    aff = validate_and_symmetrize(AFFINE_A1_ROWS)
    assert special_sets(aff) == ((), (0, 1))
    a2 = validate_and_symmetrize(A2_ROWS)
    assert special_sets(a2) == ((),)


def test_special_union_property():
    from conftest import all_small_gcms
    count = 0
    for rows in all_small_gcms(3, lo=-2):
        try:
            g = validate_and_symmetrize(rows)
        except NotSymmetrizable:
            continue
        specials = set(special_sets(g))
        for t1 in specials:
            for t2 in specials:
                union = tuple(sorted(set(t1) | set(t2)))
                assert union in specials, (rows, t1, t2)
                count += 1
    assert count > 0


def test_exposing_functional_examples():
    hyp = build_realization(HYPERBOLIC_ROWS)
    assert hyp.exposing_coweight(()) == (0, 0, 0)
    c12 = hyp.exposing_coweight((0, 1))
    assert c12 == (1, 1, 0)
    assert hyp.pair(hyp.alpha[2], c12) == -1
    c123 = hyp.exposing_coweight((0, 1, 2))
    # acceptance checks the defining inequalities, not a particular vector
    for j in range(3):
        assert hyp.pair(hyp.alpha[j], c123) <= 0
    assert all(c123[i] > 0 for i in range(3))
    with pytest.raises(NotSpecial):
        hyp.exposing_coweight((0,))


def test_exposing_functional_properties_all_specials():
    from conftest import all_small_gcms
    for rows in all_small_gcms(3, lo=-2):
        try:
            datum = build_realization(rows)
        except NotSymmetrizable:
            continue
        for theta in datum.special_sets():
            c = datum.exposing_coweight(theta)
            assert all((c[i] > 0) == (i in theta) for i in range(datum.n))
            for j in range(datum.n):
                assert datum.pair(datum.alpha[j], c) <= 0


def _e10_rows():
    """E10 = T_{7,3,2}: the chain 0-1-...-8 with node 9 joined to node 6."""
    rows = [[2 if i == j else 0 for j in range(10)] for i in range(10)]
    for i, j in [(k, k + 1) for k in range(8)] + [(6, 9)]:
        rows[i][j] = rows[j][i] = -1
    return rows


def test_exposing_coweight_e10():
    e10 = build_realization(_e10_rows())
    assert (e10.n, e10.l, e10.m) == (10, 10, 10)
    for theta in (tuple(range(10)), tuple(range(1, 10))):  # E10 and its E8^(1)
        c = e10.exposing_coweight(theta)
        assert all((c[i] > 0) == (i in theta) for i in range(10))
        for j in range(10):
            assert e10.pair(e10.alpha[j], c) <= 0


@pytest.mark.parametrize("rows,theta,null_vector", [
    (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (0, 1, 2), (1, 1, 1)),  # A2^(1)
    (((2, -4), (-1, 2)), (0, 1), (1, 2)),                             # A2^(2)
    (_e10_rows(), tuple(range(1, 10)), (1, 2, 3, 4, 5, 6, 4, 2, 3)),  # E8^(1) in E10
])
def test_exposing_coweight_affine_is_primitive_null_vector(rows, theta, null_vector):
    datum = build_realization(rows)
    c = datum.exposing_coweight(theta)
    assert tuple(c[i] for i in theta) == null_vector
    for j in theta:
        assert datum.pair(datum.alpha[j], c) == 0


# an indefinite GCM; (1, 1, 0) solves A u < 0 and A^T u <= 0 but is not > 0
_INDEFINITE = ((2, -3, -3), (-3, 2, -3), (-3, -3, 2))


def _forge_certificate(monkeypatch):
    """exact.lp_feasible returns the forged certificate (1, 1, 0)."""
    monkeypatch.setattr(exact, "lp_feasible", lambda matrix: (1, 1, 0))


def test_a_forged_vinberg_certificate_raises(monkeypatch):
    # a certificate check weakened to min(u) < 0, or to "and", accepts it
    gcm = validate_and_symmetrize(_INDEFINITE)
    cartan._component_type_cached.cache_clear()
    _forge_certificate(monkeypatch)
    with pytest.raises(InternalError, match="IND certificate fails"):
        component_type(gcm, (0, 1, 2))


def test_a_forged_exposing_certificate_raises(monkeypatch):
    # the type is certified by the true simplex; the coweight is read off a
    # certificate forged to (1, 1, 0), which an inequality check weakened to
    # "and" accepts, though its support is not Theta
    datum = build_realization(validate_and_symmetrize(_INDEFINITE))
    real = cartan._component_type_cached
    assert real(datum.gcm, (0, 1, 2))[0] is ComponentType.IND
    monkeypatch.setattr(cartan, "_component_type_cached",
                        lambda gcm, comp: (real(gcm, comp)[0], (1, 1, 0)))
    with pytest.raises(InternalError, match="exposing coweight fails"):
        datum.exposing_coweight((0, 1, 2))


def test_a_nonpositive_symmetrizer_is_caught_by_the_type_certificate():
    # a hand-built GCM with eps < 0, which validate_and_symmetrize never gives
    with pytest.raises(InternalError, match=re.escape(
            "symmetrizer is not positive on component (0, 1)")):
        component_type(GCM(a=A2_ROWS, eps=(Fraction(-1), Fraction(-1))), (0, 1))


def test_a_fractional_symmetrizer_is_caught_by_the_realization():
    # the Gram matrix is built from eps in ints, so eps = 1/2 cannot stand
    with pytest.raises(InternalError, match="symmetrizer is not integral"):
        RootDatum(GCM(a=A2_ROWS, eps=(Fraction(1, 2), Fraction(1, 2))))


# datum -> the exposing coweight of its full node set, one indefinite component
VINBERG_DATA = {
    "hyperbolic-3": (lambda: HYPERBOLIC_ROWS, (9, 10, 4)),
    "E10": (lambda: _e10_rows(), (30, 61, 93, 126, 160, 195, 231, 153, 76, 115)),
    "D8++": (lambda: _d8pp_rows(), (22, 45, 40, 36, 33, 31, 15, 15, 29, 14)),
}


@pytest.mark.parametrize("name", sorted(VINBERG_DATA))
def test_exposing_coweights_are_the_vinberg_certificates(name):
    # once the special sets are typed, every exposing coweight is read off
    # their components' certificates and runs no simplex: on each component
    # C, c is primitive and u = diag(eps) c has u > 0 with A_C u < 0 (IND)
    # or = 0 (AFF), the Vinberg system of C's type
    rows, full = VINBERG_DATA[name]
    datum = build_realization(rows())
    sets = datum.special_sets()
    runs = exact.simplex_runs()
    coweights = {theta: datum.exposing_coweight(theta) for theta in sets}
    assert exact.simplex_runs() == runs
    assert coweights[tuple(range(datum.n))][:datum.n] == full
    gcm = datum.gcm
    for theta, c in coweights.items():
        for comp, kind in classify(gcm, theta).components:
            y = tuple(c[i] for i in comp)
            assert y == cartan._component_type_cached(gcm, comp)[1]
            assert gcd(*y) == 1 and min(y) > 0
            u = [gcm.eps[i] * c[i] for i in comp]
            signs = {(v > 0) - (v < 0) for v in (sum(gcm.a[i][j] * x for j, x in zip(comp, u))
                                                 for i in comp)}
            assert signs == {-1 if kind is ComponentType.IND else 0}, (theta, comp)


@pytest.mark.parametrize("rows,n,l,m", [
    (A2_ROWS, 2, 2, 2),
    (AFFINE_A1_ROWS, 2, 1, 3),
    (HYPERBOLIC_ROWS, 3, 3, 3),
])
def test_realization_shapes(rows, n, l, m):
    datum = build_realization(rows)
    assert (datum.n, datum.l, datum.m) == (n, l, m)


def test_realization_identities():
    for rows in (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS):
        datum = build_realization(rows)
        a = datum.gcm.a
        for i in range(datum.n):
            for j in range(datum.n):
                assert datum.pair(datum.alpha[i], datum.coroot(j)) == a[j][i]
            for j in range(datum.m):
                assert datum.pair(datum.fundamental_weight(i),
                                  datum.coroot(j)) == (1 if i == j else 0)
            # norms under A = D B
            assert datum.form_weights(datum.alpha[i], datum.alpha[i]) \
                == 2 / datum.gcm.eps[i] > 0
        # independence of simple roots and coroots
        assert ref.rank(datum.alpha) == datum.n


def _d8pp_rows():
    """Over-extended D8: D8 with the affine node 9 and the extending node 10."""
    rows = [[2 if i == j else 0 for j in range(10)] for i in range(10)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (1, 8), (8, 9)]:
        rows[i][j] = rows[j][i] = -1
    return rows


def test_realization_completion_matches_the_rank_loop():
    # the completion read off the pivots of one int_rref(A) against the
    # former loop of one Fraction rank per simple root
    ranks = []
    for rows in [*all_small_gcms(3), _d8pp_rows(), _e10_rows()]:
        try:
            datum = build_realization([list(r) for r in rows])
        except NotSymmetrizable:
            continue
        assert datum.alpha == ref.completion(datum.gcm.a)
        assert (datum.l, datum.m) == (ref.rank(datum.gcm.a), len(datum.alpha[0]))
        assert ref.det(datum.gram) != 0
        ranks.append(datum.l)
    # 364 symmetrizable 3 x 3 matrices, 28 of them of rank 2, then D8++ and E10
    assert len(ranks) == 366 and ranks.count(2) == 28


def test_pair_and_gram_stay_integral():
    for rows in (A2_ROWS, AFFINE_A1_ROWS, ((2, -2), (-1, 2)), _d8pp_rows()):
        datum = build_realization(rows)
        assert all(type(x) is int for row in datum.gram for x in row)
        coweights = [datum.coroot(j) for j in range(datum.m)] + [tuple(range(-2, datum.m - 2))]
        for i in range(datum.n):
            for h in coweights:
                val = datum.pair(datum.alpha[i], h)
                assert type(val) is int
                assert val == sum(Fraction(x) * Fraction(y) for x, y in zip(datum.alpha[i], h))
    hyp = build_realization(HYPERBOLIC_ROWS)
    val = hyp.pair(tuple(map(Fraction, hyp.alpha[0])), (Fraction(1, 2), 0, 0))
    assert type(val) is Fraction and val == 1


def test_realization_full_rank_case_alpha_in_terms_of_weights():
    hyp = build_realization(HYPERBOLIC_ROWS)
    a = hyp.gcm.a
    for i in range(3):
        assert hyp.alpha[i] == tuple(a[j][i] for j in range(3))


def test_realization_affine_added_dual_pair():
    aff = build_realization(AFFINE_A1_ROWS)
    # alpha_1, alpha_2 independent; the third fundamental weight pairs only
    # with the added coroot direction
    assert ref.rank(aff.alpha) == 2
    assert aff.pair(aff.fundamental_weight(2), aff.coroot(2)) == 1
    assert aff.pair(aff.fundamental_weight(2), aff.coroot(0)) == 0


def test_special_guard():
    from kmx.errors import SizeGuard
    n = 17
    rows = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]
    g = validate_and_symmetrize(rows)
    with pytest.raises(SizeGuard):
        special_sets(g)


def test_decomposable_matrix_machinery():
    # block sum of a finite A1 and the affine rank-2 matrix: components are
    # classified independently and the realization gets rank 2n - l = 4
    rows = ((2, 0, 0), (0, 2, -2), (0, -2, 2))
    datum = build_realization(rows)
    assert (datum.n, datum.l, datum.m) == (3, 2, 4)
    cls = classify(datum.gcm)
    assert dict((c, t.value) for c, t in cls.components) == {
        (0,): "FIN", (1, 2): "AFF"}
    assert special_sets(datum.gcm) == ((), (1, 2))
    # faces: the type-(2,3) face exists; the finite direction stays free
    from kmx import faces as FC, weyl as W
    f = FC.standard_face(datum, (1, 2))
    assert FC.act_face(W.simple(datum, 0), f) == f  # s1 is in Theta-perp
    assert datum.theta_perp((1, 2)) == (0,)


@pytest.mark.parametrize("call,message", [
    (lambda d: d.theta_perp((-1,)), "simple index 0 out of range 1..3"),  # it gave (0,)
    (lambda d: d.theta_perp((0, 3)), "simple index 4 out of range 1..3"),
    (lambda d: d.exposing_coweight((5,)), "simple index 6 out of range 1..3"),
    (lambda d: d.exposing_coweight((-1, 0, 1)), "simple index 0 out of range 1..3"),
    (lambda d: d.stabilizer_type((0, 1, 3)), "simple index 4 out of range 1..3"),
    (lambda d: d.coroot(-1), "coroot index 0 out of range 1..3"),  # it gave (0, 0, 0)
    (lambda d: d.coroot(3), "coroot index 4 out of range 1..3"),
    # it gave (0, 0, 0)
    (lambda d: d.fundamental_weight(7), "fundamental weight index 8 out of range 1..3"),
    (lambda d: d.fundamental_weight(-1), "fundamental weight index 0 out of range 1..3"),
    # True was read as node 2 and 0.5, "1" ended in raw TypeErrors
    (lambda d: d.exposing_coweight((True, False)), "simple index True is not an integer"),
    (lambda d: d.theta_perp((0.5,)), "simple index 0.5 is not an integer"),
    (lambda d: d.stabilizer_type(("1",)), "simple index '1' is not an integer"),
    (lambda d: d.coroot(True), "coroot index True is not an integer"),
    (lambda d: d.fundamental_weight(0.5), "fundamental weight index 0.5 is not an integer"),
    (lambda d: d.coroot("1"), "coroot index '1' is not an integer"),
], ids=["perp-minus-one", "perp-four", "expose-six", "expose-minus-one",
        "stabilizer-four", "coroot-minus-one", "coroot-four", "fundamental-eight",
        "fundamental-minus-one", "expose-true", "perp-half", "stabilizer-str",
        "coroot-true", "fundamental-half", "coroot-str"])
def test_index_arguments_rejected_one_based_before_the_tables(call, message):
    hyp = build_realization(HYPERBOLIC_ROWS)
    with pytest.raises(DomainError, match=message):
        call(hyp)
    assert hyp._perp == {} and hyp._ctheta == {} and hyp._stab == {}


def _fresh_hyp():
    """A fresh rank-3 hyperbolic datum and s1 s2 s3 s2 on it: no descent walk
    is kept yet that a bool or float J equal to an int J could be read from."""
    hyp = build_realization(HYPERBOLIC_ROWS)
    return hyp, W.from_word(hyp, (0, 1, 2, 1))


# every reader of a node index or subset that no other test feeds a bad index
INDEX_READERS = {
    "classify": lambda bad: classify(_fresh_hyp()[0].gcm, (0, bad)),
    "is_special": lambda bad: is_special(_fresh_hyp()[0].gcm, (0, 1, bad)),
    "component_type": lambda bad: component_type(_fresh_hyp()[0].gcm, (bad,)),
    "normalize_face": lambda bad: FC.normalize_face(_fresh_hyp()[1], (1, 0, bad)),
    "standard_face": lambda bad: FC.standard_face(_fresh_hyp()[0], (bad,)),
    "right_descent": lambda bad: _fresh_hyp()[1].right_descent(bad),
    "left_descent": lambda bad: _fresh_hyp()[1].left_descent(bad),
}


@pytest.mark.parametrize("reader", list(INDEX_READERS))
@pytest.mark.parametrize("bad,message", [
    (-1, "simple index 0 out of range 1..3"),
    (3, "simple index 4 out of range 1..3"),
    (True, "simple index True is not an integer"),
    (0.5, "simple index 0.5 is not an integer"),
    ("1", "simple index '1' is not an integer"),
], ids=["minus-one", "n", "true", "half", "str"])
def test_every_index_reader_rejects_a_bad_index(reader, bad, message):
    # is_special(HYP, (0, 1, -1)) was True, component_type((-1,)) FIN,
    # right_descent(-1) read a row that is no simple coordinate, True was
    # read as node 2 and classify((5,)), 0.5 and "1" were raw exceptions
    with pytest.raises(DomainError, match=re.escape(message)):
        INDEX_READERS[reader](bad)


@pytest.mark.parametrize("call,got", [
    (lambda d: special_sets(d), "RootDatum"),
    (lambda d: classify(d), "RootDatum"),
    (lambda d: is_special(d, (0, 1)), "RootDatum"),
    (lambda d: component_type(d, (0,)), "RootDatum"),
    (lambda d: special_sets(d.gcm.a), "tuple"),
], ids=["special_sets", "classify", "is_special", "component_type", "special_sets-rows"])
def test_gcm_readers_take_a_gcm_alone(call, got):
    # each was a raw AttributeError: 'RootDatum' object has no attribute 'a'
    # ('tuple' object has no attribute 'n' on rows), and no cache is read
    hyp = build_realization(HYPERBOLIC_ROWS)
    before = (cartan._classify_cached.cache_info(), cartan._component_type_cached.cache_info())
    with pytest.raises(DomainError, match=re.escape(
            f"expected a GCM, got {got}: pass datum.gcm for a RootDatum, "
            "validate_and_symmetrize(rows) for rows")):
        call(hyp)
    assert (cartan._classify_cached.cache_info(),
            cartan._component_type_cached.cache_info()) == before


def _scalar_theta_letter():
    hyp = build_realization(HYPERBOLIC_ROWS)
    return HW.theta(HW.build_basis(hyp, (0, 0, 1), 2), HW.GhatWord((HW.Letter("T", 5, 2),)))


@pytest.mark.parametrize("call,message", [
    (lambda: classify(build_realization(HYPERBOLIC_ROWS).gcm, 3),
     "simple index list 3 is not a sequence"),
    (lambda: W.from_word(build_realization(HYPERBOLIC_ROWS), None),
     "simple index list None is not a sequence"),
    (_scalar_theta_letter, "torus coweight coordinate list 5 is not a sequence"),
], ids=["classify", "from_word", "theta-T-letter"])
def test_a_scalar_where_entries_are_read_is_a_domain_error(call, message):
    # each ended in a raw TypeError: 'int' object is not iterable
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_a_type_error_inside_an_iterable_passes_through():
    # an iterable that fails while it runs is not a scalar: its own
    # TypeError, not a DomainError, comes out
    def failing():
        yield 1
        raise TypeError("the iterable failed")

    with pytest.raises(TypeError, match="the iterable failed"):
        cartan.exact_ints(failing(), "weight coordinate")


def test_coroot_covers_the_added_basis_coweights():
    # m = 2n - l basis coweights: h_1, h_2 and the added direction
    aff = build_realization(AFFINE_A1_ROWS)
    assert [aff.coroot(j) for j in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(DomainError, match="coroot index 4 out of range 1..3"):
        aff.coroot(3)


def test_stabilizer_type_is_theta_with_its_perp():
    hyp = build_realization(HYPERBOLIC_ROWS)
    assert hyp.stabilizer_type(()) == (0, 1, 2)
    assert hyp.stabilizer_type((1, 0)) == (0, 1)
    assert hyp.stabilizer_type((0, 1, 2)) == (0, 1, 2)
    rows = ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))
    block = build_realization(rows)
    assert block.stabilizer_type((2, 3)) == (0, 1, 2, 3)
    with pytest.raises(NotSpecial):
        hyp.stabilizer_type((0,))
    assert set(hyp._stab) == {(), (0, 1), (0, 1, 2)}


def _reference_components(gcm, subset):
    """The components of subset, each with its type by the reference
    three-LP typing, ordered by their smallest node."""
    a = gcm.a
    out, left = [], list(subset)
    while left:
        comp, stack = {left[0]}, [left[0]]
        while stack:
            i = stack.pop()
            for j in left:
                if j not in comp and a[i][j]:
                    comp.add(j)
                    stack.append(j)
        left = [i for i in left if i not in comp]
        c = tuple(sorted(comp))
        out.append((c, ref.component_type(gcm, c)))
    return tuple(out)


@pytest.mark.parametrize("name", ["A2", "affine-A1", "hyperbolic-3", "D8++"])
def test_classify_and_is_special_on_every_subset(name):
    # each subset given reversed and with a repeat reads as the sorted subset
    from test_weyl import KERNEL_DATA
    rows = {"A2": A2_ROWS, "affine-A1": AFFINE_A1_ROWS, "hyperbolic-3": HYPERBOLIC_ROWS,
            "D8++": KERNEL_DATA["D8++"].gcm.a}[name]
    gcm = validate_and_symmetrize(rows)
    n = gcm.n
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            comps = _reference_components(gcm, sub)
            fin = tuple(sorted(i for c, t in comps if t is ComponentType.FIN for i in c))
            cls = classify(gcm, sub[::-1] + sub[:1])
            assert cls.components == comps, sub
            assert cls.theta0 == fin
            assert cls.theta_inf == tuple(i for i in sub if i not in fin)
            assert is_special(gcm, sub[::-1] + sub[-1:]) == (fin == ())
    assert classify(gcm) == classify(gcm, range(n))
