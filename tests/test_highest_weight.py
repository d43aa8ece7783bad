import copy
import pickle
import random
import re
from fractions import Fraction as Fr

import exact_reference as ref
import pytest
from test_slice_reference import read_edges

from kmx import faces as FC, highest_weight as HW, monoids as MO, weyl as W
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, HYPERBOLIC_ROWS,
                        build_realization)
from kmx.errors import (DepthExceeded, DepthTooLarge, DomainError, InternalError,
                        NotDominant, NotFactored, PreconditionViolated, ZeroTorusValue)
from kmx.toric import LatticeMonoid

A2 = build_realization(A2_ROWS)
AFF = build_realization(AFFINE_A1_ROWS)
HYP = build_realization(HYPERBOLIC_ROWS)


def _apply(v, i, sign):
    """e_i v (sign 1) or f_i v (sign -1), through the engine's one step on
    parts keyed by weight space."""
    sl = v.slice
    parts, m = HW._step(sl, {sl.spaces[wt]: u for wt, u in v.parts.items()}, i, sign)
    return HW.Vector(sl, {sp.weight: tuple(u) for sp, u in parts.items()}, m * v.den)


# -- weights and multiplicities ----------------------------------------------------


def test_root_multiplicities_finite_and_affine():
    assert HW.root_multiplicities(A2, 4) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    rm = HW.root_multiplicities(AFF, 5)
    # real roots m delta +- alpha_1 have multiplicity 1; so does every n delta
    for b, m in rm.items():
        assert m == 1
    assert (1, 1) in rm and (2, 2) in rm and (2, 1) in rm and (3, 2) in rm
    assert (2, 0) not in rm


def test_real_roots_mult_one_spot_check():
    roots = HW.real_roots_with_witness(HYP, 4)
    rm = HW.root_multiplicities(HYP, 4)
    for b in roots:
        if all(c >= 0 for c in b):
            assert rm.get(b) == 1, b


def test_real_roots_keep_their_height_bound():
    # heights 0 and -3 both gave the two simple roots, and 1.5 was accepted
    assert HW.real_roots_with_witness(A2, 0) == {}
    assert HW.real_roots_with_witness(A2, -3) == {}
    assert set(HW.real_roots_with_witness(A2, 1)) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert set(HW.real_roots_with_witness(A2, 2)) == {
        (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    for bad in (1.5, "2", True):
        with pytest.raises(DomainError, match=re.escape(f"height {bad!r} is not an integer")):
            HW.real_roots_with_witness(A2, bad)


def test_weights_and_mults_examples():
    assert HW.weights_and_mults(A2, (1, 0), 3) == {
        (1, 0): 1, (-1, 1): 1, (0, -1): 1}
    table = HW.weights_and_mults(A2, (1, 1), 2)
    assert table[(1, 1)] == 1
    assert table[(0, 0)] == 2  # mult of hw - alpha_1 - alpha_2
    assert HW.weights_and_mults(AFF, (1, 0, 0), 1) == {
        (1, 0, 0): 1, (-1, 2, 0): 1}


def test_weights_reject_nondominant():
    with pytest.raises(NotDominant):
        HW.weights_and_mults(A2, (-1, 0), 2)
    with pytest.raises(NotDominant, match="^highest weight needs 2 coordinates$"):
        HW.weights_and_mults(A2, (1, 0, 0), 2)
    # coordinates beyond the coroots are unconstrained
    HW.weights_and_mults(AFF, (1, 0, -5), 1)


# -- slices ------------------------------------------------------------------------


def test_build_basis_examples():
    sl = HW.build_basis(A2, (1, 0), 2)
    assert sum(sl.dims().values()) == 3
    v = sl.highest_vector()
    assert not _apply(v, 0, -1).is_zero()
    assert _apply(v, 1, -1).is_zero()  # <f_2 v | f_2 v> = Lambda_1(h_2) = 0

    sl = HW.build_basis(AFF, (1, 0, 0), 1)
    assert sl.dims() == {(1, 0, 0): 1, (-1, 2, 0): 1}

    sl = HW.build_basis(HYP, (0, 0, 1), 0)
    assert sl.dims() == {(0, 0, 1): 1}
    assert sl.spaces[(0, 0, 1)].gram == ((Fr(1),),)


def test_freudenthal_vs_gram_rank_to_depth_four():
    for datum, hw in ((A2, (1, 0)), (A2, (1, 1)), (AFF, (1, 0, 0)),
                      (HYP, (0, 0, 1))):
        assert HW.build_basis(datum, hw, 4).dims() \
            == HW.weights_and_mults(datum, hw, 4)


def _assert_contravariant(sl):
    """<e_i x | y> = <x | f_i y> on every pair of basis vectors, with the
    (ints, den) operator matrices cross-multiplied: lhs / de == rhs / df."""
    datum = sl.datum
    for wt, sp in sl.spaces.items():
        for i in range(datum.n):
            if i not in sp.up:
                continue
            _, em, de = sp.up[i]
            up = tuple(wt[j] + datum.alpha[i][j] for j in range(datum.m))
            usp = sl.spaces[up]
            _, fm, df = usp.down[i]
            for a in range(sp.dim):
                for b in range(usp.dim):
                    lhs = sum(usp.gram[r][b] * em[r][a] for r in range(usp.dim))
                    rhs = sum(sp.gram[a][c] * fm[c][b] for c in range(sp.dim))
                    assert lhs * df == rhs * de, (wt, i, a, b)


ORACLE_ALGEBRAS = {
    "A2": A2_ROWS,
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "A1^(1)": AFFINE_A1_ROWS,
    "A2^(2)": ((2, -4), (-1, 2)),
    "A2^(1)": ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
    "hyperbolic-3": HYPERBOLIC_ROWS,
    "A3^(1)": ((2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2)),
}
# every rank-2 and rank-3 algebra at depth 8; A3^(1), past the default rank
# guard, with rho at depth 6
ORACLE_CASES = [(alg, hw, 8) for alg in ORACLE_ALGEBRAS if alg != "A3^(1)"
                for hw in ("rho", "L1")] + [("A3^(1)", "rho", 6)]


@pytest.mark.parametrize("alg,hw_name,depth", ORACLE_CASES,
                         ids=[f"{a}-{h}-{d}" for a, h, d in ORACLE_CASES])
def test_freudenthal_vs_gram_rank_to_depth_eight(alg, hw_name, depth):
    """Both multiplicity routes agree past the heights where the Peterson
    coefficient (b | b - 2 rho) vanishes off the roots (2 theta in A2), and
    the slice's operator matrices are adjoint under its Gram matrices."""
    datum = build_realization(ORACLE_ALGEBRAS[alg])
    hw = datum.rho() if hw_name == "rho" else datum.fundamental_weight(0)
    cap = depth if datum.n > HW.DEFAULT_MAX_RANK else None  # lifts the rank guard
    sl = HW.build_basis(datum, hw, depth, max_depth=cap)
    assert sl.dims() == HW.weights_and_mults(datum, hw, depth, max_depth=cap)
    _assert_contravariant(sl)


def test_root_multiplicities_a2_to_height_eight():
    assert HW.root_multiplicities(A2, 8) == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


MULT_ALGEBRAS = {**ORACLE_ALGEBRAS, "H(3,3)": ((2, -3), (-3, 2)),
                 "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))}


@pytest.mark.parametrize("alg", MULT_ALGEBRAS)
def test_root_multiplicities_match_peterson_to_height_ten(alg):
    """The Weyl-denominator multiplicities equal Peterson's recurrence, kept
    in exact_reference, at every height up to 10; H(3,3) reaches
    multiplicity 16 there."""
    from exact_reference import root_multiplicities as peterson
    datum = build_realization(MULT_ALGEBRAS[alg])
    ref = peterson(datum, 10)
    assert HW.root_multiplicities(datum, 10) == ref
    if alg == "H(3,3)":
        assert max(ref.values()) == 16
    for h in (5, 8):
        assert HW.root_multiplicities(datum, h) == {b: m for b, m in ref.items()
                                                    if sum(b) <= h}


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS)
def test_root_multiplicities_as_the_scanned_recurrence(alg):
    """Looking g_{b - delta} up gives what comparing every delta of the
    denominator with b entry by entry gave, to height 8."""
    datum = build_realization(ORACLE_ALGEBRAS[alg])
    assert HW.root_multiplicities(datum, 8) == ref.scanned_root_multiplicities(datum, 8)


def test_negative_depth_is_a_domain_error():
    for build in (HW.build_basis, HW.weights_and_mults, HW.ModuleSlice):
        with pytest.raises(DomainError, match="depth -1 is negative"):
            build(A2, (1, 0), -1)
        # a negative cap was read as a cap: DepthTooLarge("depth 2 over the
        # requested cap -3")
        with pytest.raises(DomainError, match="max depth -3 is negative"):
            build(A2, (1, 0), 2, max_depth=-3)


def test_contravariance_all_pairs():
    for datum, hw in ((A2, (1, 1)), (AFF, (1, 0, 0))):
        _assert_contravariant(HW.build_basis(datum, hw, 4))


def _assert_gram_nonsingular_and_symmetric(sl):
    """Every basis Gram matrix of the slice is an int, symmetric matrix with
    a nonzero determinant: the contravariant form is nondegenerate on L(hw).
    The build picks its basis without assuming this, so the tests check it."""
    for sp in sl.spaces.values():
        assert sp.gram == tuple(tuple(row) for row in zip(*sp.gram))
        assert all(type(x) is int for row in sp.gram for x in row)
        assert ref.det(sp.gram) != 0


def test_gram_nonsingular_and_symmetric():
    from test_slice_reference import SPECS, _slice
    _assert_gram_nonsingular_and_symmetric(HW.build_basis(AFF, (1, 0, 0), 4))
    for spec in SPECS:
        _assert_gram_nonsingular_and_symmetric(_slice(HW.ModuleSlice, *spec))


# -- operator application ------------------------------------------------------------


def test_apply_generator_examples():
    # Idem(X) acts as the identity
    sl = HW.build_basis(A2, (1, 1), 3)
    word = HW.GhatWord((HW.idem(FC.full_cone(A2)),))
    (rows, cols), mat = HW.evaluate_word(sl, word)
    assert all(mat[r][c] == (1 if r == c else 0)
               for r in range(len(rows)) for c in range(len(cols)))

    # affine: Idem(edge) annihilates the whole module
    slA = HW.build_basis(AFF, (1, 0, 0), 3)
    word = HW.GhatWord((HW.idem(FC.standard_face(AFF, (0, 1))),))
    _, mat = HW.evaluate_word(slA, word)
    assert all(x == 0 for row in mat for x in row)

    # A2: exp(t f_1) v = v + t f_1 v, nilpotency degree 1 on the top vector
    sl = HW.build_basis(A2, (1, 0), 2)
    out = HW.apply_word(HW.GhatWord((HW.xminus(0, Fr(3, 2)),)),
                        sl.highest_vector())
    assert len(out.parts) == 2


def test_torus_and_theta_examples():
    sl = HW.build_basis(A2, (1, 0), 2)
    assert HW.theta(sl, HW.GhatWord((HW.torus_letter(A2.coroot(0), Fr(7)),))) == 7
    assert HW.theta(sl, HW.GhatWord(())) == 1
    slA = HW.build_basis(AFF, (1, 0, 0), 2)
    c = FC.standard_face(AFF, (0, 1))
    assert HW.theta(slA, HW.GhatWord((HW.idem(c),))) == 0


def test_depth_errors():
    sl = HW.build_basis(AFF, (1, 0, 0), 2)
    v = sl.highest_vector()
    word = HW.GhatWord((HW.xminus(0, 1), HW.xminus(1, 1), HW.xminus(0, 1)))
    with pytest.raises(DepthExceeded):
        HW.apply_word(word, v)
    with pytest.raises(DepthTooLarge):
        HW.build_basis(AFF, (1, 0, 0), 99)


def test_depth_exceeded_names_the_weight_that_left_the_window():
    sl = HW.build_basis(AFF, (1, 0, 0), 2)
    word = HW.GhatWord((HW.xminus(0, 1), HW.xminus(1, 1), HW.xminus(0, 1)))
    with pytest.raises(DepthExceeded) as err:
        HW.apply_word(word, sl.highest_vector())
    wt = err.value.weight
    assert wt not in sl.spaces and wt in read_edges(sl)[2]
    assert AFF.weight_height((1, 0, 0), wt) == err.value.needed == 3
    assert str(err.value) == "needs module depth >= 3, slice has 2"
    assert DepthExceeded(needed=3, depth=2).weight is None


def test_depth_certified_zero_at_boundary():
    # the finite A2 module ends at height 2; lowering at the boundary is a
    # certified zero, not a DepthExceeded
    sl = HW.build_basis(A2, (1, 0), 2)
    low = (0, -1)
    unit = HW.Vector(sl, {low: (1,)})
    assert _apply(unit, 0, -1).is_zero()
    assert _apply(unit, 1, -1).is_zero()


def _minus(wt, k, alpha):
    return tuple(x - k * a for x, a in zip(wt, alpha))


def test_exponential_letters_raise_at_the_first_term_past_the_window():
    # exp(-2/3 f_1) on the top v of L(3 Lambda_1) of affine A1: f_1 v and
    # f_1^2 v lie inside the depth-2 window, f_1^3 v is the first term past it
    sl = HW.ModuleSlice(AFF, (3, 0, 0), 2)
    with pytest.raises(DepthExceeded) as err:
        HW.apply_letter(HW.xminus(0, Fr(-2, 3)), sl.highest_vector())
    assert err.value.weight == _minus(sl.hw, 3, AFF.alpha[0]) in read_edges(sl)[2]
    assert err.value.needed == 3
    # raising never leaves a genuine window, so the e_i branch of the guard
    # is reached on a slice doctored to mark the e_1 edge at hw - alpha_1
    # past the window: exp(e_1) on f_1^2 v keeps its first term and raises
    # at the second
    sl = HW.ModuleSlice(A2, (2, 0), 2)
    low, mid = _minus(sl.hw, 2, A2.alpha[0]), _minus(sl.hw, 1, A2.alpha[0])
    sl.spaces[mid].up[0] = HW._BEYOND
    with pytest.raises(DepthExceeded) as err:
        HW.apply_letter(HW.xplus(0, Fr(3, 2)), HW.Vector(sl, {low: (1,)}))
    assert err.value.weight == sl.hw


def test_a_series_past_its_bound_is_an_internal_error():
    # on L(6 Lambda_1) of A2, exp(f_1) of the top and exp(e_1) of the
    # bottom of the 1-string each have seven terms; the bound 2 depth + 4
    # of a slice whose depth is read as 1 stops them at the sixth
    sl = HW.ModuleSlice(A2, (6, 0), 6)
    top, bottom = sl.highest_vector(), HW.Vector(sl, {_minus(sl.hw, 6, A2.alpha[0]): (1,)})
    want = [HW.apply_letter(HW.xminus(0, 1), top), HW.apply_letter(HW.xplus(0, 1), bottom)]
    sl.depth = 1
    for letter, v in ((HW.xminus(0, 1), top), (HW.xplus(0, 1), bottom)):
        with pytest.raises(InternalError, match="exponential failed to terminate"):
            HW.apply_letter(letter, v)
    sl.depth = 2
    assert [HW.apply_letter(HW.xminus(0, 1), top),
            HW.apply_letter(HW.xplus(0, 1), bottom)] == want


def test_weight_string_trichotomy():
    """Real-root strings through face weights match the three displayed cases."""
    total_checked = 0
    for datum, hw, depth in ((AFF, (1, 0, 0), 6), (HYP, (0, 0, 1), 6)):
        sl = HW.build_basis(datum, hw, depth, max_depth=depth)
        weights = set(sl.spaces)
        roots = HW.real_roots_with_witness(datum, 2)
        faces = [FC.standard_face(datum, t) for t in datum.special_sets()]
        faces += [FC.act_face(W.from_word(datum, word), f)
                  for f in list(faces) for word in ((0,), (datum.n - 1,))]
        checked = 0
        for face in faces:
            cvec = face.exposing()
            for root, (u, i) in sorted(roots.items()):
                alpha = tuple(sum(root[k] * datum.alpha[k][j] for k in range(datum.n))
                              for j in range(datum.m))
                in_span = all(datum.pair(alpha, h) == 0 for h in face.span_normals())
                if in_span:
                    continue
                h_alpha = u.act_coweight(datum.coroot(i))
                for mu in sorted(weights):
                    if datum.pair(mu, cvec) != 0:
                        continue  # mu must lie on the face
                    pairing = datum.pair(mu, h_alpha)
                    lo = min(0, -int(pairing))
                    hi = max(0, -int(pairing))
                    # predicted string must fit inside the stored window
                    ends = [tuple(mu[j] + k * alpha[j] for j in range(datum.m))
                            for k in (lo - 1, hi + 1, lo, hi)]
                    hts = [datum.weight_height(hw, e) for e in ends]
                    if any(h is None or h > depth for h in hts[2:]) \
                            or any(h is not None and h > depth for h in hts[:2]):
                        continue
                    string = {k for k in range(lo - 1, hi + 2)
                              if tuple(mu[j] + k * alpha[j]
                                       for j in range(datum.m)) in weights}
                    assert string == set(range(lo, hi + 1)), (root, mu, pairing)
                    checked += 1
        total_checked += checked
    assert total_checked > 10


def test_highest_line_normalizer_instances():
    """Words from the parabolic-monoid generators fix the highest line."""
    datum = HYP
    hw = datum.fundamental_weight(2)  # facet type J = {1,2}
    sl = HW.build_basis(datum, hw, 3)
    v = sl.highest_vector()
    jinf = (0, 1)
    gens = [HW.xplus(0, Fr(2)), HW.xplus(1, Fr(1)), HW.xplus(2, Fr(1)),
            HW.torus_letter(datum.coroot(0), Fr(3)),
            HW.idem(FC.standard_face(datum, jinf)),
            HW.nsimple(0), HW.nsimple(1)]
    rng = random.Random(51)
    for _ in range(25):
        word = HW.GhatWord(tuple(rng.choice(gens) for _ in range(3)))
        out = HW.apply_word(word, v)
        assert set(out.parts) <= {sl.hw}
        assert out.parts and out.parts[sl.hw][0] != 0
    # a lowering generator outside the parabolic moves the line
    moved = HW.apply_word(HW.GhatWord((HW.xminus(2, Fr(1)),)), v)
    assert set(moved.parts) != {sl.hw}
    # and the edge idempotent annihilates it (its type is not inside J)
    killed = HW.apply_word(
        HW.GhatWord((HW.idem(FC.standard_face(datum, (0, 1, 2))),)), v)
    assert killed.is_zero()


def test_unipotent_radical_fixes_parabolic_submodule():
    """Raising exponentials with roots outside J fix the J-submodule U(n_J^-)v."""
    datum = HYP
    jset = (0, 1)
    hw = datum.fundamental_weight(0)
    sl = HW.build_basis(datum, hw, 3)
    # basis of L_J: lowering words using only indices in J
    vecs = [sl.highest_vector()]
    frontier = [sl.highest_vector()]
    for _ in range(3):
        new = []
        for v in frontier:
            for j in jset:
                img = _apply(v, j, -1)
                if not img.is_zero():
                    new.append(img)
        vecs.extend(new)
        frontier = new
    roots = HW.real_roots_with_witness(datum, 3)
    checked = 0
    for root, (u, i) in sorted(roots.items()):
        if all(c >= 0 for c in root) and any(root[k] for k in range(datum.n)
                                             if k not in jset):
            n = MO.nhat_from(u)
            word = HW.GhatWord(tuple(HW.nhat_letters(n) + [HW.xplus(i, Fr(1))]
                                     + HW.nhat_letters(MO.nhat_inv(n))))
            for v in vecs:
                try:
                    out = HW.apply_word(word, v)
                except DepthExceeded:
                    continue
                assert out.parts == v.parts
                checked += 1
    assert checked > 5


# -- probes and cells ----------------------------------------------------------------


def test_probe_equal_examples():
    res = HW.probe_equal(
        A2, HW.GhatWord((HW.nsimple(0), HW.nsimple(0))),
        HW.GhatWord((HW.torus_letter(A2.coroot(0), Fr(-1)),)),
        [((1, 0), 2), ((1, 1), 4)])
    assert isinstance(res, HW.EqualOnProbes)

    res = HW.probe_equal(A2, HW.GhatWord((HW.xplus(0, Fr(1)),)), HW.GhatWord(()),
                         [((1, 0), 2)])
    assert isinstance(res, HW.Distinct)
    assert res.left != res.right
    # the witness coefficient is the raising matrix element <v|e_1 f_1 v> = 1
    assert {res.left, res.right} == {Fr(0), Fr(1)}


def test_distinct_witness_is_row_major_first():
    # exp(f_1) exp(e_1) against the identity on L(Lambda_1) of A2: the top
    # column differs first at row 1 (f_1 v), the f_1 v column at row 0 (v);
    # the witness is the row-major first entry, in the later column
    word = HW.GhatWord((HW.xminus(0, Fr(1)), HW.xplus(0, Fr(1))))
    sl = HW.build_basis(A2, (1, 0), 2)
    (rows, cols), mat = HW.evaluate_word(sl, word)
    eye = [[Fr(int(r == c)) for c in range(len(cols))] for r in range(len(rows))]
    first_col = min(c for c in range(len(cols))
                    if any(mat[r][c] != eye[r][c] for r in range(len(rows))))
    assert first_col == 0 and mat[0][0] == 1 and mat[1][0] == 1
    res = HW.probe_equal(A2, word, HW.GhatWord(()), [((1, 0), 2)])
    assert res == HW.Distinct(probe=((1, 0), 2), row=rows[0], col=cols[1],
                              left=Fr(1), right=Fr(0))
    assert res == ref.probe_equal(A2, word, HW.GhatWord(()), [((1, 0), 2)])


def _outcome(f, *args):
    """f(*args), or the (needed, depth, weight) of the DepthExceeded it
    raises."""
    try:
        return f(*args)
    except DepthExceeded as e:
        return ("DepthExceeded", e.needed, e.depth, e.weight)


def test_word_columns_match_the_dense_reference():
    """evaluate_word and probe_equal against the dense matrices and the
    row-major scan of `exact_reference`, on seeded X+/X-/T/N/E words of
    one to four letters, slices of depth 1-4 and column windows None, 0, 1
    and 2 on the three data of `kmx verify`."""
    from test_verify_legs import DATA, _rand_word

    rng = random.Random(1700)
    kinds = []
    for _, datum in DATA:
        hws = [tuple(int(j == k) for j in range(datum.m)) for k in range(datum.n)]
        hws.append(tuple(int(j < datum.n) for j in range(datum.m)))
        for _ in range(300):
            hw, depth = rng.choice(hws), rng.randrange(1, 5)
            hmax = rng.choice([None, 0, 1, 2])
            w1 = _rand_word(rng, datum)
            # a third of the pairs are one word twice
            w2 = w1 if rng.randrange(3) == 0 else _rand_word(rng, datum)
            sl = HW.build_basis(datum, hw, depth)
            assert _outcome(HW.evaluate_word, sl, w1, hmax) == \
                _outcome(ref.evaluate_word, sl, w1, hmax)
            probes = [(hw, depth, hmax)]
            got = _outcome(HW.probe_equal, datum, w1, w2, probes)
            assert got == _outcome(ref.probe_equal, datum, w1, w2, probes), (w1, w2)
            kinds.append(type(got).__name__)
    assert set(kinds) == {"tuple", "EqualOnProbes", "Distinct"}


def test_probe_conjugation_identity_sampled():
    rng = random.Random(52)
    c = FC.standard_face(AFF, (0, 1))
    for word in ((0,), (1,), (0, 1)):
        sig = W.from_word(AFF, word)
        n = MO.nhat_from(sig)
        letters = HW.nhat_letters(n) + [HW.idem(c)] + HW.nhat_letters(MO.nhat_inv(n))
        res = HW.probe_equal(AFF, HW.GhatWord(tuple(letters)),
                             HW.GhatWord((HW.idem(FC.act_face(sig, c)),)),
                             [((1, 0, 0), 4, 0), ((0, 1, 0), 4, 0)])
        assert isinstance(res, HW.EqualOnProbes)


def test_bruhat_cell_examples():
    cell = HW.bruhat_cell(A2, HW.GhatWord((HW.xplus(0, Fr(1)),
                                           HW.xplus(1, Fr(1, 2)))))
    assert cell.is_unit() and cell.w.is_identity()

    cell = HW.bruhat_cell(A2, HW.GhatWord((HW.nsimple(0),)))
    assert cell.is_unit() and cell.w == W.simple(A2, 0)

    c = FC.standard_face(AFF, (0, 1))
    cell = HW.bruhat_cell(AFF, HW.GhatWord((HW.idem(c),)))
    assert cell == MO.wm_idempotent(c)


def test_unknown_letters_are_domain_errors():
    # a hand-built letter outside X+, X-, T, N, E was a bare ValueError; it
    # is now rejected when it is built, and a word takes no plain tuple
    with pytest.raises(DomainError, match="unknown letter"):
        HW.Letter("Q", 0)
    with pytest.raises(DomainError, match=re.escape("('Q', 0) is not a Letter")):
        HW.GhatWord((("Q", 0),))


def test_bruhat_cell_factored_and_rewrites():
    datum = HYP
    R12 = FC.standard_face(datum, (0, 1))
    word = HW.GhatWord((
        HW.xminus(2, Fr(1)),                      # lowering prefix
        HW.nsimple(2), HW.torus_letter(datum.coroot(0), Fr(2)), HW.idem(R12),
        HW.xplus(0, Fr(3)),                       # raising suffix
    ))
    cell = HW.bruhat_cell(datum, word)
    expect = MO.nhat_to_wmon(MO.nhat_mul(
        MO.nhat_from(W.simple(datum, 2)), MO.nhat_idempotent(R12)))
    assert cell == expect
    # simple-root exponential with index inside Theta absorbs into the idempotent
    word2 = HW.GhatWord((HW.xplus(0, Fr(5)), HW.idem(R12)))
    assert HW.bruhat_cell(datum, word2) == MO.wm_idempotent(R12)
    # raising letter before a lift is not factored
    with pytest.raises(NotFactored):
        HW.bruhat_cell(datum, HW.GhatWord((HW.xplus(0, Fr(1)), HW.nsimple(1))))
    with pytest.raises(NotFactored):
        HW.bruhat_cell(datum, HW.GhatWord((HW.nsimple(1), HW.xminus(2, Fr(1)),
                                           HW.nsimple(1))))


def test_bruhat_cell_torus_commutes_from_anywhere():
    datum = HYP
    R12 = FC.standard_face(datum, (0, 1))
    t = HW.torus_letter(datum.coroot(0), Fr(2))
    base = HW.GhatWord((HW.xminus(2, Fr(1)), HW.nsimple(2), HW.idem(R12),
                        HW.xplus(2, Fr(3))))
    expect = HW.bruhat_cell(datum, base)
    # the torus letter lands in the same cell wherever it sits
    for pos in range(5):
        letters = list(base.letters)
        letters.insert(pos, t)
        assert HW.bruhat_cell(datum, HW.GhatWord(tuple(letters))) == expect


def test_bruhat_cell_distinct_cells_have_distinct_operators():
    datum = AFF
    w1 = HW.GhatWord((HW.nsimple(0),))
    w2 = HW.GhatWord((HW.nsimple(1),))
    assert HW.bruhat_cell(datum, w1) != HW.bruhat_cell(datum, w2)
    res = HW.probe_equal(datum, w1, w2, [((1, 0, 0), 3, 1)])
    assert isinstance(res, HW.Distinct)
    # quotienting by sampled Borel factors preserves both the cell and the
    # operator-level distinction
    rng = random.Random(53)
    for _ in range(10):
        left = tuple(HW.xminus(rng.randrange(2), Fr(rng.randrange(1, 3)))
                     for _ in range(rng.randrange(2)))
        right = tuple(HW.xplus(rng.randrange(2), Fr(rng.randrange(1, 3)))
                      for _ in range(rng.randrange(2)))
        tw = (HW.torus_letter(datum.coroot(rng.randrange(3)), Fr(2)),)
        dressed1 = HW.GhatWord(left + tw + w1.letters + right)
        assert HW.bruhat_cell(datum, dressed1) == HW.bruhat_cell(datum, w1)
        try:
            res = HW.probe_equal(datum, dressed1, w2, [((1, 0, 0), 4, 0)])
        except Exception:
            continue
        assert isinstance(res, HW.Distinct)


def test_format_word_reads_each_letter_shape():
    # an unknown letter was dropped from the text, and a letter short of
    # fields ended in a raw IndexError; neither can now be built, so
    # format_word only prints
    with pytest.raises(DomainError, match=re.escape("unknown letter ('Q', 1)")):
        HW.Letter("Q", 1)
    with pytest.raises(DomainError, match=re.escape("N letter needs 2 fields, not 1")):
        HW.Letter("N")
    assert HW.format_word(HW.GhatWord((HW.nsimple(1), HW.Letter("X+", 0, 2)))) == "N(2) X+(1;2)"


FORMAT_ONLY_BAD = [
    # each ended in a raw TypeError or AttributeError, or printed a letter
    # that parse_word rejects or reads as another letter
    (("N", "a"), "simple index 'a' is not an integer"),
    (("E", 3), "idempotent letter on 3, not on a Face"),
    (("T", 5, 2), "torus coweight coordinate list 5 is not a sequence"),
    (("X+", 0, 0.5), "letter parameter 0.5 is not a Fraction or an int"),
    (("X-", -1, 1), "simple index 0 is below 1"),
    (("N", True), "simple index True is not an integer"),
]


@pytest.mark.parametrize("letter,message", FORMAT_ONLY_BAD)
def test_format_word_reads_every_field_of_a_letter(letter, message):
    # each letter is rejected when it is built, so no word holds it
    with pytest.raises(DomainError, match=re.escape(message)):
        HW.Letter(*letter)
    with pytest.raises(DomainError, match=re.escape(f"{letter!r} is not a Letter")):
        HW.GhatWord((HW.nsimple(0), letter))


def _any_letter_word(rng, datum):
    """One to six letters of every kind: T on a unit and on a dense coweight."""
    letters = []
    for _ in range(rng.randint(1, 6)):
        kind, i = rng.randrange(6), rng.randrange(datum.n)
        t = Fr(rng.choice((1, -2, 3, 5)), rng.choice((1, 2, 3)))
        if kind == 0:
            letters.append(HW.xplus(i, t))
        elif kind == 1:
            letters.append(HW.xminus(i, t))
        elif kind == 2:
            letters.append(HW.torus_letter(datum.coroot(i), t))
        elif kind == 3:
            h = tuple(rng.randint(-2, 2) for _ in range(datum.m))
            letters.append(HW.torus_letter(h, t))
        elif kind == 4:
            letters.append(HW.nsimple(i))
        else:
            w = W.from_word(datum, [rng.randrange(datum.n) for _ in range(rng.randint(0, 4))])
            letters.append(HW.idem(FC.normalize_face(w, rng.choice(datum.special_sets()))))
    return HW.GhatWord(tuple(letters))


@pytest.mark.parametrize("datum", [A2, AFF, HYP], ids=["A2", "affine-A1", "rank3-hyperbolic"])
def test_format_word_is_read_back_by_parse_word(datum):
    rng = random.Random(40)
    for _ in range(40):
        word = _any_letter_word(rng, datum)
        text = HW.format_word(word)
        assert HW.parse_word(datum, text) == word, text


def test_word_syntax_roundtrip():
    txt = "X+(1;3/2) X-(2;-1) T(h1;2) N(1) E(w=; theta=1,2)"
    word = HW.parse_word(AFF, txt)
    assert HW.format_word(word) == txt
    word2 = HW.parse_word(AFF, "T(v=1,0,-2;1/3)")
    assert word2.letters[0][1] == (1, 0, -2)
    with pytest.raises(DomainError):
        HW.parse_word(AFF, "Q(1)")


def test_rank_guard_default_and_override():
    from kmx.errors import SizeGuard
    rows = ((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))
    big = build_realization(rows)
    hw = (1, 0, 0, 0, 0, 0)
    with pytest.raises(SizeGuard):
        HW.build_basis(big, hw, 2)
    sl = HW.build_basis(big, hw, 2, max_depth=2)  # explicit cap lifts the guard
    assert sl.dims() == HW.weights_and_mults(big, hw, 2, max_depth=2)


def test_cached_slice_still_passes_the_guards():
    # a slice cached under an explicit cap is not handed out without one
    from kmx.errors import SizeGuard
    d4 = build_realization(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))
    hw = (1, 0, 0, 0)
    sl = HW.build_basis(d4, hw, 2, max_depth=2)
    assert HW.build_basis(d4, hw, 2, max_depth=2) is sl
    with pytest.raises(SizeGuard):
        HW.build_basis(d4, hw, 2)
    with pytest.raises(SizeGuard):
        HW.ModuleSlice(d4, hw, 2)
    with pytest.raises(DepthTooLarge):
        HW.build_basis(d4, hw, 2, max_depth=1)
    with pytest.raises(NotDominant):
        HW.build_basis(d4, (-1, 0, 0, 0), 2, max_depth=2)


@pytest.mark.parametrize("vec,shown", [((Fr(3, 2), 0), "Fraction(3, 2)"),
                                       ((1, True), "True"),
                                       ((1, "0"), "'0'")])
def test_integer_vectors_are_not_truncated(vec, shown):
    # (3/2, 0) is rejected, never read as (1, 0)
    for what, build in (("highest weight", lambda: HW.ModuleSlice(A2, vec, 2)),
                        ("highest weight", lambda: HW.build_basis(A2, vec, 2)),
                        ("highest weight", lambda: HW.weights_and_mults(A2, vec, 2)),
                        ("torus coweight", lambda: HW.torus_letter(vec, 2))):
        with pytest.raises(DomainError, match=rf"{what} coordinate {re.escape(shown)} "
                                               "is not an integer"):
            build()


@pytest.mark.parametrize("size", [2.0, True, "2", Fr(2)], ids=repr)
def test_a_size_that_is_not_an_int_is_a_domain_error(size):
    # never a TypeError from range(), and True is not read as 1
    for build in (lambda: HW.build_basis(A2, (1, 0), size),
                  lambda: HW.build_basis(A2, (1, 0), 2, max_depth=size),
                  lambda: HW.weights_and_mults(A2, (1, 0), size),
                  lambda: HW.root_multiplicities(A2, size),
                  lambda: LatticeMonoid([(1, 0)], size)):
        with pytest.raises(DomainError, match=rf"{re.escape(repr(size))} is not an integer"):
            build()


def test_zero_vectors_compare_equal():
    # e_1 of the top vector is zero; it used to keep the source's den 3
    sl = HW.build_basis(A2, (1, 1), 2)
    zero = _apply(HW.Vector(sl, {sl.hw: (1,)}, 3), 0, 1)
    assert zero.is_zero() and zero.den == 1
    assert zero == HW.Vector(sl, {}) == HW.Vector(sl, {sl.hw: (0,)}, 7)
    top = HW.Vector(sl, {sl.hw: (2,)}, 4)
    # the parts below the top cancel, and no zero part is left
    word = HW.GhatWord((HW.xminus(0, Fr(-3, 2)), HW.xminus(0, Fr(3, 2))))
    assert HW.apply_word(word, top) == top
    assert top == HW.Vector(sl, {sl.hw: (1,)}, 2)


@pytest.mark.parametrize("parts,den,message", [
    # a negative den made -v / -1 and v / 1 compare unequal
    ({(1, 1): (1,)}, -1, "denominator -1 is not a positive int"),
    ({(1, 1): (1,)}, 0, "denominator 0 is not a positive int"),
    ({(1, 1): (1,)}, 2.0, "denominator 2.0 is not a positive int"),
    ({(1, 1): (1,)}, True, "denominator True is not a positive int"),
    # apply_word ended in a bare KeyError
    ({(9, 9): (1,)}, 1, r"weight \(9, 9\) is not in the slice"),
    # inner read the part through zip and dropped the 2
    ({(1, 1): (1, 2)}, 1, r"part \(1, 2\) at weight \(1, 1\) has 2 entries, not 1"),
    ({(-1, 2): ()}, 1, "has 0 entries, not 1"),
    ({(1, 1): (0.5,)}, 1, r"part \(0.5,\) at weight \(1, 1\) holds a non-integer"),
    ({(1, 1): (2.0,)}, 1, "holds a non-integer"),
    ({(1, 1): (Fr(1, 2),)}, 1, "holds a non-integer"),
    ({(1, 1): ("1",)}, 1, "holds a non-integer"),
    # a part with no entries to give, or parts that are not a mapping,
    # ended in a raw TypeError or AttributeError
    ({(1, 1): 5}, 1, "part list 5 is not a sequence"),
    ({(1, 1): None}, 1, "part list None is not a sequence"),
    ([((1, 1), (1,))], 1, "are not a mapping"),
    ((1, 1), 1, r"vector parts \(1, 1\) are not a mapping"),
    # a bool entry was kept as it was given
    ({(1, 1): (True,)}, 1, r"part \(True,\) at weight \(1, 1\) holds a non-integer True"),
])
def test_vector_input_outside_its_contract_is_a_domain_error(parts, den, message):
    sl = HW.ModuleSlice(A2, (1, 1), 3)
    with pytest.raises(DomainError, match=message):
        HW.Vector(sl, parts, den)


def test_vector_reads_its_parts_as_int_tuples():
    sl = HW.ModuleSlice(A2, (1, 1), 3)
    assert HW.Vector(sl, {(1, 1): [2]}, 4) == HW.Vector(sl, {(1, 1): (1,)}, 2)
    with pytest.raises(DomainError, match="not of a ModuleSlice"):
        HW.Vector(sl.spaces, {(1, 1): (1,)})


def test_evaluate_word_columns_are_column_images():
    word = HW.parse_word(A2, "X-(1;2) N(2) T(h1;3) X+(2;-1)")
    sl = HW.build_basis(A2, (1, 1), 4)
    (rows, cols), mat = HW.evaluate_word(sl, word)
    assert len(cols) == 8
    for c, (wt, k) in enumerate(cols):
        dim = sl.spaces[wt].dim
        img = HW.apply_word(word, HW.Vector(sl, {wt: tuple(int(j == k) for j in range(dim))}))
        col = {row: mat[r][c] for r, row in enumerate(rows) if mat[r][c]}
        assert col == {(wt2, j): Fr(x, img.den) for wt2, part in img.parts.items()
                       for j, x in enumerate(part) if x}


A2_AFF = build_realization(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))


@pytest.mark.parametrize("datum,hw,depth", [(A2_AFF, (1, 1, 1, 0), 5), (HYP, (1, 0, 0), 8)],
                         ids=["A2^(1)-rho", "hyperbolic-L1"])
def test_evaluate_word_is_the_raw_column_pass(datum, hw, depth):
    # evaluate_word reads the raw images that word_columns wraps as Vectors:
    # the same columns, in the same order, each nonzero entry the Vector's
    # entry, every other row all zero Fractions, and a word that leaves the
    # window raises at the same column, with the same needed and weight
    from test_verify_legs import _rand_word

    rng = random.Random(4800)
    sl = HW.build_basis(datum, hw, depth)
    pos = {row: r for r, row in enumerate(sl.basis_index())}
    # seeded words of one to four letters, and a lowering word long enough
    # to leave the window
    words = [_rand_word(rng, datum) for _ in range(12)]
    words.append(HW.GhatWord(tuple(HW.xminus(k % datum.n, 1) for k in range(depth))))
    kinds = []
    for word in words:
        for hmax in (1, 2):
            try:
                cols = list(HW.word_columns(sl, (word,), hmax))
            except DepthExceeded as e:
                with pytest.raises(DepthExceeded) as got:
                    HW.evaluate_word(sl, word, hmax)
                assert (got.value.needed, got.value.weight) == (e.needed, e.weight)
                kinds.append("beyond")
                continue
            (rows, col_index), mat = HW.evaluate_word(sl, word, hmax)
            assert rows == sl.basis_index()
            assert col_index == tuple((wt, k) for wt, k, _ in cols)
            zero = (Fr(0),) * len(cols)
            want = [list(zero) for _ in rows]
            for c, (_, _, (img,)) in enumerate(cols):
                for wt, part in img.parts.items():
                    for j, x in enumerate(part):
                        want[pos[wt, j]][c] = Fr(x, img.den)
            assert mat == tuple(map(tuple, want))
            assert all(type(x) is Fr for row in mat for x in row)
            zero_rows = [row for row in mat if not any(row)]
            assert zero_rows and all(row == zero for row in zero_rows)
            kinds.append("matrix")
    assert set(kinds) == {"matrix", "beyond"}


def test_weights_past_the_window_have_a_nonzero_gram_matrix():
    # the build marks the weights one step past the window by the weight
    # rule alone, forming nothing there; the marked weights are exactly
    # those where a built space, a nonzero Gram matrix, would lie
    seen = []

    class Recording(HW.ModuleSlice):
        def _build_space(self, lam, h, above):
            seen.append(lam)
            return super()._build_space(lam, h, above)

    for datum, hw, depth in ((A2, (1, 0), 1), (AFF, (1, 0, 0), 3), (HYP, (1, 1, 1), 3)):
        seen.clear()
        sl = Recording(datum, hw, depth)
        beyond = read_edges(sl)[2]  # read before the spaces below link in
        assert all(datum.weight_height(sl.hw, lam) <= depth for lam in seen)
        # the spaces one step past the window, each with the spaces above it
        past: dict = {}
        for wt, sp in sl.spaces.items():
            if sp.height == depth:
                for i in range(datum.n):
                    past.setdefault(_minus(wt, 1, datum.alpha[i]), {})[i] = sp
        # a built space there is a nonzero Gram matrix there (int_rref
        # selects a pivot); building it links it to the bottom layer of
        # this throwaway slice
        gram_nonzero = {lam for lam, above in past.items()
                        if HW.ModuleSlice._build_space(sl, lam, depth + 1,
                                                       dict(sorted(above.items())))}
        assert beyond == gram_nonzero
        assert beyond  # none of these modules ends inside the window


@pytest.mark.parametrize("datum,hw,depth", [(A2, (1, 0), 1), (AFF, (1, 0, 0), 3),
                                             (HYP, (1, 1, 1), 3), (HYP, (0, 0, 1), 5)],
                         ids=["A2", "affine", "hyperbolic-rho", "hyperbolic-L3"])
def test_the_build_forms_spaces_and_e_images_only_at_weights(datum, hw, depth):
    # _build_space runs once per non-top weight of the window, and e-images
    # are formed only inside it: no pass past the window forms any
    built, inside, e_calls = [], [], []

    class Recording(HW.ModuleSlice):
        def _build_space(self, lam, h, above):
            built.append(lam)
            inside.append(lam)
            try:
                return super()._build_space(lam, h, above)
            finally:
                inside.pop()

        @staticmethod
        def _e_images(above):
            assert inside, "e-images formed outside _build_space"
            e_calls.append(inside[-1])
            return HW.ModuleSlice._e_images(above)

    sl = Recording(datum, hw, depth)
    assert sorted(built) == sorted(wt for wt in sl.spaces if wt != sl.hw)
    assert e_calls == built
    assert read_edges(sl)[2]  # the rule marked the weights past the window


def test_a_dominant_weight_below_the_top_need_not_be_a_weight():
    # Lambda_3 - (alpha_1 + alpha_2) = (0, 0, 2) on the rank-3 hyperbolic
    # matrix is dominant and below Lambda_3, but <Lambda_3, h_i> = 0 on its
    # support {1, 2}, so f_1 and f_2 kill the top: it is no weight
    lam, c = (0, 0, 2), (1, 1, 0)
    assert tuple(x - a - b for x, a, b in zip((0, 0, 1), HYP.alpha[0], HYP.alpha[1])) == lam
    for depth in (2, 4):
        sl = HW.ModuleSlice(HYP, (0, 0, 1), depth)
        assert not sl._is_weight(lam, c)
        assert lam not in sl.dims()
        assert lam not in HW.weights_and_mults(HYP, (0, 0, 1), depth)
        assert lam not in ref.weights_and_mults(HYP, (0, 0, 1), depth)
    # on L(Lambda_1) the same c meets the support of hw: (1, 0, 1) is a weight
    sl = HW.ModuleSlice(HYP, (1, 0, 0), 2)
    assert sl._is_weight((1, 0, 1), c) and sl.dims()[(1, 0, 1)] == 1


def test_a_predicted_weight_with_a_zero_space_is_an_internal_error():
    # a rule that calls every weight one step down a weight meets a zero
    # Gram matrix on L(Lambda_3) of the hyperbolic matrix
    class EveryWeight(HW.ModuleSlice):
        def _is_weight(self, nu, c):
            return True

    with pytest.raises(InternalError, match="predicted weight .* has a zero space"):
        EveryWeight(HYP, (0, 0, 1), 2)


def test_idem_annihilates_iff_type_outside_facet():
    # the face projection kills a whole module exactly when the face type is
    # not contained in the facet type of the highest weight
    datum = HYP
    R12 = FC.standard_face(datum, (0, 1))
    edge = FC.standard_face(datum, (0, 1, 2))
    s3R12 = FC.act_face(W.simple(datum, 2), R12)
    cases = [
        ((0, 0, 1), (0, 1)),   # facet type of Lambda_3 is {1,2}
        ((1, 0, 0), (1, 2)),   # facet type of Lambda_1 is {2,3}
    ]
    for hw, facet in cases:
        sl = HW.build_basis(datum, hw, 4)
        for face in (R12, edge, s3R12):
            word = HW.GhatWord((HW.idem(face),))
            _, mat = HW.evaluate_word(sl, word)
            all_zero = all(x == 0 for row in mat for x in row)
            expect_nonzero = set(face.theta) <= set(facet)
            assert all_zero != expect_nonzero, (hw, face.theta)


def test_classical_dimensions():
    # rank-2 finite fixed points: the 3-dim fundamental and the 8-dim adjoint
    assert sum(HW.build_basis(A2, (1, 0), 4).dims().values()) == 3
    adjoint = HW.build_basis(A2, (1, 1), 4).dims()
    assert sum(adjoint.values()) == 8
    assert adjoint[(0, 0)] == 2


def test_a_hand_built_zero_torus_letter_is_a_zero_torus_value():
    sl = HW.build_basis(A2, (1, 0), 2)
    with pytest.raises(ZeroTorusValue):
        HW.Letter("T", A2.coroot(0), Fr(0))
    with pytest.raises(DomainError, match="torus value 0.5 is not a Fraction or an int"):
        HW.Letter("T", A2.coroot(0), 0.5)
    assert HW.apply_letter(HW.Letter("T", A2.coroot(0), Fr(3)), sl.highest_vector()) \
        == HW.Vector(sl, {sl.hw: (3,)})


def test_letter_indices_and_coweights_are_checked_against_the_datum():
    # f_{-1} was read as a certified zero on L(Lambda_3), so theta came out 1
    sl = HW.build_basis(HYP, (0, 0, 1), 3)
    ok = HW.GhatWord((HW.xplus(2, 1), HW.xminus(2, 1)))
    assert HW.theta(sl, ok) == 2
    word = HW.GhatWord((HW.xplus(3, 1), HW.xminus(3, 1)))
    with pytest.raises(DomainError, match="simple index 4 out of range 1..3"):
        HW.theta(sl, word)
    # an index below 0 fits no datum, so the letter is not built
    for build in (HW.xplus, HW.xminus):
        with pytest.raises(DomainError, match="simple index 0 is below 1"):
            build(-1, 1)
    with pytest.raises(DomainError, match="simple index 0 is below 1"):
        HW.nsimple(-1)
    # xplus(5, 1) ended in IndexError; N applies X+- letters, so is checked too
    a2 = HW.build_basis(A2, (1, 1), 2)
    for letter in (HW.xplus(5, 1), HW.xminus(2, 1), HW.nsimple(2)):
        with pytest.raises(DomainError, match="out of range 1..2"):
            HW.theta(a2, HW.GhatWord((letter,)))
    # a short or long T coweight was zipped with each weight
    assert HW.theta(a2, HW.GhatWord((HW.torus_letter((1, 0), 2),))) == 2
    for h in ((1,), (1, 0, 5)):
        with pytest.raises(DomainError, match="torus coweight needs 2 coordinates"):
            HW.theta(a2, HW.GhatWord((HW.torus_letter(h, 2),)))
    # bruhat_cell read N(-1) and X-(8;1) on A2 without complaint
    full = FC.full_cone(A2)
    for word in ((HW.nsimple(0), HW.idem(full), HW.xminus(7, 1)), (HW.xplus(2, 1),)):
        with pytest.raises(DomainError, match="simple index (3|8) out of range 1..2"):
            HW.bruhat_cell(A2, HW.GhatWord(word))


@pytest.mark.parametrize("probe,message", [
    # a probe short of entries or a str ended in a raw IndexError, and a
    # fourth entry was ignored
    (((1, 0),), "probe ((1, 0),) is not (hw, depth) or (hw, depth, max_height)"),
    ("x", "probe 'x' is not (hw, depth) or (hw, depth, max_height)"),
    (((1, 0), 3, 1, 9), "probe ((1, 0), 3, 1, 9) is not (hw, depth) or"),
    ((), "probe () is not"),
    (7, "probe list 7 is not a sequence"),
])
def test_probe_equal_reads_each_probe_shape(probe, message):
    w = HW.GhatWord((HW.xminus(0, 1),))
    with pytest.raises(DomainError, match=re.escape(message)):
        HW.probe_equal(A2, w, w, [probe])
    # a good probe before the bad one is tried, and the bad one still raises
    with pytest.raises(DomainError, match=re.escape(message)):
        HW.probe_equal(A2, w, w, [((1, 0), 2), probe])
    assert HW.probe_equal(A2, w, w, [[(1, 0), 3, 1]]) == HW.EqualOnProbes((((1, 0), 3),))


def test_an_empty_probe_list_is_a_domain_error():
    # it gave EqualOnProbes(probes=()), an equality verdict with no evidence
    w = HW.GhatWord((HW.xminus(0, 1),))
    for probes in ([], (), iter([])):
        with pytest.raises(DomainError, match="probe list is empty"):
            HW.probe_equal(A2, w, w, probes)


def test_max_height_is_read_as_a_height():
    # "2" was a raw TypeError, 1.5 and True were read as heights, and -1
    # compared no column, so two different words were equal on the probe
    sl = HW.build_basis(A2, (1, 0), 2)
    word = HW.GhatWord((HW.xminus(0, 1),))
    for bad in ("2", 1.5, True):
        with pytest.raises(DomainError, match=re.escape(f"height {bad!r} is not an integer")):
            HW.evaluate_word(sl, word, max_height=bad)
    with pytest.raises(DomainError, match="height -1 is negative"):
        HW.probe_equal(A2, word, HW.GhatWord((HW.xminus(0, 2),)), [((1, 0), 2, -1)])
    assert isinstance(HW.probe_equal(A2, word, HW.GhatWord((HW.xminus(0, 2),)),
                                     [((1, 0), 2, 0)]), HW.Distinct)


# -- one reader per letter -------------------------------------------------------

_FUND = HW.build_basis(A2, (1, 0), 3)  # the whole 3-dim module: no word leaves it
_FOREIGN = FC.standard_face(HYP, (0, 1))

# each public entry that reads words, applied to a word on A2
WORD_ENTRIES = {
    "apply_letter": lambda w: HW.apply_letter(w.letters[0], _FUND.highest_vector()),
    "apply_word": lambda w: HW.apply_word(w, _FUND.highest_vector()),
    "theta": lambda w: HW.theta(_FUND, w),
    "evaluate_word": lambda w: HW.evaluate_word(_FUND, w),
    "word_columns": lambda w: list(HW.word_columns(_FUND, (w,))),
    "probe_equal": lambda w: HW.probe_equal(A2, w, w, [((1, 0), 3)]),
    "bruhat_cell": lambda w: HW.bruhat_cell(A2, w),
}

BAD_LETTERS = [
    (("X+", 0, 0.5), DomainError, "letter parameter 0.5 is not a Fraction or an int"),
    (("X-", 1, 0.5), DomainError, "letter parameter 0.5 is not a Fraction or an int"),
    (("X+", 1, True), DomainError, "letter parameter True is not a Fraction or an int"),
    (("X-", 0, True), DomainError, "letter parameter True is not a Fraction or an int"),
    (("T", (1, 0.5), 2), DomainError, "torus coweight coordinate 0.5 is not an integer"),
    (("Q", 0), DomainError, "unknown letter"),
    # an index that is not an int was read as one or ended in a raw TypeError
    (("N", True), DomainError, "simple index True is not an integer"),
    (("X+", 0.5, 1), DomainError, "simple index 0.5 is not an integer"),
    (("N", 1.0), DomainError, "simple index 1.0 is not an integer"),
    # a wrong shape ended in a raw AttributeError or IndexError, or its extra
    # field was ignored
    (("E", 3), DomainError, "idempotent letter on 3, not on a Face"),
    (("E", "w=1;theta=1,2"), DomainError, "idempotent letter on 'w=1;theta=1,2', not on a Face"),
    (("X+", 0), DomainError, "X+ letter needs 3 fields, not 2"),
    (("T", (1, 0)), DomainError, "T letter needs 3 fields, not 2"),
    ((), DomainError, "unknown letter ()"),
    (("X+", 0, 1, 9), DomainError, "X+ letter needs 3 fields, not 4"),
    (("N", 1, 5), DomainError, "N letter needs 2 fields, not 3"),
    (("E", FC.full_cone(A2), 7), DomainError, "E letter needs 2 fields, not 3"),
]


# well-built letters that do not fit A2: what is left to the word reader
DATUM_BAD = [
    # an E letter on a rank-3 face gave theta 0 on A2 and a bruhat_cell
    # class on that face
    (HW.Letter("E", _FOREIGN), PreconditionViolated, "face of another root datum"),
    (HW.xplus(2, 1), DomainError, "simple index 3 out of range 1..2"),
    (HW.torus_letter((1, 0, 0), 2), DomainError, "torus coweight needs 2 coordinates"),
]


@pytest.mark.parametrize("fields,error,message", BAD_LETTERS)
def test_a_letter_reads_every_field_when_it_is_built(fields, error, message):
    # a float X+- parameter ended in a raw AttributeError in every word entry
    with pytest.raises(error, match=re.escape(message)):
        HW.Letter(*fields)
    # a plain tuple is no letter, so no word holds one
    with pytest.raises(DomainError, match=re.escape(f"{fields!r} is not a Letter")):
        HW.GhatWord((HW.nsimple(0), fields))


@pytest.mark.parametrize("entry", sorted(WORD_ENTRIES))
def test_every_word_entry_reads_hand_built_letters_through_the_one_reader(entry):
    run = WORD_ENTRIES[entry]
    for letter, error, message in DATUM_BAD:
        with pytest.raises(error, match=re.escape(message)):
            run(HW.GhatWord((letter,)))
    # a hand-built Letter with an int parameter is the constructor's letter,
    # whose parameter is a Fraction
    for hand, built in ((HW.Letter("X+", 0, 1), HW.xplus(0, 1)),
                        (HW.Letter("X-", 1, -2), HW.xminus(1, -2)),
                        (HW.Letter("T", [1, 0], 2), HW.torus_letter((1, 0), 2))):
        assert hand == built and type(hand[2]) is Fr, hand
        assert run(HW.GhatWord((hand,))) == run(HW.GhatWord((built,))), hand


def test_a_letter_is_a_tuple_built_once():
    # the builders are Letter with the tag filled in, and check nothing more
    for build, tag in ((HW.xplus, "X+"), (HW.xminus, "X-"), (HW.torus_letter, "T"),
                       (HW.nsimple, "N"), (HW.idem, "E")):
        assert build.func is HW.Letter and build.args == (tag,) and not build.keywords
    letter = HW.xplus(1, Fr(3, 2))
    assert letter == ("X+", 1, Fr(3, 2)) and hash(letter) == hash(("X+", 1, Fr(3, 2)))
    assert HW.torus_letter([1, 0], 2)[1] == (1, 0)  # the coweight is kept as a tuple
    for copied in (copy.copy(letter), pickle.loads(pickle.dumps(letter))):
        assert type(copied) is HW.Letter and copied == letter
    # a word reads its letters by cartan.entries, once, into a tuple
    word = HW.GhatWord([letter, HW.nsimple(0)])
    assert word.letters == (letter, HW.nsimple(0)) and type(word.letters) is tuple
    assert (word * word).letters == word.letters * 2
    with pytest.raises(DomainError, match="letter list 5 is not a sequence"):
        HW.GhatWord(5)


def test_letter_fields_are_read_when_built_and_never_again(monkeypatch):
    # every read of a word re-checked every field of every letter
    calls = []
    read = HW.exact_rationals
    monkeypatch.setattr(HW, "exact_rationals",
                        lambda vals, what: calls.append(what) or read(vals, what))
    sl = HW.build_basis(A2, (1, 1), 4)
    word = HW.GhatWord(tuple((HW.xplus, HW.xminus)[k % 2](k % 2, Fr(k + 1, 2))
                             for k in range(6)))
    assert len(calls) == 6
    for _ in range(10):
        HW.theta(sl, word)
    assert len(calls) == 6
    list(HW.word_columns(sl, (word,)))
    HW.format_word(word)
    assert len(calls) == 6


# each public entry that reads whole words, on something that is not a GhatWord
NOT_WORDS = {
    "apply_word": lambda: HW.apply_word([HW.xplus(0, 1)], _FUND.highest_vector()),
    "theta": lambda: HW.theta(_FUND, (HW.xplus(0, 1),)),
    "evaluate_word": lambda: HW.evaluate_word(_FUND, "N(1)"),
    "word_columns": lambda: list(HW.word_columns(_FUND, ((HW.nsimple(0),),), 0)),
    "bruhat_cell": lambda: HW.bruhat_cell(A2, [HW.nsimple(0)]),
}


@pytest.mark.parametrize("entry", sorted(NOT_WORDS))
def test_a_word_that_is_not_a_ghat_word_is_a_domain_error(entry):
    # a list, tuple or str ended in a raw AttributeError on .letters
    with pytest.raises(DomainError, match="is not a GhatWord"):
        NOT_WORDS[entry]()


# each slice reader, on a slice or a vector that is not one, and what it says
NOT_SLICES = {
    "theta": (lambda v: HW.theta("x", HW.GhatWord(())), "'x' is not a ModuleSlice"),
    "evaluate_word": (lambda v: HW.evaluate_word(None, HW.GhatWord(())),
                      "None is not a ModuleSlice"),
    "word_columns": (lambda v: list(HW.word_columns(3, ())), "3 is not a ModuleSlice"),
    "inner": (lambda v: HW.inner(_FUND, 3, v), "3 is not a Vector"),
    "matrix_coefficient": (lambda v: HW.matrix_coefficient(_FUND, v, [v], HW.GhatWord(())),
                           "is not a Vector"),
}


@pytest.mark.parametrize("entry", sorted(NOT_SLICES))
def test_a_slice_reader_on_a_non_slice_is_a_domain_error(entry):
    # each ended in a raw AttributeError
    call, message = NOT_SLICES[entry]
    with pytest.raises(DomainError, match=re.escape(message)):
        call(_FUND.highest_vector())


def test_vectors_of_another_slice_are_a_precondition_violation():
    # inner raised a raw KeyError, and matrix_coefficient returned 0
    s11, s20 = HW.build_basis(A2, (1, 1), 3), HW.build_basis(A2, (2, 0), 3)
    v11, v20 = s11.highest_vector(), s20.highest_vector()
    for read in (lambda: HW.inner(s11, v20, v20), lambda: HW.inner(s11, v11, v20),
                 lambda: HW.matrix_coefficient(s11, v11, v20, HW.GhatWord(())),
                 lambda: HW.matrix_coefficient(s11, v20, v11, HW.GhatWord(()))):
        with pytest.raises(PreconditionViolated, match="vector of another slice"):
            read()
    assert HW.matrix_coefficient(s11, v11, v11, HW.GhatWord(())) == 1


def test_each_word_is_read_once_and_reduced_once(monkeypatch):
    # word_columns reads every letter of its words once, however many
    # columns it yields, and each applied word is reduced once, at its end,
    # by `_vector`, which forms its Vector without the public checks;
    # evaluate_word reads the raw pass and forms no Vector at all
    reads, reduced, checked = [], [], []
    read_word, vector, post_init = HW._read_word, HW._vector, HW.Vector.__post_init__
    monkeypatch.setattr(HW, "_read_word",
                        lambda datum, word: reads.extend(word.letters) or read_word(datum, word))
    monkeypatch.setattr(HW, "_vector", lambda *raw: reduced.append(raw) or vector(*raw))
    monkeypatch.setattr(HW.Vector, "__post_init__",
                        lambda self: checked.append(self) or post_init(self))
    sl = HW.build_basis(A2, (1, 1), 4)
    words = [HW.parse_word(A2, "X-(1;2) N(2) T(h1;3) X+(2;-1)"), HW.parse_word(A2, "N(1) N(2)")]
    letters = [letter for word in words for letter in word.letters]
    cols = list(HW.word_columns(sl, words))
    assert len(cols) == 8
    assert reads == letters and len(reduced) == 2 * len(cols) and checked == []
    assert all(type(img) is HW.Vector for _, _, imgs in cols for img in imgs)
    top = sl.highest_vector()
    reads.clear()
    reduced.clear()
    checked.clear()
    HW.apply_word(words[0] * words[1], top)
    assert reads == letters and len(reduced) == 1 and checked == []
    reads.clear()
    reduced.clear()
    (_, col_index), _ = HW.evaluate_word(sl, words[0], max_height=1)
    assert len(col_index) == 3
    assert reads == list(words[0].letters) and reduced == [] and checked == []
    # the basis index is built once, with the slice, and kept
    assert sl.basis_index() is sl.basis_index()


def _factored_word(datum, rng, faces):
    """A seeded word in factored shape: a lowering prefix, normalizer letters
    (N, T, E), raising letters and lowering letters in the middle, some of
    them on the idempotent's own simple roots so that they absorb, and a
    raising suffix.  A lift after an idempotent makes the right face of the
    product differ from its left face.  Many of these words are not
    factored."""
    n = datum.n
    letters = [HW.xminus(rng.randrange(n), rng.choice((1, -2)))
               for _ in range(rng.randrange(3))]
    theta = ()  # the last idempotent's type: its simple roots absorb
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(7)
        j = rng.choice(theta) if theta and rng.randrange(3) else rng.randrange(n)
        if kind == 0:
            letters.append(HW.nsimple(rng.randrange(n)))
        elif kind == 1:
            letters.append(HW.torus_letter(datum.coroot(rng.randrange(datum.m)),
                                           rng.choice((2, Fr(-1, 3)))))
        elif kind == 2:
            face = rng.choice(faces)
            theta = face.theta
            letters.append(HW.idem(face))
        elif kind == 3:
            face = rng.choice(faces)
            if face.theta and rng.randrange(2):
                j = rng.choice(face.theta)
            theta = face.theta
            letters += [HW.xplus(j, 1), HW.idem(face)]
        elif kind == 4:
            letters.append(HW.xminus(j, Fr(3, 2)))
        elif kind == 5:
            letters.append(HW.xplus(j, -1))
        else:  # the idempotent, then a lift that moves its right face
            face = rng.choice(faces)
            theta = face.theta
            letters += [HW.idem(face), HW.nsimple(rng.randrange(n)),
                        HW.xminus(rng.randrange(n), 1)]
    letters += [HW.xplus(rng.randrange(n), 2) for _ in range(rng.randrange(3))]
    return HW.GhatWord(tuple(letters))


@pytest.mark.parametrize("name", ["A2", "affine-A1", "hyperbolic-3", "D8++"])
def test_bruhat_cell_in_the_weyl_monoid_matches_the_nhat_fold(name):
    from test_weyl import KERNEL_DATA

    datum = {"A2": A2, "affine-A1": AFF}.get(name) or KERNEL_DATA[name]
    rng = random.Random(24)
    # A2 has no face but the full cone, so no lowering letter absorbs there
    specials = datum.special_sets()
    faces = [FC.normalize_face(W.from_word(datum, [rng.randrange(datum.n)
                                                   for _ in range(rng.randrange(3))]),
                               rng.choice(specials)) for _ in range(8)]
    faces += [FC.standard_face(datum, t) for t in specials[:4]]
    seen = {"cell": 0, "absorbed": 0, "not factored": 0}
    for _ in range(300):
        word = _factored_word(datum, rng, faces)
        try:
            want = ref.bruhat_cell(datum, word)
        except NotFactored:
            with pytest.raises(NotFactored):
                HW.bruhat_cell(datum, word)
            seen["not factored"] += 1
            continue
        assert HW.bruhat_cell(datum, word) == want, word
        seen["cell"] += 1
        tags = [letter[0] for letter in word.letters]
        started = next((k for k, t in enumerate(tags) if t != "X-" and t != "T"), len(tags))
        if "X-" in tags[started:]:
            seen["absorbed"] += 1
    assert seen["cell"] >= 15 and seen["not factored"] >= 15, seen
    assert seen["absorbed"] >= (15 if len(specials) > 1 else 0), seen


@pytest.mark.parametrize("other", [(HW.nsimple(0),), [HW.nsimple(0)], 2, None])
def test_word_product_with_another_type_is_a_type_error_both_ways(other):
    # GhatWord(...) * (letter,) ended in an AttributeError on .letters
    word = HW.GhatWord((HW.nsimple(1),))
    assert word.__mul__(other) is NotImplemented
    with pytest.raises(TypeError):
        word * other
    with pytest.raises(TypeError):
        other * word
    assert word * HW.GhatWord((HW.nsimple(0),)) == HW.GhatWord((HW.nsimple(1), HW.nsimple(0)))
