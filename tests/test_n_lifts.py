"""The lifts n_i = exp(e_i) exp(-f_i) exp(e_i) as one matrix per weight space.

`highest_weight._n_mat` keeps, per weight space and i, the matrix of n_i from
the space at mu to the one at s_i mu, formed by running the three
exponentials on each basis vector; where one of those runs leaves the
window, it keeps that refusal and raises DepthExceeded.  The word pass
applies the matrix to each part of a vector, and raises where some part's
space has none, even when the whole vector's run would stay inside: a
refusal may stand where the three exponentials give a value, never a
different value.  `exact_reference.run_word` runs every N(i) letter through
the three exponentials on the whole vector; the tests below compare the two
on every slice of `test_slice_reference.SPECS`, every weight space and
every i.  `theta` reads the top coordinate of the raw pass; it must equal
`matrix_coefficient(v_top, v_top, word)`.
"""

import random
from fractions import Fraction

import exact_reference
import pytest
from test_slice_reference import SPECS, _slice, read_edges

from kmx import highest_weight as HW, verify
from kmx.cartan import HYPERBOLIC_ROWS, build_realization
from kmx.errors import DepthExceeded

IDS = [f"{a}-{h}-{d}" for a, h, d in SPECS]


def _unit(sp, k):
    return {sp: [int(j == k) for j in range(sp.dim)]}


def _outcome(run, sl, letters, parts, den=1):
    """The word's value on raw parts / den as {weight: Fraction coordinates},
    or the DepthExceeded it raised."""
    try:
        parts, den = run(sl, letters, parts, den)
    except DepthExceeded as exc:
        return exc
    return {sp.weight: [Fraction(x, den) for x in u] for sp, u in parts.items()}


def _same(got, want) -> bool:
    """Equal values, or a DepthExceeded at the same weight and needed depth."""
    if isinstance(want, DepthExceeded):
        return (isinstance(got, DepthExceeded)
                and (got.weight, got.needed) == (want.weight, want.needed))
    return got == want


def _decides_as_the_reference(sl, got, want) -> bool:
    """kmx's outcome against the reference's: a value equals the reference's
    (so where the reference raises, kmx raises), and a refusal needs depth + 1
    at a weight past the slice.  Its weight may differ from the reference's,
    as it depends on the order of the pass."""
    if isinstance(got, DepthExceeded):
        return got.needed == sl.depth + 1 and got.weight not in sl.spaces
    return got == want


def _random_part(rng, sp):
    u = [rng.randint(-3, 3) for _ in range(sp.dim)]
    if not any(u):
        u[rng.randrange(sp.dim)] = 1
    return u


def _memo(sl, sp, i):
    """`_n_mat`'s edge, or the DepthExceeded it raised."""
    try:
        return HW._n_mat(sl, sp, i)
    except DepthExceeded as exc:
        return exc


def n_mat_mismatches(sl, rng):
    """[(weight, i, what)] wherever a memo disagrees with the three
    exponentials: on a basis vector, on two seeded random vectors of its
    space, or in being refused other than exactly where a basis vector's run
    raises, with that run's weight and needed depth."""
    bad = []
    for wt in sl.order:
        sp = sl.spaces[wt]
        for i in range(sl.datum.n):
            letters = (HW.nsimple(i),)
            memo = _memo(sl, sp, i)
            cols = [_outcome(exact_reference.run_word, sl, letters, _unit(sp, k))
                    for k in range(sp.dim)]
            raised = next((col for col in cols if isinstance(col, DepthExceeded)), None)
            if isinstance(memo, DepthExceeded) != (raised is not None):
                bad.append((wt, i, "not refused" if raised else "refused"))
            elif raised is not None:
                if not _same(memo, raised):
                    bad.append((wt, i, f"refused at {memo.weight}"))
            else:
                tgt, ints, den = memo
                for k, col in enumerate(cols):
                    if col != {tgt.weight: [Fraction(row[k], den) for row in ints]}:
                        bad.append((wt, i, f"basis vector {k}"))
            for _ in range(2):
                u, d = _random_part(rng, sp), rng.randint(1, 4)
                got = _outcome(HW._run_word, sl, letters, {sp: u}, d)
                if not (_same(got, memo) if raised else
                        _same(got, _outcome(exact_reference.run_word, sl, letters, {sp: u}, d))):
                    bad.append((wt, i, f"vector {u}/{d}"))
    return bad


@pytest.mark.parametrize("alg,hw_name,depth", SPECS, ids=IDS)
def test_n_mat_is_the_three_exponentials(alg, hw_name, depth):
    sl = _slice(HW.ModuleSlice, alg, hw_name, depth)
    assert n_mat_mismatches(sl, random.Random(f"n-mat-{alg}-{hw_name}")) == []
    memos = [memo for sp in sl.spaces.values() for memo in sp.n_mat.values()]
    assert len(memos) == len(sl.spaces) * sl.datum.n
    # a memo is an edge or a refusal record, never an exception or None
    assert {type(memo) for memo in memos} <= {tuple, HW._Refused}
    # the bottom layers of an infinite slice leave the window under some n_i
    refused = [memo for memo in memos if type(memo) is HW._Refused]
    assert bool(refused) == bool(read_edges(sl)[2])
    assert len(refused) < len(memos)


@pytest.mark.parametrize("alg,hw_name,depth", SPECS, ids=IDS)
def test_a_word_that_falls_back_raises_as_the_reference(alg, hw_name, depth):
    # vectors with parts on two or three spaces, one of them often without a
    # matrix, under words of one to three N letters between X letters: kmx
    # decides as the three exponentials on the whole vector do, or refuses
    sl = _slice(HW.ModuleSlice, alg, hw_name, depth)
    rng = random.Random(f"fallback-{alg}-{hw_name}")
    spaces = list(sl.spaces.values())
    refused = decided = 0
    for _ in range(40):
        parts = {sp: _random_part(rng, sp) for sp in rng.sample(spaces, rng.randint(2, 3))}
        letters = []
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(sl.datum.n)
            letters.append(HW.nsimple(i))
            if rng.randrange(2):
                t = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2)))
                letters.append(rng.choice((HW.xplus, HW.xminus))(i, t))
        den = rng.randint(1, 3)
        want = _outcome(exact_reference.run_word, sl, letters, dict(parts), den)
        got = _outcome(HW._run_word, sl, letters, dict(parts), den)
        assert _decides_as_the_reference(sl, got, want), (
            letters, {sp.weight: u for sp, u in parts.items()})
        if isinstance(got, DepthExceeded):
            refused += 1
        else:
            decided += 1
    assert decided and (refused or not read_edges(sl)[2])


def _random_word(rng, datum):
    """One to five X+, X-, T, N and E letters."""
    letters = []
    for _ in range(rng.randint(1, 5)):
        kind, i = rng.randrange(5), rng.randrange(datum.n)
        t = Fraction(rng.choice((1, 2, -1)), rng.choice((1, 2)))
        if kind == 0:
            letters.append(HW.xplus(i, t))
        elif kind == 1:
            letters.append(HW.xminus(i, t))
        elif kind == 2:
            letters.append(HW.torus_letter(datum.coroot(i), rng.choice((2, 3, -1))))
        elif kind == 3:
            letters.append(HW.nsimple(i))
        else:
            letters.append(HW.idem(verify._rand_face(rng, datum)))
    return HW.GhatWord(tuple(letters))


@pytest.mark.parametrize("alg,hw_name,depth", SPECS, ids=IDS)
def test_theta_is_the_top_matrix_coefficient(alg, hw_name, depth):
    sl = _slice(HW.ModuleSlice, alg, hw_name, depth)
    rng = random.Random(f"theta-{alg}-{hw_name}")
    top = sl.highest_vector()
    raised = 0
    for _ in range(30):
        word = _random_word(rng, sl.datum)
        want = _outcome(exact_reference.run_word, sl, word.letters, {sl.spaces[sl.hw]: [1]})
        try:
            coeff = HW.matrix_coefficient(sl, top, top, word)
        except DepthExceeded as exc:
            coeff = exc
        try:
            got = HW.theta(sl, word)
        except DepthExceeded as exc:
            got = exc
        assert _same(got, coeff), HW.format_word(word)
        if isinstance(want, DepthExceeded):
            assert _same(got, want), HW.format_word(word)
            raised += 1
            continue
        assert type(got) is Fraction
        assert got == want.get(sl.hw, [0])[0], HW.format_word(word)
    assert raised < 30


def test_a_second_n_on_the_same_space_runs_no_exponential(monkeypatch):
    sl = _slice(HW.ModuleSlice, "hyperbolic-3", "L1", 8)
    sp = next(sl.spaces[wt] for wt in sl.order if sl.spaces[wt].dim > 1)
    i = next(i for i in range(sl.datum.n) if sp.weight[i])
    calls = []
    real = HW._exp
    monkeypatch.setattr(HW, "_exp", lambda *args: calls.append(args) or real(*args))
    word = HW.GhatWord((HW.nsimple(i),))
    HW.apply_word(word, HW.Vector(sl, {sp.weight: (1,) + (0,) * (sp.dim - 1)}))
    assert len(calls) == 3 * sp.dim and type(sp.n_mat[i]) is tuple
    HW.apply_word(word, HW.Vector(sl, {sp.weight: tuple(range(1, sp.dim + 1))}, 5))
    assert len(calls) == 3 * sp.dim


def test_a_shifted_n_mat_entry_is_caught():
    sl = _slice(HW.ModuleSlice, "G2", "rho", 8)
    assert n_mat_mismatches(sl, random.Random(1)) == []
    sp = next(sp for sp in sl.spaces.values() if sp.height == 4 and sp.dim > 1)
    i = next(i for i, memo in sp.n_mat.items() if type(memo) is not HW._Refused)
    tgt, ints, den = sp.n_mat[i]
    sp.n_mat[i] = (tgt, ((ints[0][0] + 1,) + ints[0][1:],) + ints[1:], den)
    bad = n_mat_mismatches(sl, random.Random(1))
    assert (sp.weight, i, "basis vector 0") in bad
    assert all(wt == sp.weight and j == i for wt, j, _ in bad)


def test_a_vector_whose_own_run_stays_inside_is_refused_without_the_matrix():
    # every basis vector's run of N(2) from the space at (4, 1, 2) of F's
    # (2, 2, 2) slice at depth 6 leaves the window, so the letter is refused
    # there, though this vector's own run stays inside; the depth-8 slice
    # has the matrix there and gives that run's value
    datum = build_realization(HYPERBOLIC_ROWS)
    word = HW.GhatWord((HW.nsimple(1),))
    u, value = (6, -9, -2, 3, 0, 0, 0), (0, -6, 9, 2, -3, 0, 0)
    for depth in (6, 8):
        sl = HW.build_basis(datum, (2, 2, 2), depth)
        sp = sl.spaces[(4, 1, 2)]
        assert (sl.height_of(sp.weight), sp.dim) == (4, 7)
        assert _outcome(exact_reference.run_word, sl, word.letters, {sp: list(u)}) == {
            (6, -1, 3): list(value)}
        if depth == 6:
            with pytest.raises(DepthExceeded) as exc:
                HW.apply_word(word, HW.Vector(sl, {sp.weight: u}))
            assert exc.value.needed == 7 and exc.value.weight not in sl.spaces
            assert type(sp.n_mat[1]) is HW._Refused
        else:
            out = HW.apply_word(word, HW.Vector(sl, {sp.weight: u}))
            assert (out.parts, out.den) == ({(6, -1, 3): value}, 1)
