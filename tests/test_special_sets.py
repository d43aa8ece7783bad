"""Root-datum set-up against the work it did before: `special_sets` against
the per-subset enumeration it replaced (`exact_reference.special_sets`),
`component_type` against the three-LP typing it replaced
(`exact_reference.component_type`) on every connected subset, and the work
each set-up step may do: one typing per connected subset, one simplex run
per indefinite one, a GCM that hashes once, and a realization checked
without `rat_solve`.  A component type whose certificate fails is an
InternalError."""

import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import exact_reference as ref
from conftest import all_small_gcms
from test_weyl import KERNEL_DATA

from kmx import cartan, exact
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, GCM, HYPERBOLIC_ROWS, ComponentType,
                        RootDatum, build_realization, classify, component_type, special_sets,
                        validate_and_symmetrize)
from kmx.errors import InternalError, NotSymmetrizable


def _block(*parts):
    """The block-diagonal sum of GCM rows."""
    n = sum(len(p) for p in parts)
    rows, at = [[0] * n for _ in range(n)], 0
    for p in parts:
        for i, row in enumerate(p):
            rows[at + i][at:at + len(p)] = row
        at += len(p)
    return rows


NAMED = {
    "A2": A2_ROWS, "affine-A1": AFFINE_A1_ROWS, "hyperbolic-3": HYPERBOLIC_ROWS,
    "D8++": KERNEL_DATA["D8++"].gcm.a, "E10": KERNEL_DATA["E10"].gcm.a,
    "A1+affine-A1": _block(((2,),), AFFINE_A1_ROWS),
    "hyperbolic-3+A2": _block(HYPERBOLIC_ROWS, A2_ROWS),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_special_sets_as_the_subset_enumeration_on_named_data(name):
    gcm = validate_and_symmetrize(NAMED[name])
    assert special_sets(gcm) == ref.special_sets(gcm)


def test_special_sets_as_the_subset_enumeration_on_small_gcms():
    checked = 0
    for rows in all_small_gcms(3, lo=-2):
        try:
            gcm = validate_and_symmetrize(rows)
        except NotSymmetrizable:
            continue
        assert special_sets(gcm) == ref.special_sets(gcm), rows
        checked += 1
    assert checked > 60


def _random_gcm(rng, n):
    """a_ij = d_i s_ij off the diagonal, s symmetric: D^{-1} A is symmetric,
    so A is symmetrizable; s_ij = 0 leaves some data decomposable."""
    d = [rng.randint(1, 3) for _ in range(n)]
    rows = [[2] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        s = rng.choice((0, 0, -1, -1, -2))
        rows[i][j], rows[j][i] = d[i] * s, d[j] * s
    return validate_and_symmetrize(rows)


@pytest.mark.parametrize("seed", range(4))
def test_special_sets_as_the_subset_enumeration_on_random_gcms(seed):
    rng = random.Random(seed)
    for n in range(1, 8):
        for _ in range(3):
            gcm = _random_gcm(rng, n)
            assert special_sets(gcm) == ref.special_sets(gcm), gcm.a


def _connected_subsets(a):
    """Each nonempty node subset whose zero-pattern graph is connected, by a
    flood from its first node."""
    n, out = len(a), set()
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                i = stack.pop()
                for j in sub:
                    if j not in seen and a[i][j]:
                        seen.add(j)
                        stack.append(j)
            if len(seen) == k:
                out.add(sub)
    return out


@pytest.mark.parametrize("name,count", [("D8++", 76), ("E10", 67)])
def test_special_sets_types_each_connected_subset_once(name, count, monkeypatch):
    typed = []
    real = cartan._component_type_cached

    def counted(gcm, comp):
        typed.append(comp)
        return real(gcm, comp)

    def forbidden(*args):
        raise AssertionError("special_sets classifies a subset")

    monkeypatch.setattr(cartan, "_component_type_cached", counted)
    monkeypatch.setattr(cartan, "is_special", forbidden)
    monkeypatch.setattr(cartan, "_classify_cached", forbidden)
    gcm = validate_and_symmetrize(NAMED[name])
    specials = special_sets(gcm)
    assert len(typed) == len(set(typed)) == count
    assert set(typed) == _connected_subsets(gcm.a)
    monkeypatch.undo()
    assert specials == ref.special_sets(gcm)


@pytest.mark.parametrize("name", list(NAMED))
def test_build_realization_checks_its_form_by_one_elimination(name, monkeypatch):
    # one int_rref finds the rank of A, one inverts the Gram matrix on every
    # simple root; rat_solve, once per root, is not called
    def forbidden(*args):
        raise AssertionError("build_realization calls rat_solve")

    calls = []
    real = exact.int_rref
    monkeypatch.setattr(exact, "rat_solve", forbidden)
    monkeypatch.setattr(exact, "int_rref", lambda m: calls.append(1) or real(m))
    datum = build_realization(NAMED[name])
    assert len(calls) == 2
    monkeypatch.undo()
    for i, e in enumerate(datum.gcm.eps):
        assert datum.form_weights(datum.alpha[i], datum.alpha[i]) == 2 / e


class _CountedFraction(Fraction):
    hashes = 0

    def __hash__(self):
        _CountedFraction.hashes += 1
        return super().__hash__()


def test_gcm_hashes_its_entries_once():
    gcm = GCM(a=A2_ROWS, eps=(_CountedFraction(1), _CountedFraction(1)))
    assert gcm._hash is None
    _CountedFraction.hashes = 0
    assert hash(gcm) == hash(gcm) == hash((A2_ROWS, gcm.eps))
    # each of the two entries: once for the GCM, once for the tuple hashed here
    assert _CountedFraction.hashes == 2 + 2
    _CountedFraction.hashes = 0
    cartan.classify(gcm)
    cartan.is_special(gcm, (0, 1))
    special_sets(gcm)
    assert _CountedFraction.hashes == 0
    apart = validate_and_symmetrize([[2, -1], [-1, 2]])
    assert apart == gcm and hash(apart) == hash(gcm)
    assert "_hash" not in repr(gcm)
    assert dataclasses.replace(gcm)._hash is None
    assert dataclasses.replace(gcm, a=((2, -2), (-2, 2)))._hash is None


@pytest.mark.parametrize("eps,message", [
    ((1, 2), "|alpha_i|^2 != 2/eps_i"),
    ((0, 0), "invariant form is degenerate"),
], ids=["wrong-symmetrizer", "zero-symmetrizer"])
def test_realization_check_catches_a_wrong_symmetrizer(eps, message):
    with pytest.raises(InternalError, match=re.escape(message)):
        RootDatum(GCM(a=A2_ROWS, eps=eps))


def _symmetrizable(rows_list):
    for rows in rows_list:
        try:
            yield validate_and_symmetrize(rows)
        except NotSymmetrizable:
            pass


def test_component_type_as_the_lp_trichotomy_on_every_connected_subset():
    # every symmetrizable 2 x 2 and 3 x 3 GCM with entries down to -3, 300
    # seeded draws of rank 4-6 and the named data
    rng = random.Random(30)
    gcms = [*_symmetrizable(all_small_gcms(2)), *_symmetrizable(all_small_gcms(3)),
            *(_random_gcm(rng, rng.randint(4, 6)) for _ in range(300)),
            *(validate_and_symmetrize(NAMED[name]) for name in ("A1+affine-A1", "D8++", "E10"))]
    seen = {t: 0 for t in ComponentType}
    for gcm in gcms:
        for comp in _connected_subsets(gcm.a):
            got = component_type(gcm, comp)
            assert got is ref.component_type(gcm, comp), (gcm.a, comp)
            seen[got] += 1
    assert sum(seen.values()) > 4000 and min(seen.values()) > 200, seen


@pytest.mark.parametrize("name", ["D8++", "E10"])
def test_special_sets_runs_the_simplex_once(name):
    # every connected subset but the whole hyperbolic diagram is FIN or AFF,
    # typed by one elimination; the three-LP typing made 3 runs per subset
    cartan._component_type_cached.cache_clear()
    gcm = validate_and_symmetrize(NAMED[name])
    before = exact.simplex_runs()
    specials = special_sets(gcm)
    assert exact.simplex_runs() - before == 1
    assert specials == ref.special_sets(gcm)


def test_a_wrong_symmetrizer_is_caught_by_the_typing():
    with pytest.raises(InternalError, match=re.escape(
            "eps does not symmetrize the component (0, 1)")):
        classify(GCM(a=A2_ROWS, eps=(1, 2)))


@pytest.mark.parametrize("forged,message", [
    ((Fraction(1),) * 3, "IND certificate fails on component (0, 1, 2)"),
    ((Fraction(1), Fraction(1), Fraction(-1)), "IND certificate fails on component (0, 1, 2)"),
    (None, "indefinite component (0, 1, 2) has no u > 0 with A u < 0"),
], ids=["not-negative", "not-positive", "none"])
def test_a_forged_simplex_answer_is_caught(forged, message, monkeypatch):
    cartan._component_type_cached.cache_clear()
    monkeypatch.setattr(exact, "lp_feasible", lambda matrix: forged)
    with pytest.raises(InternalError, match=re.escape(message)):
        component_type(validate_and_symmetrize(HYPERBOLIC_ROWS), (0, 1, 2))


@pytest.mark.parametrize("rows,step,corrupt,message", [
    # A2: the last entry of d u negated, so u is not positive
    (A2_ROWS, 1, lambda rows: rows[1].__setitem__(2, -rows[1][2]), "FIN certificate fails"),
    # A2: the second leading minor zeroed, so A2 reads as affine
    (A2_ROWS, 0, lambda rows: rows[1].__setitem__(1, 0), "AFF certificate fails"),
    # affine A1: the second leading minor made positive, so it reads as finite
    (AFFINE_A1_ROWS, 0, lambda rows: rows[1].__setitem__(1, 1), "FIN certificate fails"),
], ids=["A2-negated-u", "A2-zero-minor", "affine-A1-positive-minor"])
def test_a_corrupted_pivot_is_caught(rows, step, corrupt, message, monkeypatch):
    real = exact._bareiss_pivot

    def corrupted(tab, r, c, prev):
        pv = real(tab, r, c, prev)
        if r == step:
            corrupt(tab)
        return pv

    cartan._component_type_cached.cache_clear()
    monkeypatch.setattr(exact, "_bareiss_pivot", corrupted)
    with pytest.raises(InternalError, match=re.escape(f"{message} on component (0, 1)")):
        component_type(validate_and_symmetrize(rows), (0, 1))
