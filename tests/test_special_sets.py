"""Root-datum set-up against the work it did before: `special_sets` against
the per-subset enumeration it replaced (`exact_reference.special_sets`), and
the work each set-up step may do: one LP typing per connected subset, a GCM
that hashes once, and a realization checked without `rat_solve`."""

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
from kmx.cartan import (A2_ROWS, AFFINE_A1_ROWS, GCM, HYPERBOLIC_ROWS, RootDatum,
                        build_realization, special_sets, validate_and_symmetrize)
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
    real = cartan.component_type

    def counted(gcm, comp):
        typed.append(tuple(comp))
        return real(gcm, comp)

    def forbidden(*args):
        raise AssertionError("special_sets classifies a subset")

    monkeypatch.setattr(cartan, "component_type", counted)
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
