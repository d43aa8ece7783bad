"""The per-datum table of exposed faces and the exposing coweight a face keeps.

`faces._face_exposed_by` looks each coweight up in the datum's table
`RootDatum._exposed` and walks only on a miss; `Face.exposing` computes
w c_Theta once per face.  Every meet is compared here with the same meet
computed cold, on a freshly built datum whose table is empty.
"""

import dataclasses
import random

import pytest
from test_weyl import A2, AFF, KERNEL_DATA

from kmx import faces as F
from kmx import monoids as M
from kmx import weyl as W
from kmx.cartan import build_realization
from kmx.errors import PreconditionViolated

DATA = {**KERNEL_DATA, "A2": A2, "affine-A1": AFF}


def _word(rng, datum, max_len):
    return [rng.randrange(datum.n) for _ in range(rng.randint(0, max_len))]


def _operands(datum, seed, count):
    """Seeded (kind, words and thetas) specs: every operand is rebuilt from
    its spec on any datum of the same matrix."""
    rng = random.Random(seed)
    max_len = 5 if datum.n > 3 else 7
    specials = datum.special_sets()

    def face():
        return (tuple(_word(rng, datum, max_len)), rng.choice(specials))

    specs = []
    for k in range(count):
        kind = ("intersect", "wm_mul", "nhat_mul")[k % 3]
        specs.append((kind, face(), tuple(_word(rng, datum, max_len)),
                      face(), tuple(_word(rng, datum, max_len))))
    return specs


def _run(datum, spec):
    """The spec's product on datum, as (w.word, theta) of every face and
    Weyl word in the result, and the faces that came out of the meet."""
    kind, (rw, rt), x, (sw, st), y = spec
    r = F.normalize_face(W.from_word(datum, rw), rt)
    s = F.normalize_face(W.from_word(datum, sw), st)
    if kind == "intersect":
        face = F.intersect(r, s)
        return (face.w.word, face.theta), face
    if kind == "wm_mul":
        z = M.wm_mul(M.wm_normalize(W.from_word(datum, x), r),
                     M.wm_normalize(W.from_word(datum, y), s))
        return (z.face.w.word, z.face.theta, z.w.word), z.face
    z = M.nhat_mul(M.nhat_from(W.from_word(datum, x), face=r),
                   M.nhat_from(W.from_word(datum, y), face=s))
    return (z.face.w.word, z.face.theta, z.w.word), z.face


@pytest.mark.parametrize("name", list(DATA))
def test_meets_equal_a_cold_computation(name):
    warm = DATA[name]
    cold = build_realization(warm.gcm)
    specs = _operands(warm, 41, 60)
    for spec in specs + specs[::-1]:  # the second pass meets every face again
        got, face = _run(warm, spec)
        cold._exposed.clear()
        want, cold_face = _run(cold, spec)
        assert got == want, spec
        assert face.datum is warm and cold_face.datum is cold
        assert face.exposing() == cold_face.exposing()


@pytest.mark.parametrize("name", list(DATA))
def test_table_faces_keep_their_canonical_exposing_coweight(name):
    datum = build_realization(DATA[name].gcm)
    for spec in _operands(datum, 42, 45):
        _run(datum, spec)
    assert datum._exposed
    cold = build_realization(datum.gcm)
    for key, face in datum._exposed.items():
        c = face.w.act_coweight(datum.exposing_coweight(face.theta))
        assert face.exposing() == c
        assert F._face_exposed_by(datum, c) == face
        # the key's coweight exposes the face it is stored with
        cold._exposed.clear()
        cold_face = F._face_exposed_by(cold, key)
        assert (cold_face.w.word, cold_face.theta) == (face.w.word, face.theta)


def test_a_second_lookup_returns_the_same_object():
    datum = KERNEL_DATA["hyperbolic-3"]
    r = F.normalize_face(W.from_word(datum, (2, 0)), (0, 1))
    s = F.normalize_face(W.from_word(datum, (1,)), (0, 1, 2))
    assert F.intersect(r, s) is F.intersect(r, s)
    d = tuple(x + y for x, y in zip(r.exposing(), s.exposing()))
    assert F._face_exposed_by(datum, d) is F._face_exposed_by(datum, list(d))
    zero = (0,) * datum.m
    assert F._face_exposed_by(datum, zero) is F._face_exposed_by(datum, zero)
    assert F._face_exposed_by(datum, zero).is_full_cone()


def test_each_datum_has_its_own_table():
    rows = KERNEL_DATA["hyperbolic-3"].gcm.a
    one, two = build_realization(rows), build_realization(rows)
    assert one._exposed == {} and two._exposed == {}
    d = (1, 1, 1)
    f1, f2 = F._face_exposed_by(one, d), F._face_exposed_by(two, d)
    assert f1.datum is one and f2.datum is two
    assert list(two._exposed) == [d] and list(one._exposed) == [d]


def test_exposing_is_w_acting_on_c_theta_and_is_kept():
    datum = build_realization(KERNEL_DATA["hyperbolic-3"].gcm)
    calls = []
    real = datum._exposing
    datum._exposing = lambda theta: calls.append(theta) or real(theta)
    face = F.normalize_face(W.from_word(datum, (2, 1, 0)), (0, 1))
    c = face.w.act_coweight(real(face.theta))
    assert face.exposing() == c and face.exposing() is face.exposing()
    assert calls == [(0, 1)]
    # the kept coweight changes neither equality, hashing nor repr
    again = F.normalize_face(W.from_word(datum, (2, 1, 0)), (0, 1))
    assert again == face and hash(again) == hash(face) and repr(again) == repr(face)


def test_replace_computes_a_fresh_coweight():
    datum = KERNEL_DATA["hyperbolic-3"]
    face = F.normalize_face(W.from_word(datum, (2,)), (0, 1))
    face.exposing()
    moved = dataclasses.replace(face, w=W.from_word(datum, (1, 2)))
    assert moved.exposing() == moved.w.act_coweight(datum.exposing_coweight((0, 1)))
    assert moved.exposing() != face.exposing()
    wider = dataclasses.replace(face, theta=(0, 1, 2))
    assert wider.exposing() == face.w.act_coweight(datum.exposing_coweight((0, 1, 2)))


def test_a_failed_walk_is_not_stored(monkeypatch):
    datum = build_realization(A2.gcm)
    walks = []
    real = W._antidominant
    monkeypatch.setattr(W, "_antidominant", lambda dt, d: walks.append(d) or real(dt, d))
    for _ in range(2):  # (1, 0) is no sum of exposing coweights on finite A2
        with pytest.raises(PreconditionViolated):
            F._face_exposed_by(datum, (1, 0))
    assert len(walks) == 2
    assert datum._exposed == {}


def _class_pair(datum, spec):
    """The normal forms of a wm_mul spec's two classes, computed through
    `_centralizer_rep` without the face's table of classes."""
    _, (rw, rt), x, (sw, st), y = spec
    out = []
    for fw, ft, word in ((rw, rt, x), (sw, st, y)):
        face = F.normalize_face(W.from_word(datum, fw), ft)
        out.append((face.w.word, face.theta,
                    M._centralizer_rep(face, W.from_word(datum, word)).word))
    return tuple(out)


@pytest.mark.parametrize("name", ["hyperbolic-3", "A2^(1)", "affine-A1", "D8++"])
def test_the_walk_runs_once_per_distinct_coweight(name, monkeypatch):
    datum = build_realization(DATA[name].gcm)
    cold = build_realization(datum.gcm)
    walks, keys = [], []
    real_walk, real_lookup = W._antidominant, F._face_exposed_by
    monkeypatch.setattr(W, "_antidominant",
                        lambda dt, d: walks.append(tuple(d)) or real_walk(dt, d))
    monkeypatch.setattr(F, "_face_exposed_by",
                        lambda dt, d: keys.append(tuple(d)) or real_lookup(dt, d))
    specs = _operands(datum, 43, 45)
    pairs = set()
    for spec in specs:
        # a wm_mul of a pair of classes met before is read off the first
        # class's kept products; every other spec makes one lookup
        want = 1
        if spec[0] == "wm_mul":
            pair = _class_pair(cold, spec)
            want = int(pair not in pairs)
            pairs.add(pair)
        before = len(keys)
        _run(datum, spec)
        assert len(keys) - before == want, spec
    first = len(keys)
    assert first == 30 + len(pairs)  # 15 intersect and 15 nhat_mul specs
    for spec in specs:  # the second pass looks up no wm_mul meet again
        before = len(keys)
        _run(datum, spec)
        assert len(keys) - before == (spec[0] != "wm_mul"), spec
    assert len(keys) == first + 30
    distinct = {k for k in keys if any(k)}
    assert len(distinct) < len(keys)
    assert sorted(walks) == sorted(distinct)
