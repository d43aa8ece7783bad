"""The API boundary: each public entry reads its arguments' types.

A sweep over every public module-level function of `monoids`, `faces`,
`weyl`, `toric` and `highest_weight`, and over `LatticeMonoid` and its
public methods.  Each call gets valid arguments except one required
positional argument, which is None, and must raise a KmxError, never a raw
AttributeError or TypeError.  A callable with no required argument
(`weyl.elements_added`, `LatticeMonoid.faces`, `LatticeMonoid.top_face`)
has nothing to sweep.  The `RootDatum` methods are out of scope: `pair` is
a bare dot product on hot paths and reads nothing.

The second half counts `cartan._expect` reads per public call.  Kmx reads
each object argument once, where it enters, and calls its private cores on
what it built or already read, so a call makes one read per object argument
handed in from outside: a class, a face, a Weyl element or a datum.

The last table counts the reads of every `cartan` reader per point query (a
weight or lattice point located in the Tits cone or a lattice monoid):
each query reads each argument once, a default step budget included, and
walks once.  It also counts them for `faces.includes`, which reads its two
faces and nothing they hold.  The verify table counts the same readers,
`check_index` and `exact`'s matrix readers, for one draw of verify's
samplers, for the laws of one [4] triple and one [5] kappa pair, and for
one [9] cone: a sampler builds on the cores from indices and values it drew
itself, so it reads nothing, and [9] decides its box points on a core.
"""

import inspect
import random
from fractions import Fraction as Fr

import pytest

from kmx import cartan, exact, faces as FC, highest_weight as HW, monoids as MO
from kmx import toric as TO
from kmx import verify
from kmx import weyl as W
from kmx.cartan import HYPERBOLIC_ROWS, build_realization
from kmx.errors import KmxError

F = build_realization(HYPERBOLIC_ROWS)  # special sets (1, 2) and (1, 2, 3)
_S1 = W.simple(F, 0)
_FULL = FC.full_cone(F)
_R1 = FC.standard_face(F, (0, 1))
_LM = TO.LatticeMonoid([(1, 0), (0, 1)], 2)
_LF = _LM.top_face()
_SL = HW.build_basis(F, (1, 0, 0), 2)
_V = _SL.highest_vector()
_WORD = HW.GhatWord((HW.xplus(0, 2),))
_X = MO.nhat_from(_S1)
_MH = TO.mhat_unit(_LM, (2, 3))

# valid arguments of each public callable, its required positional
# arguments first
VALID = {
    "monoids.wm_normalize": (_S1, _FULL),
    "monoids.wm_unit": (F,),
    "monoids.wm_idempotent": (_R1,),
    "monoids.wm_mul": (MO.wm_unit(F, _S1), MO.wm_idempotent(_R1)),
    "monoids.wm_invert": (MO.wm_unit(F, _S1),),
    "monoids.wm_apply": (MO.wm_unit(F, _S1), (1, 0, 0)),
    "monoids.torus_from_coweight": (F, (1, 0, 0), 2),
    "monoids.torus_eval": ((1, 2, 3), (1, 0, 0)),
    "monoids.that_normalize": ((1, 2, 3), _R1),
    "monoids.that_idempotent": (_R1,),
    "monoids.that_mul": (MO.that_idempotent(_R1), MO.that_idempotent(_FULL)),
    "monoids.that_act": (_S1, MO.that_idempotent(_R1)),
    "monoids.that_eval": (MO.that_idempotent(_FULL), (1, 0, 0)),
    "monoids.nhat_from": (_S1,),
    "monoids.nhat_idempotent": (_R1,),
    "monoids.nhat_mul": (_X, _X),
    "monoids.nhat_to_wmon": (_X,),
    "monoids.nhat_conj_idem": (_X, _R1),
    "monoids.nhat_inv": (_X,),
    "faces.normalize_face": (_S1, (0, 1)),
    "faces.full_cone": (F,),
    "faces.standard_face": (F, (0, 1)),
    "faces.parse_face": (F, "theta=1,2"),
    "faces.act_face": (_S1, _R1),
    "faces.includes": (_FULL, _R1),
    "faces.intersect": (_FULL, _R1),
    "faces.face_of_point": (F, (1, 0, 0)),
    "faces.contains": (_FULL, (1, 0, 0)),
    "faces.in_relative_interior": (_FULL, (1, 0, 0)),
    "faces.in_span": (_FULL, (1, 0, 0)),
    "faces.centralizes": (_FULL, _S1),
    "faces.normalizes": (_FULL, _S1),
    "faces.point_predicates": (_FULL, (1, 1, 1), _FULL),
    "faces.face_predicates": (_FULL,),
    "weyl.elements_added": (),
    "weyl.identity_elt": (F,),
    "weyl.simple": (F, 0),
    "weyl.from_word": (F, (0, 1)),
    "weyl.min_coset_right": (_S1, (0,)),
    "weyl.min_coset_left": (_S1, (0,)),
    "weyl.min_double_coset": (_S1, (0,), (1,)),
    "weyl.in_parabolic": (_S1, (0,)),
    "weyl.in_parabolic_product": (_S1, (0,), (1,)),
    "weyl.dominant_rep": (F, (1, 0, 0)),
    "weyl.antidominant_coweight": (F, (1, 1, 0)),
    "weyl.denominator": (F, 2),
    "toric.mhat_normalize": (_LM, (2, 3), _LF),
    "toric.mhat_idempotent": (_LM, _LF),
    "toric.mhat_idempotents": (_LM,),
    "toric.mhat_unit": (_LM, (2, 3)),
    "toric.mhat_mul": (_MH, _MH),
    "highest_weight.root_multiplicities": (F, 2),
    "highest_weight.real_roots_with_witness": (F, 2),
    "highest_weight.weights_and_mults": (F, (1, 0, 0), 2),
    "highest_weight.build_basis": (F, (1, 0, 0), 2),
    "highest_weight.apply_letter": (HW.xplus(0, 2), _V),
    "highest_weight.apply_word": (_WORD, _V),
    "highest_weight.word_columns": (_SL, (_WORD,)),
    "highest_weight.evaluate_word": (_SL, _WORD),
    "highest_weight.inner": (_SL, _V, _V),
    "highest_weight.matrix_coefficient": (_SL, _V, _V, _WORD),
    "highest_weight.theta": (_SL, _WORD),
    "highest_weight.probe_equal": (F, _WORD, _WORD, [((1, 0, 0), 2)]),
    "highest_weight.nhat_letters": (_X,),
    "highest_weight.bruhat_cell": (F, _WORD),
    "highest_weight.format_word": (_WORD,),
    "highest_weight.parse_word": (F, "N(1)"),
    "LatticeMonoid": ([(1, 0), (0, 1)], 2),
    "LatticeMonoid.contains": ((1, 0),),
    "LatticeMonoid.active_set": ((1, 0),),
    "LatticeMonoid.faces": (),
    "LatticeMonoid.face_of": ((1, 0),),
    "LatticeMonoid.face_contains": (_LF, (1, 0)),
    "LatticeMonoid.top_face": (),
    "LatticeMonoid.face_leq": (_LF, _LF),
    "LatticeMonoid.face_meet": (_LF, _LF),
    "LatticeMonoid.subfaces": (_LF,),
    "LatticeMonoid.relative_interior_contains": (_LF, (1, 0)),
    "LatticeMonoid.dual_face": (_LF,),
    "LatticeMonoid.principal_open": ((1, 0),),
}


def _public():
    """name -> callable for every public callable the sweep covers."""
    out = {}
    for mod in (MO, FC, W, TO, HW):
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, f in vars(mod).items():
            if inspect.isfunction(f) and f.__module__ == mod.__name__ and name[0] != "_":
                out[f"{short}.{name}"] = f
    out["LatticeMonoid"] = TO.LatticeMonoid
    for name, f in vars(TO.LatticeMonoid).items():
        if inspect.isfunction(f) and name[0] != "_":
            out[f"LatticeMonoid.{name}"] = getattr(_LM, name)
    return out


PUBLIC = _public()


def _required(f) -> int:
    return sum(1 for p in inspect.signature(f).parameters.values()
               if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty)


def test_the_sweep_covers_every_public_callable():
    assert sorted(PUBLIC) == sorted(VALID)
    assert len(PUBLIC) == 80
    for name, f in PUBLIC.items():
        assert len(VALID[name]) == _required(f), name
        f(*VALID[name])  # the valid arguments are valid


CASES = [(name, k) for name in sorted(VALID) for k in range(len(VALID[name]))]


@pytest.mark.parametrize("name,k", CASES, ids=[f"{n}-{k}" for n, k in CASES])
def test_none_in_any_required_argument_is_a_kmx_error(name, k):
    args = list(VALID[name])
    args[k] = None
    with pytest.raises(KmxError):
        out = PUBLIC[name](*args)
        if inspect.isgenerator(out):  # word_columns reads its words before the first column
            next(out)


# -- one-shot iterables -----------------------------------------------------------


def _one_shot(a):
    """a as a one-shot iterator when it is a plain tuple or list.  A Letter
    (a tuple subclass) is a typed value, not a sequence, and stays."""
    return iter(a) if type(a) in (tuple, list) else a


def _outcome(f, args, kwargs):
    """What a call gives: its value (a generator run out, a LatticeMonoid
    by its fields), or its KmxError's class and message."""
    try:
        out = f(*args, **kwargs)
    except KmxError as e:
        return type(e), str(e)
    if inspect.isgenerator(out):
        return list(out)
    return vars(out) if isinstance(out, TO.LatticeMonoid) else out


# the VALID rows, then a proper face for `contains` and `face_predicates`,
# an M-hat value, and the readers of typed indices and rational rays
ONE_SHOT = [(name, PUBLIC[name], args, {}) for name, args in sorted(VALID.items())] + [
    ("faces.contains", FC.contains, (_R1, (1, 1, 1)), {}),
    ("faces.face_predicates", FC.face_predicates, (_R1,), {"weight": (1, 1, 1)}),
    ("MhatElt.__call__", _MH, ((1, 1),), {}),
    ("cartan.one_based", cartan.one_based, (3, ["1", "2"]), {}),
    ("exact.primitive_ray", exact.primitive_ray, ((Fr(1, 2), 2),), {}),
    ("exact.primitive", exact.primitive, ((Fr(-1, 2), 2),), {}),
]
SHOT_CASES = [case for case in ONE_SHOT
              if any(type(a) in (tuple, list) and _one_shot(a) is not a
                     for a in case[2] + tuple(case[3].values()))]


def _shot_ids(names):
    """Each case's id: its name, suffixed -1, -2, ... only when the name
    repeats, so that adding or deleting one case renames no other."""
    seen = {}
    ids = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if names.count(name) == 1 else f"{name}-{seen[name]}")
    return ids


SHOT_IDS = _shot_ids([c[0] for c in SHOT_CASES])


@pytest.mark.parametrize("name,f,args,kwargs", SHOT_CASES, ids=SHOT_IDS)
def test_a_one_shot_iterable_gives_what_its_tuple_gives(name, f, args, kwargs):
    # each entry reads a sequence argument once, so an iterator handed in
    # gives the tuple call's value, or raises its error
    want = _outcome(f, args, kwargs)
    shot = _outcome(f, tuple(map(_one_shot, args)),
                    {key: _one_shot(a) for key, a in kwargs.items()})
    assert shot == want


def test_the_one_shot_sweep_reaches_the_double_readers():
    names = [c[0] for c in SHOT_CASES]
    assert len(SHOT_CASES) == 39 and len(set(names)) == 38
    assert len(set(SHOT_IDS)) == 39
    assert [i for i in SHOT_IDS if i not in names] == ["faces.contains-1", "faces.contains-2"]
    assert {"monoids.that_eval", "faces.contains", "faces.face_predicates",
            "MhatElt.__call__", "cartan.one_based", "exact.primitive"} <= set(names)
    assert FC.contains(_R1, (1, 1, 1)) is False and _MH((1, 1)) == 6


# -- one read per argument ---------------------------------------------------------


def _fresh():
    """Operands on a new root datum, so every table and memo starts empty."""
    datum = build_realization(HYPERBOLIC_ROWS)
    u, v = W.from_word(datum, (0, 1)), W.from_word(datum, (2, 1, 0))
    r, s = FC.parse_face(datum, "w=3; theta=1,2"), FC.parse_face(datum, "w=2 1; theta=1,2")
    t = (Fr(2), Fr(3), Fr(-5))
    return {
        "datum": datum, "u": u, "r": r, "s": s,
        "x": MO.wm_normalize(u, r), "y": MO.wm_normalize(v, s),
        "n": MO.nhat_from(u, t, r), "m": MO.nhat_from(v, t, s), "unit": MO.nhat_from(v, t),
        "tx": MO.that_normalize(t, r), "ty": MO.that_normalize(t, s),
        "word": HW.parse_word(datum, "N(1) E(w=1; theta=1,2) N(2)"),
    }


# public call -> the object arguments it is handed, so the reads it makes
READS = {
    "wm_mul": (lambda a: MO.wm_mul(a["x"], a["y"]), 2),
    "wm_invert": (lambda a: MO.wm_invert(a["x"]), 1),
    "wm_idempotent": (lambda a: MO.wm_idempotent(a["r"]), 1),
    "nhat_to_wmon": (lambda a: MO.nhat_to_wmon(a["n"]), 1),
    "nhat_inv": (lambda a: MO.nhat_inv(a["n"]), 1),
    "that_idempotent": (lambda a: MO.that_idempotent(a["r"]), 1),
    "bruhat_cell": (lambda a: HW.bruhat_cell(a["datum"], a["word"]), 1),
    "that_mul": (lambda a: MO.that_mul(a["tx"], a["ty"]), 2),
    "that_act": (lambda a: MO.that_act(a["u"], a["tx"]), 2),
    "nhat_mul": (lambda a: MO.nhat_mul(a["n"], a["m"]), 2),
    "nhat_conj_idem": (lambda a: MO.nhat_conj_idem(a["unit"], a["r"]), 2),
    "act_face": (lambda a: FC.act_face(a["u"], a["r"]), 2),
    "intersect": (lambda a: FC.intersect(a["r"], a["s"]), 2),
    "canonical": (lambda a: a["n"].canonical(), 0),
}


@pytest.mark.parametrize("name", sorted(READS))
def test_a_public_call_reads_each_object_argument_once(name, monkeypatch):
    args = _fresh()
    reads = []
    real = cartan._expect

    def counted(x, cls, what):
        reads.append(what)
        return real(x, cls, what)

    for mod in (cartan, W, FC, MO, TO, HW):
        if getattr(mod, "_expect", None) is real:
            monkeypatch.setattr(mod, "_expect", counted)
    call, want = READS[name]
    exposed = len(args["datum"]._exposed)
    call(args)
    assert len(reads) == want, reads
    if name == "intersect":  # the meet was a table miss
        assert len(args["datum"]._exposed) == exposed + 1
    if name == "wm_mul":  # the repeat is a lookup in x's products, and reads both again
        call(args)
        assert len(reads) == 2 * want, reads


# -- one read per argument of a point query ----------------------------------------

# the cartan readers; a read is an outermost call of one of them, so a reader
# that another reader calls (`exact_ints` calls `entries`) is not counted
READERS = ("_expect", "_check_datum", "entries", "exact_ints", "exact_rationals",
           "index_set", "torus_values", "_check_gcm")


def _point_operands():
    """Operands of the point queries on a new root datum, and an M-hat unit."""
    datum = build_realization(HYPERBOLIC_ROWS)
    u = W.from_word(datum, (0, 1))
    r = FC.parse_face(datum, "w=3; theta=1,2")
    lm = TO.LatticeMonoid([(1, 0), (0, 1)], 2)
    return {"datum": datum, "u": u, "r": r, "x": MO.wm_normalize(u, r), "lm": lm,
            "tx": MO.that_normalize((Fr(2), Fr(3), Fr(-5)), r),
            "mh": TO.mhat_unit(lm, (2, 3)), "lf": lm.top_face()}


# public point query -> its reads: one per argument it is handed, a default
# step budget included; `faces.includes`, a face query, reads its two faces
# and not the Theta^perp of the first, which it takes from the datum's core;
# `cartan.special_sets` reads its GCM once and types every connected subset
# through the core, which reads nothing again
POINT_READS = {
    "cartan.special_sets": (lambda a: cartan.special_sets(a["datum"].gcm), 1),
    "faces.includes": (lambda a: FC.includes(a["r"], a["r"]), 2),
    "faces.contains": (lambda a: FC.contains(a["r"], (1, 1, 1)), 3),
    "faces.in_relative_interior": (lambda a: FC.in_relative_interior(a["r"], (1, 1, 1)), 3),
    "faces.face_of_point": (lambda a: FC.face_of_point(a["datum"], (1, 1, 1)), 3),
    "faces.face_predicates-weight": (lambda a: FC.face_predicates(a["r"], weight=(1, 1, 1)), 3),
    "faces.face_predicates-weight-u": (
        lambda a: FC.face_predicates(a["r"], weight=(1, 1, 1), u=a["u"]), 4),
    "faces.in_span": (lambda a: FC.in_span(a["r"], (1, 1, 1)), 2),
    "faces.point_predicates": (lambda a: FC.point_predicates(a["r"], (1, 1, 1), a["r"]), 3),
    "monoids.wm_apply": (lambda a: MO.wm_apply(a["x"], (1, 1, 1)), 2),
    "monoids.that_eval": (lambda a: MO.that_eval(a["tx"], (1, 1, 1)), 2),
    "weyl.dominant_rep": (lambda a: W.dominant_rep(a["datum"], (1, 1, 1)), 3),
    "toric.mhat_mul": (lambda a: TO.mhat_mul(a["mh"], a["mh"]), 2),
    "LatticeMonoid.contains": (lambda a: a["lm"].contains((1, 1)), 1),
    "LatticeMonoid.active_set": (lambda a: a["lm"].active_set((1, 1)), 1),
    "LatticeMonoid.face_of": (lambda a: a["lm"].face_of((1, 1)), 1),
    "LatticeMonoid.principal_open": (lambda a: a["lm"].principal_open((1, 1)), 1),
    "LatticeMonoid.face_contains": (lambda a: a["lm"].face_contains(a["lf"], (1, 1)), 2),
    "MhatElt.__call__": (lambda a: a["mh"]((1, 1)), 1),
}


def _count_reads(monkeypatch, readers) -> list:
    """The list that each outermost call of one of the `cartan` readers
    appends its name to, from here on."""
    reads = []
    depth = [0]

    def counter(reader, real):
        def counted(*args, **kwargs):
            if not depth[0]:
                reads.append(reader)
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return counted

    for reader in readers:
        real = getattr(cartan, reader, None) or getattr(exact, reader)
        counted = counter(reader, real)
        for mod in (cartan, exact, W, FC, MO, TO, HW):
            if getattr(mod, reader, None) is real:
                monkeypatch.setattr(mod, reader, counted)
    return reads


@pytest.mark.parametrize("name", sorted(POINT_READS))
def test_a_point_query_reads_each_argument_once(name, monkeypatch):
    # the first call builds the datum's special sets and exposing coweights;
    # the second, counted, reads only what it is handed
    operands = _point_operands()
    call, want = POINT_READS[name]
    call(operands)
    reads = _count_reads(monkeypatch, READERS)
    call(operands)
    assert len(reads) == want, reads


# -- what verify's samplers and laws read -------------------------------------------

# verify's route -> its reads.  The samplers build on the cores from indices
# they drew themselves, so a face or a class, and so the triple that [4]
# draws, reads nothing; one [4] triple's laws read only through the public
# names that stay: the datum once (`wm_unit`), the class that `wm_invert`
# inverts (a law-leg test patches it) and the two faces of `intersect`, the
# meet that the idempotents are checked against; one [5] kappa pair reads
# only the two classes of the public `wm_mul` (a law-leg test patches it);
# the first [9] cone, of one generator, reads the rank, the generators and
# the generator of each of its two LatticeMonoids, the rows of their two
# `exact.kernel_lattice_basis` calls each (`int_mat`), and the two faces of
# each of its four `face_meet`s, but none of its box points, which it
# locates and decides on the cores (`_locate`, `exact._nonneg_feasible`)
VERIFY_READS = {
    "_rand_face": (verify._rand_face, 0),
    "_rand_wmon": (verify._rand_wmon, 0),
    "_rand_nhat": (verify._rand_nhat, 0),
    "[4] laws of one triple": (lambda rng, datum: verify._monoid_laws(rng, datum, 1), 4),
    "[5] kappa of one pair": (lambda rng, datum: verify._kappa_laws(rng, datum, 1), 2),
    "[9] one cone": (lambda rng, datum: verify.check_toric(1), 18),
}


@pytest.mark.parametrize("name", sorted(VERIFY_READS))
def test_verify_s_samplers_read_nothing_they_drew(name, monkeypatch):
    # the first call builds the datum's special sets and exposing coweights;
    # the second, counted, draws other samples
    datum = build_realization(HYPERBOLIC_ROWS)
    call, want = VERIFY_READS[name]
    call(random.Random(1), datum)
    reads = _count_reads(monkeypatch, READERS + ("check_index", "_nonneg_input", "int_mat"))
    call(random.Random(2), datum)
    assert len(reads) == want, reads
