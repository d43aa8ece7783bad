"""Command-line front end.

All indices are 1-based in input and output.  The verbs that need a Cartan
matrix read it from -i FILE or --gcm JSON.  Every verb but verify prints
deterministic JSON (fixed key order, exact rationals as strings); --text
renders small aligned tables instead.  Exit codes: 0 success, 1 domain
error (bad input, malformed JSON, an unreadable file), 2 usage error (an
option the verb does not take included), 3 resource guard, 4 internal error
(any other exception: a bug, never a verdict on the input).  Exits 1, 3 and
4 print an {"error": {"kind", "message"}} body; exit 4 also prints the
traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import faces as FC, highest_weight as HW, monoids as MO, toric, verify
from . import weyl as W
from .cartan import (RootDatum, build_realization, classify, index_set, one_based,
                     special_sets, typed_numbers)
from .errors import DomainError, GuardError, NotInTitsCone


def _json(text: str):
    """Parsed JSON input whose integers are read by `typed_numbers`."""
    return json.loads(text, parse_int=lambda s: typed_numbers([s], "JSON integer",
                                                              integral=True)[0])


def _load_gcm(args) -> RootDatum:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = _json(fh.read())
    elif args.gcm:
        payload = _json(args.gcm)
    else:
        raise DomainError("no Cartan matrix given: use -i FILE or --gcm JSON")
    if not isinstance(payload, dict) or "A" not in payload:
        raise DomainError('Cartan matrix input must be {"A": [[...], ...]}')
    _only_fields(payload, ("A",))
    return build_realization(payload["A"])


def _parse_subset(datum, text: str) -> tuple[int, ...]:
    """A node subset as typed, 1-based, read as `cartan.index_set` reads it."""
    return index_set(datum.n, one_based(datum.n, text.replace(",", " ").split()))


def _parse_word(datum, text: str):
    return W.from_word(datum, one_based(datum.n, text.split()))


def _numbers(text: str, what: str, integral: bool = False) -> tuple:
    return typed_numbers(text.replace(",", " ").split(), what, integral=integral)


def _parse_weight(datum, text: str, what: str = "weight", integral: bool = False):
    """The datum.m coordinates of a weight (or coweight) as typed."""
    vals = _numbers(text, f"{what} coordinate", integral)
    if len(vals) != datum.m:
        raise DomainError(f"{what} needs {datum.m} coordinates")
    return vals


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _only_fields(obj: dict, keys: tuple, where: str = "") -> None:
    """DomainError naming the first field of obj that is not one of keys."""
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise DomainError(f'field "{where}{extra[0]}" is unknown')


def _field(obj: dict, key: str, kind: type, default=None, where: str = ""):
    """obj[key], checked to be of `kind`, or `default` when it is absent and
    one is given; otherwise a DomainError naming the field."""
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise DomainError(f'field "{where}{key}" is missing')
    if not isinstance(obj[key], kind):
        raise DomainError(f'field "{where}{key}" is not {_KINDS[kind]}')
    return obj[key]


def _json_face(datum, obj: dict, where: str = "") -> FC.Face:
    """The face {"w": word, "theta": [...]} of a JSON object; both default to
    empty, and any other field is a DomainError."""
    _only_fields(obj, ("w", "theta"), where)
    return FC.normalize_face(_parse_word(datum, _field(obj, "w", str, "", where)),
                             one_based(datum.n, _field(obj, "theta", list, [], where)))


def _parse_face(datum, text: str) -> FC.Face:
    text = text.strip()
    if text.startswith("{"):
        return _json_face(datum, _json(text))
    return FC.parse_face(datum, text)


def _word_text(word) -> str:
    """A word of 0-based letters as the 1-based text "1 2 1"."""
    return " ".join(str(i + 1) for i in word)


def _face_json(face: FC.Face) -> dict:
    return {"w": _word_text(face.w.word),
            "theta": [i + 1 for i in face.theta]}


def _wmon_json(x: MO.WmonElt) -> dict:
    return {"w": _word_text(x.w.word),
            "face": _face_json(x.face),
            "is_idempotent": x.is_idempotent(),
            "is_unit": x.is_unit()}


def _parse_element(datum, text: str, *, face_optional: bool = False):
    """(Weyl element, face, torus values) of a JSON monoid element
    {"w": word, "face": {"w": word, "theta": [...]}, "t": [values]}.

    "w" defaults to the empty word, "t" to the unit torus and, only when
    `face_optional`, "face" to the full cone.  A payload that is not an
    object, or a field that is missing, unknown or of the wrong kind, is a
    DomainError naming it.  The monoid that takes the torus values reads
    their count and zeros (`cartan.torus_values`).
    """
    payload = _json(text)
    if not isinstance(payload, dict):
        raise DomainError(f"element {text} is not a JSON object")
    _only_fields(payload, ("w", "face", "t"))
    face = _field(payload, "face", dict, {} if face_optional else None)
    return (_parse_word(datum, _field(payload, "w", str, "")),
            _json_face(datum, face, "face."),
            typed_numbers(_field(payload, "t", list, ["1"] * datum.m), "torus value"))


def _parse_wmon(datum, text: str) -> MO.WmonElt:
    w, face, _ = _parse_element(datum, text)
    return MO.wm_normalize(w, face)


def _that_json(x: MO.ThatElt) -> dict:
    return {"face": _face_json(x.face),
            "basis": [list(b) for b in x.basis],
            "values": [str(v) for v in x.values]}


def _parse_nhat(datum, text: str) -> MO.NhatElt:
    w, face, torus = _parse_element(datum, text, face_optional=True)
    return MO.nhat_from(w, torus, face)


def _nhat_json(x: MO.NhatElt) -> dict:
    kappa, face, residual = x.canonical()
    return {"w": _word_text(x.w.word),
            "torus": [str(v) for v in x.torus],
            "face": _face_json(face),
            "canonical_w": _word_text(kappa.w.word),
            "residual_torus": [str(v) for v in residual],
            "kappa": _wmon_json(kappa)}


def _json_ints(vals, what: str) -> tuple[int, ...]:
    """JSON values that must be integers, each named as typed in JSON."""
    return typed_numbers([json.dumps(v) for v in vals], what, integral=True)


def _parse_monoid(args) -> toric.LatticeMonoid:
    payload = _json(args.monoid)
    if (not isinstance(payload, dict) or "rank" not in payload
            or not isinstance(payload.get("generators"), list)
            or any(not isinstance(g, list) for g in payload["generators"])):
        raise DomainError('monoid input must be {"rank": r, "generators": [[...], ...]}')
    (rank,) = _json_ints([payload["rank"]], "monoid rank")
    return toric.LatticeMonoid(
        [_json_ints(g, "generator coordinate") for g in payload["generators"]], rank)


def _vec_str_list(v):
    return [str(x) for x in v]


def _int_option(text, option: str):
    """An integer option as typed ([+-]digits), None when left out: read
    here, not by argparse's type=int, which takes 1_0 and non-ASCII digits
    and whose errors escape `main`'s exit codes."""
    if text is None:
        return None
    (n,) = typed_numbers([text], option, integral=True)
    return n


def _emit(args, obj) -> None:
    if getattr(args, "text", False):
        sys.stdout.write(_render_text(obj) + "\n")
    else:
        sys.stdout.write(json.dumps(obj) + "\n")


def _render_text(obj, indent: str = "") -> str:
    if isinstance(obj, dict):
        lines = []
        width = max((len(str(k)) for k in obj), default=0)
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{str(k):<{width}}  {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            _render_text(v, indent + "  ") if isinstance(v, (dict, list))
            else f"{indent}- {v}" for v in obj)
    return f"{indent}{obj}"


# -- handlers -----------------------------------------------------------------------


def cmd_validate(args):
    datum = _load_gcm(args)
    _emit(args, {
        "valid": True,
        "n": datum.n,
        "rank": datum.l,
        "symmetrizer": [str(e) for e in datum.gcm.eps],
        "B": [[str(x) for x in row] for row in datum.gcm.b],
    })


def cmd_classify(args):
    datum = _load_gcm(args)
    subset = None if args.subset is None else _parse_subset(datum, args.subset)
    cls = classify(datum.gcm, subset)
    _emit(args, {
        "components": [{"set": [i + 1 for i in comp], "type": t.value}
                       for comp, t in cls.components],
        "theta0": [i + 1 for i in cls.theta0],
        "theta_inf": [i + 1 for i in cls.theta_inf],
    })


def cmd_special(args):
    datum = _load_gcm(args)
    _emit(args, [[i + 1 for i in t] for t in special_sets(datum.gcm)])


def cmd_expose(args):
    datum = _load_gcm(args)
    theta = _parse_subset(datum, args.theta)
    c = datum.exposing_coweight(theta)
    _emit(args, {"theta": [i + 1 for i in theta], "coweight": list(c)})


def cmd_realize(args):
    datum = _load_gcm(args)
    _emit(args, {
        "n": datum.n,
        "rank": datum.l,
        "dim": datum.m,
        "alpha": [list(a) for a in datum.alpha],
        "symmetrizer": [str(e) for e in datum.gcm.eps],
        "coroot_gram": [[str(x) for x in row] for row in datum.gram],
    })


def cmd_weyl_reduce(args):
    datum = _load_gcm(args)
    w = _parse_word(datum, args.word)
    _emit(args, {
        "word": _word_text(w.word),
        "length": w.length,
        "left_descents": [i + 1 for i in w.left_descents()],
        "right_descents": [i + 1 for i in w.right_descents()],
        "matrix": [list(row) for row in w.mat_p],
    })


def cmd_dominant(args):
    datum = _load_gcm(args)
    cap = _int_option(args.cap, "--cap")
    if args.antidominant:
        d = _parse_weight(datum, args.weight, "coweight", integral=True)
        dmin, v = W.antidominant_coweight(datum, d)
        _emit(args, {
            "antidominant": list(dmin),
            "word": _word_text(v.word),
        })
        return
    lam = _parse_weight(datum, args.weight)
    try:
        res = W.dominant_rep(datum, lam, cap=cap)
    except NotInTitsCone as e:
        _emit(args, {"status": "not_in_tits_cone", "certificate": e.certificate})
        return
    _emit(args, {
        "status": "ok",
        "dominant": _vec_str_list(res.dominant),
        "word": _word_text(res.w.word),
        "facet_type": [i + 1 for i in res.facet_type],
    })


def cmd_face_normalize(args):
    datum = _load_gcm(args)
    _emit(args, _face_json(_parse_face(datum, args.face)))


def cmd_face_include(args):
    datum = _load_gcm(args)
    r = _parse_face(datum, args.left)
    s = _parse_face(datum, args.right)
    _emit(args, {"included": FC.includes(r, s)})


def cmd_face_intersect(args):
    datum = _load_gcm(args)
    r = _parse_face(datum, args.left)
    s = _parse_face(datum, args.right)
    _emit(args, _face_json(FC.intersect(r, s)))


def cmd_face_of_point(args):
    datum = _load_gcm(args)
    lam = _parse_weight(datum, args.weight)
    face = FC.face_of_point(datum, lam, cap=_int_option(args.cap, "--cap"))
    out = _face_json(face)
    if args.predicates is not None:
        ref = _parse_face(datum, args.predicates)
        preds = FC.point_predicates(ref, lam, face)  # the verb's walk serves them
        if args.element is not None:
            preds.update(FC.face_predicates(ref, u=_parse_word(datum, args.element)))
        out = {"face": out, "predicates": preds}
    _emit(args, out)


def cmd_wmon_mul(args):
    datum = _load_gcm(args)
    x = _parse_wmon(datum, args.left)
    y = _parse_wmon(datum, args.right)
    prod = MO.wm_mul(x, y)
    out = _wmon_json(prod)
    if args.apply is not None:
        lam = _parse_weight(datum, args.apply)
        img = MO.wm_apply(prod, lam)
        out = {"product": out,
               "applied": "zero" if img is MO.ZERO else _vec_str_list(img)}
    _emit(args, out)


def cmd_wmon_inv(args):
    datum = _load_gcm(args)
    x = _parse_wmon(datum, args.elt)
    _emit(args, {
        "inverse": _wmon_json(MO.wm_invert(x)),
        "is_idempotent": x.is_idempotent(),
        "is_unit": x.is_unit(),
    })


def cmd_that_mul(args):
    datum = _load_gcm(args)

    def parse(text):
        _, face, torus = _parse_element(datum, text)
        return MO.that_normalize(torus, face)

    prod = MO.that_mul(parse(args.left), parse(args.right))
    out = _that_json(prod)
    if args.act is not None:
        out = {"product": out,
               "acted": _that_json(MO.that_act(_parse_word(datum, args.act), prod))}
    _emit(args, out)


def cmd_nhat_mul(args):
    datum = _load_gcm(args)
    x = _parse_nhat(datum, args.left)
    y = _parse_nhat(datum, args.right)
    prod = MO.nhat_mul(x, y)
    out = _nhat_json(prod)
    if args.conj_face is not None:
        face = _parse_face(datum, args.conj_face)
        out = {"product": out,
               "conjugated_face": _face_json(MO.nhat_conj_idem(x, face))}
    _emit(args, out)


def cmd_toric_saturate(args):
    m = _parse_monoid(args)
    out = {
        "rank": m.rank,
        "rays": [list(r) for r in m.rays],
        "lineality": [list(b) for b in m.lineality],
        "inequalities": [list(a) for a in m.inequalities],
        "equalities": [list(a) for a in m.equalities],
        "num_faces": len(m.faces()),
    }
    if args.contains is not None:
        x = _numbers(args.contains, "lattice point coordinate", integral=True)
        out["contains"] = m.contains(x)
    _emit(args, out)


def cmd_toric_faces(args):
    m = _parse_monoid(args)
    index = _int_option(args.face, "--face")
    faces = m.faces()
    out = {"faces": [{"index": f.index, "dim": f.dim,
                      "hull": [list(b) for b in f.hull]} for f in faces]}
    if index is not None:
        if not 0 <= index < len(faces):
            raise DomainError(f"face index {index} out of range 0..{len(faces) - 1}")
        f = faces[index]
        entry = {"index": f.index, "dim": f.dim,
                 "hull": [list(b) for b in f.hull],
                 "subfaces": [g.index for g in m.subfaces(f)]}
        if args.ri is not None:
            x = _numbers(args.ri, "lattice point coordinate", integral=True)
            entry["relative_interior_contains"] = m.relative_interior_contains(f, x)
        if args.dual:
            d = m.dual_face(f)
            entry["dual_face"] = {"rays": [list(r) for r in d.rays],
                                  "lineality": [list(b) for b in d.lineality],
                                  "num_faces": len(d.faces())}
        out["face"] = entry
    if args.principal_open is not None:
        x = _numbers(args.principal_open, "lattice point coordinate", integral=True)
        out["principal_open"] = [f.index for f in m.principal_open(x)]
    if args.idempotents:
        out["idempotents"] = [{"face": e.face_index, "values": [str(v) for v in e.values]}
                              for e in toric.mhat_idempotents(m)]
    _emit(args, out)


def _parse_hw(datum, text):
    return _parse_weight(datum, text, "highest weight", integral=True)


def cmd_module_weights(args):
    datum = _load_gcm(args)
    hw = _parse_hw(datum, args.hw)
    table = HW.weights_and_mults(datum, hw, _int_option(args.depth, "--depth"))
    _emit(args, {"weights": [{"weight": list(wt), "mult": table[wt]}
                             for wt in sorted(table)]})


def cmd_module_basis(args):
    datum = _load_gcm(args)
    hw = _parse_hw(datum, args.hw)
    sl = HW.build_basis(datum, hw, _int_option(args.depth, "--depth"))
    out = []
    for wt in sl.order:
        sp = sl.spaces[wt]
        out.append({
            "weight": list(wt),
            "dim": sp.dim,
            "basis_words": [_word_text(word) for word in sp.words],
            "gram": [[str(x) for x in row] for row in sp.gram],
        })
    _emit(args, {"depth": sl.depth, "spaces": out})


def cmd_ghat_eval(args):
    datum = _load_gcm(args)
    hw = _parse_hw(datum, args.hw)
    max_height = _int_option(args.max_height, "--max-height")
    sl = HW.build_basis(datum, hw, _int_option(args.depth, "--depth"))
    word = HW.parse_word(datum, args.word)
    (rows, cols), mat = HW.evaluate_word(sl, word, max_height=max_height)
    _emit(args, {
        "rows": [{"weight": list(wt), "index": k} for wt, k in rows],
        "cols": [{"weight": list(wt), "index": k} for wt, k in cols],
        "matrix": [[str(x) for x in row] for row in mat],
    })


def cmd_ghat_theta(args):
    datum = _load_gcm(args)
    hw = _parse_hw(datum, args.hw)
    sl = HW.build_basis(datum, hw, _int_option(args.depth, "--depth"))
    word = HW.parse_word(datum, args.word)
    _emit(args, {"theta": str(HW.theta(sl, word))})


def cmd_ghat_equal(args):
    datum = _load_gcm(args)
    w1 = HW.parse_word(datum, args.word1)
    w2 = HW.parse_word(datum, args.word2)
    probes = []
    for chunk in args.probes.split(";"):
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise DomainError(f"probe {chunk} is not hw:depth[:height]")
        probes.append((_parse_hw(datum, parts[0]),)
                      + typed_numbers(parts[1:], "probe depth or height", integral=True))
    res = HW.probe_equal(datum, w1, w2, probes)
    if isinstance(res, HW.EqualOnProbes):
        _emit(args, {"verdict": "equal_on_probes",
                     "note": "not a proof of equality in the full monoid",
                     "probes": [{"hw": list(h), "depth": d} for h, d in res.probes]})
    else:
        _emit(args, {"verdict": "distinct",
                     "probe": {"hw": list(res.probe[0]), "depth": res.probe[1]},
                     "row": {"weight": list(res.row[0]), "index": res.row[1]},
                     "col": {"weight": list(res.col[0]), "index": res.col[1]},
                     "left": str(res.left), "right": str(res.right)})


def cmd_ghat_cell(args):
    datum = _load_gcm(args)
    word = HW.parse_word(datum, args.word)
    _emit(args, _wmon_json(HW.bruhat_cell(datum, word)))


def cmd_verify(args):
    timings = [] if args.timings else None
    ok, report = verify.run_all(timings)
    sys.stdout.write(report)
    for num, name, seconds, elements, runs in timings or ():
        sys.stderr.write(f"[{num}] {name}: {seconds:.2f} s CPU, {elements} Weyl elements, "
                         f"{runs} simplex runs\n")
    if not ok:
        sys.exit(1)


# -- parser -------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kmx",
        description="exact Kac-Moody monoid-completion combinatorics")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, fn, *, gcm=True, text=True, **kwargs):
        """A subparser; `gcm` adds -i/--gcm for verbs that load a Cartan
        matrix, `text` adds --text for verbs that print JSON."""
        p = sub.add_parser(name, **kwargs)
        if gcm:
            p.add_argument("-i", "--input", help="path to a JSON file {\"A\": [[...], ...]}")
            p.add_argument("--gcm", help="inline JSON Cartan matrix")
        if text:
            p.add_argument("--text", action="store_true", help="aligned text output")
        p.set_defaults(fn=fn)
        return p

    verb("validate", cmd_validate, help="validate and symmetrize a Cartan matrix")
    p = verb("classify", cmd_classify, help="component types (FIN/AFF/IND)")
    p.add_argument("-S", "--subset", help="1-based index subset, e.g. '1,2'")
    verb("special", cmd_special, help="all special subsets")
    p = verb("expose", cmd_expose, help="canonical exposing coweight of a special set")
    p.add_argument("--theta", required=True)
    verb("realize", cmd_realize, help="explicit realization data")
    p = verb("weyl-reduce", cmd_weyl_reduce, help="canonical reduced word and descents")
    p.add_argument("--word", required=True, help="1-based simple indices, e.g. '1 2 1'")
    p = verb("dominant", cmd_dominant, help="dominance minimization with certificates")
    p.add_argument("--weight", required=True)
    p.add_argument("--antidominant", action="store_true",
                   help="treat the input as an integer coweight and antidominant-minimize")
    p.add_argument("--cap", default=str(W.STEP_BUDGET))
    p = verb("face-normalize", cmd_face_normalize, help="face normal form")
    p.add_argument("--face", required=True, help="'w=3 1;theta=1,2' or JSON")
    p = verb("face-include", cmd_face_include, help="is the right face inside the left?")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p = verb("face-intersect", cmd_face_intersect, help="meet of two faces")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p = verb("face-of-point", cmd_face_of_point, help="smallest face containing a weight")
    p.add_argument("--weight", required=True)
    p.add_argument("--predicates", help="face to test the point's predicates against")
    p.add_argument("--element", help="Weyl word for centralize/normalize predicates")
    p.add_argument("--cap", default=str(W.STEP_BUDGET))
    p = verb("wmon-mul", cmd_wmon_mul, help="Weyl monoid product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--apply", help="weight to apply the product to")
    p = verb("wmon-inv", cmd_wmon_inv, help="Weyl monoid inverse and flags")
    p.add_argument("--elt", required=True)
    p = verb("that-mul", cmd_that_mul, help="torus monoid product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--act", help="Weyl word acting on the product")
    p = verb("nhat-mul", cmd_nhat_mul, help="normalizer monoid product")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--conj-face", help="conjugate this face idempotent by the left element")
    p = verb("toric-saturate", cmd_toric_saturate, gcm=False,
             help="saturate a lattice monoid")
    p.add_argument("--monoid", required=True)
    p.add_argument("--contains", help="lattice point to test")
    p = verb("toric-faces", cmd_toric_faces, gcm=False,
             help="face lattice of a lattice monoid")
    p.add_argument("--monoid", required=True)
    p.add_argument("--face", help="face index for detailed operations")
    p.add_argument("--ri", help="point for a relative-interior test")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--principal-open", help="point m for D(m)")
    p.add_argument("--idempotents", action="store_true")
    p = verb("module-weights", cmd_module_weights, help="weight multiplicities")
    p.add_argument("--hw", required=True)
    p.add_argument("--depth", default="4")
    p = verb("module-basis", cmd_module_basis, help="slice bases and Gram matrices")
    p.add_argument("--hw", required=True)
    p.add_argument("--depth", default="4")
    p = verb("ghat-eval", cmd_ghat_eval, help="operator matrix of a word")
    p.add_argument("--hw", required=True)
    p.add_argument("--depth", default="4")
    p.add_argument("--word", required=True)
    p.add_argument("--max-height")
    p = verb("ghat-theta", cmd_ghat_theta, help="highest matrix coefficient")
    p.add_argument("--hw", required=True)
    p.add_argument("--depth", default="4")
    p.add_argument("--word", required=True)
    p = verb("ghat-equal", cmd_ghat_equal, help="probe operator equality of two words")
    p.add_argument("--word1", required=True)
    p.add_argument("--word2", required=True)
    p.add_argument("--probes", required=True, help="'hw:depth[:height];...'")
    p = verb("ghat-cell", cmd_ghat_cell, help="cell of a factored word")
    p.add_argument("--word", required=True)
    p = verb("verify", cmd_verify, gcm=False, text=False,
             help="run the deterministic verification battery")
    p.add_argument("--timings", action="store_true",
                   help="print each check's CPU seconds, new Weyl elements and simplex "
                        "runs on stderr")
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        args.fn(args)
    except Exception as e:
        if isinstance(e, (DomainError, json.JSONDecodeError, UnicodeDecodeError, OSError)):
            code = 1  # bad input, malformed JSON, an unreadable file
        elif isinstance(e, GuardError):
            code = 3
        else:
            code = 4  # InternalError or any other exception: a bug in kmx
            traceback.print_exc()
        sys.stdout.write(json.dumps({"error": {"kind": type(e).__name__,
                                               "message": str(e)}}) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
