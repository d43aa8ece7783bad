"""Property test of the CLI's input readers: JSON monoid elements, face texts
and JSON faces, and weight strings, drawn near the accepted syntax and far
from it (numbers longer than Python converts to int included), never crash
kmx.

Every call exits 0 (accepted), 1 (a domain error), 2 (a usage error) or 3 (a
resource guard), never 4 (an internal error), and exits 1 and 3 print an
{"error": {"kind", "message"}} body.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kmx.cartan import build_realization  # noqa: E402
from kmx.cli import main  # noqa: E402

GCMS = {
    "A2": '{"A": [[2,-1],[-1,2]]}',
    "AFF": '{"A": [[2,-2],[-2,2]]}',
    "HYP": '{"A": [[2,-2,0],[-2,2,-1],[0,-1,2]]}',
}

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# -- strategies ---------------------------------------------------------------------

# digit strings about as long as Python's int() limit (4300 digits by default)
_long_digits = st.integers(4295, 4305).map(lambda k: "9" * k)
# stands for a JSON integer of _long_digits, which json.dumps cannot write
_LONG = "<long integer>"
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                          st.floats(allow_nan=False, allow_infinity=False, width=16),
                          st.text(max_size=6), st.just(_LONG))
_json_any = st.recursive(_json_scalars,
                         lambda inner: st.one_of(st.lists(inner, max_size=4),
                                                 st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3)),
                         max_leaves=8)

_number = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(0, 4)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["x", "", "0.5", "1e3", "+2", "-0", " 3", "4/2", "1/", "/2"]),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    _long_digits,
    st.text(max_size=5))
_junk_word = st.one_of(st.lists(st.integers(-1, 5), max_size=6).map(
    lambda ks: " ".join(map(str, ks))), st.text(max_size=8), _json_any)
_junk_list = st.one_of(st.lists(st.one_of(_number, _json_scalars), max_size=4), _json_any)


def _dumps(draw, obj):
    """JSON text of obj, each _LONG written as a long integer literal."""
    return json.dumps(obj).replace(json.dumps(_LONG), draw(_long_digits))


def _spoil(draw, obj, junk):
    """Set one field of obj, known or not, to a value drawn from junk."""
    key = draw(st.sampled_from(sorted(junk)))
    obj[key] = draw(junk[key])


class _Syntax:
    """Well-formed and spoilt inputs for one root datum.  Each reader
    returns (text, well_formed); a spoilt input may still happen to be
    well formed, so only the well-formed ones have a fixed exit code."""

    def __init__(self, gcm):
        datum = build_realization(json.loads(gcm)["A"])
        self.m = datum.m
        self.word = st.lists(st.integers(1, datum.n), max_size=5).map(
            lambda ks: " ".join(map(str, ks)))
        self.theta = st.sampled_from([[i + 1 for i in t] for t in datum.special_sets()])
        self.junk_theta = st.one_of(
            st.lists(st.integers(1, datum.n), unique=True, max_size=datum.n), _junk_list)
        value = st.one_of(st.integers(-3, 3).filter(bool).map(str),
                          st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
                              lambda p: f"{p[0]}/{p[1]}"))
        self.torus = st.lists(value, min_size=self.m, max_size=self.m)

    def json_face(self, draw, spoilt):
        face = {"w": draw(self.word), "theta": draw(self.theta)}
        for key in draw(st.sets(st.sampled_from(sorted(face)))):
            del face[key]  # both fields default to empty
        if spoilt:
            _spoil(draw, face, {"w": _junk_word, "theta": self.junk_theta, "x": _json_any})
        return face

    def element(self, draw, *, face_required):
        """A JSON monoid element {"w", "face", "t"} with optional fields left
        out; or with one field spoilt or added; or any JSON; or any text."""
        kind = draw(st.integers(0, 3))
        if kind == 3:
            return draw(st.text(max_size=12)), False
        if kind == 2:
            return _dumps(draw, draw(_json_any)), False
        elt = {"w": draw(self.word), "face": self.json_face(draw, False),
               "t": draw(self.torus)}
        optional = ["t", "w"] if face_required else ["face", "t", "w"]
        for key in draw(st.sets(st.sampled_from(optional))):
            del elt[key]
        if kind == 1:
            if draw(st.booleans()):
                elt["face"] = self.json_face(draw, True)
            else:
                _spoil(draw, elt, {"w": _junk_word, "face": _json_any, "t": _junk_list,
                                   "q": _json_any})
        return _dumps(draw, elt), kind == 0

    def face_text(self, draw):
        """A face written "w=...; theta=..." (fields in either order, either
        left out, commas or spaces in theta, spaces around the separators)
        or as JSON; or with a field repeated, misspelt, without '=' or with
        a junk value; or any text."""
        kind = draw(st.integers(0, 2))
        if kind == 2:
            return draw(st.text(max_size=16)), False
        if draw(st.booleans()):
            return _dumps(draw, self.json_face(draw, kind == 1)), kind == 0
        fields = [["w", draw(self.word)],
                  ["theta", draw(st.sampled_from([",", " ", ", "])).join(
                      map(str, draw(self.theta)))]]
        fields = [f for f in draw(st.permutations(fields)) if draw(st.booleans())]
        if kind == 1:
            fields = fields or [["theta", ""]]
            k = draw(st.integers(0, len(fields) - 1))
            how = draw(st.sampled_from(["repeat", "misspell", "no-equals", "junk"]))
            if how == "repeat":
                fields.append(list(fields[k]))
            elif how == "misspell":
                fields[k][0] = draw(st.sampled_from(["thet", "W", "", "theta w"]))
            elif how == "no-equals":
                fields[k] = [fields[k][0] + fields[k][1], None]
            else:
                fields[k][1] = str(draw(st.one_of(_junk_word, _junk_list)))
        pad = draw(st.sampled_from(["", " "]))
        return (pad + ";").join(key if val is None else f"{key}{pad}={pad}{val}"
                                for key, val in fields), kind == 0

    def weight(self, draw):
        """m coordinates, or a wrong count, separated by commas or spaces."""
        count = draw(st.sampled_from([self.m] * 4 + [0, self.m - 1, self.m + 1]))
        return draw(st.sampled_from([",", " ", ", "])).join(
            draw(_number) for _ in range(count))


SYNTAX = {name: _Syntax(gcm) for name, gcm in GCMS.items()}


# -- the property ---------------------------------------------------------------------


def _exit_code(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    out = buf.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, out)
    if code in (1, 3):
        body = json.loads(out)
        assert set(body) == {"error"} and set(body["error"]) == {"kind", "message"}, out
    return code


_gcm = st.sampled_from(sorted(GCMS))


@SETTINGS
@given(data=st.data(), gcm=_gcm)
def test_wmon_inv_element_reader(data, gcm):
    elt, ok = SYNTAX[gcm].element(data.draw, face_required=True)
    code = _exit_code(["wmon-inv", "--gcm", GCMS[gcm], f"--elt={elt}"])
    assert code == 0 or not ok


@SETTINGS
@given(data=st.data(), gcm=_gcm)
def test_nhat_mul_element_reader(data, gcm):
    (left, ok1), (right, ok2) = (SYNTAX[gcm].element(data.draw, face_required=False)
                                 for _ in range(2))
    code = _exit_code(["nhat-mul", "--gcm", GCMS[gcm], f"--left={left}", f"--right={right}"])
    assert code == 0 or not (ok1 and ok2)


@SETTINGS
@given(data=st.data(), gcm=_gcm)
def test_that_mul_element_reader(data, gcm):
    (left, ok1), (right, ok2) = (SYNTAX[gcm].element(data.draw, face_required=True)
                                 for _ in range(2))
    code = _exit_code(["that-mul", "--gcm", GCMS[gcm], f"--left={left}", f"--right={right}"])
    assert code == 0 or not (ok1 and ok2)


@SETTINGS
@given(data=st.data(), gcm=_gcm)
def test_face_reader(data, gcm):
    face, ok = SYNTAX[gcm].face_text(data.draw)
    code = _exit_code(["face-normalize", "--gcm", GCMS[gcm], f"--face={face}"])
    assert code == 0 or not ok


@SETTINGS
@given(data=st.data(), gcm=_gcm)
def test_weight_reader(data, gcm):
    # a well-formed weight may still be outside the Tits cone (exit 1) or
    # undecided within the cap (exit 3)
    weight = SYNTAX[gcm].weight(data.draw)
    for verb in ("dominant", "face-of-point"):
        _exit_code([verb, "--gcm", GCMS[gcm], f"--weight={weight}", "--cap", "200"])
