import json

import pytest

from kmx.cli import main

HYP = '{"A": [[2,-2,0],[-2,2,-1],[0,-1,2]]}'
AFF = '{"A": [[2,-2],[-2,2]]}'
A2 = '{"A": [[2,-1],[-1,2]]}'


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_classify_paper_matrix(capsys):
    payload = run_json(capsys, ["classify", "--gcm", HYP])
    assert payload["components"] == [{"set": [1, 2, 3], "type": "IND"}]


def test_special_paper_matrix(capsys):
    payload = run_json(capsys, ["special", "--gcm", HYP])
    assert payload == [[], [1, 2], [1, 2, 3]]


def test_face_intersect_example(capsys):
    payload = run_json(capsys, ["face-intersect", "--gcm", HYP,
                                "--left", "w=;theta=1,2",
                                "--right", "w=3;theta=1,2"])
    assert payload == {"w": "", "theta": [1, 2, 3]}


def test_toric_faces_prints_each_hull_as_a_kernel_basis(capsys):
    # a hull is the saturated kernel of the equalities and the face's active
    # facets, printed as one column reduction (`exact.kernel_lattice_basis`)
    # gives it; face 1's basis vector reads (1, -1, -2), the negative of the
    # generator spanning it
    payload = run_json(capsys, ["toric-faces", "--monoid",
                                '{"rank": 3, "generators": [[3,-2,-2],[-1,1,2],[1,-3,-1]]}'])
    assert payload == {"faces": [
        {"index": 0, "dim": 0, "hull": []},
        {"index": 1, "dim": 1, "hull": [[1, -1, -2]]},
        {"index": 2, "dim": 1, "hull": [[-1, 3, 1]]},
        {"index": 3, "dim": 1, "hull": [[3, -2, -2]]},
        {"index": 4, "dim": 2, "hull": [[1, -5, 0], [0, -2, 1]]},
        {"index": 5, "dim": 2, "hull": [[0, 1, 4], [1, 0, 2]]},
        {"index": 6, "dim": 2, "hull": [[1, 4, 0], [0, 7, 1]]},
        {"index": 7, "dim": 3, "hull": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}


def test_toric_faces_prints_the_column_reductions_orientation(capsys):
    # the column reduction and the Smith normal form before it give bases of
    # one lattice that can differ in sign: face 2's hull is (-1, 2, -2), the
    # negative of the generator (1, -2, 2), where the Smith normal form gave
    # that generator
    payload = run_json(capsys, ["toric-faces", "--monoid", '{"rank": 3, "generators": '
                                '[[1,3,-2],[1,-2,2],[-1,0,-3],[2,-3,0]]}'])
    assert payload == {"faces": [
        {"index": 0, "dim": 0, "hull": []},
        {"index": 1, "dim": 1, "hull": [[1, 0, 3]]},
        {"index": 2, "dim": 1, "hull": [[-1, 2, -2]]},
        {"index": 3, "dim": 1, "hull": [[1, 3, -2]]},
        {"index": 4, "dim": 2, "hull": [[1, -6, 0], [0, 2, 1]]},
        {"index": 5, "dim": 2, "hull": [[0, 3, -5], [1, 0, 3]]},
        {"index": 6, "dim": 2, "hull": [[2, 1, 0], [-5, 0, -2]]},
        {"index": 7, "dim": 3, "hull": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}


def test_that_mul_prints_a_face_lattice_basis_read_off_its_normal_form(capsys):
    # the basis of a face w R(Theta) is w Lambda_j for j not in Theta: the
    # acted face is s3 R({1,2}), so its basis is s3 Lambda_3 = (0, 1, -1),
    # where the Smith normal form gave (0, -1, 1) and the value 1/9 on it
    payload = run_json(capsys, ["that-mul", "--gcm", HYP,
                                "--left", '{"face": {"w": "", "theta": [1,2]}, "t": ["2","1","3"]}',
                                "--right", '{"face": {}, "t": ["1","1","3"]}', "--act", "1 3"])
    assert payload == {
        "product": {"face": {"w": "", "theta": [1, 2]}, "basis": [[0, 0, 1]], "values": ["9"]},
        "acted": {"face": {"w": "3", "theta": [1, 2]}, "basis": [[0, 1, -1]], "values": ["9"]}}


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_domain_error_exit_1(capsys):
    code, out = run(capsys, ["expose", "--gcm", HYP, "--theta", "1"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotSpecial"


@pytest.mark.parametrize("argv,subset", [
    (["face-normalize", "--face", "theta=1"], "(1,)"),
    (["expose", "--theta", "3"], "(3,)"),
])
def test_not_special_names_its_subset_one_based(capsys, argv, subset):
    code, out = run(capsys, [argv[0], "--gcm", HYP] + argv[1:])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "NotSpecial",
                                        "message": f"subset {subset} is not special"}


MONOID = '{"rank": 2, "generators": [[1,0],[0,1]]}'


@pytest.mark.parametrize("argv", [
    ["verify", "--gcm", "nonsense"],
    ["verify", "-i", "A.json"],
    ["verify", "--input", "A.json"],
    ["verify", "--text"],
    ["toric-saturate", "--gcm", "junk", "--monoid", MONOID],
    ["toric-saturate", "-i", "A.json", "--monoid", MONOID],
    ["toric-faces", "--gcm", "junk", "--monoid", MONOID],
    ["toric-faces", "-i", "A.json", "--monoid", MONOID],
])
def test_options_a_verb_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_option_sets_per_verb():
    from kmx.cli import make_parser
    parser = make_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, type(parser._subparsers._group_actions[0]))).choices
    for name, sub in verbs.items():
        opts = {o for a in sub._actions for o in a.option_strings}
        assert ({"-i", "--input", "--gcm"} <= opts) == (
            name not in ("toric-saturate", "toric-faces", "verify")), name
        assert ("--text" in opts) == (name != "verify"), name


def test_malformed_input_exit_1(capsys):
    code, out = run(capsys, ["classify", "--gcm", "not json"])
    assert code == 1 and "error" in json.loads(out)
    code, out = run(capsys, ["classify", "-i", "/nonexistent/path.json"])
    assert code == 1 and "error" in json.loads(out)
    code, out = run(capsys, ["ghat-theta", "--gcm", A2, "--hw", "1,0",
                             "--depth", "2", "--word", "Q(9)"])
    assert code == 1


# Bad 1-based indices and non-integer Cartan entries are domain errors that
# name what the user typed.
INPUT_ERRORS = [
    (["classify", "--gcm", A2, "-S", "0"], "simple index 0 out of range 1..2"),
    (["expose", "--gcm", HYP, "--theta", "0,1"], "simple index 0 out of range 1..3"),
    (["weyl-reduce", "--gcm", HYP, "--word", "0 1"], "simple index 0 out of range 1..3"),
    (["weyl-reduce", "--gcm", A2, "--word", "3"], "simple index 3 out of range 1..2"),
    (["face-normalize", "--gcm", HYP, "--face", '{"w": "1", "theta": [1, 4]}'],
     "simple index 4 out of range 1..3"),
    (["wmon-inv", "--gcm", HYP, "--elt", '{"w": "3", "face": {"w": "", "theta": [0]}}'],
     "simple index 0 out of range 1..3"),
    (["classify", "--gcm", '{"A": [[2,-1.5],[-1,2]]}'], "a[1][2] = -1.5 is not an integer"),
    (["classify", "--gcm", '{"A": [[2,-1],[true,2]]}'], "a[2][1] = True is not an integer"),
    (["validate", "--gcm", '{"A": [[1,-1],[-1,2]]}'], "diagonal entry a[1][1] = 1 != 2"),
    # the ghat word syntax reads the same 1-based indices
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "N(0)"],
     "simple index 0 out of range 1..2"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "X-(3;1)"],
     "simple index 3 out of range 1..2"),
    (["ghat-eval", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "X+(0;1)"],
     "simple index 0 out of range 1..2"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(h0;2)"],
     "coweight index 0 out of range 1..2"),
    (["ghat-theta", "--gcm", AFF, "--hw", "1,0,0", "--depth", "2", "--word", "T(h4;2)"],
     "coweight index 4 out of range 1..3"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(v=1,0,1;2)"],
     "torus coweight 1,0,1 needs 2 coordinates"),
    (["ghat-cell", "--gcm", A2, "--word", "E(w=; theta=0)"],
     "simple index 0 out of range 1..2"),
    (["ghat-cell", "--gcm", HYP, "--word", "E(w=4 1; theta=1,2)"],
     "simple index 4 out of range 1..3"),
    (["ghat-equal", "--gcm", A2, "--word1", "N(1)", "--word2", "N(0)", "--probes", "1,0:2"],
     "simple index 0 out of range 1..2"),
    (["module-weights", "--gcm", A2, "--hw", "1,0", "--depth", "-1"],
     "depth -1 is negative"),
    # numbers are read once: integers where a lattice point is expected,
    # a/b with b != 0 elsewhere
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "X+(1;1/0)"],
     "letter parameter 1/0 is not a number a/b with b != 0"),
    (["dominant", "--gcm", A2, "--weight", "1/0,1"],
     "weight coordinate 1/0 is not a number a/b with b != 0"),
    (["module-weights", "--gcm", A2, "--hw", "1/2,0", "--depth", "2"],
     "highest weight coordinate 1/2 is not an integer"),
    (["dominant", "--gcm", A2, "--antidominant", "--weight", "3/2,1"],
     "coweight coordinate 3/2 is not an integer"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(v=1/2,0;2)"],
     "torus coweight coordinate 1/2 is not an integer"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "X+(1)"],
     "letter X+(1) needs two fields"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(h1)"],
     "letter T(h1) needs two fields"),
    (["ghat-equal", "--gcm", A2, "--word1", "N(1)", "--word2", "N(1)", "--probes", "1,0"],
     "probe 1,0 is not hw:depth[:height]"),
    (["toric-saturate", "--monoid", '{"rank": 2, "generators": [[1,0],[1,2]]}',
      "--contains", "1/2,1"], "lattice point coordinate 1/2 is not an integer"),
    (["that-mul", "--gcm", A2, "--left", '{"face": {"w": "", "theta": []}, "t": ["x", "1"]}',
      "--right", '{"face": {"w": "", "theta": []}, "t": ["1", "1"]}'],
     "torus value x is not a number a/b with b != 0"),
    # JSON monoid elements are read by one checked reader
    (["wmon-inv", "--gcm", A2, "--elt", "[1]"], "element [1] is not a JSON object"),
    (["wmon-inv", "--gcm", A2, "--elt", '{"w": "1"}'], 'field "face" is missing'),
    (["wmon-inv", "--gcm", A2, "--elt", '{"w": "1", "face": [1]}'],
     'field "face" is not an object'),
    (["wmon-mul", "--gcm", A2, "--left", '{"w": 1, "face": {"w": "", "theta": []}}',
      "--right", '{"face": {"w": "", "theta": []}}'], 'field "w" is not a string'),
    (["that-mul", "--gcm", A2, "--left", '{"face": {"w": "", "theta": 1}}',
      "--right", '{"face": {"w": "", "theta": []}}'], 'field "face.theta" is not a list'),
    (["that-mul", "--gcm", A2, "--left", '{"face": {"w": "", "theta": []}, "t": "12"}',
      "--right", '{"face": {"w": "", "theta": []}}'], 'field "t" is not a list'),
    (["nhat-mul", "--gcm", A2, "--left", '{"w": "1", "face": {"w": 2}}',
      "--right", '{"w": "2"}'], 'field "face.w" is not a string'),
    (["nhat-mul", "--gcm", A2, "--left", '"1"', "--right", '{"w": "2"}'],
     'element "1" is not a JSON object'),
    # lattice-monoid input: integers only, face indices in range
    (["toric-saturate", "--monoid", '{"rank": 2, "generators": [[1.5, 0], [0, 1]]}'],
     "generator coordinate 1.5 is not an integer"),
    (["toric-saturate", "--monoid", '{"rank": "2", "generators": [[1, 0], [0, 1]]}'],
     'monoid rank "2" is not an integer'),
    (["toric-saturate", "--monoid", '{"rank": -1, "generators": []}'], "rank -1 is negative"),
    (["toric-saturate", "--monoid", '{"rank": 2, "generators": [1, 0]}'],
     'monoid input must be {"rank": r, "generators": [[...], ...]}'),
    (["toric-faces", "--monoid", '{"rank": 2, "generators": [[1, 0], [0, 1]]}', "--face", "-1"],
     "face index -1 out of range 0..3"),
    (["toric-faces", "--monoid", '{"rank": 2, "generators": [[1, 0], [0, 1]]}', "--face", "99"],
     "face index 99 out of range 0..3"),
    # one face reader for --face and E(...): unknown or repeated keys and
    # fields without '=' are rejected, JSON faces and elements name the field
    (["face-normalize", "--gcm", HYP, "--face", "w=1;thetaa=1,2"],
     "unknown face field 'thetaa'"),
    (["face-normalize", "--gcm", HYP, "--face", "[1]"], "face field '[1]' is not key=value"),
    (["face-normalize", "--gcm", HYP, "--face", "w=1;w=2;theta=1,2"],
     "face field 'w' given twice"),
    (["face-normalize", "--gcm", HYP, "--face", '{"w":"1","th":[1]}'], 'field "th" is unknown'),
    (["face-include", "--gcm", HYP, "--left", "w=;theta=1,2", "--right", "theta"],
     "face field 'theta' is not key=value"),
    (["ghat-theta", "--gcm", HYP, "--hw", "1,0,0", "--depth", "2",
      "--word", "E(w=1; thet=1,2)"], "unknown face field 'thet'"),
    (["ghat-cell", "--gcm", HYP, "--word", "E(w=1; theta=1,2; theta=1,2)"],
     "face field 'theta' given twice"),
    (["wmon-inv", "--gcm", HYP, "--elt", '{"w": "3", "face": {}, "x": 1}'],
     'field "x" is unknown'),
    (["nhat-mul", "--gcm", A2, "--left", '{"w": "1", "face": {"w": "", "thet": []}}',
      "--right", '{"w": "2"}'], 'field "face.thet" is unknown'),
    # a coweight has as many coordinates as a weight
    (["dominant", "--gcm", HYP, "--antidominant", "--weight", "1,0,0,0"],
     "coweight needs 3 coordinates"),
    (["dominant", "--gcm", HYP, "--antidominant", "--weight", ""],
     "coweight needs 3 coordinates"),
    # numbers are written a, -a or a/b: no decimal or exponent forms
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(h1;1e3)"],
     "letter parameter 1e3 is not a number a/b with b != 0"),
    (["dominant", "--gcm", A2, "--weight", "0.5,1"],
     "weight coordinate 0.5 is not a number a/b with b != 0"),
    (["dominant", "--gcm", A2, "--antidominant", "--weight", "4/2,1"],
     "coweight coordinate 4/2 is not an integer"),
    # the Cartan matrix object has the one key "A"
    (["classify", "--gcm", '{"A": [[2,-1],[-1,2]], "B": 7}'], 'field "B" is unknown'),
    # numbers longer than Python converts to int, typed or in JSON
    (["dominant", "--gcm", A2, "--weight", "9" * 5000 + ",1"],
     "weight coordinate has 5000 characters, more than"),
    (["classify", "--gcm", '{"A": [[2,-%s],[-1,2]]}' % ("9" * 5000)],
     "JSON integer has 5001 characters, more than"),
    (["toric-saturate", "--monoid", '{"rank": 2, "generators": [[1,%s]]}' % ("9" * 5000)],
     "JSON integer has 5000 characters, more than"),
    (["that-mul", "--gcm", A2, "--left", '{"face": {}, "t": ["1", "%s"]}' % ("9" * 5000),
      "--right", '{"face": {}}'], "torus value has 5000 characters, more than"),
    # a negative height compared no column, so two different words were equal
    (["ghat-equal", "--gcm", A2, "--word1", "X-(1;1)", "--word2", "X-(1;2)",
      "--probes", "1,0:2:-1"], "height -1 is negative"),
    # a negative cap answered Undecided for a weight already dominant
    (["dominant", "--gcm", A2, "--weight", "1,0", "--cap", "-1"], "step budget -1 is negative"),
    (["face-of-point", "--gcm", A2, "--weight", "1,0", "--cap", "-5"],
     "step budget -5 is negative"),
    # a matrix that is not square, none given, or not an object, and a
    # torus coweight that is neither hk nor v=...
    (["validate", "--gcm", '{"A": [[2,-1],[-1,2],[0,0]]}'],
     "matrix must be a square nonempty list of rows"),
    (["classify"], "no Cartan matrix given: use -i FILE or --gcm JSON"),
    (["classify", "--gcm", "[1, 2]"], 'Cartan matrix input must be {"A": [[...], ...]}'),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2", "--word", "T(x1;2)"],
     "bad torus coweight 'x1'"),
]


@pytest.mark.parametrize("verb", ["that-mul", "nhat-mul"])
def test_a_wrong_length_torus_is_a_rank_mismatch(capsys, verb):
    for t in (["2"], ["2", "1", "1"]):
        left = json.dumps({"face": {"w": "", "theta": []}, "t": t})
        code, out = run(capsys, [verb, "--gcm", A2, "--left", left, "--right", left])
        assert code == 1 and json.loads(out)["error"] == {
            "kind": "RankMismatch", "message": "torus element needs 2 values"}


@pytest.mark.parametrize("argv,message", INPUT_ERRORS,
                         ids=[f"{c[0][0]}{i}" for i, c in enumerate(INPUT_ERRORS)])
def test_bad_index_or_entry_is_a_domain_error(capsys, argv, message):
    from kmx import errors

    code, out = run(capsys, argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert issubclass(getattr(errors, err["kind"]), errors.DomainError)
    assert message in err["message"]


def test_face_text_reader_accepts_both_theta_separators(capsys):
    want = run_json(capsys, ["face-normalize", "--gcm", HYP, "--face", "w=1;theta=1,2"])
    for face in ("w=1; theta=1 2", " theta = 2, 1 ; w = 1 ;", "w=1;theta=1,,2"):
        assert run_json(capsys, ["face-normalize", "--gcm", HYP, "--face", face]) == want
    assert run_json(capsys, ["face-normalize", "--gcm", HYP, "--face", ""]) == {
        "w": "", "theta": []}
    cells = {run(capsys, ["ghat-cell", "--gcm", HYP, "--word", f"E(w=3; theta={t})"])
             for t in ("1,2", "1 2", " 2 , 1 ")}
    assert len(cells) == 1 and next(iter(cells))[0] == 0


def test_internal_errors_exit_4(capsys, monkeypatch):
    from kmx import cli
    from kmx.errors import InternalError

    # a bare KeyError, ValueError or IndexError is a bug too, not bad input
    for exc in (InternalError("a theorem failed"), KeyError("k"), ValueError("v"),
                IndexError("i")):
        def broken(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code, out = run(capsys, ["validate", "--gcm", A2])
        assert code == 4
        assert json.loads(out) == {"error": {"kind": type(exc).__name__, "message": str(exc)}}


_MONOID = '{"rank": 2, "generators": [[1, 0], [0, 1]]}'

# each integer option with the verb that takes it
INT_OPTIONS = [
    (["module-weights", "--gcm", A2, "--hw", "1,1"], "--depth"),
    (["module-basis", "--gcm", A2, "--hw", "1,1"], "--depth"),
    (["ghat-eval", "--gcm", A2, "--hw", "1,0", "--word", "N(1)"], "--depth"),
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--word", "N(1)"], "--depth"),
    (["ghat-eval", "--gcm", A2, "--hw", "1,0", "--word", "N(1)"], "--max-height"),
    (["dominant", "--gcm", A2, "--weight", "1,0"], "--cap"),
    (["face-of-point", "--gcm", A2, "--weight", "1,0"], "--cap"),
    (["toric-faces", "--monoid", _MONOID], "--face"),
]


@pytest.mark.parametrize("argv,option", INT_OPTIONS, ids=[f"{a[0]}{o}" for a, o in INT_OPTIONS])
@pytest.mark.parametrize("token", ["1_0", "\u0663", "1.5"])
def test_an_integer_option_is_read_as_typed(capsys, argv, option, token):
    # argparse's int() read 1_0 as 10 and the Arabic-Indic digit three as
    # 3, and 1.5 was a usage error (exit 2); each is a domain error naming
    # the token, as every other typed integer is
    code, out = run(capsys, argv + [option, token])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "DomainError",
                                        "message": f"{option} {token} is not an integer"}


def test_module_weights_past_the_vanishing_peterson_coefficient(capsys):
    # at 2 theta (height 4) the Peterson coefficient of A2 vanishes; the
    # multiplicities below height 5 must still come out right
    payload = run_json(capsys, ["module-weights", "--gcm", A2, "--hw", "1,0",
                                "--depth", "5"])
    assert [e["weight"] for e in payload["weights"]] == [[-1, 1], [0, -1], [1, 0]]


def test_guard_error_exit_3(capsys):
    code, out = run(capsys, ["module-weights", "--gcm", A2,
                             "--hw", "1,0", "--depth", "99"])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "DepthTooLarge"


def test_face_of_point_predicates_read_the_cap(capsys):
    # w rho for w = (s1 s2)^1100 on affine A1: its walk to the dominant
    # chamber needs more than the default 2000 steps
    argv = ["face-of-point", "--gcm", AFF, "--weight=-4399,4401,-2418899", "--cap", "5000"]
    full = {"w": "", "theta": []}
    assert run_json(capsys, argv) == full
    payload = run_json(capsys, argv + ["--predicates", "w=;theta=1,2"])
    assert payload == {"face": full, "predicates": {
        "contains": False, "in_relative_interior": False, "in_span": False}}
    code, out = run(capsys, argv[:-2] + ["--predicates", "w=;theta=1,2"])
    assert code == 3
    assert json.loads(out)["error"] == {"kind": "Undecided",
                                        "message": "undecided after 2000 iterations"}


FACE_OF_POINT_OUTPUTS = [  # argv after the verb, and the line it prints
    (["--gcm", HYP, "--weight", "0,0,1", "--predicates", "w=;theta=1,2", "--element", "1"],
     '{"face": {"w": "", "theta": [1, 2]}, "predicates": {"contains": true, '
     '"in_relative_interior": true, "in_span": true, "centralizes": true, '
     '"normalizes": true}}'),
    (["--gcm", HYP, "--weight", "1,0,1", "--predicates", "w=3;theta=1,2", "--element", "3 1"],
     '{"face": {"w": "", "theta": []}, "predicates": {"contains": false, '
     '"in_relative_interior": false, "in_span": false, "centralizes": false, '
     '"normalizes": false}}'),
    (["--gcm", HYP, "--weight", "0,0,0", "--predicates", "w=;theta=1,2"],
     '{"face": {"w": "", "theta": [1, 2, 3]}, "predicates": {"contains": true, '
     '"in_relative_interior": false, "in_span": true}}'),
    (["--gcm", AFF, "--weight=-4399,4401,-2418899", "--cap", "5000",
      "--predicates", "w=;theta=1,2"],
     '{"face": {"w": "", "theta": []}, "predicates": {"contains": false, '
     '"in_relative_interior": false, "in_span": false}}'),
]


def test_face_of_point_predicates_walk_the_weight_once(capsys, monkeypatch):
    # the printed face and the predicates read one Tits-cone walk
    from kmx import weyl

    walks = []
    real = weyl._dominant

    def counting(*args, **kwargs):
        walks.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(weyl, "_dominant", counting)
    for argv, printed in FACE_OF_POINT_OUTPUTS:
        walks.clear()
        assert run(capsys, ["face-of-point"] + argv) == (0, printed + "\n")
        assert len(walks) == 1


def test_that_mul_act_multiplies_once(capsys, monkeypatch):
    from kmx import monoids

    calls = []
    real = monoids.that_mul

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(monoids, "that_mul", counting)
    argv = next(argv for argv, _ in COVERAGE if argv[0] == "that-mul")
    assert "--act" in argv
    payload = run_json(capsys, argv)
    assert set(payload) == {"product", "acted"} and len(calls) == 1


def test_ghat_equal_builds_no_dense_matrix(capsys, monkeypatch):
    from kmx import highest_weight

    calls = []
    real = highest_weight.evaluate_word

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(highest_weight, "evaluate_word", counting)
    verdicts = [run_json(capsys, ["ghat-equal", "--gcm", A2, "--word1", "N(1) N(1)",
                                  "--word2", word2, "--probes", "1,0:2;1,1:4"])["verdict"]
                for word2 in ("T(h1;-1)", "X+(1;1)")]
    assert verdicts == ["equal_on_probes", "distinct"] and calls == []


def test_depth_option_truncates(capsys):
    payload = run_json(capsys, ["module-weights", "--gcm", A2, "--hw", "1,1", "--depth", "1"])
    hts = {tuple(e["weight"]) for e in payload["weights"]}
    assert (1, 1) in hts and len(hts) == 3  # top and the two height-1 weights


def test_classify_writes_both_type_sets_one_based(capsys):
    # affine A1 on nodes 1, 2 beside A2 on nodes 3, 4: a 0-based theta0 or
    # theta_inf would print indices from 0
    gcm = '{"A": [[2,-2,0,0],[-2,2,0,0],[0,0,2,-1],[0,0,-1,2]]}'
    assert run_json(capsys, ["classify", "--gcm", gcm]) == {
        "components": [{"set": [1, 2], "type": "AFF"}, {"set": [3, 4], "type": "FIN"}],
        "theta0": [3, 4], "theta_inf": [1, 2]}


def test_a_distinct_verdict_names_its_witness_entry(capsys):
    # N(1) and N(2) differ on v_rho at the entry (row (1,1) #0, column
    # (-1,2) #0); each index is the entry's index, not its weight
    assert run_json(capsys, ["ghat-equal", "--gcm", A2, "--word1", "N(1)", "--word2", "N(2)",
                             "--probes", "1,1:4"]) == {
        "verdict": "distinct", "probe": {"hw": [1, 1], "depth": 4},
        "row": {"weight": [1, 1], "index": 0}, "col": {"weight": [-1, 2], "index": 0},
        "left": "1", "right": "0"}


def test_toric_faces_takes_the_first_face_index(capsys):
    # 0 is a face index: the range check is 0 <= index < #faces
    payload = run_json(capsys, ["toric-faces", "--monoid", _MONOID, "--face", "0"])
    assert payload["face"]["index"] == 0


# one invocation per verb; the table records which library operation each
# verb (with its options) reaches
COVERAGE = [
    # cartan: validate_and_symmetrize
    (["validate", "--gcm", AFF], "valid"),
    # cartan: classify (and exact.lp_feasible underneath)
    (["classify", "--gcm", HYP, "-S", "1,2"], "components"),
    # cartan: special_sets
    (["special", "--gcm", HYP], None),
    # cartan: RootDatum.exposing_coweight
    (["expose", "--gcm", HYP, "--theta", "1,2"], "coweight"),
    # cartan: build_realization (and exact.int_rref underneath)
    (["realize", "--gcm", AFF], "alpha"),
    # weyl: from_word / descents
    (["weyl-reduce", "--gcm", A2, "--word", "2 1 2"], "word"),
    # weyl: dominant_rep
    (["dominant", "--gcm", AFF, "--weight", "0,1,0"], "status"),
    # weyl: antidominant_coweight
    (["dominant", "--gcm", HYP, "--weight", "1,1,1", "--antidominant"],
     "antidominant"),
    # faces: normalize_face
    (["face-normalize", "--gcm", HYP, "--face", "w=1;theta=1,2"], "theta"),
    # faces: includes (min_double_coset underneath)
    (["face-include", "--gcm", HYP, "--left", "w=;theta=1,2",
      "--right", "w=;theta=1,2,3"], "included"),
    # faces: intersect (antidominant minimization underneath)
    (["face-intersect", "--gcm", HYP, "--left", "w=;theta=1,2",
      "--right", "w=3;theta=1,2"], "theta"),
    # faces: face_of_point + face_predicates
    (["face-of-point", "--gcm", HYP, "--weight", "0,0,1",
      "--predicates", "w=;theta=1,2", "--element", "1"], "predicates"),
    # monoids: wm_normalize / wm_mul / act_face / wm_apply
    (["wmon-mul", "--gcm", HYP,
      "--left", '{"w": "3", "face": {"w": "", "theta": [1,2]}}',
      "--right", '{"w": "", "face": {"w": "", "theta": [1,2]}}',
      "--apply", "0,0,1"], "product"),
    # monoids: wm_invert with flags
    (["wmon-inv", "--gcm", HYP,
      "--elt", '{"w": "3", "face": {"w": "", "theta": [1,2]}}'], "inverse"),
    # monoids: that_normalize / that_mul / that_act
    (["that-mul", "--gcm", AFF,
      "--left", '{"face": {"w": "", "theta": [1,2]}, "t": ["2","1","1"]}',
      "--right", '{"face": {"w": "", "theta": []}, "t": ["1","1","3"]}',
      "--act", "1"], "product"),
    # monoids: nhat_mul / nhat_to_wmon / nhat_conj_idem
    (["nhat-mul", "--gcm", AFF,
      "--left", '{"w": "1", "t": ["1","1","1"], "face": {"w":"","theta":[]}}',
      "--right", '{"w": "2", "t": ["2","1","1"], "face": {"w":"","theta":[]}}',
      "--conj-face", "w=;theta=1,2"], "product"),
    # toric: LatticeMonoid + membership
    (["toric-saturate", "--monoid", '{"rank": 2, "generators": [[1,0],[1,2]]}',
      "--contains", "1,1"], "contains"),
    # toric: monoid_face_ops / mhat_idempotents / closure / principal open
    (["toric-faces", "--monoid", '{"rank": 2, "generators": [[1,0],[0,1]]}',
      "--face", "1", "--ri", "1,0", "--dual", "--principal-open", "0,0",
      "--idempotents"], "faces"),
    # highest_weight: weights_and_mults
    (["module-weights", "--gcm", A2, "--hw", "1,1", "--depth", "2"], "weights"),
    # highest_weight: build_basis
    (["module-basis", "--gcm", A2, "--hw", "1,0", "--depth", "2"], "spaces"),
    # highest_weight: evaluate_word / apply_generator
    (["ghat-eval", "--gcm", A2, "--hw", "1,0", "--depth", "2",
      "--word", "X-(1;1) T(h1;2)"], "matrix"),
    # highest_weight: theta / matrix_coefficient
    (["ghat-theta", "--gcm", A2, "--hw", "1,0", "--depth", "2",
      "--word", "T(h1;5)"], "theta"),
    # highest_weight: probe_equal
    (["ghat-equal", "--gcm", A2, "--word1", "N(1) N(1)", "--word2", "T(h1;-1)",
      "--probes", "1,0:2"], "verdict"),
    # highest_weight: bruhat_cell
    (["ghat-cell", "--gcm", AFF,
      "--word", "X-(1;2) N(1) E(w=; theta=1,2) X+(2;1)"], "face"),
]


@pytest.mark.parametrize("argv,key", COVERAGE, ids=[c[0][0] + str(i)
                                                    for i, c in enumerate(COVERAGE)])
def test_verb_coverage(capsys, argv, key):
    payload = run_json(capsys, argv)
    if key is not None:
        assert key in payload


def test_every_documented_verb_is_covered():
    from kmx.cli import make_parser
    covered = {argv[0] for argv, _ in COVERAGE} | {"verify"}
    parser = make_parser()
    actions = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
    assert set(actions.choices) == covered


def test_output_is_byte_deterministic(capsys):
    for argv, _ in COVERAGE:
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2, argv


def test_text_rendering(capsys):
    code, out = run(capsys, ["classify", "--gcm", HYP, "--text"])
    assert code == 0
    assert "IND" in out and "{" not in out


def test_input_file(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(HYP)
    payload = run_json(capsys, ["classify", "-i", str(path)])
    assert payload["theta_inf"] == [1, 2, 3]


def test_verify_timings_go_to_stderr_only(capsys, monkeypatch):
    import re

    from kmx import verify
    # run_all reads ALL_CHECKS at call time: three real checks, cut small
    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("1", verify.check_hyperbolic_example),
        ("3", lambda: verify.check_face_galois(pairs=20)),
        ("4", lambda: verify.check_weyl_monoid(triples=20)),
    ))
    assert main(["verify"]) == 0
    plain = capsys.readouterr()
    assert main(["verify", "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    line_re = re.compile(r"\[(\w)\] [a-z0-9-]+: \d+\.\d\d s CPU, (\d+) Weyl elements, "
                         r"(\d+) simplex runs")

    def counts(err):
        found = [line_re.fullmatch(line) for line in err.splitlines()]
        assert all(found), err
        return [(m[1], int(m[2]), int(m[3])) for m in found]

    # each check reports the Weyl elements its own fresh root data took and
    # the simplex runs their classification made: [1] reuses the data of the
    # run before and builds none, [4]'s exposing coweights are read off the
    # type certificates of the run before, and a second run reports the same
    # counts
    first = counts(timed.err)
    assert [num for num, _, _ in first] == ["1", "3", "4"]
    assert first[0][1:] == (0, 0) and first[2][1] > 0 and first[2][2] == 0
    assert main(["verify", "--timings"]) == 0
    assert counts(capsys.readouterr().err) == first



def test_a_failing_check_makes_verify_exit_1(capsys, monkeypatch):
    from kmx import verify
    failing = verify.CheckResult("forged", False, ("a failing leg",))
    monkeypatch.setattr(verify, "ALL_CHECKS", (("1", lambda: failing),))
    with pytest.raises(SystemExit) as exit_:
        main(["verify"])
    assert exit_.value.code == 1
    assert capsys.readouterr().out == ("[1] forged: FAIL\n    a failing leg\n"
                                       "result: FAILURES PRESENT\n")


def test_an_empty_subset_is_classified_as_given(capsys):
    # an empty -S is the empty subset, not a missing -S
    payload = run_json(capsys, ["classify", "--gcm", HYP, "-S", ""])
    assert payload == {"components": [], "theta0": [], "theta_inf": []}


def test_empty_predicates_are_the_full_cone(capsys):
    # an empty --predicates is the face "w=;theta=", not a missing option
    argv = ["face-of-point", "--gcm", HYP, "--weight", "0,0,1", "--element", "1",
            "--predicates"]
    payload = run_json(capsys, argv + [""])
    assert payload == run_json(capsys, argv + ["w=;theta="])
    assert set(payload["predicates"]) == {"contains", "in_relative_interior", "in_span",
                                          "centralizes", "normalizes"}


def test_a_repeated_subset_index_is_read_once(capsys):
    # it printed "theta": [1, 2, 2]
    payload = run_json(capsys, ["expose", "--gcm", HYP, "--theta", "1,2,2"])
    assert payload == {"theta": [1, 2], "coweight": [1, 1, 0]}
