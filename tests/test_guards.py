import ast
import re
from pathlib import Path

import pytest

import kmx
from kmx import highest_weight as HW
from kmx.cartan import A2_ROWS, build_realization
from kmx.errors import DomainError


def _offence(node, module=""):
    if isinstance(node, ast.Assert):
        return "assert"
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float( call"
    if (module != "exact.py" and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and len(node.args) == 1 and not node.keywords
            and isinstance(node.args[0], ast.Name)):
        return "Fraction(name) read"
    return None


def test_no_assert_or_float_in_library():
    # `python -O` strips assert statements, so every guard must be a raise;
    # and the package is exact, so no float literal and no float( call.
    # Fraction(x) of one argument reads a float as its binary fraction and
    # parses a str, so a value from a caller is read by cartan's
    # exact_rationals or torus_values and only then made a Fraction, by
    # Fraction(x, 1), which takes rationals alone; exact.py converts its own
    # ints
    src = Path(kmx.__file__).parent
    found = [f"{path.name}:{node.lineno} {_offence(node, path.name)}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _offence(node, path.name)]
    assert found == []


def test_offence_finder_sees_each_kind():
    tree = ast.parse("assert x\ny = 0.5\nz = float(y)\nw = 2j\nv = 1 / 2\n"
                     "u = Fraction(y)\nu = Fraction(1)\nu = Fraction(y, 1)")
    assert [_offence(node) for node in ast.walk(tree) if _offence(node)] == [
        "assert", "float literal 0.5", "float( call", "float literal 2j",
        "Fraction(name) read"]
    assert [_offence(node, "exact.py") for node in ast.walk(tree)
            if _offence(node, "exact.py")] == [
        "assert", "float literal 0.5", "float( call", "float literal 2j"]


_LETTER_CHECKERS = {"check_index", "exact_rationals", "exact_ints", "torus_values"}


def _own_letter_checks(func):
    """The checker calls and unknown-letter raises in a function's body."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _LETTER_CHECKERS:
                found.append(f"{name} call")
        if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str)
                and "unknown letter" in c.value for c in ast.walk(node.exc)):
            found.append("unknown-letter raise")
    return found


def _names(func):
    return {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}


def test_word_entries_check_no_letter_themselves():
    # highest_weight.Letter is the one place that reads a letter's fields:
    # the field readers and the unknown-letter raise sit in Letter.__new__
    # and nowhere else.  _read_word, the one reader of a word, keeps the
    # checks that need the datum (check_index) and calls no field reader;
    # format_word only prints, and the word entries read their words through
    # _read_word
    tree = ast.parse((Path(kmx.__file__).parent / "highest_weight.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {(cls.name, node.name): node for cls in classes.values() for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    new = methods["Letter", "__new__"]
    assert sorted(set(_own_letter_checks(new))) == [
        "exact_ints call", "exact_rationals call", "torus_values call", "unknown-letter raise"]
    assert "_letter_fields" not in funcs
    elsewhere = [(node.name, c) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node is not new
                 for c in _own_letter_checks(node)
                 if c in ("exact_rationals call", "torus_values call", "unknown-letter raise")]
    assert elsewhere == []
    for name in ("format_word", "apply_word", "word_columns", "bruhat_cell",
                 "_run_word", "_exp", "_step", "_vector"):
        assert _own_letter_checks(funcs[name]) == [], name
    assert _own_letter_checks(funcs["_read_word"]) == ["check_index call"]
    assert "_read_letter" not in funcs
    for name in ("apply_word", "word_columns", "probe_equal", "bruhat_cell", "format_word"):
        assert "_read_word" in _names(funcs[name]), name
    # a word takes Letters only, read once, when it is built
    assert {"entries", "Letter"} <= _names(methods["GhatWord", "__post_init__"])


def test_letter_check_finder_sees_each_kind():
    tree = ast.parse("def f(letter):\n"
                     "    check_index(2, letter[1])\n"
                     "    C.exact_rationals((letter[2],), 'p')\n"
                     "    exact_ints(letter[1], 'h')\n"
                     "    torus_values((letter[2],), 1)\n"
                     "    raise DomainError(f'unknown letter {letter!r}')\n"
                     "    raise DomainError('bad index')\n"
                     "    _read_letter(datum, letter)\n")
    assert sorted(_own_letter_checks(tree.body[0])) == [
        "check_index call", "exact_ints call", "exact_rationals call",
        "torus_values call", "unknown-letter raise"]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def _subset_sorts(tree):
    """Each sorted(set(...)) call and each name _theta_key, as "function: kind"
    with the function it sits in."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and _name(node.func) == "sorted" and node.args
                and isinstance(node.args[0], ast.Call) and _name(node.args[0].func) == "set"):
            found.append(f"{func}: sorted(set(...))")
        if _name(node) == "_theta_key":
            found.append(f"{func}: _theta_key")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_only_index_set_sorts_a_node_subset():
    # cartan.index_set is the one reader of a node subset: it checks each
    # index and sorts the subset without repeats; no other function in the
    # modules that take node subsets sorts one itself
    src = Path(kmx.__file__).parent
    for name in ("cartan.py", "faces.py", "weyl.py"):
        found = _subset_sorts(ast.parse((src / name).read_text()))
        expect = ["index_set: sorted(set(...))"] if name == "cartan.py" else []
        assert found == expect, name


def test_subset_sort_finder_sees_each_kind():
    tree = ast.parse("def index_set(n, idx):\n"
                     "    return tuple(sorted(set(idx)))\n"
                     "def f(theta):\n"
                     "    key = sorted(set(theta)), sorted(theta), sorted(set(theta) & {1})\n"
                     "class R:\n"
                     "    def _theta_key(self, t):\n"
                     "        return t\n"
                     "    def g(self, t):\n"
                     "        return self._theta_key(t)\n"
                     "x = sorted(set(y))\n")
    assert _subset_sorts(tree) == ["index_set: sorted(set(...))", "f: sorted(set(...))",
                                   "_theta_key: _theta_key", "g: _theta_key",
                                   "<module>: sorted(set(...))"]


def test_no_value_error_for_user_input():
    # bad input is a DomainError: no module raises a bare ValueError but
    # exact.py, whose ValueErrors are its documented contract for matrix
    # input
    src = Path(kmx.__file__).parent

    def raises_value_error(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and node.exc is not None
                and "ValueError" in {n.id for n in ast.walk(node.exc)
                                     if isinstance(n, ast.Name)}]

    modules = sorted(path for path in src.glob("*.py") if path.name != "exact.py")
    assert {"cli.py", "highest_weight.py", "verify.py", "weyl.py"} <= {p.name for p in modules}
    for path in modules:
        assert raises_value_error(ast.parse(path.read_text())) == [], path.name
    assert raises_value_error(ast.parse((src / "exact.py").read_text()))


def _genexp_dots(tree):
    """Each sum(x * y for x, y in zip(...)): a generator expression that
    multiplies the two names one zip target binds, as "function: line"."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and _name(node.func) == "sum" and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
                and len(node.args[0].generators) == 1):
            elt, loop = node.args[0].elt, node.args[0].generators[0]
            bound = ({_name(t) for t in loop.target.elts}
                     if isinstance(loop.target, ast.Tuple) else set())
            if (isinstance(loop.iter, ast.Call) and _name(loop.iter.func) == "zip"
                    and isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Mult)
                    and all(isinstance(x, ast.Name) and x.id in bound
                            for x in (elt.left, elt.right))):
                found.append(f"{func}: {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_one_dot_product_kernel():
    # exact.vec_dot, sum(map(mul, u, v)), is the one dot product of the
    # library, and mat_mul and mat_vec use its form; no module multiplies
    # out a dot product in a generator expression of its own
    src = Path(kmx.__file__).parent
    found = [f"{path.name} {hit}" for path in sorted(src.glob("*.py"))
             for hit in _genexp_dots(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_dot_product_finder_sees_each_kind():
    tree = ast.parse("def f(u, v, a):\n"
                     "    x = sum(x * y for x, y in zip(u, v))\n"
                     "    y = sum(p * q for p, q in zip(u, v) if p)\n"
                     "    z = sum(map(mul, u, v))\n"
                     "    t = sum(x + y for x, y in zip(u, v))\n"
                     "    s = sum(x * f(y) for x, y in zip(u, v))\n"
                     "    r = sum(x * y for x in u for y in v)\n"
                     "w = sum(b * a for a, b in zip(u, v))\n")
    assert _genexp_dots(tree) == ["f: 2", "f: 3", "<module>: 8"]


_A2 = build_realization(A2_ROWS)
_NO_WORD = HW.GhatWord(())
# each highest_weight entry, called with an argument of the wrong type, and
# what it says; each ended in a raw AttributeError
WRONG_TYPES = {
    "apply_word": (lambda: HW.apply_word(_NO_WORD, 3), "3 is not a Vector"),
    "apply_chevalley": (lambda: HW.apply_chevalley((("e", 0),), 3), "3 is not a Vector"),
    "format_word": (lambda: HW.format_word("N(1)"), "'N(1)' is not a GhatWord"),
    "probe_equal": (lambda: HW.probe_equal("x", _NO_WORD, _NO_WORD, [((1, 0), 2)]),
                    "expected a RootDatum, got str"),
    "bruhat_cell": (lambda: HW.bruhat_cell("x", _NO_WORD), "expected a RootDatum, got str"),
    "weights_and_mults": (lambda: HW.weights_and_mults(_A2.gcm, (1, 0), 2),
                          "expected a RootDatum, got GCM"),
    "ModuleSlice": (lambda: HW.ModuleSlice("x", (1, 0), 2), "expected a RootDatum, got str"),
    "build_basis": (lambda: HW.build_basis(None, (1, 0), 2), "expected a RootDatum, got NoneType"),
    "root_multiplicities": (lambda: HW.root_multiplicities("x", 3),
                            "expected a RootDatum, got str"),
    "real_roots_with_witness": (lambda: HW.real_roots_with_witness(A2_ROWS, 3),
                                "expected a RootDatum, got tuple"),
    "nhat_letters": (lambda: HW.nhat_letters(_A2), "expected an NhatElt, got RootDatum"),
}


@pytest.mark.parametrize("entry", sorted(WRONG_TYPES))
def test_an_argument_of_the_wrong_type_is_a_domain_error_naming_it(entry):
    call, message = WRONG_TYPES[entry]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
