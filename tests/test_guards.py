import ast
from pathlib import Path

import kmx


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
