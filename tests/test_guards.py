import ast
from pathlib import Path

import kmx


def test_no_assert_in_library():
    # `python -O` strips assert statements; every guard must be a raise
    src = Path(kmx.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_value_error_for_user_input():
    # bad input is a DomainError: the CLI and the operator-word parser raise
    # no bare ValueError
    src = Path(kmx.__file__).parent

    def raises_value_error(tree):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and node.exc is not None
                and "ValueError" in {n.id for n in ast.walk(node.exc)
                                     if isinstance(n, ast.Name)}]

    cli = ast.parse((src / "cli.py").read_text())
    hw = ast.parse((src / "highest_weight.py").read_text())
    (parse_word,) = [node for node in hw.body
                     if isinstance(node, ast.FunctionDef) and node.name == "parse_word"]
    assert raises_value_error(cli) == []
    assert raises_value_error(parse_word) == []
