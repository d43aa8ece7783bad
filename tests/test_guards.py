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
