"""The site draw and the token edits of tools/mutation_score.py; its mutant
runs are whole suite runs and stay out of the test suite."""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutation_score",
                                               _ROOT / "tools" / "mutation_score.py")
MS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(MS)

# two fixture modules, so that the draw and the edits do not move with the
# sources of kmx
FIXTURE = {
    "alpha": "def f(a, b, c):\n"
             "    if (a < b and b <= c) or a == 0:\n"
             "        return a * (b - 1) + c // 2\n"
             "    return a != c\n",
    "beta": "def g(xs, n=1):\n"
            "    total = 0\n"
            "    for x in xs:\n"
            "        total += x * 2 if x > n else x - 1\n"
            "    return total >= 0 and n != 2\n",
}


@pytest.fixture
def src(tmp_path):
    (tmp_path / "kmx").mkdir()
    for name, text in FIXTURE.items():
        (tmp_path / "kmx" / f"{name}.py").write_text(text, encoding="utf-8")
    return str(tmp_path)


def test_one_seed_draws_the_same_sites_twice(src):
    first = MS.draw(src, list(FIXTURE), 2, 8)
    assert len(first) == len(set(first)) == 8
    assert MS.draw(src, list(FIXTURE), 2, 8) == first
    assert MS.draw(src, list(FIXTURE), 3, 8) != first
    assert {name for name, _, _ in first} == set(FIXTURE)


@pytest.mark.parametrize("source,want", [
    ("x = a < b\n", "x = a <= b\n"),
    ("x = a <= b < c\n", "x = a < b < c\n"),
    ("x = (a  # < here\n     == b)\n", "x = (a  # < here\n     != b)\n"),
    ("x = a and b and c\n", "x = a or b or c\n"),
    ("x = a * (b - 1)\n", "x = a // (b - 1)\n"),
    ("x += 'é' < 'f'\n", "x -= 'é' < 'f'\n"),
    ("x = f(-2)\n", "x = f(-3)\n"),
])
def test_a_mutant_edits_one_token(source, want):
    # the first site in `ast.walk` order, applied by a one-token edit that
    # parses back to the mutated tree
    (node, op), *_ = MS.sites(ast.parse(source))
    assert MS.mutate(source, node, op)[0] == want


def test_every_site_applies(src):
    # each site of the fixture is one token edit away from its mutant
    every = MS.module_sites(src, list(FIXTURE))
    assert len(every) > 8
    for name, node, op in every:
        mutated, _ = MS.mutate(FIXTURE[name], node, op)
        assert mutated != FIXTURE[name]


def test_a_site_whose_edit_changes_the_grouping_is_refused():
    # "a and b or c" with its "and" swapped reads (a or b or c), not the
    # mutated tree (a or b) or c; the tool skips such a site
    source = "x = a and b or c\n"
    nodes = list(ast.walk(ast.parse(source)))
    node, op = next((n, k) for n, k in MS.sites(ast.parse(source))
                    if isinstance(getattr(nodes[n], "op", None), ast.And))
    with pytest.raises(ValueError, match="mutated tree"):
        MS.mutate(source, node, op)


def test_each_module_s_share_of_the_draw_is_printed(src):
    every = MS.module_sites(src, list(FIXTURE))
    alpha = sum(name == "alpha" for name, _, _ in every)
    chosen = [site for site in every if site[0] == "alpha"][:2]
    assert MS.draw_lines(list(FIXTURE), every, chosen) == [
        f"  alpha: 2 of {alpha} sites drawn",
        f"  beta: 0 of {len(every) - alpha} sites drawn",
        "no site of beta was drawn"]
    # a draw of every site leaves no module out
    assert not any(line.startswith("no site")
                   for line in MS.draw_lines(list(FIXTURE), every, every))
