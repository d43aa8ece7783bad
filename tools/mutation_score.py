"""Seeded operator mutants of kmx, each run against the Tier-1 suite.

    python3 tools/mutation_score.py --seed 2 --count 20 --modules faces,weyl,monoids,toric

A site is one operator or constant of a module of `src/kmx` (every module,
or those --modules names): a comparison `<` or `<=` (and the mirrored `>`
or `>=`), `==` or `!=`, a binary or augmented `+` or `-`, `*` or `//`, a
boolean `and` or `or`, or an integer constant 0, 1 or 2.  Its mutant swaps
the operator for its partner, or the constant 0 for 1, 1 for 0 and 2 for 3.
The sites are read, by the stdlib `ast`, from the files of the commit HEAD,
and --count of them are drawn with `random.Random(seed)`.

Each mutant is written into its own `git archive` export of HEAD in a
temporary directory, by replacing the one token of its site, and is run
there, one after another, under `python -m pytest -x -q` with a timeout of
TIMEOUT seconds: a failing suite kills it, a passing one lets it survive.  A site
whose token cannot be found in the source, or whose edited source does not
parse to the mutated tree, is skipped and reported.  The tool prints one
line per mutant, then the killed, survived, timed-out and skipped counts,
then each survivor's diff.  Stdlib only; run it from anywhere inside a kmx
checkout.  One mutant costs a suite run, seconds when it is killed early
and the whole suite when it survives, so the Tier-1 suite does not run it.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import io
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# operator class -> (its partner, its token, the partner's token)
SWAPS = {
    ast.Lt: (ast.LtE, "<", "<="), ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="), ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="), ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Add: (ast.Sub, "+", "-"), ast.Sub: (ast.Add, "-", "+"),
    ast.Mult: (ast.FloorDiv, "*", "//"), ast.FloorDiv: (ast.Mult, "//", "*"),
    ast.And: (ast.Or, "and", "or"), ast.Or: (ast.And, "or", "and"),
}
CONSTANTS = {0: 1, 1: 0, 2: 3}
TIMEOUT = 300.0  # seconds per mutant's suite run


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(dest: str) -> None:
    """The files of commit HEAD, by `git archive`, into dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", "HEAD"))) as tar:
        # extraction filters came in Python 3.10.12 and 3.11.4
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def _operands(node: ast.AST) -> list[tuple[ast.AST, ast.AST, int]]:
    """(left, right, k) for each operator of node: the operands its k-th
    token sits between."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return [(sides[k], sides[k + 1], k) for k in range(len(node.ops))]
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right, 0)]
    if isinstance(node, ast.AugAssign):
        return [(node.target, node.value, 0)]
    if isinstance(node, ast.BoolOp):  # one operator, written between each pair
        return [(a, b, 0) for a, b in zip(node.values, node.values[1:])]
    return []


def sites(tree: ast.Module) -> list[tuple[int, int]]:
    """The mutation sites of a module as (node number in `ast.walk` order,
    operator number within the node)."""
    out = []
    for n, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            out.extend((n, k) for k, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                out.append((n, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int \
                and node.value in CONSTANTS:
            out.append((n, 0))
    return out


def module_sites(src: str, modules: list[str]) -> list[tuple[str, int, int]]:
    """(module, node, operator) for every site of the named modules of
    src/kmx, modules in sorted order."""
    out = []
    for name in sorted(modules):
        with open(os.path.join(src, "kmx", name + ".py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        out.extend((name, n, k) for n, k in sites(tree))
    return out


def draw(src: str, modules: list[str], seed: int, count: int) -> list[tuple[str, int, int]]:
    """count sites of the modules, drawn with random.Random(seed)."""
    every = module_sites(src, modules)
    return random.Random(seed).sample(every, min(count, len(every)))


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """The character offset in the source of an ast position (1-based line,
    UTF-8 byte column), for the source's lines split at "\n" alone, as ast
    counts them."""
    line = lines[lineno - 1]
    return sum(len(x) + 1 for x in lines[:lineno - 1]) + len(line.encode()[:col].decode())


def mutate(source: str, node_no: int, op_no: int) -> tuple[str, str]:
    """(the mutated source, a one-line description) of a site.  ValueError
    when the site's token is not found exactly once where it must be, or the
    edited source does not parse to the mutated tree."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[node_no]
    lines = source.split("\n")
    if isinstance(node, ast.Constant):
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        new = CONSTANTS[node.value]
        edits = [(start, end, str(new))]
        what = f"{node.value} -> {new}"
        node.value = new
    else:
        ops = node.ops if isinstance(node, ast.Compare) else [node.op]
        partner, tok, new_tok = SWAPS[type(ops[op_no])]
        suffix = "=" if isinstance(node, ast.AugAssign) else ""
        word = tok.isalpha()
        pattern = (rf"\b{tok}\b" if word
                   else rf"(?<![<>=!*/+\-]){re.escape(tok + suffix)}(?![<>=*/])")
        edits = []
        for left, right, k in _operands(node):
            if k != op_no:
                continue
            start = _offset(lines, left.end_lineno, left.end_col_offset)
            end = _offset(lines, right.lineno, right.col_offset)
            gap = source[start:end]
            found = [m for m in re.finditer(pattern, gap)
                     if "#" not in gap[:m.start()].rsplit("\n", 1)[-1]]
            if len(found) != 1:
                raise ValueError(f"token {tok!r} not found once between the operands")
            m = found[0]
            edits.append((start + m.start(), start + m.end(), new_tok + suffix))
        if isinstance(node, ast.Compare):
            node.ops[op_no] = partner()
        else:
            node.op = partner()
        what = f"{tok + suffix!r} -> {new_tok + suffix!r}"
    out = source
    for start, end, text in sorted(edits, reverse=True):
        out = out[:start] + text + out[end:]
    try:
        again = ast.parse(out)
    except SyntaxError as exc:
        raise ValueError(f"the edit does not parse: {exc}") from None
    if ast.dump(again) != ast.dump(tree):
        raise ValueError("the edit does not parse to the mutated tree")
    line = getattr(node, "lineno", 0)
    return out, f"line {line}: {what}"


def run_mutant(site: tuple[str, int, int]) -> tuple[str, str, float]:
    """(outcome, description, seconds) of one mutant: killed, survived,
    timeout or skipped; a survivor's description ends in its diff."""
    name, node_no, op_no = site
    with tempfile.TemporaryDirectory(prefix="kmx-mutant-") as tmp:
        export(tmp)
        path = os.path.join(tmp, "src", "kmx", name + ".py")
        with open(path, encoding="utf-8") as f:
            source = f.read()
        try:
            mutated, what = mutate(source, node_no, op_no)
        except ValueError as exc:
            return "skipped", f"{name}: node {node_no}: {exc}", 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write(mutated)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", f"{name}.py {what}", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            return "killed", f"{name}.py {what}", seconds
        diff = "".join(difflib.unified_diff(
            source.splitlines(keepends=True), mutated.splitlines(keepends=True),
            f"a/src/kmx/{name}.py", f"b/src/kmx/{name}.py", n=1))
        return "survived", f"{name}.py {what}\n{diff}", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--modules", default="",
                    help="comma-separated modules of src/kmx (default: all)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="kmx-sites-") as tmp:
        export(tmp)
        src = os.path.join(tmp, "src")
        modules = ([m for m in args.modules.split(",") if m] or
                   [f[:-3] for f in os.listdir(os.path.join(src, "kmx")) if f.endswith(".py")])
        total = len(module_sites(src, modules))
        chosen = draw(src, modules, args.seed, args.count)
    print(f"{len(chosen)} of {total} sites in {', '.join(sorted(modules))}, seed {args.seed}")
    counts = {"killed": 0, "survived": 0, "timeout": 0, "skipped": 0}
    survivors = []
    for site in chosen:
        outcome, what, seconds = run_mutant(site)
        counts[outcome] += 1
        print(f"{outcome:8} {seconds:6.1f} s  {what.splitlines()[0]}", flush=True)
        if outcome == "survived":
            survivors.append(what)
    print("killed {killed}, survived {survived}, timed out {timeout}, skipped {skipped}"
          .format(**counts))
    for what in survivors:
        print("\n" + what, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
