"""The names the benchmark in perfbench/ reaches into must keep existing.

The traced run wraps every callable listed in `perfbench/tracer.py` (TRACED,
plus the `kmx verify` checks in VERIFY_CHECKS and `cli.main`), and
`perfbench/workloads.py:cold_caches` reads kmx's caches.  A name that a
refactor renames or deletes would silently read 0 in the trace; this test
fails instead.  The lists are read from the tracer's source, not imported.
"""

import ast
import importlib
import os

import pytest

from kmx.cartan import A2_ROWS, build_realization

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer_constant(name):
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


TRACED = _tracer_constant("TRACED")
VERIFY_CHECKS = _tracer_constant("VERIFY_CHECKS")


def _resolve(name):
    """The object the tracer wraps for a dotted name `module.attr[.attr]`."""
    mod_name, *path = name.split(".")
    owner = importlib.import_module(f"kmx.{mod_name}")
    if len(path) == 2:  # a method or property, looked up on the class itself
        return getattr(owner, path[0]).__dict__[path[1]]
    return getattr(owner, path[0])


@pytest.mark.parametrize("name", TRACED + tuple(f"verify.{c}" for c in VERIFY_CHECKS)
                         + ("cli.main",))
def test_traced_name_resolves(name):
    obj = _resolve(name)
    assert isinstance(obj, property) or callable(obj)


def test_verify_checks_run_from_the_battery():
    from kmx import verify

    battery = {fn for _, fn in verify.ALL_CHECKS}
    assert {getattr(verify, c) for c in VERIFY_CHECKS} == battery


def test_caches_read_by_the_workloads_exist():
    from kmx import cartan

    for fn in (cartan._classify_cached, cartan._component_type_cached):
        assert callable(fn.cache_info) and callable(fn.cache_clear)
    fresh = build_realization(A2_ROWS)
    assert fresh._ctheta == {}
    # cold_caches reads a `_slice_cache` attribute as a warm slice cache, so
    # a fresh datum must not have one
    assert not hasattr(fresh, "_slice_cache")
