"""Per-layer tracing from outside the program.

The tracer wraps public kmx callables at every module attribute that binds
them (including names brought in with `from .exact import ...`), plus the
listed methods and properties on their classes.  Each call is aggregated in
memory under (op kind, traced parent, callable) into calls, total and self
seconds; self time is the call's duration minus the time its traced children
took.  A recursive callable adds its duration to `total` only at its
outermost activation.
"""

from __future__ import annotations

import functools
import sys
import time

# The traced callables.  A comment names the end-to-end metric a group should
# move, and on which workload; it holds for the lines up to the next comment.
TRACED = (
    "exact.mat_mul",            # wall_s/op_p50_ms on coxeter-rank10, wall_s on verify
    "exact.rat_solve",          # wall_s on hw-slices (Gram solves) and verify (toric)
    "exact.smith_normal_form",
    "exact.lp_feasible",        # setup_s
    "exact.nonneg_solve",
    "cartan.build_realization",  # setup_s on coxeter-rank10
    "cartan.special_sets",
    "cartan.RootDatum.exposing_coweight",
    "cartan.RootDatum.pair",
    "weyl.WeylElt.__mul__",     # wall_s/op_p50_ms on coxeter-rank10, wall_s on verify
    "weyl.WeylElt.word",
    "weyl.min_coset_right",
    "weyl.min_coset_left",
    "weyl.min_double_coset",
    "weyl.dominant_rep",
    "weyl.antidominant_coweight",
    "faces.normalize_face",     # op_p50_ms/op_tail_ms on coxeter-rank10 (faces, monoids)
    "faces.act_face",
    "faces.includes",
    "faces.intersect",
    "faces.face_of_point",
    "monoids.wm_normalize",
    "monoids.wm_mul",
    "monoids.nhat_mul",
    "monoids.that_mul",
    "toric.LatticeMonoid.__init__",   # wall_s on verify
    "toric.LatticeMonoid.faces",
    "toric.LatticeMonoid.contains",
    "toric.LatticeMonoid.face_contains",
    "highest_weight.ModuleSlice.__init__",  # wall_s/op_tail_ms on hw-slices
    "highest_weight.weights_and_mults",
    "highest_weight.evaluate_word",
    "highest_weight.theta",
    "highest_weight.probe_equal",
)
# Only their total time is reported (wall_s on verify).
VERIFY_CHECKS = (
    "check_hyperbolic_example", "check_face_counts", "check_face_galois",
    "check_weyl_monoid", "check_kappa_and_cocycle", "check_operator_theorems",
    "check_multiplicity_oracles", "check_theta_multiplicative", "check_toric",
    "check_random_gcms",
)
TOTAL_ONLY = tuple(f"verify.{c}" for c in VERIFY_CHECKS) + ("cli.main",)

DERIVED = (
    ("weyl.mat_mul_per_mul", "ratio"),
    ("toric.rat_solve_per_face_contains", "ratio"),
    ("highest_weight.rat_solve_per_basis_vector", "ratio"),
    ("highest_weight.slice_dim_total", "count"),
    ("weyl.dominant_rep.decided_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        out[f"{name}.self_s"] = "s"
    for name in TOTAL_ONLY:
        out[f"{name}.total_s"] = "s"
    out.update(DERIVED)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # [name, start, child seconds]
        self.depth: dict[str, int] = {}
        self.agg: dict[tuple[str, str, str], list] = {}   # -> [calls, total, self]
        self.raised: dict[tuple[str, str], int] = {}
        self.spans: list[tuple[int, str, float, float]] = []
        self.op_kind = "setup"
        self.slice_dim_total = 0

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else "-"
        depth = self.depth.get(name, 0)
        self.depth[name] = depth + 1
        frame = [name, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            key = (name, type(e).__name__)
            self.raised[key] = self.raised.get(key, 0) + 1
            raise
        finally:
            dur = self.clock() - frame[1]
            self.stack.pop()
            self.depth[name] = depth
            rec = self.agg.get((self.op_kind, parent, name))
            if rec is None:
                rec = self.agg[(self.op_kind, parent, name)] = [0, 0.0, 0.0]
            rec[0] += 1
            if depth == 0:
                rec[1] += dur
            rec[2] += dur - frame[2]
            if self.stack:
                self.stack[-1][2] += dur
        if name == "highest_weight.ModuleSlice.__init__":
            self.slice_dim_total += sum(sp.dim for sp in args[0].spaces.values())
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def op(self, op_id: int, kind: str, start: float, end: float):
        """Record the span of one op of the stream."""
        self.spans.append((op_id, kind, start, end))

    # -- installing --------------------------------------------------------------

    def install(self, names=TRACED + TOTAL_ONLY):
        """Wrap each named kmx callable wherever a kmx module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "kmx" or k.startswith("kmx.")) and m is not None]
        for name in names:
            mod_name, *path = name.split(".")
            owner = sys.modules.get(f"kmx.{mod_name}")
            if owner is None:  # not imported by this workload
                continue
            if len(path) == 2:  # a method or property on a class
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, property):
                    setattr(cls, path[1], property(self.wrap(name, raw.fget)))
                else:
                    setattr(cls, path[1], self.wrap(name, raw))
                continue
            fn = getattr(owner, path[0])
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
            checks = getattr(owner, "ALL_CHECKS", None)
            if checks is not None:  # the battery holds its checks in a tuple
                owner.ALL_CHECKS = tuple((num, wrapped if f is fn else f)
                                         for num, f in checks)

    # -- reporting ---------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """callable -> [calls, total, self], summed over op kinds and parents."""
        out: dict[str, list] = {}
        for (_, _, name), (calls, total, self_s) in self.agg.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def calls_under(self, parent: str, name: str) -> int:
        return sum(rec[0] for (_, p, n), rec in self.agg.items()
                   if p == parent and n == name)

    def metrics(self, overhead_share: float) -> dict[str, float]:
        tot = self.totals()
        out: dict[str, float] = {}
        for name in TRACED:
            calls, total, self_s = tot.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        for name in TOTAL_ONLY:
            out[f"{name}.total_s"] = tot.get(name, (0, 0.0, 0.0))[1]

        def ratio(num, den):
            return num / den if den else 0.0

        muls = tot.get("weyl.WeylElt.__mul__", (0,))[0]
        out["weyl.mat_mul_per_mul"] = ratio(
            self.calls_under("weyl.WeylElt.__mul__", "exact.mat_mul"), muls)
        fc = tot.get("toric.LatticeMonoid.face_contains", (0,))[0]
        out["toric.rat_solve_per_face_contains"] = ratio(
            self.calls_under("toric.LatticeMonoid.face_contains", "exact.rat_solve"), fc)
        out["highest_weight.rat_solve_per_basis_vector"] = ratio(
            self.calls_under("highest_weight.ModuleSlice.__init__", "exact.rat_solve"),
            self.slice_dim_total)
        out["highest_weight.slice_dim_total"] = self.slice_dim_total
        dom = tot.get("weyl.dominant_rep", (0,))[0]
        undecided = self.raised.get(("weyl.dominant_rep", "Undecided"), 0)
        out["weyl.dominant_rep.decided_share"] = ratio(dom - undecided, dom)
        out["trace.overhead_share"] = overhead_share
        return out

    def dump(self) -> dict:
        return {
            "aggregates": [
                {"op_kind": k, "parent": p, "callable": n,
                 "calls": c, "total_s": t, "self_s": s}
                for (k, p, n), (c, t, s) in sorted(self.agg.items())],
            "raised": [{"callable": n, "exception": e, "count": c}
                       for (n, e), c in sorted(self.raised.items())],
            "spans": [{"op_id": i, "kind": k, "start": a, "end": b}
                      for i, k, a, b in self.spans],
        }


def per_call_overhead(clock=time.perf_counter, n: int = 50000) -> float:
    """Seconds the wrapper adds to one call, measured on a no-op callable."""
    def noop():
        return None

    tracer = Tracer(clock)
    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
