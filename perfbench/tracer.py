"""Per-layer tracing of weylflow from outside the program.

The tracer wraps public entry points of the ``weylflow`` modules after they
are imported: module functions are replaced in every ``weylflow.*`` module
that binds them (modules re-bind them with ``from .symkernel import ...``),
and methods are replaced on their class.  Nothing under ``src/`` changes.

Every wrapped call keeps a stack frame, so a group's self time (its span
time minus the time of the wrapped calls it made) and its inclusive time
(outermost calls only, so recursion is not counted twice) are both known.
Hot groups (``Polynomial.__mul__``, ``EchelonSystem.add_row``,
``Evaluator.__call__``) are aggregated only; every other call is also kept
as a span ``(id, parent, name, start, end)`` in memory and written out when
the traced process ends.
"""

from __future__ import annotations

import builtins
import functools
import json
import math
import sys
import time

# (group, module, attribute); a group may wrap several functions.
FUNCTIONS = (
    ("symkernel.substitute", "weylflow.symkernel", "substitute"),
    ("symkernel.exact_divide", "weylflow.symkernel", "exact_divide"),
    ("symkernel.equality", "weylflow.symkernel", "is_identically_equal"),
    ("symkernel.reduce_parameters", "weylflow.symkernel", "reduce_parameters"),
    ("weyl.is_involution", "weylflow.weyl", "is_involution"),
    ("weyl.verify_symmetry", "weylflow.weyl", "verify_symmetry"),
    ("weyl.relation_order", "weylflow.weyl", "relation_order"),
    ("weyl.apply_map", "weylflow.weyl", "apply_map"),
    ("weyl.apply_to_state", "weylflow.weyl", "apply_to_state"),
    ("flows.pushforward", "weylflow.flows", "pushforward_field"),
    ("flows.scalar_reduction", "weylflow.flows", "scalar_reduction_identity"),
    ("flows.lie_bracket", "weylflow.flows", "lie_bracket"),
    ("flows.divisor_invariance", "weylflow.flows", "divisor_invariance"),
    ("holomorphy.ansatz", "weylflow.holomorphy", "ansatz_solve"),
    ("holomorphy.check_polynomiality", "weylflow.holomorphy", "check_polynomiality"),
    ("holomorphy.roundtrip", "weylflow.holomorphy", "verify_chart_roundtrip"),
    ("holomorphy.charts", "weylflow.holomorphy", "charts"),
    ("numerics.integrate", "weylflow.numerics", "integrate"),
    ("numerics.export", "weylflow.numerics", "trajectory_to_csv"),
    ("numerics.export", "weylflow.numerics", "trajectory_to_json"),
    ("catalog.build_system", "weylflow.catalog", "build_system"),
    ("exprtext.parse", "weylflow.exprtext", "parse"),
    ("exprtext.parse", "weylflow.exprtext", "parse_polynomial"),
    ("exprtext.text", "weylflow.exprtext", "expr_text"),
    ("exprtext.text", "weylflow.exprtext", "poly_text"),
)

# (group, module, class, method)
METHODS = (
    ("symkernel.mul", "weylflow.symkernel", "Polynomial", "__mul__"),
    ("symkernel.mul", "weylflow.symkernel", "Polynomial", "__rmul__"),
    ("linalg.add_row", "weylflow.linalg", "EchelonSystem", "add_row"),
    ("linalg.nullspace", "weylflow.linalg", "EchelonSystem", "nullspace"),
    ("numerics.evaluator_compile", "weylflow.numerics", "Evaluator", "__init__"),
    ("numerics.evaluator_call", "weylflow.numerics", "Evaluator", "__call__"),
)

HOT = {"symkernel.mul", "linalg.add_row", "numerics.evaluator_call"}
LAYERS = ("symkernel", "weyl", "flows", "holomorphy", "linalg", "numerics")
MAX_SPANS = 200_000


class Tracer:
    """Wraps weylflow entry points and aggregates their spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []        # [group, start, child_s, span id]
        self.active: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_id = 1
        self.counts = {"mul_terms_max": 0, "exact_divide_hits": 0,
                       "pivots": 0, "rk4_steps": 0, "rk4_s": 0.0,
                       "rk45_steps": 0, "guard_aborts": 0, "export_rows": 0,
                       "max_abs_state": 0.0}
        self.scipy_import_s = 0.0
        # entry points install() could not find; a renamed entry point
        # would otherwise read as a layer that does no work
        self.missing: list[str] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, group: str, fn, before=None, after=None):
        tracer = self
        clock = self.clock
        stack = self.stack
        hot = group in HOT
        for table in (self.active, self.calls, self.incl, self.self_s):
            table.setdefault(group, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = 0
            if not hot:
                span_id = tracer.next_id
                tracer.next_id += 1
            state = before(args) if before is not None else None
            frame = [group, clock(), 0.0, span_id]
            stack.append(frame)
            tracer.active[group] += 1
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.active[group] -= 1
                tracer.calls[group] += 1
                tracer.self_s[group] += duration - frame[2]
                if tracer.active[group] == 0:
                    tracer.incl[group] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if not hot:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append(
                            (span_id, parent[3] if parent else 0, group,
                             frame[1] - tracer.origin, end - tracer.origin))
                    else:
                        tracer.spans_dropped += 1
                if after is not None:
                    after(args, result, state, duration, error)
        return traced

    def install(self) -> None:
        """Wrap every entry point of the loaded weylflow modules, and list
        in ``missing`` each one that is not there."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "weylflow"
                                         or name.startswith("weylflow."))]
        before = {"linalg.add_row": lambda args: len(args[0].pivots)}
        after = {"symkernel.mul": self._after_mul,
                 "symkernel.exact_divide": self._after_exact_divide,
                 "linalg.add_row": self._after_add_row,
                 "numerics.integrate": self._after_integrate,
                 "numerics.export": self._after_export}
        for group, module, attr in FUNCTIONS:
            owner = sys.modules.get(module)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            traced = self._wrap(group, original, before.get(group),
                                after.get(group))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)
        for group, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(group, original, before.get(group),
                                          after.get(group)))

    # -- hooks, called after each wrapped call ------------------------------

    def _after_mul(self, args, result, state, duration, error):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.counts["mul_terms_max"]:
            self.counts["mul_terms_max"] = len(terms)

    def _after_exact_divide(self, args, result, state, duration, error):
        if result is not None:
            self.counts["exact_divide_hits"] += 1

    def _after_add_row(self, args, result, rank_before, duration, error):
        if len(args[0].pivots) > rank_before:
            self.counts["pivots"] += 1

    def _after_integrate(self, args, result, state, duration, error):
        if error is not None:
            # an escaping SingularityAbort is a stop at a singularity too
            if type(error).__name__ == "SingularityAbort":
                self.counts["guard_aborts"] += 1
            return
        steps = max(0, len(result.times) - 1)
        if result.method == "rk4":
            self.counts["rk4_steps"] += steps
            self.counts["rk4_s"] += duration
        else:
            self.counts["rk45_steps"] += steps
        if result.singular_abort:
            self.counts["guard_aborts"] += 1
        largest = self.counts["max_abs_state"]
        for state_row in result.states:
            for v in state_row:
                if math.isfinite(v) and abs(v) > largest:
                    largest = abs(v)
        self.counts["max_abs_state"] = largest

    def _after_export(self, args, result, state, duration, error):
        if error is None:
            self.counts["export_rows"] += len(args[0].times)

    # -- import timing --------------------------------------------------------

    def time_scipy_imports(self) -> None:
        """Accumulate the time of outermost ``import scipy...`` statements."""
        real_import = builtins.__import__
        depth = [0]
        tracer = self

        def timed_import(name, *args, **kwargs):
            if not name.startswith("scipy") or depth[0]:
                return real_import(name, *args, **kwargs)
            depth[0] += 1
            start = time.perf_counter()
            try:
                return real_import(name, *args, **kwargs)
            finally:
                depth[0] -= 1
                tracer.scipy_import_s += time.perf_counter() - start

        builtins.__import__ = timed_import

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals; merge several with :func:`merge` and finish with
        :func:`layer_metrics`."""
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_s), "counts": dict(self.counts),
                "scipy_import_s": self.scipy_import_s,
                "spans_dropped": self.spans_dropped,
                "missing": list(self.missing)}

    def write(self, path: str, **extra) -> None:
        doc = self.snapshot()
        doc.update(extra)
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def merge(snapshots) -> dict:
    """Sum snapshots; maxima are combined with max.  Import times are
    per process and are left to the caller."""
    out = {"calls": {}, "incl": {}, "self": {}, "counts": {}}
    for snap in snapshots:
        for key in ("calls", "incl", "self"):
            for group, value in snap[key].items():
                out[key][group] = out[key].get(group, 0) + value
        for name, value in snap["counts"].items():
            if name in ("mul_terms_max", "max_abs_state"):
                out["counts"][name] = max(out["counts"].get(name, 0), value)
            else:
                out["counts"][name] = out["counts"].get(name, 0) + value
    return out


def layer_metrics(total: dict) -> dict[str, float]:
    """Per-layer metric values from merged snapshots."""
    calls = total["calls"]
    incl = total["incl"]
    counts = total["counts"]

    def c(group):
        return calls.get(group, 0)

    def s(group):
        return incl.get(group, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "symkernel.mul_calls": c("symkernel.mul"),
        "symkernel.mul_s": s("symkernel.mul"),
        "symkernel.mul_terms_max": counts.get("mul_terms_max", 0),
        "symkernel.substitute_calls": c("symkernel.substitute"),
        "symkernel.substitute_s": s("symkernel.substitute"),
        "symkernel.exact_divide_calls": c("symkernel.exact_divide"),
        "symkernel.exact_divide_s": s("symkernel.exact_divide"),
        "symkernel.exact_divide_hit_ratio": ratio(
            counts.get("exact_divide_hits", 0), c("symkernel.exact_divide")),
        "symkernel.equality_s": s("symkernel.equality"),
        "symkernel.reduce_parameters_s": s("symkernel.reduce_parameters"),
        "weyl.is_involution_s": s("weyl.is_involution"),
        "weyl.verify_symmetry_s": s("weyl.verify_symmetry"),
        "weyl.relation_order_s": s("weyl.relation_order"),
        "weyl.apply_map_calls": c("weyl.apply_map"),
        "weyl.apply_to_state_calls": c("weyl.apply_to_state"),
        "flows.pushforward_s": s("flows.pushforward"),
        "flows.scalar_reduction_s": s("flows.scalar_reduction"),
        "flows.lie_bracket_s": s("flows.lie_bracket"),
        "flows.divisor_invariance_s": s("flows.divisor_invariance"),
        "holomorphy.ansatz_assembly_s": max(
            0.0, s("holomorphy.ansatz") - s("linalg.add_row")
            - s("linalg.nullspace")),
        "holomorphy.check_polynomiality_s": s("holomorphy.check_polynomiality"),
        "holomorphy.roundtrip_s": s("holomorphy.roundtrip"),
        "holomorphy.charts_s": s("holomorphy.charts"),
        "linalg.add_row_calls": c("linalg.add_row"),
        "linalg.add_row_s": s("linalg.add_row"),
        "linalg.pivot_ratio": ratio(counts.get("pivots", 0), c("linalg.add_row")),
        "linalg.nullspace_s": s("linalg.nullspace"),
        "numerics.evaluator_compiles": c("numerics.evaluator_compile"),
        "numerics.evaluator_compile_s": s("numerics.evaluator_compile"),
        "numerics.evaluator_calls": c("numerics.evaluator_call"),
        "numerics.integrate_calls": c("numerics.integrate"),
        "numerics.integrate_s": s("numerics.integrate"),
        "numerics.rk4_steps_per_s": ratio(counts.get("rk4_steps", 0),
                                          counts.get("rk4_s", 0.0)),
        "numerics.rk45_steps": counts.get("rk45_steps", 0),
        "numerics.guard_aborts": counts.get("guard_aborts", 0),
        "numerics.export_s": s("numerics.export"),
        "numerics.export_us_per_row": 1e6 * ratio(s("numerics.export"),
                                                  counts.get("export_rows", 0)),
        "numerics.max_abs_state": counts.get("max_abs_state", 0.0),
        "cli.import_s": total.get("import_s", 0.0),
        "cli.import_scipy_s": total.get("scipy_import_s", 0.0),
        "catalog.build_system_s": s("catalog.build_system"),
        "exprtext.parse_s": s("exprtext.parse"),
        "exprtext.text_s": s("exprtext.text"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for g, v in total["self"].items()
                                   if g.startswith(layer + "."))
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_row"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "cli.report_bytes_identical":
        return "ratio"
    if name == "numerics.max_abs_state":
        return "1"
    return "count"
