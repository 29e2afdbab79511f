"""Per-layer tracing for the benchmark's traced run.

Wraps the public entry points of each `ecbits` module (layer = module)
from outside the package: nothing under `src/` knows it is traced.  A
span wrapper records calls and self time (its duration minus the
wrapped spans nested inside it, so recursion such as
`DivisionPolynomials.psi` or `squarefree_part` nests correctly); a
count-only wrapper records calls for the hottest functions, where a
clock read per call would swamp the work.

Every module that bound a wrapped function at import (`cli` imports
`sum_U`, `extract` imports `x_multiples`, ...) is patched, methods are
patched on their class, and `install` reports any binding of an
original function that survived the patching.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

MODULES = ("field", "poly", "curve", "divpoly", "charsum", "extract", "cli")

# (module, qualified name, metric prefix) of every span.
SPANS = [
    ("field", "PrimeField.inv", "field.inv"),
    ("field", "PrimeField.chi_table", "field.chi_table"),
    ("field", "PrimeField.psi", "field.psi"),
    ("curve", "Curve.mul", "curve.mul"),
    ("curve", "Curve.order", "curve.order"),
    ("curve", "Curve.enumerate_points", "curve.enumerate_points"),
    ("curve", "subgroup_of_order", "curve.subgroup_of_order"),
    ("curve", "group_structure", "curve.group_structure"),
    ("curve", "rational_division_points", "curve.rational_division_points"),
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__divmod__", "poly.divmod"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "squarefree_part", "poly.squarefree_part"),
    ("poly", "rational_square_test", "poly.rational_square_test"),
    ("divpoly", "DivisionPolynomials.psi", "divpoly.psi"),
    ("divpoly", "DivisionPolynomials.f_g_h", "divpoly.f_g_h"),
    ("divpoly", "DivisionPolynomials.f_tilde", "divpoly.f_tilde"),
    ("divpoly", "DivisionPolynomials.verify_xfg", "divpoly.verify_xfg"),
    ("divpoly", "DivisionPolynomials.verify_torsion_roots",
     "divpoly.verify_torsion_roots"),
    ("divpoly", "DivisionPolynomials.verify_division_point_roots",
     "divpoly.verify_division_point_roots"),
    ("charsum", "x_multiples", "charsum.x_multiples"),
    ("charsum", "sum_U", "charsum.sum_U"),
    ("charsum", "sum_V", "charsum.sum_V"),
    ("charsum", "sum_T", "charsum.sum_T"),
    ("charsum", "_t_sum", "charsum.t_sum"),
    ("charsum", "subgroup_sum", "charsum.subgroup_sum"),
    ("charsum", "count_product_collisions", "charsum.count_product_collisions"),
    ("extract", "delta", "extract.delta"),
    ("extract", "bitstream", "extract.bitstream"),
    ("extract", "pack_bits", "extract.pack_bits"),
    ("cli", "find_curve", "cli.find_curve"),
    ("cli", "subgroup_generator", "cli.subgroup_generator"),
    ("cli", "sampled_deviation", "cli.sampled_deviation"),
    ("cli", "run_sum_cell", "cli.run_sum_cell"),
    ("cli", "_cell_or_budget_error", "cli.cell"),
    ("cli", "write_records", "cli.output"),
]

# Called ~10^5..10^6 times per workload: counted, not timed.
COUNTERS = [
    ("field", "PrimeField.chi", "field.chi"),
    ("field", "Fp2.__mul__", "field.fp2_mul"),
    ("curve", "Curve._add", "curve.add"),
]

# Names other modules bind at import; each must end up wrapped.
REBOUND = {
    "cli": ("sum_U", "sum_V", "subgroup_sum", "count_product_collisions",
            "x_multiples", "subgroup_of_order", "group_structure", "bitstream",
            "delta", "pack_bits", "rational_square_test"),
    "extract": ("x_multiples", "_t_sum"),
    "divpoly": ("rational_division_points", "poly_gcd", "squarefree_part"),
}


class Tracer:
    """Calls, self time and derived counts, accumulated in memory."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, int] = {
            "charsum.x_multiples.points": 0,
            "curve.subgroup_of_order.kept": 0,
            "curve.subgroup_of_order.multiplied": 0,
            "divpoly.psi.memo_hits": 0,
            "cli.find_curve.candidates": 0,
            "cli.skipped_cells": 0,
        }
        # open spans: time covered by wrapped children, one entry per
        # level, with a root entry that absorbs top-level spans
        self._stack = [0.0]
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, str] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                stack[-1] += dur

        return wrapper

    def counter(self, name: str, fn):
        self.calls[name] = 0
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observed(self, name: str, fn):
        """Wrappers that also read arguments or results for a derived count."""
        extra = self.extra
        if name == "charsum.x_multiples":
            def observe(curve, P, count):
                extra["charsum.x_multiples.points"] += count
                return fn(curve, P, count)
        elif name == "curve.subgroup_of_order":
            def observe(curve, t, *args, **kwargs):
                H = fn(curve, t, *args, **kwargs)
                if t > 1:  # t = 1 returns {O} without multiplying anything
                    extra["curve.subgroup_of_order.kept"] += len(H)
                    extra["curve.subgroup_of_order.multiplied"] += curve.order()
                return H
        elif name == "divpoly.psi":
            def observe(self, n):
                if n in self._psi:
                    extra["divpoly.psi.memo_hits"] += 1
                return fn(self, n)
        elif name == "cli.find_curve":
            def observe(*args, **kwargs):
                found = fn(*args, **kwargs)
                extra["cli.find_curve.candidates"] += sum(found.rejected.values()) + 1
                return found
        elif name == "cli.cell":
            def observe(cell):
                outcome = fn(cell)
                extra["cli.skipped_cells"] += "budget_error" in outcome
                return outcome
        else:
            return fn
        return functools.wraps(fn)(observe)

    # -- patching ---------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function wherever `ecbits` bound it.

        Returns the problems found: bindings of an original function that
        are still reachable, or rebound names left unwrapped.
        """
        mods = {m: importlib.import_module(f"ecbits.{m}") for m in MODULES}
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for mod, qualname, name in table:
                owner, attr = _resolve(mods[mod], qualname)
                orig = vars(owner)[attr]
                self._originals[id(orig)] = f"{mod}.{qualname}"
                self._wrappers[id(orig)] = make(name, self._observed(name, orig))
        self._patch_json(mods["cli"])
        for ns in _namespaces():
            for key, val in list(vars(ns).items()):
                if id(val) in self._wrappers:
                    setattr(ns, key, self._wrappers[id(val)])
            for fn in _functions(ns):
                if fn.__defaults__ and any(id(d) in self._wrappers
                                           for d in fn.__defaults__):
                    fn.__defaults__ = tuple(self._wrappers.get(id(d), d)
                                            for d in fn.__defaults__)
        return self._audit(mods)

    def _patch_json(self, cli_module) -> None:
        """`cli` writes its JSON through `json.dump`: give `cli` a `json`
        whose `dump` is the `cli.output` span (same name as
        `write_records`, whose nested dumps then nest correctly)."""
        real = cli_module.json
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(real))
        proxy.dump = self.span("cli.output", real.dump)
        cli_module.json = proxy

    def _audit(self, mods) -> list[str]:
        problems = []
        wrappers = {id(w) for w in self._wrappers.values()}
        for ns in _namespaces():
            for key, val in vars(ns).items():
                if id(val) in self._originals:
                    problems.append(f"{ns.__name__}.{key} still binds "
                                    f"unwrapped {self._originals[id(val)]}")
            for fn in _functions(ns):
                for d in fn.__defaults__ or ():
                    if id(d) in self._originals:
                        problems.append(f"default of {fn.__qualname__} binds "
                                        f"unwrapped {self._originals[id(d)]}")
        for mod, names in REBOUND.items():
            for key in names:
                if id(getattr(mods[mod], key)) not in wrappers:
                    problems.append(f"ecbits.{mod}.{key} is not wrapped")
        return problems

    # -- results ----------------------------------------------------------

    def results(self) -> dict:
        """Raw per-span calls and self times plus the derived counts."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name, s in self.self_s.items():
            out[name + ".self_s"] = s
        x = self.extra
        out["charsum.x_multiples.points"] = x["charsum.x_multiples.points"]
        out["curve.subgroup_of_order.kept_ratio"] = _ratio(
            x["curve.subgroup_of_order.kept"], x["curve.subgroup_of_order.multiplied"])
        out["divpoly.psi.memo_hit_ratio"] = _ratio(
            x["divpoly.psi.memo_hits"], self.calls["divpoly.psi"])
        out["cli.find_curve.candidates"] = x["cli.find_curve.candidates"]
        out["cli.skipped_cells"] = x["cli.skipped_cells"]
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _namespaces():
    """Every `ecbits` module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ecbits" or name.startswith("ecbits.")):
            continue
        yield mod
        for val in list(vars(mod).values()):
            if inspect.isclass(val) and (val.__module__ or "").startswith("ecbits"):
                yield val


def _functions(ns):
    return [v for v in vars(ns).values() if isinstance(v, types.FunctionType)]
