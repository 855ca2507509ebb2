"""Span recording around calls into each acpolys module, from outside it.

``install`` wraps every public function of the seven modules and the named
``Polynomial``/``TruncatedSeries`` methods with a span recorder, and rebinds
every module-level name that refers to a wrapped function (``cli`` imports
by name).  ``GaussianRational`` and ``Fraction`` scalar operations are not
wrapped: there are millions of them, and their cost stays in the self time
of the polynomial operation that calls them.

A span is (name, start, end, parent span, request id).  Spans stay in
memory until the run ends; self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "exact_core", "special_numbers", "ac_families",
           "generalized_uv", "operator_lab", "report")

# (class name, method name) -> span name.
METHOD_SPANS = {
    ("Polynomial", "__mul__"): "exact_core.poly_mul",
    ("Polynomial", "__rmul__"): "exact_core.poly_mul",
    ("Polynomial", "__add__"): "exact_core.poly_add",
    ("Polynomial", "__sub__"): "exact_core.poly_add",
    ("Polynomial", "__call__"): "exact_core.poly_eval",
    ("Polynomial", "compose_affine"): "exact_core.compose_affine",
    ("TruncatedSeries", "__mul__"): "exact_core.series_mul",
    ("TruncatedSeries", "__rmul__"): "exact_core.series_mul",
    ("TruncatedSeries", "__truediv__"): "exact_core.series_div",
}

# Span name -> per-layer metric group.  A span not listed is its own group.
GROUPS = {
    "cli.canonical_json": "cli.format",
    "cli.emit_csv": "cli.format",
    "cli.latex_polynomial": "cli.format",
    "exact_core.format_rational": "cli.format",
    "exact_core.poly_to_json": "cli.format",
    "ac_families.build_by_recurrence": "ac_families.route.recurrence",
    "ac_families.build_by_closed_form": "ac_families.route.closed_form",
    "ac_families.build_by_coefficient_formula":
        "ac_families.route.coefficient_formula",
    "ac_families.build_by_generating_function":
        "ac_families.route.generating_function",
    "ac_families.build_a_by_residue_recurrence":
        "ac_families.route.residue_recurrence",
    "ac_families.golden_table_checks": "ac_families.suite.golden",
    "ac_families.route_equivalence_checks": "ac_families.suite.route_equivalence",
    "ac_families.check_difference_identities": "ac_families.suite.difference",
    "ac_families.check_euler_identity": "ac_families.suite.euler",
    "ac_families.check_tangent_expansion": "ac_families.suite.tangent",
    "ac_families.structural_checks": "ac_families.suite.structural",
    "operator_lab.gauss_legendre_grid": "operator_lab.grid",
    "operator_lab.graded_gauss_grid": "operator_lab.grid",
    "operator_lab.apply_T": "operator_lab.nystrom",
    "operator_lab.apply_T_phi0": "operator_lab.nystrom",
    "operator_lab.tanh_sinh": "operator_lab.quadrature",
    "operator_lab.c_form_checks": "operator_lab.suite.cform",
    "operator_lab.a_form_checks": "operator_lab.suite.aform",
    "operator_lab.classical_checks": "operator_lab.suite.classical",
    "operator_lab.moment_check": "operator_lab.suite.moments",
    "operator_lab.transform_moment_identity": "operator_lab.suite.moments",
    "operator_lab.eigenfunction_checks": "operator_lab.suite.eigen",
    "operator_lab.operator_identity_check": "operator_lab.suite.eigen",
}


# Every group reported as a per-layer metric, by module.
LAYER_GROUPS = (
    "cli.format",
    "exact_core.compose_affine_gauss", "exact_core.compose_affine_real",
    "exact_core.poly_mul", "exact_core.poly_add", "exact_core.series_mul",
    "exact_core.series_div", "exact_core.poly_eval",
    "special_numbers.bernoulli_numbers", "special_numbers.bernoulli_poly",
    "special_numbers.euler_poly",
    "ac_families.route.recurrence", "ac_families.route.closed_form",
    "ac_families.route.coefficient_formula",
    "ac_families.route.generating_function",
    "ac_families.route.residue_recurrence",
    "ac_families.suite.golden", "ac_families.suite.route_equivalence",
    "ac_families.suite.difference", "ac_families.suite.euler",
    "ac_families.suite.tangent", "ac_families.suite.structural",
    "ac_families.lambda_alpha_tables",
    "generalized_uv.build_uv", "generalized_uv.check_uv_consistency",
    "operator_lab.grid", "operator_lab.nystrom", "operator_lab.quadrature",
    "operator_lab.suite.cform", "operator_lab.suite.aform",
    "operator_lab.suite.classical", "operator_lab.suite.moments",
    "operator_lab.suite.eigen",
)


class Tracer:
    """In-memory span store; ``request`` tags the spans opened while it is set."""

    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.requests = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = defaultdict(float)
        self.request = -1
        self._stack = []

    def call(self, name, fn, args, kwargs):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, s, e in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= e - s
        return own

    def totals(self) -> dict:
        """Group -> {"s": summed self time, "calls": spans not nested
        directly inside a span of the same group}."""
        out = defaultdict(lambda: {"s": 0.0, "calls": 0})
        groups = [GROUPS.get(name, name) for name in self.names]
        for sid, own in enumerate(self.self_times()):
            group = groups[sid]
            out[group]["s"] += own
            parent = self.parents[sid]
            if parent < 0 or groups[parent] != group:
                out[group]["calls"] += 1
        return dict(out)

    def module_self_times(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for name, own in zip(self.names, self.self_times()):
            out[name.split(".", 1)[0]] += own
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "request"))
            t0 = self.starts[0] if self.starts else 0.0
            for sid, name in enumerate(self.names):
                writer.writerow((sid, name, f"{self.starts[sid] - t0:.9f}",
                                 f"{self.ends[sid] - t0:.9f}",
                                 self.parents[sid], self.requests[sid]))


def _is_gaussian(value) -> bool:
    return type(value).__name__ == "GaussianRational"


def _wrap(tracer: Tracer, name: str, fn):
    """A span-recording stand-in for ``fn``; a few spans also add counters."""
    if name == "exact_core.compose_affine":
        def traced(self, a, b):
            kind = "gauss" if _is_gaussian(a) or _is_gaussian(b) else "real"
            return tracer.call(f"exact_core.compose_affine_{kind}", fn,
                               (self, a, b), {})
    elif name == "operator_lab.tanh_sinh":
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            tracer.counters["operator_lab.quadrature.evaluations"] += result.evaluations
            return result
    elif name in ("operator_lab.apply_T", "operator_lab.apply_T_phi0"):
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            # Computed, not measured: one dense float64 G x G kernel per apply.
            tracer.counters["operator_lab.nystrom.kernel_bytes"] += 8 * len(result.nodes) ** 2
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    return functools.wraps(fn)(traced)


def install(tracer: Tracer):
    """Wrap and rebind; returns an ``uninstall`` callable that restores
    every original binding."""
    modules = {short: importlib.import_module(f"acpolys.{short}") for short in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = _wrap(tracer, f"{short}.{attr}", obj)
    restore = []
    namespaces = list(modules.values()) + [importlib.import_module("acpolys")]
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    exact_core = modules["exact_core"]
    for (cls_name, attr), span in METHOD_SPANS.items():
        cls = getattr(exact_core, cls_name)
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, span, original))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
