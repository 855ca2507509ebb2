"""The benchmark's span tracer (bench/tracing.py) still finds what it wraps.

The tracer wraps the package from outside, by name: module functions, the
``Polynomial``/``TruncatedSeries`` methods of ``METHOD_SPANS``, and it
tells the two ``compose_affine`` spans apart by the type name
``GaussianRational``.  A rename in the package would zero a per-layer
metric without an error, and so would a table that binds a function at
import, so traced requests check the names here.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from acpolys import cli
from acpolys.ac_families import ALL_ROUTES

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

#: Names in ``GROUPS`` that the package no longer defines.
STALE_GROUP_NAMES = {"operator_lab.apply_T", "operator_lab.apply_T_phi0"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("acpolys_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(*argv):
    """The tracer of one traced ``cli.run(argv)``, which must exit 0."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(list(argv))
    finally:
        uninstall()
    assert code == 0
    return tracer


def test_a_traced_request_counts_the_exact_kernels():
    """And every route: ``route_rows`` must look each builder up when
    called, or the route groups keep the unwrapped builders and read 0."""
    totals = traced("verify", "identities", "--max-n", "4", "--format", "csv").totals()
    for group in ("exact_core.compose_affine_gauss", "exact_core.compose_affine_real",
                  "exact_core.poly_eval", *(f"ac_families.route.{r}" for r in ALL_ROUTES)):
        assert totals.get(group, {"calls": 0})["calls"] >= 1, group


@pytest.mark.parametrize("kind, function", [("cosecant", "cosecant_number"),
                                            ("tangent", "tangent_half_coeff")])
def test_a_traced_numbers_request_records_each_number(kind, function):
    """``cli._NUMBER_KINDS`` must look each function up when called too:
    one span per number n = 0..20."""
    tracer = traced("numbers", "--kind", kind, "--max-n", "20")
    assert tracer.names.count(f"special_numbers.{function}") == 21


def test_every_grouped_function_exists_but_the_known_stale_ones():
    missing = set()
    for name in load_tracing().GROUPS:
        module, function = name.split(".")
        if not hasattr(importlib.import_module(f"acpolys.{module}"), function):
            missing.add(name)
    assert missing <= STALE_GROUP_NAMES
