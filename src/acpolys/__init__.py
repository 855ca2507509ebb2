"""acpolys: exact dual polynomial families with verified integral identities.

The package builds two polynomial families A_n, C_n tied by
a*b**n = A_n(a) + C_n(b) on the curve 2ab = a**2 + b**2 + 1, by five
independent exact construction routes, derives their coefficient
triangles, and verifies — exactly where possible, numerically where an
integral is involved — the identities linking them to Bernoulli and
Euler polynomials, to the transform T(f)(x) = int_0^1 (f(t)-f(x))/(t-x) dt,
and to a family of closed-form log-kernel integrals.

The package namespace re-exports the documented API (README.md and
``demos/``); every other name is importable from its submodule.  numpy is
loaded only with ``operator_lab``, the floating-point suites: on first use
of ``integrals_report``.
"""

from .ac_families import (
    ALL_ROUTES,
    FAMILY_ROUTES,
    build_a_by_residue_recurrence,
    build_by_closed_form,
    build_by_coefficient_formula,
    build_by_generating_function,
    build_by_recurrence,
    build_route,
    check_difference_identities,
    check_euler_identity,
    check_tangent_expansion,
    identities_report,
    lambda_alpha_tables,
    route_equivalence_checks,
    route_rows,
)
from .exact_core import GaussianRational, I, Polynomial, poly_from_json
from .generalized_uv import build_uv, check_uv_consistency, row_width
from .special_numbers import (
    bernoulli_numbers,
    bernoulli_numbers_series,
    cosecant_number,
    cosecant_numbers_series,
    euler_poly,
    tangent_half_coeff,
    tangent_half_coeffs_series,
)

__version__ = "1.0.0"


def __getattr__(name):
    # integrals_report is the one export that needs numpy: it is imported on
    # first use (PEP 562), so the exact API does not load numpy.
    if name == "integrals_report":
        from .operator_lab import integrals_report

        return integrals_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_ROUTES",
    "FAMILY_ROUTES",
    "GaussianRational",
    "I",
    "Polynomial",
    "bernoulli_numbers",
    "bernoulli_numbers_series",
    "build_a_by_residue_recurrence",
    "build_by_closed_form",
    "build_by_coefficient_formula",
    "build_by_generating_function",
    "build_by_recurrence",
    "build_route",
    "build_uv",
    "check_difference_identities",
    "check_euler_identity",
    "check_tangent_expansion",
    "check_uv_consistency",
    "cosecant_number",
    "cosecant_numbers_series",
    "euler_poly",
    "identities_report",
    "integrals_report",
    "lambda_alpha_tables",
    "poly_from_json",
    "route_equivalence_checks",
    "route_rows",
    "row_width",
    "tangent_half_coeff",
    "tangent_half_coeffs_series",
]
