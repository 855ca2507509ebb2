"""Acceptance gate: every promised property at its stated tolerance and
time budget, one visible pass/fail line per criterion.

Run with plain ``pytest``; the per-criterion lines print straight to the
terminal even under output capture.
"""

import time

from acpolys.ac_families import (
    build_by_recurrence,
    check_difference_identities,
    check_euler_identity,
    check_tangent_expansion,
    golden_table_checks,
    route_equivalence_checks,
)
from acpolys.generalized_uv import build_uv, check_uv_consistency
from acpolys.operator_lab import integrals_report
from acpolys.report import PASS
from acpolys.special_numbers import (
    cosecant_number,
    cosecant_numbers_series,
    tangent_half_coeff,
    tangent_half_coeffs_series,
)

N_MAX = 24


def _criterion(capsys, label, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL"
    with capsys.disabled():
        print(
            f"[acceptance] {label}: {verdict} "
            f"({elapsed:.2f}s, limit {limit_seconds:g}s)"
        )
    assert elapsed < limit_seconds, (
        f"{label}: exceeded time budget ({elapsed:.2f}s >= {limit_seconds}s)"
    )


def _all_pass(checks):
    failures = [c.id for c in checks if c.status != PASS]
    assert not failures, f"failed checks: {failures}"


def test_criterion_1_golden_tables(capsys):
    def body():
        checks = golden_table_checks(build_by_recurrence(8))
        assert len(checks) == 17
        _all_pass(checks)

    _criterion(capsys, "criterion 1: golden tables (17 equalities)", 1.0, body)


def test_criterion_2_route_equivalence(capsys):
    def body():
        _all_pass(route_equivalence_checks(build_by_recurrence(N_MAX)))

    _criterion(
        capsys, f"criterion 2: route equivalence to n={N_MAX}", 10.0, body
    )


def test_criterion_3_identity_suite(capsys):
    def body():
        family = build_by_recurrence(N_MAX)
        _all_pass(check_difference_identities(family))
        _all_pass(check_euler_identity(family))
        _all_pass(check_tangent_expansion(family))

    _criterion(
        capsys, f"criterion 3: exact identity suite to n={N_MAX}", 10.0, body
    )


def test_criterion_4_uv_consistency(capsys):
    def body():
        uv = build_uv(N_MAX)
        family = build_by_recurrence(N_MAX)
        checks = check_uv_consistency(uv, family)
        convention_checks = [c for c in checks if "convention" in c.id]
        assert convention_checks, "conventions must be checked"
        _all_pass(checks)

    _criterion(
        capsys, f"criterion 4: u/v consistency to n={N_MAX}", 5.0, body
    )


def test_criterion_5_special_number_oracles(capsys):
    def body():
        closed_cs = [cosecant_number(n) for n in range(41)]
        closed_d = [tangent_half_coeff(n) for n in range(41)]
        assert closed_cs == cosecant_numbers_series(40)
        assert closed_d == tangent_half_coeffs_series(40)

    _criterion(
        capsys, "criterion 5: special-number oracles to n=40", 2.0, body
    )


EXPECTED_QUADRATURE_IDS = {
    "cform/n=0,z=0.5",
    "cform/n=1,z=0",
    "cform/n=2,z=1",
    "cform/n=3,z=-0.7",
    "aform/n=0,z=-0.693147",
    "aform/n=1,z=-0.693147",
    "aform/n=2,z=-0.405465",
    "aform/n=3,z=-1",
    "classical/n=1",
    "classical/n=2",
    "classical/n=3",
    "moment/n=1",
    "moment/n=2",
    "moment/lambda_beta",
    "tmoment/n=0,a=1",
    "tmoment_sum/n=0,a=1",
    "tmoment/n=1,a=1",
    "tmoment_sum/n=1,a=1",
    "tmoment/n=2,a=2",
    "tmoment_sum/n=2,a=2",
    "eigen/a=0.5",
    "eigen/a=1",
    "eigen/a=2",
    "eigen/a=5",
    "compound_operator_identity",
}


def test_criterion_6_quadrature_suite(capsys):
    def body():
        # tolerance=1e-8 applies to the pure quadrature checks; the report
        # runs every grid check, the compound identity included, at 1e-7.
        report = integrals_report(build_by_recurrence(3), suite="all", tolerance=1e-8,
                                  grid_size=200)
        assert {c.id for c in report.checks} == EXPECTED_QUADRATURE_IDS
        _all_pass(report.checks)
        assert report.exit_code() == 0

    _criterion(capsys, "criterion 6: quadrature suite", 60.0, body)
