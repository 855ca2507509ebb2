"""Golden tables, route agreement, and exact identities for A_n / C_n.

The golden tables below are frozen in this file independently of the
package's reference constants, so a change to either copy trips the suite.
"""

from fractions import Fraction

import pytest

from acpolys.ac_families import (
    FAMILY_ROUTES,
    REFERENCE_A,
    REFERENCE_C,
    build_a_by_residue_recurrence,
    build_by_closed_form,
    build_by_coefficient_formula,
    build_by_generating_function,
    build_by_recurrence,
    build_route,
    check_difference_identities,
    check_euler_identity,
    check_tangent_expansion,
    golden_table_checks,
    identities_report,
    lambda_alpha_tables,
    route_equivalence_checks,
    structural_checks,
)
from acpolys.exact_core import GaussianRational, I, Polynomial
from acpolys.report import PASS

F = Fraction


def P(*coeffs):
    return Polynomial([F(c) for c in coeffs])


GOLDEN_A = [
    P(0, 1),                                                    # A_0 = X
    P(0, 0, "1/2"),                                             # X^2/2
    P(0, "1/3", 0, "1/3"),                                      # (X^3+X)/3
    P(0, 0, "1/2", 0, "1/4"),                                   # (X^4+2X^2)/4
    P(0, "7/15", 0, "2/3", 0, "1/5"),                           # (3X^5+10X^3+7X)/15
    P(0, 0, "7/6", 0, "5/6", 0, "1/6"),                         # (X^6+5X^4+7X^2)/6
    P(0, "31/21", 0, "7/3", 0, 1, 0, "1/7"),                    # (3X^7+21X^5+49X^3+31X)/21
    P(0, 0, "31/6", 0, "49/12", 0, "7/6", 0, "1/8"),
    P(0, "127/15", 0, "124/9", 0, "98/15", 0, "4/3", 0, "1/9"),
]

GOLDEN_C = [
    P(),                                                        # C_0 = 0
    P("1/2", 0, "1/2"),                                         # (X^2+1)/2
    P(0, "2/3", 0, "2/3"),                                      # (2X^3+2X)/3
    P("1/4", 0, 1, 0, "3/4"),                                   # (3X^4+4X^2+1)/4
    P(0, "8/15", 0, "4/3", 0, "4/5"),
    P("1/2", 0, "4/3", 0, "5/3", 0, "5/6"),
    P(0, "32/21", 0, "8/3", 0, 2, 0, "6/7"),
    P("17/8", 0, "16/3", 0, "14/3", 0, "7/3", 0, "7/8"),
]

N_MAX = 24


@pytest.fixture(scope="module")
def family():
    return build_by_recurrence(N_MAX)


class TestGoldenTables:
    def test_recurrence_matches_goldens(self, family):
        for n, expected in enumerate(GOLDEN_A):
            assert family.a(n) == expected, f"A_{n}"
        for n, expected in enumerate(GOLDEN_C):
            assert family.c(n) == expected, f"C_{n}"

    def test_package_reference_equals_frozen_copy(self):
        assert list(REFERENCE_A) == GOLDEN_A
        assert list(REFERENCE_C) == GOLDEN_C

    def test_seventeen_equalities(self, family):
        checks = golden_table_checks(family)
        assert len(checks) == 17
        assert all(c.status == PASS for c in checks)


class TestRouteEquivalence:
    def test_all_routes_agree_to_n_max(self, family):
        checks = route_equivalence_checks(family)
        failures = [c.id for c in checks if c.status != PASS]
        assert not failures

    def test_each_route_hits_goldens_alone(self):
        for build in (
            build_by_closed_form,
            build_by_coefficient_formula,
            build_by_generating_function,
        ):
            fam = build(8)
            for n, expected in enumerate(GOLDEN_A):
                assert fam.a(n) == expected, f"{build.__name__} A_{n}"
            for n, expected in enumerate(GOLDEN_C):
                assert fam.c(n) == expected, f"{build.__name__} C_{n}"

    def test_residue_route_hits_a_goldens(self):
        a_list = build_a_by_residue_recurrence(8)
        for n, expected in enumerate(GOLDEN_A):
            assert a_list[n] == expected, f"residue A_{n}"

    @pytest.mark.parametrize(
        "build",
        [
            build_by_recurrence,
            build_by_closed_form,
            build_by_coefficient_formula,
            build_by_generating_function,
            build_a_by_residue_recurrence,
        ],
        ids=lambda build: build.__name__,
    )
    @pytest.mark.parametrize("n_max", [-1, -2])
    def test_negative_n_max_raises(self, build, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            build(n_max)

    def test_build_route_dispatch(self):
        for route in FAMILY_ROUTES:
            fam = build_route(route, 3)
            assert fam.route == route
            assert fam.a(3) == GOLDEN_A[3]
        with pytest.raises(ValueError):
            build_route("newton", 3)

    def test_baseline_must_be_recurrence(self):
        with pytest.raises(ValueError, match="recurrence"):
            route_equivalence_checks(build_by_coefficient_formula(3))


class TestExactIdentities:
    def test_shifted_argument_identities(self, family):
        checks = check_difference_identities(family)
        assert len(checks) == 4 * (N_MAX + 1)
        assert all(c.status == PASS for c in checks)

    def test_shift_identity_by_hand_n2(self):
        # A_2(X-i) + C_2(X) must equal (X-i) X^2
        a2 = GOLDEN_A[2].compose_affine(1, -I)
        lhs = a2 + GOLDEN_C[2]
        rhs = Polynomial([0, 0, -I, 1])
        assert lhs == rhs

    def test_euler_identity(self, family):
        checks = check_euler_identity(family)
        assert all(c.status == PASS for c in checks)

    def test_tangent_expansion(self, family):
        checks = check_tangent_expansion(family)
        assert all(c.status == PASS for c in checks)

    def test_tangent_expansion_by_hand_n3(self):
        # A_3 + C_3 = X^4 + d_1 X^2 + d_3 (binomials C(3,2)=3, C(3,0)=1)
        total = GOLDEN_A[3] + GOLDEN_C[3]
        assert total == P("1/4", 0, "3/2", 0, 1)


class TestStructure:
    def test_structural_checks_pass(self, family):
        checks = structural_checks(family)
        assert all(c.status == PASS for c in checks), [
            c.id for c in checks if c.status != PASS
        ]

    def test_a_vanishes_at_zero(self, family):
        for n in range(N_MAX + 1):
            assert family.a(n)(0) == 0

    def test_c_vanishes_at_i(self, family):
        for n in range(1, N_MAX + 1):
            assert family.c(n)(I) == GaussianRational(0, 0)

    def test_degrees_and_leading(self, family):
        for n in range(N_MAX + 1):
            assert family.a(n).degree == n + 1
            assert family.a(n).leading() == F(1, n + 1)
        for n in range(1, N_MAX + 1):
            assert family.c(n).degree == n + 1
            assert family.c(n).leading() == F(n, n + 1)
        assert family.c(0).is_zero

    def test_parity_support(self, family):
        for n in range(N_MAX + 1):
            for k, c in enumerate(family.a(n).coeffs):
                if k % 2 != (n + 1) % 2:
                    assert c == 0, f"A_{n} X^{k}"
                elif k > 0:
                    assert c != 0, f"A_{n} X^{k}"

    def test_negative_index_raises(self, family):
        for member in (family.a, family.c):
            with pytest.raises(IndexError):
                member(-1)
        with pytest.raises(IndexError):
            family.a(N_MAX + 1)


class TestCoefficientTables:
    def test_spot_values(self, family):
        t = lambda_alpha_tables(family)
        assert t.lam[(5, 0)] == F(1, 2)
        assert t.lam[(2, 1)] == F(2, 3)
        assert t.lam[(3, 2)] == F(1)
        assert t.lam[(7, 0)] == F(17, 8)
        assert t.lam[(4, 5)] == F(4, 5)  # n/(n+1) top coefficient
        assert t.alpha[(5, 2)] == F(7, 6)
        assert t.alpha[(8, 1)] == F(127, 15)
        assert t.alpha[(6, 7)] == F(1, 7)

    def test_lambda_diagonal_is_zero(self, family):
        # lambda_n^n = 0: C_n has no X^n term
        t = lambda_alpha_tables(family)
        for n in range(N_MAX + 1):
            assert t.lam[(n, n)] == 0

    def test_corrupted_family_rejected(self, family):
        import dataclasses

        broken_c = list(family.c_polys)
        broken_c[3] = broken_c[3] + Polynomial([1])
        broken = dataclasses.replace(family, c_polys=tuple(broken_c))
        with pytest.raises(ValueError, match="tangent expansion"):
            lambda_alpha_tables(broken)


class TestReport:
    def test_identities_report_all_pass(self):
        report = identities_report(build_by_recurrence(10))
        assert report.all_passed
        assert report.exit_code() == 0
        counts = report.counts
        assert counts["total"] == counts["passed"] > 0

    def test_report_shape(self):
        report = identities_report(build_by_recurrence(0))
        doc = report.to_json_dict()
        assert doc["suite"] == "identities"
        assert {"id", "description", "status", "lhs", "rhs", "error_metric"} <= set(
            doc["checks"][0]
        )
