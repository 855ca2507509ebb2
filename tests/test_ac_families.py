"""Golden tables, route agreement, and exact identities for A_n / C_n.

The golden tables below are frozen in this file independently of the
package's reference constants, so a change to either copy trips the suite.
"""

import pickle
import tracemalloc
from fractions import Fraction

import pytest

from acpolys import ac_families, cli
from acpolys.ac_families import (
    ALL_ROUTES,
    FAMILY_ROUTES,
    ACFamily,
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
    route_rows,
    structural_checks,
)
from acpolys.exact_core import GaussianRational, I, Polynomial
from acpolys.report import EXIT_OK, FAIL, PASS, Check, VerificationReport, exact_check

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

    def test_one_route_table(self):
        assert ALL_ROUTES == (*FAMILY_ROUTES, "residue_recurrence")
        assert ALL_ROUTES[0] == "recurrence"
        assert cli.ALL_ROUTES is ALL_ROUTES

    @pytest.mark.parametrize("route", ALL_ROUTES)
    def test_route_rows_for_every_route(self, route):
        a_rows, c_rows = route_rows(route, 8)
        assert a_rows == tuple(GOLDEN_A)
        if route == "residue_recurrence":  # it builds only A
            assert c_rows == ()
        else:
            assert len(c_rows) == 9 and c_rows[:len(GOLDEN_C)] == tuple(GOLDEN_C)

    def test_route_check_ids_in_order(self):
        ids = [c.id for c in route_equivalence_checks(build_by_recurrence(1))]
        assert ids == [
            *(f"route/{route}/{letter}/n={n}"
              for route in ("closed_form", "coefficient_formula", "generating_function")
              for n in (0, 1) for letter in "ac"),
            "route/residue_recurrence/a/n=0", "route/residue_recurrence/a/n=1",
        ]

    def test_a_non_real_route_row_fails_only_its_check(self, monkeypatch):
        # Nothing raises: the row over Q(i) is one failed check in the report.
        built = build_by_closed_form(6)
        a_polys = list(built.a_polys)
        a_polys[3] = a_polys[3] + Polynomial.monomial(2, I)
        monkeypatch.setattr(ac_families, "build_by_closed_form",
                            lambda n_max: built._replace(a_polys=tuple(a_polys)))
        checks = route_equivalence_checks(build_by_recurrence(6))
        assert [c.id for c in checks if c.status != PASS] == ["route/closed_form/a/n=3"]

    def test_a_non_real_route_row_names_its_first_imaginary_power(self, monkeypatch):
        built = build_by_closed_form(6)
        a_polys = list(built.a_polys)
        a_polys[3] = a_polys[3] + Polynomial.monomial(2, I)
        monkeypatch.setattr(ac_families, "build_by_closed_form",
                            lambda n_max: built._replace(a_polys=tuple(a_polys)))
        failed = [c for c in route_equivalence_checks(build_by_recurrence(6))
                  if c.status != PASS]
        assert [c.error_metric for c in failed] == [
            "not over Q: nonzero imaginary part at X^2 of a polynomial of degree 4"]

    @pytest.mark.parametrize("name, route, letters", [
        ("build_by_generating_function", "generating_function", "ac"),
        ("build_a_by_residue_recurrence", "residue_recurrence", "a"),
    ])
    def test_a_raising_builder_fails_every_check_of_its_route(
            self, monkeypatch, name, route, letters):
        def raises(n_max):
            raise ZeroDivisionError("boom")

        baseline = build_by_recurrence(3)
        ids = [c.id for c in route_equivalence_checks(baseline)]
        monkeypatch.setattr(ac_families, name, raises)
        checks = route_equivalence_checks(baseline)
        assert [c.id for c in checks] == ids
        failed = [c for c in checks if c.status != PASS]
        assert [c.id for c in failed] == [
            f"route/{route}/{letter}/n={n}" for n in range(4) for letter in letters]
        assert {(c.status, c.error_metric) for c in failed} == {
            (FAIL, "ZeroDivisionError('boom')")}
        assert [c.rhs for c in failed if c.id.split("/")[2] == "a"] == list(baseline.a_polys)

    def test_every_builder_is_looked_up_when_called(self, monkeypatch):
        # A tracer rebinds module attributes: each route must run through them.
        names = ("build_by_closed_form", "build_by_coefficient_formula",
                 "build_by_generating_function", "build_a_by_residue_recurrence")
        calls = []
        for name in names:
            builder = getattr(ac_families, name)
            monkeypatch.setattr(ac_families, name,
                                lambda n_max, name=name, builder=builder:
                                calls.append(name) or builder(n_max))
        route_equivalence_checks(build_by_recurrence(2))
        assert calls == list(names)

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

    def test_shift_identities_on_a_family_over_q_i(self):
        # i*X^3 added to A_4 and i*X^2 to C_5: neither is its own
        # conjugate, so each must be shifted by -i, not conjugated.
        base = build_by_recurrence(8)
        a_polys, c_polys = list(base.a_polys), list(base.c_polys)
        a_polys[4] = a_polys[4] + Polynomial.monomial(3, I)
        c_polys[5] = c_polys[5] + Polynomial.monomial(2, I)
        family = ACFamily(tuple(a_polys), tuple(c_polys), base.route)
        got = [(c.id, c.status, str(c.lhs), str(c.rhs))
               for c in check_difference_identities(family)]
        assert got == [
            ("shift_minus_sum/n=0", "pass", "X - i", "X - i"),
            ("shift_plus_sum/n=0", "pass", "X + i", "X + i"),
            ("a_central_difference/n=0", "pass", "2*i", "2*i"),
            ("c_central_difference/n=0", "pass", "0", "0"),
            ("shift_minus_sum/n=1", "pass", "X^2 - i*X", "X^2 - i*X"),
            ("shift_plus_sum/n=1", "pass", "X^2 + i*X", "X^2 + i*X"),
            ("a_central_difference/n=1", "pass", "2*i*X", "2*i*X"),
            ("c_central_difference/n=1", "pass", "2*i*X", "2*i*X"),
            ("shift_minus_sum/n=2", "pass", "X^3 - i*X^2", "X^3 - i*X^2"),
            ("shift_plus_sum/n=2", "pass", "X^3 + i*X^2", "X^3 + i*X^2"),
            ("a_central_difference/n=2", "pass", "2*i*X^2", "2*i*X^2"),
            ("c_central_difference/n=2", "pass", "4*i*X^2", "4*i*X^2"),
            ("shift_minus_sum/n=3", "pass", "X^4 - i*X^3", "X^4 - i*X^3"),
            ("shift_plus_sum/n=3", "pass", "X^4 + i*X^3", "X^4 + i*X^3"),
            ("a_central_difference/n=3", "pass", "2*i*X^3", "2*i*X^3"),
            ("c_central_difference/n=3", "pass", "6*i*X^3 - 2*i*X", "6*i*X^3 - 2*i*X"),
            ("shift_minus_sum/n=4", "fail",
             "X^5 - i*X^4 + i*X^3 + 3*X^2 - 3*i*X - 1", "X^5 - i*X^4"),
            ("shift_plus_sum/n=4", "fail",
             "X^5 + i*X^4 + i*X^3 - 3*X^2 - 3*i*X + 1", "X^5 + i*X^4"),
            ("a_central_difference/n=4", "fail", "2*i*X^4 - 6*X^2 + 2", "2*i*X^4"),
            ("c_central_difference/n=4", "pass", "8*i*X^4 - 8*i*X^2", "8*i*X^4 - 8*i*X^2"),
            ("shift_minus_sum/n=5", "fail", "X^6 - i*X^5 + i*X^2", "X^6 - i*X^5"),
            ("shift_plus_sum/n=5", "fail", "X^6 + i*X^5 + i*X^2", "X^6 + i*X^5"),
            ("a_central_difference/n=5", "pass", "2*i*X^5", "2*i*X^5"),
            ("c_central_difference/n=5", "fail",
             "10*i*X^5 - 20*i*X^3 + (-4+2*i)*X",
             "10*i*X^5 - 20*i*X^3 + 2*i*X"),
            ("shift_minus_sum/n=6", "pass", "X^7 - i*X^6", "X^7 - i*X^6"),
            ("shift_plus_sum/n=6", "pass", "X^7 + i*X^6", "X^7 + i*X^6"),
            ("a_central_difference/n=6", "pass", "2*i*X^6", "2*i*X^6"),
            ("c_central_difference/n=6", "pass",
             "12*i*X^6 - 40*i*X^4 + 12*i*X^2",
             "12*i*X^6 - 40*i*X^4 + 12*i*X^2"),
            ("shift_minus_sum/n=7", "pass", "X^8 - i*X^7", "X^8 - i*X^7"),
            ("shift_plus_sum/n=7", "pass", "X^8 + i*X^7", "X^8 + i*X^7"),
            ("a_central_difference/n=7", "pass", "2*i*X^7", "2*i*X^7"),
            ("c_central_difference/n=7", "pass",
             "14*i*X^7 - 70*i*X^5 + 42*i*X^3 - 2*i*X",
             "14*i*X^7 - 70*i*X^5 + 42*i*X^3 - 2*i*X"),
            ("shift_minus_sum/n=8", "pass", "X^9 - i*X^8", "X^9 - i*X^8"),
            ("shift_plus_sum/n=8", "pass", "X^9 + i*X^8", "X^9 + i*X^8"),
            ("a_central_difference/n=8", "pass", "2*i*X^8", "2*i*X^8"),
            ("c_central_difference/n=8", "pass",
             "16*i*X^8 - 112*i*X^6 + 112*i*X^4 - 16*i*X^2",
             "16*i*X^8 - 112*i*X^6 + 112*i*X^4 - 16*i*X^2"),
        ]

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

    def test_tangent_guard_stops_at_the_first_failure(self, family, monkeypatch):
        broken_c = list(family.c_polys)
        for n in (3, 5):
            broken_c[n] = broken_c[n] + Polynomial([1])
        broken = family._replace(c_polys=tuple(broken_c))
        assert [c.id for c in check_tangent_expansion(broken) if c.status != PASS] == [
            "tangent_expansion/n=3", "tangent_expansion/n=5"]
        made = []

        def counted(check_id, *rest):
            made.append(check_id)
            return exact_check(check_id, *rest)

        monkeypatch.setattr(ac_families, "exact_check", counted)
        with pytest.raises(RuntimeError) as caught:
            lambda_alpha_tables(broken)
        assert repr(caught.value) == (
            "RuntimeError('tangent expansion failed: tangent_expansion/n=3')")
        assert made == [f"tangent_expansion/n={n}" for n in range(4)]

    def test_tangent_guard_holds_one_check_at_a_time(self):
        # Holding all 121 checks, each with A_n + C_n and its right-hand
        # side, would peak near 0.55 MB.
        family = build_by_recurrence(120)
        lambda_alpha_tables(family)  # the tangent numbers, computed once
        tracemalloc.start()
        try:
            lambda_alpha_tables(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_corrupted_family_rejected(self, family):
        broken_c = list(family.c_polys)
        broken_c[3] = broken_c[3] + Polynomial([1])
        broken = family._replace(c_polys=tuple(broken_c))
        with pytest.raises(RuntimeError, match="tangent expansion"):
            lambda_alpha_tables(broken)


class TestReport:
    def test_identities_report_all_pass(self):
        report = identities_report(build_by_recurrence(10))
        assert report.exit_code() == EXIT_OK
        counts = report.counts
        assert counts["total"] == counts["passed"] > 0

    def test_reports_own_their_check_lists(self):
        first, second = VerificationReport("x"), VerificationReport("x")
        assert first == second and first.checks == ()
        changed = first._replace(checks=(Check("c", "a check", PASS),))
        assert first.checks == () and first == second != changed

    def test_reports_are_values(self):
        report = identities_report(build_by_recurrence(8))
        assert isinstance(report.checks, tuple)
        again = identities_report(build_by_recurrence(8))
        assert again == report and hash(again) == hash(report)
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report and copy is not report

    def test_families_compare_and_hash_by_value(self):
        assert build_by_recurrence(5) == build_by_recurrence(5)
        assert hash(build_by_recurrence(5)) == hash(build_by_recurrence(5))
        assert build_by_recurrence(5) != build_by_recurrence(4)
        assert build_by_recurrence(5) != build_by_coefficient_formula(5)

    def test_report_shape(self):
        report = identities_report(build_by_recurrence(0))
        doc = report.to_json_dict()
        assert doc["suite"] == "identities"
        assert {"id", "description", "status", "lhs", "rhs", "error_metric"} <= set(
            doc["checks"][0]
        )
