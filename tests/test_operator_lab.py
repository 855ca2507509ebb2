"""Quadrature, grid, and transform tests: known integrals first, then the
full reduction pipeline against exact polynomial targets."""

import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from acpolys import operator_lab
from acpolys.ac_families import build_by_recurrence
from acpolys.exact_core import Polynomial
from acpolys.operator_lab import (
    QuadratureError,
    apply_T,
    c_form_checks,
    classical_checks,
    classical_log_integral,
    classical_log_target,
    eigenfunction_checks,
    evaluate_polynomial_float,
    gauss_legendre_grid,
    graded_gauss_grid,
    integral_a_form,
    integral_c_form,
    integrals_report,
    interior_mask,
    moment_check,
    nystrom_matrix,
    operator_identity_check,
    phi0_grid_function,
    rational_to_float,
    sample_function,
    tanh_sinh,
    transform_moment_identity,
    transform_moment_lhs,
)
from acpolys.report import ERROR, PASS

PI = math.pi


def reference_apply_T(f):
    """T(f) with one kernel (f_j - f_i)/(x_j - x_i) per apply and the
    barycentric diagonal read from its panel blocks: the kernel-per-apply
    Nystrom rule that nystrom_matrix folds into one matrix."""
    grid = f.grid
    x = grid.nodes
    v = f.values
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (v[None, :] - v[:, None]) / (x[None, :] - x[:, None])
    idx = np.arange(len(x))
    kernel[idx, idx] = 0.0
    bary = grid.bary.reshape(-1, operator_lab.PANEL)
    panels, p = bary.shape
    row_sums = np.einsum("rirj,rj->ri", kernel.reshape(panels, p, panels, p), bary)
    kernel[idx, idx] = -row_sums.ravel() / grid.bary
    return kernel @ grid.weights


class TestTanhSinh:
    def test_polynomial(self):
        r = tanh_sinh(lambda x, dl, dh: x * x, 0.0, 1.0)
        assert abs(r.value - 1.0 / 3.0) < 1e-14
        assert r.evaluations > 0

    def test_log_singularity_uses_endpoint_distance(self):
        # int_0^1 ln x dx = -1; accurate only if ln sees the exact distance
        r = tanh_sinh(lambda x, dl, dh: math.log(dl), 0.0, 1.0)
        assert abs(r.value + 1.0) < 1e-14

    def test_inverse_sqrt_singularity(self):
        r = tanh_sinh(lambda x, dl, dh: 1.0 / math.sqrt(dl), 0.0, 1.0)
        assert abs(r.value - 2.0) < 1e-12

    def test_both_endpoints_singular(self):
        # int_0^1 dx / sqrt(x(1-x)) = pi
        r = tanh_sinh(lambda x, dl, dh: 1.0 / math.sqrt(dl * dh), 0.0, 1.0)
        assert abs(r.value - PI) < 1e-12

    def test_shifted_interval(self):
        r = tanh_sinh(lambda x, dl, dh: math.exp(x), -1.0, 2.0)
        assert abs(r.value - (math.exp(2) - math.exp(-1))) < 1e-12

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError):
            tanh_sinh(lambda x, dl, dh: math.sin(100.0 / (x + 1e-3)), 0.0, 1.0,
                      target=1e-15, max_level=4)

    def test_error_estimate_is_conservative(self):
        r = tanh_sinh(lambda x, dl, dh: 1.0 / (1.0 + x * x), 0.0, 1.0)
        assert abs(r.value - PI / 4.0) <= max(r.error_estimate, 1e-15)


class TestGrids:
    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_grid_invariants(self, grid_builder):
        nodes, weights, complements, bary = grid_builder()
        assert np.all(np.diff(nodes) > 0), "nodes strictly increasing"
        assert nodes[0] > 0 and nodes[-1] < 1
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert len(complements) == len(bary) == len(nodes)
        assert len(nodes) % operator_lab.PANEL == 0

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_complements_match_nodes(self, grid_builder):
        nodes, _, complements, _ = grid_builder()
        # mirror symmetry: complement array is the reversed node array
        assert np.array_equal(complements, nodes[::-1])

    @pytest.mark.parametrize("size", [2, 17, 200, 800, 2400])
    def test_gauss_grid_is_equal_panels(self, size):
        # ceil(size / 32) panels of 16 nodes per half, all of one width: each
        # panel is the first one shifted by its start and carries 1/panels of
        # the weight.
        grid = gauss_legendre_grid(size)
        panels = 2 * math.ceil(size / (2 * operator_lab.PANEL))
        assert len(grid.nodes) == panels * operator_lab.PANEL
        offsets = grid.nodes.reshape(panels, -1) - np.arange(panels)[:, None] / panels
        assert np.allclose(offsets, offsets[0], rtol=0.0, atol=4e-16)
        assert np.allclose(grid.weights.reshape(panels, -1).sum(axis=1), 1.0 / panels,
                           rtol=1e-14, atol=0.0)

    def test_gauss_grid_build_is_small(self):
        # Only the 16-node rule is solved for, once per process (the warm-up
        # call), so a grid costs its own arrays, not a G x G eigenproblem.
        gauss_legendre_grid(2)
        tracemalloc.start()
        try:
            gauss_legendre_grid(2400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_graded_grid_resolves_log_integrals(self):
        grid = graded_gauss_grid()
        phi = phi0_grid_function(grid)
        # int_0^1 ln(x/(1-x))^2 dx = pi^2 / 3
        sq = phi.with_values(phi.values**2)
        assert abs(sq.integral() - PI**2 / 3.0) < 1e-12

    def test_gauss_grid_exact_on_polynomials(self):
        grid = gauss_legendre_grid(10)
        f = sample_function(grid, lambda x: x**5)
        assert abs(f.integral() - 1.0 / 6.0) < 1e-15

    def test_interior_mask(self):
        nodes = np.array([0.01, 0.05, 0.5, 0.95, 0.99])
        assert list(interior_mask(nodes)) == [False, True, True, True, False]


class TestTransform:
    def test_eigenfunctions(self):
        checks = eigenfunction_checks(gauss_legendre_grid(200))
        assert len(checks) == 4
        assert all(c.status == PASS for c in checks)

    def test_eigenfunction_by_direct_quadrature(self):
        # T(1/(x+a))(x0) via tanh-sinh equals gamma_a/(x0+a).  The interval
        # is split at x0 so the difference quotient's denominator t - x0 is
        # available as an exact endpoint distance on each piece.
        a, x0 = 1.0, 0.37
        fx0 = 1.0 / (x0 + a)

        def left(t, dl, dh):
            return (1.0 / (t + a) - fx0) / (-dh)

        def right(t, dl, dh):
            return (1.0 / (t + a) - fx0) / dl

        r1 = tanh_sinh(left, 0.0, x0)
        r2 = tanh_sinh(right, x0, 1.0)
        gamma = math.log(a / (1.0 + a))
        assert abs(r1.value + r2.value - gamma / (x0 + a)) < 1e-9

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_apply_T_diagonal_is_the_derivative(self, grid_builder):
        # With a single unit weight at node i, apply_T returns the kernel
        # diagonal K_ii at node i: the removable limit f'(x_i).  Outside the
        # interior window the graded panels are so narrow that every
        # difference quotient of f, this one included, is only good to
        # about eps / (panel width).
        grid = grid_builder()
        a = 0.75
        inside = np.flatnonzero(interior_mask(grid.nodes))
        picks = inside[np.linspace(0, len(inside) - 1, 25).astype(int)]
        diag = []
        for i in picks:
            weights = np.zeros_like(grid.weights)
            weights[i] = 1.0
            f = sample_function(grid._replace(weights=weights), lambda x: 1.0 / (x + a))
            diag.append(apply_T(f).values[i])
        expected = -1.0 / (grid.nodes[picks] + a) ** 2
        assert np.max(np.abs(np.array(diag) - expected) / np.abs(expected)) < 1e-9

    def test_compound_identity(self):
        check = operator_identity_check(graded_gauss_grid())
        assert check.status == PASS

    def test_phi0_transform_matches_exact_polynomial(self):
        # T(phi_0^1) = pi^2 C_1(phi_0/pi) = (phi_0^2 + pi^2)/2 pointwise
        grid = graded_gauss_grid()
        phi = phi0_grid_function(grid)
        t_phi = apply_T(phi)
        family = build_by_recurrence(1)
        expected = np.array(
            [
                PI**2 * evaluate_polynomial_float(family.c(1), p / PI)
                for p in phi.values
            ]
        )
        mask = interior_mask(grid[0])
        rel = np.abs(t_phi.values[mask] - expected[mask]) / np.abs(expected[mask])
        assert np.max(rel) < 1e-12


class TestNystromMatrix:
    @pytest.mark.parametrize("grid_builder", [partial(gauss_legendre_grid, 2400),
                                              graded_gauss_grid],
                             ids=["gauss_legendre_grid", "graded_gauss_grid"])
    def test_matches_kernel_per_apply(self, grid_builder):
        grid = grid_builder()
        m = nystrom_matrix(grid)
        phi = phi0_grid_function(grid).values
        samples = [1.0 / (grid.nodes + a) for a in (0.5, 1.0, 5.0)]
        samples += [phi, phi**3 / (grid.nodes + 1.0)]
        for values in samples:
            expected = reference_apply_T(sample_function(grid, lambda x: values))
            err = np.max(np.abs(m @ values - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_rows_sum_to_zero(self, grid_builder):
        # T(1) = 0: each diagonal entry cancels the rest of its row.
        m = nystrom_matrix(grid_builder())
        assert np.all(np.abs(m.sum(axis=1)) <= 1e-12 * np.abs(m).sum(axis=1))

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_stacked_apply_matches_columns(self, grid_builder):
        # A matrix-matrix product may sum in another order than a matvec, so
        # the columns agree to a few eps times the sum of |M_ij f_j|.
        grid = grid_builder()
        stack = sample_function(grid, lambda x: np.stack(
            [1.0 / (x + 2.0), np.sin(3.0 * x), x**4], axis=1))
        together = apply_T(stack).values
        assert together.shape == stack.values.shape
        bound = 32 * np.finfo(float).eps * (np.abs(nystrom_matrix(grid)) @ np.abs(stack.values))
        for k in range(stack.values.shape[1]):
            alone = apply_T(stack.with_values(stack.values[:, k])).values
            assert np.all(np.abs(together[:, k] - alone) <= bound[:, k])

    def test_build_holds_one_matrix(self):
        # Rows are scaled in place one 16-node panel at a time, so the build
        # holds the G x G matrix and only panel-sized temporaries.
        grid = gauss_legendre_grid(2400)
        tracemalloc.start()
        try:
            nystrom_matrix(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * len(grid.nodes) ** 2


class TestBridge:
    def test_rational_to_float(self):
        assert rational_to_float(Fraction(1, 2)) == 0.5
        assert rational_to_float(3) == 3.0

    def test_evaluate_polynomial_float(self):
        p = Polynomial([Fraction(1, 4), 0, 1, 0, Fraction(3, 4)])
        x = 0.3
        expected = 0.25 + 0.09 + 0.75 * 0.3**4
        assert abs(evaluate_polynomial_float(p, x) - expected) < 1e-15
        assert evaluate_polynomial_float(Polynomial([]), 2.0) == 0.0


class TestIntegralReductions:
    def test_a_form_requires_negative_z(self):
        with pytest.raises(ValueError):
            integral_a_form(1, 0.5)

    def test_a_form_n0_against_elementary_value(self):
        # n=0: (1-e^z) int 1/((t+1)(t+e^z)) dt = -z exactly
        z = -math.log(2.0)
        r = integral_a_form(0, z)
        assert abs(r.value - (-z)) < 1e-12

    def test_c_form_n0_is_exact_zero(self):
        r = integral_c_form(0, 0.5)
        assert r.value == 0.0 and r.evaluations == 0

    def test_c_form_pole_inside_head(self):
        # z<0 puts the removable point inside (0,1)
        family = build_by_recurrence(3)
        z = -0.7
        r = integral_c_form(3, z)
        target = PI**4 * evaluate_polynomial_float(family.c(3), z / PI)
        assert abs(r.value - target) / abs(target) < 1e-10

    def test_c_form_pole_inside_tail(self):
        family = build_by_recurrence(2)
        z = 1.0
        r = integral_c_form(2, z)
        target = PI**3 * evaluate_polynomial_float(family.c(2), z / PI)
        assert abs(r.value - target) / abs(target) < 1e-10

    def test_c_form_pole_at_fold_point(self):
        # z=0: pole sits exactly at the fold t=1
        family = build_by_recurrence(1)
        r = integral_c_form(1, 0.0)
        target = PI**2 * evaluate_polynomial_float(family.c(1), 0.0)
        assert abs(r.value - target) / abs(target) < 1e-10
        assert abs(target - PI**2 / 2.0) < 1e-12

    def test_classical_targets(self):
        assert abs(classical_log_target(1) - PI**2 / 2.0) < 1e-15
        assert abs(classical_log_target(2) - PI**4 / 4.0) < 1e-15
        assert abs(classical_log_target(3) - PI**6 / 2.0) < 1e-12

    def test_classical_target_against_odd_reciprocal_series(self):
        # independent oracle: 4 (2n-1)! sum_k 1/(2k+1)^(2n), with the slow
        # tail replaced by its midpoint-rule integral from k = K - 1/2
        for n in (1, 2, 3):
            K = 10000
            s = sum(1.0 / (2 * k + 1) ** (2 * n) for k in range(K))
            s += (2.0 * K) ** -(2 * n - 1) / (2.0 * (2 * n - 1))
            oracle = 4.0 * math.factorial(2 * n - 1) * s
            assert abs(classical_log_target(n) - oracle) / oracle < 1e-11, f"n={n}"

    def test_classical_integral(self):
        for n in (1, 2, 3):
            r = classical_log_integral(n)
            t = classical_log_target(n)
            assert abs(r.value - t) / t < 1e-12, f"n={n}"

    def test_transform_moment_n0(self):
        # int 1/(x+a) dx = ln((1+a)/a) = -gamma_a
        a = 1.0
        r = transform_moment_lhs(0, a)
        assert abs(r.value - math.log(2.0)) < 1e-13


class TestMoments:
    def test_moment_one_vanishes(self):
        checks = moment_check(1, build_by_recurrence(2), graded_gauss_grid())
        assert all(c.status == PASS for c in checks)

    def test_moment_two(self):
        checks = moment_check(2, build_by_recurrence(2), graded_gauss_grid())
        assert all(c.status == PASS for c in checks)
        ids = [c.id for c in checks]
        assert "moment/lambda_beta" in ids

    def test_moment_bad_n(self):
        with pytest.raises(ValueError):
            moment_check(3, build_by_recurrence(3), graded_gauss_grid())

    def test_transform_moment_identity_checks(self):
        for n, a in ((0, 1.0), (1, 1.0), (2, 2.0)):
            checks = transform_moment_identity(a, n, build_by_recurrence(2))
            assert all(c.status == PASS for c in checks), f"(n,a)=({n},{a})"

    def test_transform_moment_requires_positive_a(self):
        with pytest.raises(ValueError):
            transform_moment_identity(-1.0, 1, build_by_recurrence(1))


class TestReportAssembly:
    def test_full_report_passes(self):
        report = integrals_report()
        assert report.all_passed
        assert report.exit_code() == 0
        assert report.counts["total"] == 25

    def test_each_grid_is_built_once(self, monkeypatch):
        calls = {"gauss_legendre_grid": 0, "graded_gauss_grid": 0}
        for name in calls:
            builder = getattr(operator_lab, name)

            def counted(*args, _name=name, _builder=builder, **kwargs):
                calls[_name] += 1
                return _builder(*args, **kwargs)

            monkeypatch.setattr(operator_lab, name, counted)
        integrals_report("all")
        assert calls == {"gauss_legendre_grid": 1, "graded_gauss_grid": 1}

    def test_compound_identity_ignores_grid_size(self):
        report = integrals_report(suite="eigen", grid_size=17)
        compound = [c for c in report.checks if c.id == "compound_operator_identity"]
        assert [c.status for c in compound] == [PASS]

    def test_eigen_suite_passes_on_the_smallest_grid(self):
        # --grid-size 2 is one 16-node panel per half, which already
        # resolves every eigenfunction 1/(x+a).
        report = integrals_report(suite="eigen", grid_size=2)
        assert report.all_passed

    def test_single_suite_selection(self):
        report = integrals_report(suite="classical")
        assert report.counts["total"] == 3
        assert report.all_passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            integrals_report(suite="gauss")

    def test_error_status_produces_exit_code_3(self):
        from acpolys.report import Check, VerificationReport

        report = VerificationReport(suite="x")
        report.checks.append(Check("q", "stalled", ERROR, "", "", "no convergence"))
        assert report.exit_code() == 3

    @pytest.mark.parametrize("name, build, check_id", [
        ("integral_c_form", lambda family: c_form_checks(family, points=((1, 0.0),)),
         "cform/n=1,z=0"),
        ("classical_log_integral", lambda family: classical_checks(n_values=(2,)),
         "classical/n=2"),
        ("transform_moment_lhs", lambda family: transform_moment_identity(1.0, 1, family),
         "tmoment/n=1,a=1"),
    ])
    def test_stalled_quadrature_is_one_error_check(self, monkeypatch, name, build, check_id):
        def stalled(*args):
            raise QuadratureError("stalled")

        monkeypatch.setattr(operator_lab, name, stalled)
        checks = build(build_by_recurrence(1))
        assert [(c.id, c.status, c.lhs, c.rhs, c.error_metric) for c in checks] == [
            (check_id, ERROR, "", "", "stalled")]

    def test_tight_tolerance_fails_cleanly(self):
        report = integrals_report(suite="eigen", tolerance=1e-18)
        assert not report.all_passed
        assert report.exit_code() == 1
