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
    INTEGRALS_MAX_N,
    QuadratureError,
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
    interior_rows,
    moment_check,
    nystrom_apply,
    operator_identity_check,
    phi0,
    rational_to_float,
    tanh_sinh,
    transform_moment_identity,
)
from acpolys.report import ERROR, EXIT_CHECK_FAILED, EXIT_OK, PASS

PI = math.pi

#: The smallest family that holds every A_n, C_n the integral suites read.
FAMILY = build_by_recurrence(3)


def tiled_bary(grid):
    """Each node's barycentric weight within its panel: the panel rule's,
    tiled once per panel."""
    return np.tile(operator_lab._panel_rule()[2], len(grid.nodes) // operator_lab.PANEL)


def reference_nystrom_matrix(grid):
    """The whole G x G Nystrom matrix M of T, so that T(f)(x_i) ~ sum_j M_ij
    f(x_j), filled in place one panel of rows at a time: the matrix that
    nystrom_apply builds ROW_BLOCK rows at a time."""
    x, w, bary = grid.nodes, grid.weights, tiled_bary(grid)
    m = x[None, :] - x[:, None]
    np.fill_diagonal(m, np.inf)
    np.reciprocal(m, out=m)
    scale = w / bary
    for lo in range(0, len(x), operator_lab.PANEL):
        hi = lo + operator_lab.PANEL
        rows = m[lo:hi]
        rows[:, :lo] *= w[:lo]
        rows[:, hi:] *= w[hi:]
        rows[:, lo:hi] *= w[lo:hi] - np.multiply.outer(scale[lo:hi], bary[lo:hi])
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def reference_apply_T(grid, v):
    """T(f), for the node values v of f, with one kernel (f_j - f_i)/(x_j - x_i)
    per apply and the barycentric diagonal read from its panel blocks: the
    kernel-per-apply Nystrom rule that nystrom_apply folds into the matrix."""
    x, bary = grid.nodes, tiled_bary(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = (v[None, :] - v[:, None]) / (x[None, :] - x[:, None])
    idx = np.arange(len(x))
    kernel[idx, idx] = 0.0
    panels, p = len(x) // operator_lab.PANEL, operator_lab.PANEL
    row_sums = np.einsum("rirj,rj->ri", kernel.reshape(panels, p, panels, p),
                         bary.reshape(panels, p))
    kernel[idx, idx] = -row_sums.ravel() / bary
    return kernel @ grid.weights


def reference_tanh_sinh(f, a, b):
    """tanh_sinh with every level's nodes and weights computed inside the
    loop that sums them: the same float operations, in the same order, as
    tanh_sinh with its per-process node table."""
    half = 0.5 * (b - a)
    mid = a + half
    width = b - a
    evaluations = 0

    def row(h, only_odd):
        nonlocal evaluations
        total = 0.0
        k = 1 if only_odd else 0
        step = 2 if only_odd else 1
        while True:
            u = k * h
            y = 0.5 * PI * math.sinh(u)
            if y > 350.0:
                break
            e2 = math.exp(-2.0 * y)
            sigma = e2 / (1.0 + e2)
            dw = 2.0 * PI * math.cosh(u) * e2 / ((1.0 + e2) ** 2)
            if dw == 0.0:
                break
            if k == 0:
                total += dw * f(mid)
                evaluations += 1
            else:
                d = width * sigma
                total += dw * (f(a + d) + f(b - d))
                evaluations += 2
            k += step
        return total

    h = 1.0
    estimate = h * half * row(h, only_odd=False)
    previous = estimate
    err = math.inf
    for level in range(1, operator_lab.QUADRATURE_MAX_LEVEL + 1):
        h *= 0.5
        estimate = 0.5 * estimate + h * half * row(h, only_odd=True)
        err = abs(estimate - previous)
        previous = estimate
        if level >= 3 and err <= operator_lab.QUADRATURE_TARGET * max(1.0, abs(estimate)):
            return operator_lab.QuadratureResult(estimate, err, evaluations)
    raise QuadratureError(
        f"tanh-sinh stalled at level {operator_lab.QUADRATURE_MAX_LEVEL} with change {err:.3e}"
        f" (target {operator_lab.QUADRATURE_TARGET:.1e})"
    )


class TestTanhSinh:
    def test_polynomial(self):
        r = tanh_sinh(lambda x: x * x, 0.0, 1.0)
        assert abs(r.value - 1.0 / 3.0) < 1e-14
        assert r.evaluations > 0

    def test_log_singularity_at_zero(self):
        # int_0^1 ln x dx = -1; at a = 0.0 each node is its exact distance
        r = tanh_sinh(lambda x: math.log(x), 0.0, 1.0)
        assert abs(r.value + 1.0) < 1e-14

    def test_inverse_sqrt_singularity(self):
        r = tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
        assert abs(r.value - 2.0) < 1e-12

    def test_both_endpoints_singular(self):
        # int_0^1 dx / sqrt(x(1-x)) = pi: by symmetry twice the integral
        # over (0, 1/2), whose one singular end is at 0.0
        r = tanh_sinh(lambda x: 1.0 / math.sqrt(x * (1.0 - x)), 0.0, 0.5)
        assert abs(2.0 * r.value - PI) < 1e-12

    def test_shifted_interval(self):
        r = tanh_sinh(lambda x: math.exp(x), -1.0, 2.0)
        assert abs(r.value - (math.exp(2) - math.exp(-1))) < 1e-12

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError):
            tanh_sinh(lambda x: math.sin(100.0 / (x + 1e-3)), 0.0, 1.0)

    def test_error_estimate_is_conservative(self):
        r = tanh_sinh(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
        assert abs(r.value - PI / 4.0) <= max(r.error_estimate, 1e-15)

    def test_every_report_integral_matches_the_reference(self, monkeypatch):
        # The node table changes no float operation: each quadrature the
        # report runs gives the reference's value, error estimate and
        # evaluation count exactly, from a cold table and from a warm one.
        calls = []

        def recorded(f, a, b):
            result = tanh_sinh(f, a, b)
            calls.append((f, a, b, result))
            return result

        operator_lab._tanh_sinh_nodes.cache_clear()
        monkeypatch.setattr(operator_lab, "tanh_sinh", recorded)
        integrals_report(FAMILY, "all")
        assert len(calls) == 28
        for f, a, b, result in calls:
            assert result == tanh_sinh(f, a, b) == reference_tanh_sinh(f, a, b), (a, b)

    @pytest.mark.parametrize("level", range(operator_lab.QUADRATURE_MAX_LEVEL + 1))
    def test_every_node_has_positive_sigma_and_weight(self, level):
        # The table stops at y > 350, before exp(-2y) could underflow.
        nodes = operator_lab._tanh_sinh_nodes(level)
        assert nodes and all(sigma > 0.0 and dw > 0.0 for sigma, dw in nodes)

    def test_a_stall_matches_the_reference(self):
        def f(x):
            return math.sin(100.0 / (x + 1e-3))

        with pytest.raises(QuadratureError) as raised:
            tanh_sinh(f, 0.0, 1.0)
        with pytest.raises(QuadratureError) as expected:
            reference_tanh_sinh(f, 0.0, 1.0)
        assert str(raised.value) == str(expected.value)


class TestGrids:
    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_grid_invariants(self, grid_builder):
        nodes, weights = grid_builder()
        assert np.all(np.diff(nodes) > 0), "nodes strictly increasing"
        assert nodes[0] > 0 and nodes[-1] < 1
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert len(weights) == len(nodes)
        assert len(nodes) % operator_lab.PANEL == 0

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_complements_match_nodes(self, grid_builder):
        nodes, _ = grid_builder()
        # mirror symmetry, which phi0 relies on: the reversed left half is
        # the float 1 - x of every left-half node x, bit for bit
        half = len(nodes) // 2
        assert np.array_equal(nodes[::-1][:half], 1.0 - nodes[:half])

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
        panel_weights = grid.weights.reshape(panels, -1).sum(axis=1)
        assert np.allclose(panel_weights, 1.0 / panels, rtol=1e-14, atol=0.0)
        assert np.max(np.abs(panel_weights - 1.0 / panels)) <= 1e-15

    @pytest.mark.parametrize("size", [0, -1])
    def test_gauss_grid_below_one_node_is_a_value_error(self, size):
        with pytest.raises(ValueError, match=f"grid size {size} "):
            gauss_legendre_grid(size)
        with pytest.raises(ValueError, match=f"grid size {size} "):
            integrals_report(FAMILY, suite="eigen", grid_size=size)

    def test_panel_rule_matches_leggauss(self):
        # numpy's leggauss, from the eigenvalues of the Legendre companion
        # matrix, is the reference the Newton-built rule is held to.
        # Mirrored panels rely on the rule's symmetry about 0.
        y, w, _ = operator_lab._panel_rule()
        ref_y, ref_w = np.polynomial.legendre.leggauss(operator_lab.PANEL)
        assert np.max(np.abs(y - ref_y)) <= 1e-15
        assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-14
        assert np.array_equal(y, -y[::-1]) and np.array_equal(w, w[::-1])

    def test_gauss_grid_build_is_small(self):
        # The 16-node rule is computed once per process (by the first call
        # here), so a grid costs its own arrays, not a G x G eigenproblem.
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
        # int_0^1 ln(x/(1-x))^2 dx = pi^2 / 3
        assert abs(grid.weights @ phi0(grid)**2 - PI**2 / 3.0) < 1e-12

    def test_gauss_grid_exact_on_polynomials(self):
        grid = gauss_legendre_grid(10)
        assert abs(grid.weights @ grid.nodes**5 - 1.0 / 6.0) < 1e-15

    def test_interior_mask(self):
        nodes = np.array([0.01, 0.05, 0.5, 0.95, 0.99])
        assert list(interior_mask(nodes)) == [False, True, True, True, False]


class TestTransform:
    def test_eigenfunctions(self):
        # The largest error is 7.8e-14, at G = 2400 and a = 5.
        for size in (200, 800, 2400):
            grid = gauss_legendre_grid(size)
            checks = eigenfunction_checks(grid, tol=5e-13)
            assert len(checks) == 4
            assert all(c.status == PASS for c in checks), size

    def test_eigenfunction_by_direct_quadrature(self):
        # T(1/(x+a))(x0) via tanh-sinh equals gamma_a/(x0+a).  Both pieces
        # are integrated in the distance s from x0, t = x0 - s on (0, x0) and
        # t = x0 + s on (0, 1 - x0), so the difference quotient's denominator
        # t - x0 is the node itself, up to sign.
        a, x0 = 1.0, 0.37
        fx0 = 1.0 / (x0 + a)

        def left(s):
            return (1.0 / (x0 - s + a) - fx0) / (-s)

        def right(s):
            return (1.0 / (x0 + s + a) - fx0) / s

        r1 = tanh_sinh(left, 0.0, x0)
        r2 = tanh_sinh(right, 0.0, 1.0 - x0)
        gamma = math.log(a / (1.0 + a))
        assert abs(r1.value + r2.value - gamma / (x0 + a)) < 1e-9

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_apply_T_diagonal_is_the_derivative(self, grid_builder):
        # With a single unit weight at node i, T applied to f is the kernel
        # diagonal K_ii at node i: the removable limit f'(x_i); only the rows
        # of the panel of x_i are built.  Outside the interior window the
        # graded panels are so narrow that every difference quotient of f,
        # this one included, is only good to about eps / (panel width).
        grid = grid_builder()
        a = 0.75
        inside = np.flatnonzero(interior_mask(grid.nodes))
        picks = inside[np.linspace(0, len(inside) - 1, 25).astype(int)]
        diag = []
        for i in picks:
            weights = np.zeros_like(grid.weights)
            weights[i] = 1.0
            lo = i - i % operator_lab.PANEL
            rows = nystrom_apply(grid._replace(weights=weights), 1.0 / (grid.nodes + a),
                                 rows=slice(lo, lo + operator_lab.PANEL))
            diag.append(rows[i - lo])
        expected = -1.0 / (grid.nodes[picks] + a) ** 2
        assert np.max(np.abs(np.array(diag) - expected) / np.abs(expected)) < 1e-9

    def test_compound_identity(self):
        # The interior error is 1.3e-13.
        grid = graded_gauss_grid()
        f = 1.0 / (grid.nodes + 1.0)
        check = operator_identity_check(grid, f, nystrom_apply(grid, f), tol=1e-12)
        assert check.status == PASS

    def test_phi0_transform_matches_exact_polynomial(self):
        # T(phi_0^1) = pi^2 C_1(phi_0/pi) = (phi_0^2 + pi^2)/2 pointwise
        grid = graded_gauss_grid()
        phi = phi0(grid)
        t_phi = nystrom_apply(grid, phi)
        family = build_by_recurrence(1)
        expected = np.array(
            [PI**2 * evaluate_polynomial_float(family.c(1), p / PI) for p in phi]
        )
        mask = interior_mask(grid.nodes)
        rel = np.abs(t_phi[mask] - expected[mask]) / np.abs(expected[mask])
        assert np.max(rel) < 1e-12


def _eps_bound(m, values):
    """32 eps times |m| @ |values|: how far two summation orders of the
    products of m and values may part."""
    return 32 * np.finfo(float).eps * (np.abs(m) @ np.abs(values))


class TestNystromApply:
    @pytest.mark.parametrize("grid_builder", [partial(gauss_legendre_grid, 2400),
                                              graded_gauss_grid],
                             ids=["gauss_legendre_grid", "graded_gauss_grid"])
    def test_matches_kernel_per_apply(self, grid_builder):
        grid = grid_builder()
        m = reference_nystrom_matrix(grid)
        phi = phi0(grid)
        samples = [1.0 / (grid.nodes + a) for a in (0.5, 1.0, 5.0)]
        samples += [phi, phi**3 / (grid.nodes + 1.0)]
        for values in samples:
            applied = nystrom_apply(grid, values)
            expected = reference_apply_T(grid, values)
            err = np.max(np.abs(applied - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12
            assert np.all(np.abs(applied - m @ values) <= _eps_bound(m, values))

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_rows_sum_to_zero(self, grid_builder):
        # T(1) = 0: each diagonal entry cancels the rest of its row.
        grid = grid_builder()
        ones = np.ones_like(grid.nodes)
        bound = 1e-12 * (np.abs(reference_nystrom_matrix(grid)) @ ones)
        assert np.all(np.abs(nystrom_apply(grid, ones)) <= bound)

    @pytest.mark.parametrize("grid_builder", [gauss_legendre_grid, graded_gauss_grid])
    def test_stacked_apply_matches_columns(self, grid_builder):
        # A matrix-matrix product may sum in another order than a matvec, so
        # the columns agree to a few eps times the sum of |M_ij f_j|.
        grid = grid_builder()
        x = grid.nodes
        stack = np.stack([1.0 / (x + 2.0), np.sin(3.0 * x), x**4], axis=1)
        together = nystrom_apply(grid, stack)
        assert together.shape == stack.shape
        bound = _eps_bound(reference_nystrom_matrix(grid), stack)
        for k in range(stack.shape[1]):
            assert np.all(np.abs(together[:, k] - nystrom_apply(grid, stack[:, k]))
                          <= bound[:, k])

    @pytest.mark.parametrize("rows", [slice(0, 16), slice(112, 400), slice(1200, None)],
                             ids=["first_panel", "across_blocks", "to_the_end"])
    def test_row_slice_matches_full_apply(self, rows):
        grid = graded_gauss_grid()
        values = np.stack([phi0(grid), 1.0 / (grid.nodes + 1.0)], axis=1)
        part = nystrom_apply(grid, values, rows=rows)
        assert part.shape == values[rows].shape
        full = nystrom_apply(grid, values)
        bound = _eps_bound(reference_nystrom_matrix(grid), values)
        assert np.all(np.abs(part - full[rows]) <= bound[rows])

    def test_interior_rows_are_whole_panels_around_the_window(self):
        grid = graded_gauss_grid()
        rows = interior_rows(grid)
        assert rows.start % operator_lab.PANEL == rows.stop % operator_lab.PANEL == 0
        assert rows.stop - rows.start == 128
        inside = interior_mask(grid.nodes)
        assert inside[rows].sum() == inside.sum()

    @pytest.mark.parametrize("rows", [slice(1, 17), slice(0, 8), slice(0, 32, 2)])
    def test_rows_must_be_whole_panels(self, rows):
        grid = gauss_legendre_grid()
        with pytest.raises(ValueError):
            nystrom_apply(grid, grid.nodes, rows=rows)

    def test_apply_holds_one_block(self):
        # The matrix is built ROW_BLOCK rows at a time into one reused
        # buffer, so an apply holds one block of rows and only small
        # temporaries besides.
        grid = gauss_legendre_grid(2400)
        values = phi0(grid)
        tracemalloc.start()
        try:
            nystrom_apply(grid, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * operator_lab.ROW_BLOCK * len(grid.nodes)


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
        assert abs(r.value - target) / abs(target) < 1e-14

    def test_c_form_pole_inside_tail(self):
        family = build_by_recurrence(2)
        z = 1.0
        r = integral_c_form(2, z)
        target = PI**3 * evaluate_polynomial_float(family.c(2), z / PI)
        assert abs(r.value - target) / abs(target) < 1e-14

    def test_c_form_pole_at_fold_point(self):
        # z=0: pole sits exactly at the fold t=1
        family = build_by_recurrence(1)
        r = integral_c_form(1, 0.0)
        target = PI**2 * evaluate_polynomial_float(family.c(1), 0.0)
        assert abs(r.value - target) / abs(target) < 1e-14
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
        # int 1/(x+a) dx = ln((1+a)/a) = -gamma_a, here at a = 1
        r = integral_a_form(0, math.log(0.5))
        assert abs(r.value - math.log(2.0)) < 1e-13

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    def test_a_form_at_gamma_is_the_moment_integral(self, a):
        # t = x/(1-x) turns int_0^1 phi_0^n/(x+a) dx into the a-form at
        # gamma_a; the graded grid integrates the left side independently.
        grid = graded_gauss_grid()
        gamma = math.log(a / (1.0 + a))
        for n in (0, 1, 2):
            moment = float(grid.weights @ (phi0(grid) ** n / (grid.nodes + a)))
            value = integral_a_form(n, gamma).value
            assert abs(value - moment) / abs(moment) <= 1e-13, f"n={n}"

    @pytest.mark.parametrize("form, z_values", [
        ("a", (-2.0, -1.0, -0.7, -math.log(2.0), -0.2)),
        ("c", (-2.0, -1.2, -0.7, 0.0, 0.3, 0.5, 1.0, 2.0)),
    ])
    def test_quadrature_matches_the_family_to_n_48(self, form, z_values):
        # The c-form points put the pole in the head (z < 0), at the fold
        # (z = 0) and in the tail (z > 0).  Measured worst: 3.4e-15 for the
        # a-form, 8.1e-15 for the c-form, both at n >= 47.
        family = build_by_recurrence(48)
        for n in range(49):
            for z in z_values:
                if form == "a":
                    value = integral_a_form(n, z).value
                    target = -(PI ** (n + 1)) * evaluate_polynomial_float(family.a(n), z / PI)
                else:
                    value = integral_c_form(n, z).value
                    target = PI ** (n + 1) * evaluate_polynomial_float(family.c(n), z / PI)
                err = abs(value - target) / (abs(target) or 1.0)
                assert err <= 1e-14, f"n={n}, z={z}: {err:.3e}"


class TestMoments:
    @staticmethod
    def _moment_checks():
        grid = graded_gauss_grid()
        return moment_check(build_by_recurrence(2), grid, nystrom_apply(grid, phi0(grid)),
                            tol=1e-12)

    def test_moment_one_vanishes(self):
        # The grid integral of phi_0 is 3.5e-18 off 0.
        (one,) = [c for c in self._moment_checks() if c.id == "moment/n=1"]
        assert one.status == PASS
        assert one.error_metric.endswith(" (absolute)")

    def test_moment_two(self):
        # The grid integral of T(phi_0) is 2.4e-14 off lam_2^1 pi^2.
        checks = self._moment_checks()
        assert [c.id for c in checks] == ["moment/n=1", "moment/n=2", "moment/lambda_beta"]
        assert all(c.status == PASS for c in checks)

    def test_transform_moment_identity_checks(self):
        for n, a in ((0, 1.0), (1, 1.0), (2, 2.0)):
            checks = transform_moment_identity(a, n, build_by_recurrence(2), tol=1e-8)
            assert all(c.status == PASS for c in checks), f"(n,a)=({n},{a})"

    def test_transform_moment_requires_positive_a(self):
        with pytest.raises(ValueError):
            transform_moment_identity(-1.0, 1, build_by_recurrence(1), tol=1e-8)


class TestReportAssembly:
    def test_full_report_passes(self):
        report = integrals_report(FAMILY)
        assert report.exit_code() == EXIT_OK
        assert report.counts["total"] == 25

    def test_each_grid_is_built_once(self, monkeypatch):
        # Kernel passes are counted too: the graded grid gets one full pass
        # (phi_0 and f stacked) and one pass over its interior rows (the
        # compound identity's outer apply), the equal grid one full pass.
        names = ("gauss_legendre_grid", "graded_gauss_grid")
        calls = {}
        for name in names:
            builder = getattr(operator_lab, name)

            def counted(*args, _name=name, _builder=builder, **kwargs):
                calls[_name] += 1
                return _builder(*args, **kwargs)

            monkeypatch.setattr(operator_lab, name, counted)
        passes = []

        def counted_apply(grid, values, rows=None):
            passes.append((len(grid.nodes), rows))
            return nystrom_apply(grid, values, rows)

        monkeypatch.setattr(operator_lab, "nystrom_apply", counted_apply)
        graded = (len(graded_gauss_grid().nodes), None)
        interior = (graded[0], interior_rows(graded_gauss_grid()))
        equal = (len(gauss_legendre_grid().nodes), None)
        for suite, grids, expected in (("all", (1, 1), [graded, equal, interior]),
                                       ("moments", (0, 1), [graded]),
                                       ("eigen", (1, 1), [graded, equal, interior])):
            calls.update(dict.fromkeys(names, 0))
            passes.clear()
            integrals_report(FAMILY, suite)
            assert calls == dict(zip(names, grids)), suite
            assert passes == expected, suite

    def test_report_holds_one_block_at_a_time(self):
        # Every pass builds ROW_BLOCK rows of T at a time, so the report's
        # peak is about one block of the 2400-node grid (0.6 MB), where the
        # whole matrix would take 46 MB.
        integrals_report(FAMILY, "all", grid_size=2400)
        tracemalloc.start()
        try:
            integrals_report(FAMILY, "all", grid_size=2400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * operator_lab.ROW_BLOCK * 2400

    def test_compound_identity_ignores_grid_size(self):
        report = integrals_report(FAMILY, suite="eigen", grid_size=17)
        compound = [c for c in report.checks if c.id == "compound_operator_identity"]
        assert [c.status for c in compound] == [PASS]

    def test_eigen_suite_passes_on_the_smallest_grid(self):
        # --grid-size 2 is one 16-node panel per half, which already
        # resolves every eigenfunction 1/(x+a).
        report = integrals_report(FAMILY, suite="eigen", grid_size=2)
        assert report.exit_code() == EXIT_OK

    @pytest.mark.parametrize("suite", operator_lab.SUITES)
    def test_single_suite_selection(self, suite):
        totals = {"cform": 4, "aform": 4, "classical": 3, "moments": 9, "eigen": 5}
        report = integrals_report(FAMILY, suite=suite)
        assert report.counts["total"] == totals[suite]
        assert report.exit_code() == EXIT_OK

    def test_single_suites_concatenate_to_all(self):
        def lines(checks):
            return [(c.id, c.status, c.error_metric) for c in checks]

        singles = [line for suite in operator_lab.SUITES
                   for line in lines(integrals_report(FAMILY, suite=suite).checks)]
        assert singles == lines(integrals_report(FAMILY, suite="all").checks)

    def test_a_family_past_integrals_max_n_changes_no_report(self):
        # verify integrals builds its family to INTEGRALS_MAX_N: a check
        # that read past it would be dropped from the CLI's report unseen.
        def lines(max_n):
            report = integrals_report(build_by_recurrence(max_n))
            return [(c.id, c.status, c.error_metric) for c in report.checks]

        assert lines(INTEGRALS_MAX_N) == lines(INTEGRALS_MAX_N + 5)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            integrals_report(FAMILY, suite="gauss")

    def test_error_status_produces_exit_code_3(self):
        from acpolys.report import Check, VerificationReport

        report = VerificationReport(
            "x", (Check("q", "stalled", ERROR, "", "", "no convergence"),))
        assert report.exit_code() == 3

    @pytest.mark.parametrize("name, suite, check_ids", [
        ("integral_c_form", "cform",
         ["cform/n=0,z=0.5", "cform/n=1,z=0", "cform/n=2,z=1", "cform/n=3,z=-0.7"]),
        ("integral_a_form", "aform",
         ["aform/n=0,z=-0.693147", "aform/n=1,z=-0.693147",
          "aform/n=2,z=-0.405465", "aform/n=3,z=-1"]),
        ("classical_log_integral", "classical",
         ["classical/n=1", "classical/n=2", "classical/n=3"]),
        ("integral_a_form", "moments",
         ["tmoment/n=0,a=1", "tmoment/n=1,a=1", "tmoment/n=2,a=2"]),
    ])
    def test_stalled_quadrature_is_one_error_check(self, monkeypatch, name, suite,
                                                   check_ids):
        # Every quadrature of the suite stalls: each gives exactly one ERROR
        # check under its own id, and the suite's grid checks still pass.
        def stalled(*args):
            raise QuadratureError("stalled")

        monkeypatch.setattr(operator_lab, name, stalled)
        report = integrals_report(FAMILY, suite=suite)
        assert [(c.id, c.status, c.lhs, c.rhs, c.error_metric)
                for c in report.checks if c.status != PASS] == [
            (check_id, ERROR, "", "", "stalled") for check_id in check_ids]

    def test_tight_tolerance_fails_cleanly(self):
        report = integrals_report(FAMILY, suite="eigen", tolerance=1e-18)
        assert report.exit_code() == EXIT_CHECK_FAILED == 1
