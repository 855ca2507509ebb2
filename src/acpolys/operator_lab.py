"""Floating-point verification of the integral and operator identities.

This module is the only place floating point appears.  It consumes exact
polynomials through a single evaluate-to-float bridge and checks:

* four closed-form improper integrals over (0, infinity) against exact
  A_n / C_n / Bernoulli values, via double-exponential (tanh-sinh)
  quadrature with the tails folded onto (0, 1] by t -> 1/t;
* the transform T(f)(x) = integral_0^1 (f(t) - f(x))/(t - x) dt,
  discretized (Nystrom) on grids of 16-point Gauss-Legendre panels
  mirrored about x = 1/2, equal or dyadically graded, against its exact
  eigenfunctions 1/(x+a) with eigenvalues gamma_a = ln(a/(1+a));
* moment identities of phi_0(x) = ln(x/(1-x)) under powers of T.

It builds no family: the exact A_n / C_n come from the family a report is
handed (the CLI's one recurrence family per run), and a check that reads a
polynomial past that family's max_n is left out of the report.  No check
reads past ``INTEGRALS_MAX_N``, the largest n of the points the suites
evaluate at, derived here from those points.

Endpoint singularities of ln-type are handled by evaluating integrands
with the exact distance to each endpoint (tanh-sinh supplies d_lo, d_hi)
and, on grids, by reading 1-x as the mirrored node, which a grid mirrored
about x = 1/2 holds exactly.  Removable singularities are bridged by a
two-term Taylor rule inside a small guard window in quadrature, and on
grids by the derivative of each panel's barycentric interpolant, folded
into the Nystrom matrix.

Every grid is built from one 16-point Gauss-Legendre rule, computed once
by Newton's method on the Legendre recurrence.  On a grid, T exists only
as ``nystrom_apply(grid, values)``, which builds the Nystrom matrix
ROW_BLOCK rows (two panels) at a time and multiplies each block into T(f)
before building the next, so no G x G array is ever held.  The grid
checks work on plain arrays of node values (the integral is
``grid.weights @ values``), and stack the functions they transform so each
grid costs one pass.  Quadrature reads each tanh-sinh level's nodes and
weights from a table built once per process, keyed by the level.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .ac_families import ACFamily
from .exact_core import Polynomial
from .report import (
    DEFAULT_GRID_SIZE, DEFAULT_TOLERANCE, ERROR, FAIL, PASS, SUITES, Check,
    VerificationReport, exact_check,
)
from .special_numbers import bernoulli_numbers

PI = math.pi

#: Nodes per Gauss-Legendre panel of every grid.
PANEL = 16

#: Dyadic levels per half of ``graded_gauss_grid``.  From 46 levels up,
#: mirrored nodes 1 - s round to the same float and the Nystrom differences
#: x_j - x_i vanish.
GRADED_LEVELS = 40

#: Nodes with x in this closed window count as "interior" for the compound
#: operator identity.  Near both ends of the graded grid, the discrete T is
#: limited by the ln singularity of phi_0 inside the innermost panels,
#: which no Gauss panel resolves: T(phi_0) is 2.3e-3 off at x = 2.4e-15
#: (where float differences are exact) as at x = 1 - 2.4e-15, and 6.9e-6
#: off without the two end panels; the compound identity reaches its
#: 1.3e-13 only from about x = 1e-3 inward.
INTERIOR_WINDOW = (0.05, 0.95)

#: Rows of the Nystrom matrix that ``nystrom_apply`` builds at a time, a
#: whole number of panels: one block takes 8·ROW_BLOCK·G bytes, 0.6 MB at
#: G = 2400.  Two panels hold a quarter of what eight did without slowing a
#: pass: on one thread of an Intel Xeon, a G = 2400 pass took a median
#: 16.6 ms at 32 rows against 19.5 ms at 128 (2.5 MB a block), and
#: G = 1312 took 5.4 against 5.1 ms.
ROW_BLOCK = 2 * PANEL

#: ``tanh_sinh`` converges once the level-to-level change is at most
#: QUADRATURE_TARGET * max(1, |integral|), and gives up after
#: QUADRATURE_MAX_LEVEL halvings of the step.
QUADRATURE_TARGET = 1e-12
QUADRATURE_MAX_LEVEL = 12


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its target."""


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


@functools.cache
def _tanh_sinh_nodes(level: int) -> tuple:
    """The (sigma, dw) pairs of ``tanh_sinh`` level ``level``, whose step is
    h = 2**-level: the nodes u = k h for k = 0, 1, 2, ... at level 0, and
    for the odd k = 1, 3, 5, ... that each later level adds.  The node at
    u = k h lies a distance width * sigma inside each end of the interval
    and has weight dw, until the nodes reach the ends (y > 350).  Up to
    there exp(-2y) >= exp(-700) is a normal float, so every sigma and dw is
    positive.  They depend on the level alone, so each of the
    QUADRATURE_MAX_LEVEL + 1 levels is computed once per process."""
    h = 0.5**level
    k, step = (0, 1) if level == 0 else (1, 2)
    nodes = []
    while True:
        u = k * h
        y = 0.5 * PI * math.sinh(u)
        if y > 350.0:
            break
        e2 = math.exp(-2.0 * y)
        sigma = e2 / (1.0 + e2)
        dw = 2.0 * PI * math.cosh(u) * e2 / ((1.0 + e2) ** 2)
        nodes.append((sigma, dw))
        k += step
    return tuple(nodes)


def tanh_sinh(f, a: float, b: float) -> QuadratureResult:
    """Double-exponential quadrature of f over (a, b).

    The integrand is called as ``f(x, d_lo, d_hi)`` with d_lo = x - a and
    d_hi = b - x computed without cancellation, so ln-singular endpoint
    factors can use the exact distances.  Levels double the node density;
    from level 3 on, convergence requires the level-to-level change to drop
    to ``QUADRATURE_TARGET * max(1, |integral|)`` within
    ``QUADRATURE_MAX_LEVEL`` levels.  Raises QuadratureError otherwise.
    The nodes and weights of each level come from ``_tanh_sinh_nodes``,
    shared by every call; only the integrand is evaluated per call.
    """
    half = 0.5 * (b - a)
    mid = a + half
    width = b - a
    evaluations = 0

    def row(level: int) -> float:
        """The weighted integrand sum over the nodes level ``level`` adds."""
        nonlocal evaluations
        nodes = _tanh_sinh_nodes(level)
        total = 0.0
        if level == 0:
            total += nodes[0][1] * f(mid, half, half)
            evaluations += 1
            nodes = nodes[1:]
        for sigma, dw in nodes:
            d = width * sigma
            total += dw * (f(a + d, d, width - d) + f(b - d, width - d, d))
        evaluations += 2 * len(nodes)
        return total

    estimate = half * row(0)
    previous = estimate
    err = math.inf
    for level in range(1, QUADRATURE_MAX_LEVEL + 1):
        estimate = 0.5 * estimate + 0.5**level * half * row(level)
        err = abs(estimate - previous)
        previous = estimate
        if level >= 3 and err <= QUADRATURE_TARGET * max(1.0, abs(estimate)):
            return QuadratureResult(estimate, err, evaluations)
    raise QuadratureError(
        f"tanh-sinh stalled at level {QUADRATURE_MAX_LEVEL} with change {err:.3e}"
        f" (target {QUADRATURE_TARGET:.1e})"
    )


# ---------------------------------------------------------------------------
# Grids and the discretized transform.


class Grid(NamedTuple):
    """A positive-weight quadrature grid in (0,1) made of Gauss-Legendre panels.

    Panels are runs of ``PANEL`` consecutive nodes, each an affine image of
    ``_panel_rule()``, whose barycentric weights serve every panel.  The
    grid is mirrored about x = 1/2, so ``nodes[::-1]`` is 1 - nodes to the
    bit: functions of 1-x keep full accuracy near x = 1.
    """

    nodes: np.ndarray
    weights: np.ndarray


def _legendre(y: np.ndarray):
    """P_PANEL(y) and its derivative, by the three-term recurrence
    (k+1) P_{k+1} = (2k+1) y P_k - k P_{k-1}."""
    previous, p = np.ones_like(y), y
    for k in range(1, PANEL):
        previous, p = p, ((2 * k + 1) * y * p - k * previous) / (k + 1)
    return p, PANEL * (y * p - previous) / (y * y - 1.0)


@functools.cache
def _panel_rule():
    """The PANEL-point Gauss-Legendre nodes y and weights w on (-1, 1), with
    the barycentric weights (-1)^j sqrt((1 - y_j^2) w_j) of the same nodes
    (Wang, Huybrechs & Vandewalle, Math. Comp. 2014).  Every grid is built
    from this one rule, computed on first use and never mutated.

    The nodes are the roots of P_PANEL, found by Newton's method from
    Tricomi's guesses cos(pi (i - 1/4) / (PANEL + 1/2)) until no node moves,
    then made exactly antisymmetric; the weights are 2 / ((1 - y^2) P'(y)^2).
    The nodes equal numpy's eigenvalue-based ``leggauss`` to the bit and the
    weights agree to 5.2e-15 relative (against 40-digit weights, these are
    1.9e-15 off and leggauss's 7.0e-15), with no numpy.polynomial import
    and no eigenproblem."""
    y = np.cos(PI * (np.arange(PANEL, 0, -1) - 0.25) / (PANEL + 0.5))
    for _ in range(2 * PANEL):
        p, dp = _legendre(y)
        nearer = y - p / dp
        if np.array_equal(nearer, y):
            break
        y = nearer
    y = 0.5 * (y - y[::-1])
    dp = _legendre(y)[1]
    w = 2.0 / ((1.0 - y * y) * dp * dp)
    return y, w, (-1.0) ** np.arange(PANEL) * np.sqrt((1.0 - y * y) * w)


def _mirrored_grid(bounds) -> Grid:
    """PANEL-point Gauss panels on the increasing (lo, hi) ``bounds``, which
    cover (0, 1/2), mirrored onto (1/2, 1).

    The mirror of node s is the float 1 - s, so the reversed nodes are each
    node's complement 1 - x: 1 - s for a left node s, and s itself for its
    mirror, exact where a plain float subtraction 1 - x is not, near 1.  A mirrored panel's barycentric weights are the reversed
    ones: equal to the panel rule's up to one sign per panel, which the
    ratios in nystrom_apply cancel.
    """
    y, w, _ = _panel_rule()
    lo, hi = np.asarray(bounds).T
    center = 0.5 * (lo + hi)
    halfwidth = 0.5 * (hi - lo)
    s = (center[:, None] + halfwidth[:, None] * y).ravel()
    ws = (halfwidth[:, None] * w).ravel()
    return Grid(np.concatenate([s, 1.0 - s[::-1]]), np.concatenate([ws, ws[::-1]]))


def gauss_legendre_grid(size: int = DEFAULT_GRID_SIZE) -> Grid:
    """Equal-width Gauss panels on (0, 1), ceil(size / 32) per half: that is
    32 ceil(size / 32) nodes, exactly ``size`` when 32 divides it."""
    k = -(-size // (2 * PANEL))
    return _mirrored_grid([(i / (2 * k), (i + 1) / (2 * k)) for i in range(k)])


def graded_gauss_grid() -> Grid:
    """Composite Gauss grid with dyadic panels toward both endpoints.

    The left half of (0,1) is covered by panels (0, 2^-(L+1)) and
    (2^-(k+1), 2^-k) for k = L..1 with L = GRADED_LEVELS; the right half
    mirrors it.  Endpoint-singular but integrable functions (powers of ln x
    and ln(1-x)) integrate to near machine precision on this grid.
    """
    bounds = [(0.0, 2.0 ** -(GRADED_LEVELS + 1))]
    bounds.extend((2.0 ** -(k + 1), 2.0 ** -k) for k in range(GRADED_LEVELS, 0, -1))
    return _mirrored_grid(bounds)


def phi0(grid: Grid) -> np.ndarray:
    """phi_0(x) = ln(x / (1-x)) at the grid nodes, reading each 1 - x as the
    mirrored node, which the grid holds exactly."""
    log_x = np.log(grid.nodes)
    return log_x - log_x[::-1]


def nystrom_apply(grid: Grid, values: np.ndarray, rows: slice | None = None) -> np.ndarray:
    """T(f)(x_i) for the node values ``values`` of f (a G-vector, or a G x k
    stack of k functions), at every node or at the nodes ``rows``, a slice
    of whole panels; T(f)(x) = integral_0^1 (f(t)-f(x))/(t-x) dt.

    The Nystrom matrix M of T is built ROW_BLOCK rows at a time into one
    buffer, and each block is multiplied into the output before the next
    overwrites it.  Off the diagonal, M_ij = w_j / (x_j - x_i).  The kernel
    at t = x is the removable limit f'(x_i), the derivative of the
    barycentric interpolant of f on the panel of x_i (Berrut & Trefethen,
    SIAM Review 2004); that rule is linear in f, so within a panel it moves
    into the matrix as M_ij = (w_j - (w_i/bary_i) bary_j) / (x_j - x_i),
    with bary the panel rule's barycentric weights, the same for every
    panel.  Each diagonal entry is minus its row sum, because T(1) = 0.
    """
    x, w, bary = grid.nodes, grid.weights, _panel_rule()[2]
    start, stop, step = (rows or slice(None)).indices(len(x))
    if step != 1 or start % PANEL or stop % PANEL:
        raise ValueError(f"rows {start}:{stop}:{step} are not whole panels of {PANEL}")
    out = np.empty((stop - start,) + values.shape[1:])
    buffer = np.empty((min(ROW_BLOCK, stop - start), len(x)))
    for lo in range(start, stop, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, stop)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        block = np.subtract(x, x[lo:hi, None], out=buffer[:hi - lo])
        block[diag] = np.inf
        # Each row's own panel: the diagonal PANEL x PANEL blocks of
        # block[:, lo:hi], own[k, :, k, :] for the k-th panel of the block.
        k = np.arange((hi - lo) // PANEL)
        own = block[:, lo:hi].reshape(len(k), PANEL, len(k), PANEL)
        wp = w[lo:hi].reshape(-1, PANEL)
        own_entries = (wp[:, None, :] - (wp / bary)[:, :, None] * bary) / own[k, :, k, :]
        np.divide(w, block, out=block)
        own[k, :, k, :] = own_entries
        block[diag] = -block.sum(axis=1)
        out[lo - start:hi - start] = block @ values
    return out


def interior_mask(nodes: np.ndarray) -> np.ndarray:
    lo, hi = INTERIOR_WINDOW
    return (nodes >= lo) & (nodes <= hi)


def interior_rows(grid: Grid) -> slice:
    """The rows of the panels that hold the INTERIOR_WINDOW nodes of ``grid``."""
    inside = np.flatnonzero(interior_mask(grid.nodes))
    first, last = int(inside[0]) // PANEL, int(inside[-1]) // PANEL
    return slice(first * PANEL, (last + 1) * PANEL)


# ---------------------------------------------------------------------------
# The exact -> float bridge.


def rational_to_float(value) -> float:
    """The only scalar crossing from exact to float: correctly rounded."""
    return float(Fraction(value))


def evaluate_polynomial_float(p: Polynomial, x: float) -> float:
    """Evaluate an exact rational polynomial at a float argument (Horner)."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + rational_to_float(c)
    return acc


# ---------------------------------------------------------------------------
# Closed-form improper integrals.

#: Guard half-width around removable singularities; inside it the
#: integrand is replaced by a two-term Taylor rule.
GUARD = 1e-6


def _integrate(pieces, scale: float = 1.0) -> QuadratureResult:
    """``scale`` times the sum of the tanh-sinh integrals of the (f, lo, hi)
    ``pieces``, with their error estimates (times |scale|) and evaluation
    counts summed alongside."""
    value = 0.0
    err = 0.0
    evals = 0
    for f, lo, hi in pieces:
        r = tanh_sinh(f, lo, hi)
        value += r.value
        err += r.error_estimate
        evals += r.evaluations
    return QuadratureResult(scale * value, abs(scale) * err, evals)


def integral_a_form(n: int, z: float) -> QuadratureResult:
    """(1 - e^z) * integral_0^inf ln(t)**n / ((t+1)(t+e^z)) dt for z < 0.

    The tail (1, inf) is folded onto (0, 1) by t -> 1/t, which maps
    ln(t)**n to (-ln s)**n and keeps the denominator polynomial.  The
    only singularities are the integrable ln**n factors at t = 0, handled
    by tanh-sinh with exact endpoint distances.
    """
    if z >= 0:
        raise ValueError("the a-form integral requires z < 0")
    ez = math.exp(z)

    def head(t, d_lo, d_hi):
        return math.log(d_lo) ** n / ((t + 1.0) * (t + ez))

    def tail(s, d_lo, d_hi):
        return (-math.log(d_lo)) ** n / ((1.0 + s) * (1.0 + s * ez))

    return _integrate([(head, 0.0, 1.0), (tail, 0.0, 1.0)], 1.0 - ez)


def integral_c_form(n: int, z: float) -> QuadratureResult:
    """(e^z + 1) * integral_0^inf (ln(t)**n - z**n)/((1+t)(t-e^z)) dt.

    The numerator vanishes at the pole t = e^z, so the singularity is
    removable; within GUARD of it the integrand is replaced by the
    two-term Taylor rule built from the first two derivatives of the
    numerator at the pole.  The integration range is folded at t = 1 and
    each unit piece is split at the pole location when it falls inside,
    so the removable point only ever sits at a subinterval endpoint.
    For n = 0 the numerator is identically zero and the result is exact 0.
    """
    if n == 0:
        return QuadratureResult(0.0, 0.0, 0)
    ez = math.exp(z)
    zn = z**n
    z_nm1 = z ** (n - 1)
    z_nm2 = z ** (n - 2) if n >= 2 else 0.0

    # Head: H(t) = (ln(t)**n - z**n) / ((1+t)(t - e^z)) on (0, 1).
    head_d1 = n * z_nm1 * math.exp(-z)
    head_d2 = n * ((n - 1) * z_nm2 - z_nm1) * math.exp(-2.0 * z)

    def head(t, d_lo, d_hi):
        h = t - ez
        if abs(h) < GUARD:
            return (head_d1 + 0.5 * head_d2 * h) / (1.0 + t)
        return (math.log(t) ** n - zn) / ((1.0 + t) * h)

    # Tail after t -> 1/s: G(s) = ((-ln s)**n - z**n) / ((1+s)(1 - s e^z)),
    # pole at s0 = e^-z with 1 - s e^z = -e^z (s - s0).
    s0 = math.exp(-z)
    tail_d1 = -n * z_nm1 * math.exp(z)
    tail_d2 = n * ((n - 1) * z_nm2 + z_nm1) * math.exp(2.0 * z)

    def tail(s, d_lo, d_hi):
        h = s - s0
        if abs(h) < GUARD:
            return (tail_d1 + 0.5 * tail_d2 * h) / ((1.0 + s) * (-ez))
        return ((-math.log(s)) ** n - zn) / ((1.0 + s) * (1.0 - s * ez))

    # math.log(t) needs no d_lo: on a piece from 0.0, tanh_sinh's node is
    # the exact distance d_lo itself.
    pieces = []
    for f, pole in ((head, ez), (tail, s0)):
        if 0.0 < pole < 1.0:
            pieces += [(f, 0.0, pole), (f, pole, 1.0)]
        else:
            pieces.append((f, 0.0, 1.0))
    return _integrate(pieces, ez + 1.0)


def classical_log_integral(n: int) -> QuadratureResult:
    """4 * integral_0^1 ln(x)**(2n-1) / (x**2 - 1) dx for n >= 1.

    The substitution x = e^-s turns it into 2 * integral_0^inf
    s**(2n-1)/sinh(s) ds, a smooth rapidly decaying integrand; the tail
    beyond s = 60 is below 1e-17 and is dropped.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    m = 2 * n - 1

    def f(s, d_lo, d_hi):
        return s**m / math.sinh(s)

    return _integrate([(f, 0.0, 1.0), (f, 1.0, 60.0)], 2.0)


def classical_log_target(n: int) -> float:
    """(4**n - 1) * (-1)**(n-1) * beta_{2n} * pi**(2n) / n, as a float."""
    coeff = Fraction((4**n - 1) * (-1) ** (n - 1), n) * bernoulli_numbers(2 * n)[2 * n]
    return rational_to_float(coeff) * PI ** (2 * n)


def transform_moment_lhs(n: int, a: float) -> QuadratureResult:
    """integral_0^1 phi_0(x)**n / (x + a) dx by direct quadrature.

    Split at 1/2 with the right half reflected by x -> 1-x, so each piece
    sees its ln singularity at the lower endpoint where tanh-sinh supplies
    the exact distance; phi_0 is evaluated via log1p on the smooth side.
    """

    def left(x, d_lo, d_hi):
        return (math.log(d_lo) - math.log1p(-x)) ** n / (x + a)

    def right(s, d_lo, d_hi):
        return (math.log1p(-s) - math.log(d_lo)) ** n / (1.0 - s + a)

    return _integrate([(left, 0.0, 0.5), (right, 0.0, 0.5)])


# ---------------------------------------------------------------------------
# Check suites.

#: The (n, z) points of the cform and aform checks, the (n, a) of tmoment.
_C_FORM_POINTS = ((0, 0.5), (1, 0.0), (2, 1.0), (3, -0.7))
_A_FORM_POINTS = ((0, -math.log(2)), (1, -math.log(2)), (2, math.log(2) - math.log(3)), (3, -1.0))
_TMOMENT_POINTS = ((0, 1.0), (1, 1.0), (2, 2.0))

#: The largest n of any A_n, C_n the integral suites read (``moment_check``
#: reads C_1 and C_2).  A family built past it changes no report.
INTEGRALS_MAX_N = max(n for n, _ in _C_FORM_POINTS + _A_FORM_POINTS + _TMOMENT_POINTS)


def _relative_error(value: float, target: float) -> float:
    if target == 0.0:
        return abs(value)
    return abs(value - target) / abs(target)


def _numeric_check(check_id: str, description: str, value: float,
                   target: float, tol: float) -> Check:
    err = _relative_error(value, target)
    status = PASS if err <= tol else FAIL
    metric = f"{err:.6e}" + (" (absolute)" if target == 0.0 else "")
    return Check(check_id, description, status, repr(value), repr(target), metric)


def _grid_check(check_id: str, description: str, rel: float, tol: float,
                what: str = "max relative error") -> Check:
    """A grid check that passes when ``rel``, the maximum relative error
    over the compared nodes (named by ``what``), is at most ``tol``."""
    status = PASS if rel <= tol else FAIL
    return Check(check_id, description, status, f"{what} {rel:.6e}",
                 f"tolerance {tol:g}", f"{rel:.6e}")


def _quadrature_checks(integrate, tol: float, *comparisons) -> list:
    """Run the quadrature ``integrate()`` once and compare its value with
    each (check id, description, target); if it fails to converge, one
    ERROR check under the first id and description says why."""
    try:
        value = integrate().value
    except QuadratureError as exc:
        check_id, description, _ = comparisons[0]
        return [Check(check_id, description, ERROR, "", "", str(exc))]
    return [_numeric_check(check_id, description, value, target, tol)
            for check_id, description, target in comparisons]


def c_form_checks(family: ACFamily, tol: float) -> list:
    """Quadrature vs pi**(n+1) C_n(z/pi) at four (n, z) points with
    n <= family.max_n."""
    checks = []
    for n, z in _C_FORM_POINTS:
        if n > family.max_n:
            continue
        checks += _quadrature_checks(
            lambda: integral_c_form(n, z), tol,
            (f"cform/n={n},z={z:g}",
             f"(e^z+1) int (ln^{n} t - z^{n})/((1+t)(t-e^z)) = pi^{n + 1} C_{n}(z/pi), z={z:g}",
             PI ** (n + 1) * evaluate_polynomial_float(family.c(n), z / PI)),
        )
    return checks


def a_form_checks(family: ACFamily, tol: float) -> list:
    """Quadrature vs -pi**(n+1) A_n(z/pi) at four (n, z) points with
    n <= family.max_n."""
    checks = []
    for n, z in _A_FORM_POINTS:
        if n > family.max_n:
            continue
        checks += _quadrature_checks(
            lambda: integral_a_form(n, z), tol,
            (f"aform/n={n},z={z:g}",
             f"(1-e^z) int ln^{n} t/((t+1)(t+e^z)) = -pi^{n + 1} A_{n}(z/pi), z={z:g}",
             -(PI ** (n + 1)) * evaluate_polynomial_float(family.a(n), z / PI)),
        )
    return checks


def classical_checks(tol: float) -> list:
    """The log-kernel integral vs its exact Bernoulli value, n = 1, 2, 3."""
    checks = []
    for n in (1, 2, 3):
        checks += _quadrature_checks(
            lambda: classical_log_integral(n), tol,
            (f"classical/n={n}",
             f"4 int_0^1 ln^{2 * n - 1} x/(x^2-1) dx = (4^{n}-1)(-1)^{n - 1} beta_{2 * n} pi^{2 * n}/{n}",
             classical_log_target(n)),
        )
    return checks


def eigenfunction_checks(grid: Grid, tol: float) -> list:
    """The Nystrom rule on ``grid`` reproduces T(1/(x+a)) = gamma_a/(x+a)
    at every grid node, for a = 0.5, 1, 2, 5.

    All four are transformed by one pass of nystrom_apply, one column per a.
    """
    a_values = (0.5, 1.0, 2.0, 5.0)
    f = 1.0 / (grid.nodes[:, None] + np.asarray(a_values))
    expected = np.array([math.log(a / (1.0 + a)) for a in a_values]) * f
    errors = np.max(np.abs(nystrom_apply(grid, f) - expected) / np.abs(expected), axis=0)
    return [
        _grid_check(
            f"eigen/a={a:g}",
            f"T(1/(x+{a:g})) = ln({a:g}/{1 + a:g}) * 1/(x+{a:g}) on the grid",
            rel, tol,
        )
        for a, rel in zip(a_values, errors)
    ]


def operator_identity_check(grid: Grid, f: np.ndarray, t_f: np.ndarray,
                            tol: float) -> Check:
    """T(2 phi_0 f - T(f)) = (phi_0**2 + pi**2) f for f = 1/(x+1), from the
    node values ``f`` of f on ``grid`` and their transform ``t_f``.

    Meant for the graded grid, whose dyadic panels resolve the ln
    singularities of phi_0 at both ends.  The comparison is restricted to
    interior nodes (at the extreme graded nodes the outer apply is about
    2.3e-3 off), so the outer apply builds only the rows of their panels.
    """
    rows = interior_rows(grid)
    mask = interior_mask(grid.nodes)[rows]
    p = phi0(grid)
    outer = nystrom_apply(grid, 2.0 * p * f - t_f, rows=rows)[mask]
    expected = ((p**2 + PI**2) * f)[rows][mask]
    rel = np.max(np.abs(outer - expected) / np.abs(expected))
    return _grid_check(
        "compound_operator_identity",
        "T(2 phi0 f - T f) = (phi0^2 + pi^2) f for f = 1/(x+1), interior nodes",
        rel, tol, "max interior relative error",
    )


def moment_check(family: ACFamily, grid: Grid, t_phi0: np.ndarray,
                 tol: float) -> list:
    """Grid moments of phi_0 and of ``t_phi0``, its transform on ``grid``,
    against the exact lambda tables.

    The integral of phi_0 is 0 (= lam_1^1 * pi), and the integral of
    T(phi_0) is lam_2^1 * pi**2 = 2 pi**2/3, with the arithmetic identity
    lam_2^1 = 4 beta_2 checked exactly alongside.  Meant for the graded
    grid, whose dyadic endpoint panels integrate the ln**2 singularity to
    near machine precision (a plain Gauss grid converges only
    algebraically here).  The checks that read C_1 (moment/n=1) and C_2
    (the other two) run only when the family holds that polynomial.
    """
    p = phi0(grid)
    checks = []
    if family.max_n >= 1:
        lam_11 = family.c(1).coefficient(1)
        checks.append(_numeric_check(
            "moment/n=1", "int_0^1 phi_0 dx = lam_1^1 pi = 0",
            float(grid.weights @ p), rational_to_float(lam_11) * PI, tol))
    if family.max_n >= 2:
        lam_21 = family.c(2).coefficient(1)
        checks += [
            _numeric_check("moment/n=2", "int_0^1 T(phi_0) dx = lam_2^1 pi^2",
                           float(grid.weights @ t_phi0),
                           rational_to_float(lam_21) * PI**2, tol),
            exact_check("moment/lambda_beta",
                        "lam_2^1 = 4 beta_2 (exact rational identity)",
                        lam_21, 4 * bernoulli_numbers(2)[2]),
        ]
    return checks


def transform_moment_identity(a: float, n: int, family: ACFamily, tol: float) -> list:
    """integral phi_0**n/(x+a) dx against both exact renderings.

    Compared to -pi**(n+1) A_n(gamma_a/pi) and to the expansion
    sum_k alpha_n^k pi**(n+1-k) (-gamma_a**k), which agree exactly; the
    quadrature must match both.
    """
    if a <= 0:
        raise ValueError("requires a > 0")
    gamma = math.log(a / (1.0 + a))
    target_poly = -(PI ** (n + 1)) * evaluate_polynomial_float(family.a(n), gamma / PI)
    target_sum = 0.0
    for k in range(1, n + 2):
        alpha = family.a(n).coefficient(k)
        if alpha:
            target_sum -= rational_to_float(alpha) * PI ** (n + 1 - k) * gamma**k
    return _quadrature_checks(
        lambda: transform_moment_lhs(n, a), tol,
        (f"tmoment/n={n},a={a:g}",
         f"int phi_0^{n}/(x+{a:g}) dx = -pi^{n + 1} A_{n}(gamma_a/pi)",
         target_poly),
        (f"tmoment_sum/n={n},a={a:g}",
         f"same integral vs sum_k alpha_{n}^k pi^({n + 1}-k) (-gamma_a^k)",
         target_sum),
    )


def integrals_report(family: ACFamily, suite: str = "all",
                     tolerance: float = DEFAULT_TOLERANCE,
                     grid_size: int = DEFAULT_GRID_SIZE):
    """The report of the numeric verification suites, built once from the
    checks of each selected suite, in the order of SUITES.

    The exact A_n / C_n are read from ``family``, and a check that reads a
    polynomial past ``family.max_n`` is left out: "all" holds its 25 checks
    from max_n = INTEGRALS_MAX_N = 3 on, and 12, 17 and 23 at max_n = 0, 1
    and 2.
    ``tolerance`` applies to the pure quadrature comparisons; the grid
    checks (moments, eigenfunctions, compound identity) run at 10x.  The
    eigenfunction checks use ``gauss_legendre_grid(grid_size)``; the
    moment checks and the compound identity share one graded grid.  Each
    grid is built once per report.  One pass of ``nystrom_apply``
    transforms phi_0 and f = 1/(x+1) on the graded grid together, and the
    compound identity's outer apply builds only its interior rows; every
    pass holds one ROW_BLOCK of rows at a time.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite: {suite}")
    grid_tol = 10.0 * tolerance
    checks = []
    if suite in ("cform", "all"):
        checks += c_form_checks(family, tol=tolerance)
    if suite in ("aform", "all"):
        checks += a_form_checks(family, tol=tolerance)
    if suite in ("classical", "all"):
        checks += classical_checks(tol=tolerance)
    if suite in ("moments", "eigen", "all"):
        graded = graded_gauss_grid()
        f = 1.0 / (graded.nodes + 1.0)
        t_phi0, t_f = nystrom_apply(graded, np.stack([phi0(graded), f], axis=1)).T
    if suite in ("moments", "all"):
        checks += moment_check(family, graded, t_phi0, tol=grid_tol)
        for nn, aa in _TMOMENT_POINTS:
            if nn <= family.max_n:
                checks += transform_moment_identity(aa, nn, family, tol=tolerance)
    if suite in ("eigen", "all"):
        checks += eigenfunction_checks(gauss_legendre_grid(grid_size), tol=grid_tol)
        checks.append(operator_identity_check(graded, f, t_f, tol=grid_tol))
    return VerificationReport(f"integrals/{suite}", tuple(checks))
