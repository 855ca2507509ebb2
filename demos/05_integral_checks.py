"""Floating-point verification of the integral and operator identities.

Four families of checks, all against exact rational/pi-power targets:

* two closed-form improper integrals over (0, inf) whose values are
  -pi^(n+1) A_n(z/pi) and pi^(n+1) C_n(z/pi);
* a classical log-kernel integral over (0, 1) with Bernoulli-number value;
* the transform T(f)(x) = int_0^1 (f(t) - f(x))/(t - x) dt discretized on
  Gauss grids: eigenfunctions 1/(x+a), moments of phi_0 = ln(x/(1-x)),
  and a compound identity T(2 phi_0 f - T f) = (phi_0^2 + pi^2) f;
* the moments int_0^1 phi_0^n/(x+a) dx, which t = x/(1-x) turns into the
  first integral at z = ln(a/(1+a)): the tmoment checks integrate that.

The improper integrals use tanh-sinh quadrature, each folded onto (0, 1)
by t -> 1/t; the grid moments and the compound identity run on a
dyadically graded composite Gauss grid.
"""

from acpolys import build_by_recurrence, integrals_report

# A_3 and C_3 are the highest polynomials the suites read.
report = integrals_report(build_by_recurrence(3), suite="all", tolerance=1e-8,
                          grid_size=200)

width = max(len(c.id) for c in report.checks)
for check in report.checks:
    print(f"  {check.status.upper():5s} {check.id:<{width}s}  {check.error_metric}")

counts = report.counts
print(
    f"\n{counts['passed']}/{counts['total']} checks passed "
    f"(exit code {report.exit_code()})"
)
