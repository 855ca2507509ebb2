"""Build the same polynomial families five independent ways.

A_n and C_n are tied together by a*b**n = A_n(a) + C_n(b) whenever the
pair (a, b) satisfies 2ab = a**2 + b**2 + 1.  The package constructs them
by a coupled recurrence, a Bernoulli-polynomial closed form evaluated
over Q(i), per-coefficient formulas, an exact bivariate generating
function, and (for A alone) a binomial recurrence with Gaussian
coefficients.  All five must agree exactly — this script shows them
agreeing and prints the first few members.
"""

from acpolys import (
    ALL_ROUTES,
    build_by_recurrence,
    route_equivalence_checks,
    route_rows,
)

N = 6

baseline = build_by_recurrence(N)

print(f"A_n and C_n for n <= {N}, built by {len(ALL_ROUTES)} routes\n")

for n in range(N + 1):
    print(f"  A_{n} = {baseline.a(n)}")
print()
for n in range(N + 1):
    print(f"  C_{n} = {baseline.c(n)}")

print(f"\nAgreement with the {ALL_ROUTES[0]} route:")
for route in ALL_ROUTES[1:]:
    a_rows, c_rows = route_rows(route, N)
    same = a_rows == baseline.a_polys and c_rows in ((), baseline.c_polys)
    verdict = "agrees exactly" + ("" if c_rows else " (A only)")
    print(f"  {route:24s} {verdict if same else 'DISAGREES'}")

checks = route_equivalence_checks(baseline)
print(f"\n{len(checks)} exact equality checks, "
      f"{sum(c.status == 'pass' for c in checks)} passed")
