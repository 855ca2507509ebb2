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
    FAMILY_ROUTES,
    build_a_by_residue_recurrence,
    build_route,
    route_equivalence_checks,
)

N = 6

families = {route: build_route(route, N) for route in FAMILY_ROUTES}
residue_a = build_a_by_residue_recurrence(N)

print(f"A_n and C_n for n <= {N}, built by {len(FAMILY_ROUTES)} + 1 routes\n")

baseline = families["recurrence"]
for n in range(N + 1):
    print(f"  A_{n} = {baseline.a(n)}")
print()
for n in range(N + 1):
    print(f"  C_{n} = {baseline.c(n)}")

print("\nAgreement across routes:")
for route, fam in families.items():
    same = all(
        fam.a(n) == baseline.a(n) and fam.c(n) == baseline.c(n)
        for n in range(N + 1)
    )
    print(f"  {route:24s} {'agrees exactly' if same else 'DISAGREES'}")
same = all(residue_a[n] == baseline.a(n) for n in range(N + 1))
print(f"  {'residue_recurrence':24s} {'agrees exactly (A only)' if same else 'DISAGREES'}")

checks = route_equivalence_checks(baseline)
print(f"\n{len(checks)} exact equality checks, "
      f"{sum(c.status == 'pass' for c in checks)} passed")
