"""The exact identity web tying A_n, C_n, and the Euler polynomials.

Worked over Q(i) with Gaussian-rational coefficients:

    A_n(X-i) + C_n(X)      = (X-i) X^n
    A_n(X+i) + C_n(X)      = (X+i) X^n
    A_n(X+i) - A_n(X-i)    = 2i X^n
    C_n(X+i) - C_n(X-i)    = X ((X+i)^n - (X-i)^n)
    E_n(X) = X^n - X^(n+1) + (-i)^(n+1) (A_n(iX) + C_n(iX))
    A_n(X) + C_n(X) = X^(n+1) + sum_k C(n,k) d_(n-k) X^k   (k < n)

Every identity is checked exactly; this script prints the n = 3 case in
full so the cancellation is visible.
"""

from acpolys import (
    I,
    Polynomial,
    build_by_recurrence,
    check_difference_identities,
    check_euler_identity,
    check_tangent_expansion,
    euler_poly,
)

family = build_by_recurrence(12)
n = 3
a3 = family.a(n)
c3 = family.c(n)

shift_minus = a3.compose_affine(1, -I) + c3
print(f"A_{n}(X-i) + C_{n}(X) = {shift_minus}")
print(f"(X-i) X^{n}          = {Polynomial.monomial(n + 1) + Polynomial.monomial(n, -I)}")
print()

diff = a3.compose_affine(1, I) - a3.compose_affine(1, -I)
print(f"A_{n}(X+i) - A_{n}(X-i) = {diff}   (expected 2i X^{n})")
print()

inner = a3.compose_affine(I, 0) + c3.compose_affine(I, 0)
rhs = (
    Polynomial.monomial(n)
    - Polynomial.monomial(n + 1)
    + inner * (-I) ** (n + 1)
)
print(f"X^{n} - X^{n + 1} + (-i)^{n + 1} (A_{n}(iX) + C_{n}(iX)) = {rhs}")
print(f"E_{n}(X) = {euler_poly(n)}")
print()

suites = {
    "shifted-argument identities": check_difference_identities(family),
    "Euler polynomial link": check_euler_identity(family),
    "tangent-coefficient expansion": list(check_tangent_expansion(family)),
}
for name, checks in suites.items():
    passed = sum(c.status == "pass" for c in checks)
    print(f"{name}: {passed}/{len(checks)} exact checks pass (n <= {family.max_n})")
