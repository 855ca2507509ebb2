"""The three number sequences feeding the coefficient formulas.

Bernoulli numbers (first-kind convention, beta_1 = -1/2) come from their
defining recurrence; cosecant numbers cs(n) and tangent-half coefficients
d_n come from closed formulas in the Bernoulli numbers.  Each sequence is
then re-derived by exact truncated-series division — t/(e^t - 1),
t/sin(t), tan(t/2) — and the two constructions must match coefficient by
coefficient.
"""

from acpolys import (
    bernoulli_numbers,
    bernoulli_numbers_series,
    cosecant_number,
    cosecant_numbers_series,
    tangent_half_coeff,
    tangent_half_coeffs_series,
)

N = 16

beta = bernoulli_numbers(N)

print("n    beta_n        cs(n)         d_n")
for n in range(N + 1):
    print(
        f"{n:<4d} {str(beta[n]):<13s} "
        f"{str(cosecant_number(n)):<13s} "
        f"{str(tangent_half_coeff(n))}"
    )

print("\nCross-checks against exact series quotients:")
beta_series = bernoulli_numbers_series(N)
cs_series = cosecant_numbers_series(N)
d_series = tangent_half_coeffs_series(N)

ok_beta = all(beta[n] == beta_series[n] for n in range(N + 1))
ok_cs = all(cosecant_number(n) == cs_series[n] for n in range(N + 1))
ok_d = all(tangent_half_coeff(n) == d_series[n] for n in range(N + 1))

print(f"  beta_n  vs  t/(e^t - 1):  {'exact match' if ok_beta else 'MISMATCH'}")
print(f"  cs(n)   vs  t/sin(t):     {'exact match' if ok_cs else 'MISMATCH'}")
print(f"  d_n     vs  tan(t/2):     {'exact match' if ok_d else 'MISMATCH'}")
