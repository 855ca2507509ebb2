"""Bernoulli numbers and polynomials, Euler polynomials, and the scaled
Taylor coefficients of t/sin(t) and tan(t/2), all exact.

Conventions: beta_n = B_n(0) with beta_1 = -1/2, the convention under
which B_n(X+1) - B_n(X) = n*X**(n-1) and the closed formulas below are
consistent.  The cosecant numbers cs(n) are n! times the t**n Taylor
coefficient of t/sin(t) (zero for odd n); the tangent-half coefficients
d_n are n! times the t**n coefficient of tan(t/2) (zero for even n).
Each closed formula has an independent series-quotient construction in
this module.  Tier-1 tests and the benchmark oracle compare the two; no
report check does yet.

The beta_n are computed once per process: ``bernoulli_numbers`` keeps
them, and ``bernoulli_poly``, ``euler_poly``, ``cosecant_number`` and
``tangent_half_coeff`` take only ``n`` and read beta from it.  The
series constructions never read that memo.  The memo hands out
``Fraction`` values, but the recurrence that extends it sums integers:
the numerators of the known beta_k over their one common denominator (the
layout of ``exact_core.Polynomial``), reduced once per new beta_n.  The
memo is one snapshot of the betas, those numerators, that denominator and
the last row of Pascal's triangle, so callers that step n upward pay one
new term per step, not a pass over the whole prefix.  ``bernoulli_poly``
builds B_n(X) from those numerators, with no Fraction per coefficient.

The sine/cosine/exponential reference series are generated from
factorials, not hardcoded, so any truncation order is available.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from operator import add, mul

from .exact_core import Polynomial, TruncatedSeries, _linear_combination

# The recurrence's state after beta_0 .. beta_m for the largest m requested
# so far in this process: (betas, nums, den, binom) with nums the numerators
# of the betas over den, the lcm of their denominators, and binom row m + 1
# of Pascal's triangle.  The snapshot is only ever replaced whole, by a
# longer one, never changed in place, so a reader always holds a consistent
# state to slice or to resume from.
_MEMO = ((Fraction(1),), (1,), 1, (1, 1))


def _require_index(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")


def bernoulli_numbers(n_max: int) -> tuple:
    """beta_0..beta_{n_max} via sum(binom(n+1,k)*beta_k, k=0..n) = 0.

    Each beta_n is computed once per process; later calls slice the memo.
    The sum runs on integers: row n+1 of Pascal's triangle against the
    numerators of beta_0..beta_{n-1} over ``den``, the lcm of their
    denominators, so each beta_n is one integer sum reduced once.  A call
    that extends the memo resumes from the snapshot it read (``_MEMO``)
    and publishes the longer one it ends with.
    """
    global _MEMO
    _require_index(n_max)
    betas, nums, den, binom = _MEMO
    if len(betas) <= n_max:
        extended, nums = list(betas), list(nums)
        for n in range(len(betas), n_max + 1):
            binom = [1, *map(add, binom, binom[1:]), 1]  # binom(n+1, k)
            # map stops at the shorter list: the terms k < n.
            beta = Fraction(-sum(map(mul, binom, nums)), (n + 1) * den)
            extended.append(beta)
            scale = beta.denominator // gcd(den, beta.denominator)
            if scale > 1:
                den *= scale
                nums = [num * scale for num in nums]
            nums.append(beta.numerator * (den // beta.denominator))
        betas = tuple(extended)
        if len(_MEMO[0]) < len(betas):
            _MEMO = (betas, tuple(nums), den, tuple(binom))
    return betas[: n_max + 1]


def bernoulli_poly(n: int) -> Polynomial:
    """B_n(X) = sum_k binom(n,k) beta_{n-k} X**k, built from the memo's
    integer numerators of the betas, reduced once."""
    bernoulli_numbers(n)  # extends the memo to beta_n
    _, nums, den, _ = _MEMO
    return Polynomial.from_integers([comb(n, k) * nums[n - k] for k in range(n + 1)], den)


def euler_poly(n: int) -> Polynomial:
    """E_n(X) = 2**(n+1)/(n+1) * [B_{n+1}(X/2 + 1/2) - B_{n+1}(X/2)], the
    scaled difference summed as one row."""
    _require_index(n)
    b = bernoulli_poly(n + 1)
    half = Fraction(1, 2)
    scale = 2 ** (n + 1)
    return _linear_combination(
        ((scale, b.compose_affine(half, half)), (-scale, b.compose_affine(half, 0))),
        n + 1)


def cosecant_number(n: int) -> Fraction:
    """cs(n) = (-1)**(n/2+1) * (2**n - 2) * beta_n for even n; 0 for odd n.

    The sign exponent is non-integral for odd n, where the series
    coefficient vanishes anyway (t/sin t is even).
    """
    _require_index(n)
    if n % 2:
        return Fraction(0)
    return Fraction((-1) ** (n // 2 + 1) * (2**n - 2)) * bernoulli_numbers(n)[n]


def tangent_half_coeff(n: int) -> Fraction:
    """d_n = 2*(-1)**((n-1)/2)*(2**(n+1) - 1)*beta_{n+1}/(n+1) for odd n; 0 for even n.

    tan(t/2) is odd, so the even coefficients vanish (the sign exponent is
    non-integral there, including the n = 0 case d_0 = 0).
    """
    _require_index(n)
    if n % 2 == 0:
        return Fraction(0)
    sign = (-1) ** ((n - 1) // 2)
    return 2 * sign * (2 ** (n + 1) - 1) * bernoulli_numbers(n + 1)[n + 1] / (n + 1)


# ---------------------------------------------------------------------------
# Reference series, generated from factorials.


def exp_xt_series(order: int) -> TruncatedSeries:
    """exp(t * x): coefficient of t**n is x**n / n!."""
    return TruncatedSeries(
        [Polynomial.monomial(n, Fraction(1, factorial(n))) for n in range(order + 1)],
        order,
    )


def exp_series(order: int) -> TruncatedSeries:
    """exp(t) as a series with constant polynomial coefficients."""
    return TruncatedSeries(
        [Polynomial([Fraction(1, factorial(n))]) for n in range(order + 1)],
        order,
    )


def _trig_series(order: int, scale, parity: int) -> TruncatedSeries:
    """sin(scale * t) (``parity`` 1) or cos(scale * t) (``parity`` 0): the
    terms (-1)**(n//2) (scale*t)**n / n! of that parity, modulo t**(order+1)."""
    scale = Fraction(scale)
    return TruncatedSeries(
        [Polynomial([(-1) ** (n // 2) * scale**n / factorial(n)])
         if n % 2 == parity else Polynomial()
         for n in range(order + 1)],
        order,
    )


def sin_series(order: int, scale: Fraction | int = 1) -> TruncatedSeries:
    """sin(scale * t), exact modulo t**(order+1)."""
    return _trig_series(order, scale, 1)


def cos_series(order: int, scale: Fraction | int = 1) -> TruncatedSeries:
    """cos(scale * t), exact modulo t**(order+1)."""
    return _trig_series(order, scale, 0)


def t_series(order: int) -> TruncatedSeries:
    """The series consisting of the single term t."""
    return TruncatedSeries([Polynomial(), Polynomial([1])], order)


# ---------------------------------------------------------------------------
# Independent series-quotient constructions of cs(n) and d_n.


def _scaled_coefficients(quotient: TruncatedSeries, n_max: int, name: str) -> list:
    """n! times the t**n coefficient of ``quotient``, n = 0..n_max; a
    coefficient that is not constant raises a ValueError naming ``name``."""
    out = []
    for n in range(n_max + 1):
        c = quotient.coefficient(n)
        if c.degree > 0:
            raise ValueError(f"{name} must have constant coefficients")
        out.append(factorial(n) * Fraction(c.coefficient(0)))
    return out


def cosecant_numbers_series(n_max: int) -> list:
    """cs(0)..cs(n_max) as n! times the coefficients of t / sin(t)."""
    quotient = t_series(n_max + 1) / sin_series(n_max + 1)
    return _scaled_coefficients(quotient, n_max, "t/sin t")


def tangent_half_coeffs_series(n_max: int) -> list:
    """d_0..d_{n_max} as n! times the coefficients of tan(t/2)."""
    half = Fraction(1, 2)
    quotient = sin_series(n_max, half) / cos_series(n_max, half)
    return _scaled_coefficients(quotient, n_max, "tan(t/2)")


def bernoulli_numbers_series(n_max: int) -> list:
    """beta_0..beta_{n_max} as n! times the coefficients of t / (e^t - 1).

    Independent of the defining recurrence; tier-1 tests and the benchmark
    oracle compare the two.
    """
    one = TruncatedSeries([Polynomial([1])], n_max + 1)
    quotient = t_series(n_max + 1) / (exp_series(n_max + 1) - one)
    return _scaled_coefficients(quotient, n_max, "t/(e^t - 1)")
