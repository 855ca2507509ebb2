"""Universal coefficient tables u_n^k, v_n^k of the three-operator expansion.

For operators with 2ab = a**2 + b**2 + c**2 (c central), the expansion

    (n+1) a b**n = a**(n+1) + n b**(n+1)
                   + sum_k (u_n^k a**(n+1-2k) + v_n^k b**(n+1-2k)) c**(2k)

defines exact rational tables u, v on the index domain
1 <= k <= floor((n+1)/2), built here by a double recursion in (n, k).
When c**2 = 1 the expansion collapses onto the A/C families, giving the
cross-check u_n^k = (n+1) alpha_n^{n+1-2k} and v_n^k = (n+1) lam_n^{n+1-2k}
(with the conventions u_n^0 = 1, v_n^0 = n matching alpha_n^{n+1} = 1/(n+1)
and lam_n^{n+1} = n/(n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ac_families import ACFamily
from .report import exact_check


@dataclass(frozen=True)
class UVTables:
    """u and v keyed by (n, k), 1 <= k <= floor((n+1)/2), for 1 <= n <= max_n."""

    u: dict
    v: dict
    max_n: int


def row_width(n: int) -> int:
    """The number of stored entries in row n: floor((n+1)/2)."""
    return (n + 1) // 2


def build_uv(n_max: int) -> UVTables:
    """Fill the tables by the recursion in (n, q), exactly.

    Row n+1 comes from rows <= n via: the q = 1 rule
    v_{n+1}^1 = (n+1) + (n-1)/n v_n^1, u_{n+1}^1 = u_n^1 + v_n^1/n; and
    for 2 <= q <= floor((n+2)/2) the convolution sums over k < q, plus the
    row-n terms in v_n^q and u_n^q while q <= floor((n+1)/2).  When n is
    even, the new entry q = (n+2)/2 (the top index) is the sums alone.
    Initial row: u_1^1 = 0, v_1^1 = 1.  Rows start at n = 1, so
    ``build_uv(0)`` is empty.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max == 0:
        return UVTables({}, {}, 0)
    u = {(1, 1): Fraction(0)}
    v = {(1, 1): Fraction(1)}
    for n in range(1, n_max):
        v[(n + 1, 1)] = Fraction(n + 1) + Fraction(n - 1, n) * v[(n, 1)]
        u[(n + 1, 1)] = u[(n, 1)] + v[(n, 1)] / n
        for q in range(2, row_width(n + 1) + 1):
            sum_v = Fraction(0)
            sum_u = Fraction(0)
            for k in range(1, q):
                denom = n + 2 - 2 * k
                sum_v += v[(n, k)] * v[(n + 1 - 2 * k, q - k)] / denom
                sum_u += v[(n, k)] * u[(n + 1 - 2 * k, q - k)] / denom
            if q <= row_width(n):
                sum_v += Fraction(n + 1 - 2 * q, n + 2 - 2 * q) * v[(n, q)]
                sum_u += v[(n, q)] / (n + 2 - 2 * q) + u[(n, q)]
            v[(n + 1, q)] = sum_v
            u[(n + 1, q)] = sum_u
    return UVTables(u, v, n_max)


def check_uv_consistency(uv: UVTables, family: ACFamily) -> list:
    """Exact agreement of the tables with the (n+1)-scaled alpha/lambda
    coefficients, read off A_n and C_n, including the k = 0 conventions,
    for every stored index.  A corrupted family gives failed checks."""
    if uv.max_n > family.max_n:
        raise ValueError(
            f"tables reach n={uv.max_n} but the family stops at n={family.max_n}"
        )
    checks = []
    for n in range(1, uv.max_n + 1):
        alpha, lam = family.a(n).coefficient, family.c(n).coefficient
        checks.append(
            exact_check(
                f"uv/convention_u0/n={n}",
                f"u_{n}^0 = 1 matches ({n + 1}) alpha_{n}^{n + 1}",
                Fraction(1),
                (n + 1) * alpha(n + 1),
            )
        )
        checks.append(
            exact_check(
                f"uv/convention_v0/n={n}",
                f"v_{n}^0 = {n} matches ({n + 1}) lam_{n}^{n + 1}",
                Fraction(n),
                (n + 1) * lam(n + 1),
            )
        )
        for k in range(1, row_width(n) + 1):
            power = n + 1 - 2 * k
            checks.append(
                exact_check(
                    f"uv/u/n={n},k={k}",
                    f"u_{n}^{k} = ({n + 1}) alpha_{n}^{power}",
                    uv.u[(n, k)],
                    (n + 1) * alpha(power),
                )
            )
            checks.append(
                exact_check(
                    f"uv/v/n={n},k={k}",
                    f"v_{n}^{k} = ({n + 1}) lam_{n}^{power}",
                    uv.v[(n, k)],
                    (n + 1) * lam(power),
                )
            )
    return checks
