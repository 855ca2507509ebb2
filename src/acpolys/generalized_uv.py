"""Universal coefficient tables u_n^k, v_n^k of the three-operator expansion.

For operators with 2ab = a**2 + b**2 + c**2 (c central), the expansion

    (n+1) a b**n = a**(n+1) + n b**(n+1)
                   + sum_k (u_n^k a**(n+1-2k) + v_n^k b**(n+1-2k)) c**(2k)

defines exact rational tables u, v on the index domain
1 <= k <= floor((n+1)/2), built here by a recursion in n.  Row n is held
as two polynomials U_n = sum_k u_n^k Y**k and V_n = sum_k v_n^k Y**k in a
variable Y, and each new row is one ``exact_core._linear_combination`` of
earlier rows (see ``build_uv``): summed on integers over one denominator
and reduced once.  The tables are read-only (n, k) views over those rows
(``exact_core.Triangle``), each entry a ``Fraction`` built on lookup.
When c**2 = 1 the expansion collapses onto the A/C families, giving the
cross-check u_n^k = (n+1) alpha_n^{n+1-2k} and v_n^k = (n+1) lam_n^{n+1-2k}
(with the conventions u_n^0 = 1, v_n^0 = n matching alpha_n^{n+1} = 1/(n+1)
and lam_n^{n+1} = n/(n+1)).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .ac_families import ACFamily, _require_n_max
from .exact_core import Polynomial, Triangle, X as Y, _linear_combination
from .report import PASS, Check, exact_check


class UVTables(NamedTuple):
    """u and v keyed by (n, k), 1 <= k <= floor((n+1)/2), for 1 <= n <= max_n:
    any mappings, ``build_uv``'s views over its rows or plain dicts."""

    u: Mapping
    v: Mapping
    max_n: int


def row_width(n: int) -> int:
    """The number of stored entries in row n: floor((n+1)/2)."""
    return (n + 1) // 2


def _uv_columns(n: int) -> range:
    """The indices k of row n: 1 <= k <= floor((n+1)/2)."""
    return range(1, row_width(n) + 1)


def build_uv(n_max: int) -> UVTables:
    """Fill the tables by the recursion in n, one polynomial row at a time.

    Row n is held as two polynomials in a variable Y,
    U_n = sum_k u_n^k Y**k and V_n = sum_k v_n^k Y**k, from
    U_0 = V_0 = U_1 = 0 and V_1 = Y.  With
    W_n = sum_q v_n^q / (n+2-2q) Y**q and w_n^k its coefficients,

        V_{n+1} = (n+1) Y + V_n - W_n + sum_k w_n^k Y**k V_{n+1-2k},
        U_{n+1} = U_n + W_n + sum_k w_n^k Y**k U_{n+1-2k}.

    This is the recursion in (n, q): coefficient 1 is the q = 1 rule
    v_{n+1}^1 = (n+1) + (n-1)/n v_n^1, u_{n+1}^1 = u_n^1 + v_n^1/n, and
    coefficient q >= 2 is the convolution over k < q plus the row-n term
    (n+1-2q)/(n+2-2q) v_n^q = v_n^q - w_n^q (or u_n^q + w_n^q).  Each
    Y**k V_{n+1-2k} has degree floor((n+2)/2), the width of row n+1, so
    nothing is truncated; for odd n the term k = (n+1)/2 meets V_0 = 0.
    Each new row is one ``exact_core._linear_combination`` of integer
    scalars over d, the one denominator of W_n = sum_k w[k]/d Y**k, summed
    on integers and reduced once.  The returned u and v are read-only
    views (``Triangle``) over U_1..U_{n_max} and V_1..V_{n_max}; rows start
    at n = 1, so ``build_uv(0)`` is empty.
    """
    _require_n_max(n_max)
    rows_u, rows_v = [Polynomial(), Polynomial()], [Polynomial(), Y]
    for n in range(1, n_max):
        vn = rows_v[n]
        # W_n over den * lcm(n+2-2q), the numerators scaled to match.
        v_nums, den = vn.integers()
        widths = [n + 2 - 2 * q for q in range(1, len(v_nums))]
        common = lcm(*widths)
        wn = Polynomial.from_integers(
            [0, *(x * (common // c) for x, c in zip(v_nums[1:], widths))], den * common)
        w, d = wn.integers()
        rows_v.append(_linear_combination(
            [(d * (n + 1), Y), (d, vn), (-d, wn),
             *((w[k], rows_v[n + 1 - 2 * k].shifted(k)) for k in range(1, len(w)))], d))
        rows_u.append(_linear_combination(
            [(d, rows_u[n]), (d, wn),
             *((w[k], rows_u[n + 1 - 2 * k].shifted(k)) for k in range(1, len(w)))], d))
    ns = range(1, n_max + 1)
    return UVTables(Triangle(rows_u, ns, _uv_columns),
                    Triangle(rows_v, ns, _uv_columns), n_max)


def _scaled_check(check_id: str, description: str, value: Fraction,
                  poly: Polynomial, n: int, power: int) -> Check:
    """``exact_check`` of ``value`` against (n+1) times the X**power
    coefficient of ``poly``, a pass decided on integers for a real
    ``poly``: value's numerator times poly's one denominator against its
    denominator times the coefficient's numerator.  A pass keeps ``value``
    as both sides, which render alike; only a mismatch builds the
    coefficient."""
    if poly.is_real:
        numerators, den = poly.integers()
        num = numerators[power] if power < len(numerators) else 0
        if value.numerator * den == (n + 1) * num * value.denominator:
            return Check(check_id, description, PASS, value, value, "0")
    return exact_check(check_id, description, value, (n + 1) * poly.coefficient(power))


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
        a_n, c_n = family.a(n), family.c(n)
        checks.append(_scaled_check(
            f"uv/convention_u0/n={n}",
            f"u_{n}^0 = 1 matches ({n + 1}) alpha_{n}^{n + 1}",
            Fraction(1), a_n, n, n + 1))
        checks.append(_scaled_check(
            f"uv/convention_v0/n={n}",
            f"v_{n}^0 = {n} matches ({n + 1}) lam_{n}^{n + 1}",
            Fraction(n), c_n, n, n + 1))
        for k in range(1, row_width(n) + 1):
            power = n + 1 - 2 * k
            checks.append(_scaled_check(
                f"uv/u/n={n},k={k}",
                f"u_{n}^{k} = ({n + 1}) alpha_{n}^{power}",
                uv.u[(n, k)], a_n, n, power))
            checks.append(_scaled_check(
                f"uv/v/n={n},k={k}",
                f"v_{n}^{k} = ({n + 1}) lam_{n}^{power}",
                uv.v[(n, k)], c_n, n, power))
    return checks
