"""The dual polynomial families A_n and C_n, built by five independent routes.

The families satisfy a*b**n = A_n(a) + C_n(b) whenever 2ab = a**2 + b**2 + 1,
with A_0 = X and C_0 = 0.  Every route below constructs the same polynomials
by a different mechanism, and the check functions verify the exact algebraic
identities tying the families to Bernoulli/Euler polynomials, to shifted
arguments X +/- i, and to the tangent-half coefficients:

* ``build_by_recurrence``: the coupled induction, reading each lambda
  coefficient off the previously built C_n.
* ``build_by_closed_form``: Bernoulli polynomials composed with affine
  Gaussian arguments, each result asserted real.
* ``build_by_coefficient_formula``: per-coefficient closed formulas in
  cosecant numbers (for A) and scaled Bernoulli numbers (for C).
* ``build_by_generating_function``: exact bivariate series expansion of
  (e^(tx) - 1)/sin t and x e^(tx) + (1 - e^(tx) cos t)/sin t.
* ``build_a_by_residue_recurrence``: a binomial recurrence over Q(i)
  producing the A family alone.

All construction and checking is exact; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .exact_core import (
    I,
    TWO_I,
    GaussianRational,
    Polynomial,
    TruncatedSeries,
    X,
    _gaussian_integer_over,
    _linear_combination,
)
from .report import Check, PASS, FAIL, VerificationReport, exact_check
from .special_numbers import (
    bernoulli_numbers,
    bernoulli_poly,
    cos_series,
    cosecant_number,
    euler_poly,
    exp_xt_series,
    sin_series,
    tangent_half_coeff,
)

ROUTE_RECURRENCE = "recurrence"
ROUTE_CLOSED_FORM = "closed_form"
ROUTE_COEFFICIENT = "coefficient_formula"
ROUTE_GENERATING_FUNCTION = "generating_function"
ROUTE_RESIDUE = "residue_recurrence"

#: Routes that yield a full ACFamily (the residue route builds only A).
FAMILY_ROUTES = (
    ROUTE_RECURRENCE,
    ROUTE_CLOSED_FORM,
    ROUTE_COEFFICIENT,
    ROUTE_GENERATING_FUNCTION,
)


def _require_n_max(n_max: int) -> None:
    """Every builder rejects a negative n_max rather than guess a family."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")


def _index(n: int) -> int:
    """n itself, or IndexError for n < 0 (a tuple would wrap around)."""
    if n < 0:
        raise IndexError(f"family index must be >= 0, got {n}")
    return n


@dataclass(frozen=True)
class ACFamily:
    """A_0..A_max_n and C_0..C_max_n with the route that produced them."""

    a_polys: tuple
    c_polys: tuple
    max_n: int
    route: str

    def a(self, n: int) -> Polynomial:
        return self.a_polys[_index(n)]

    def c(self, n: int) -> Polynomial:
        return self.c_polys[_index(n)]


@dataclass(frozen=True)
class CoeffTables:
    """Triangles alpha_n^k (from A_n) and lam_n^k (from C_n), 0 <= k <= n+1."""

    alpha: dict
    lam: dict


def build_by_recurrence(n_max: int) -> ACFamily:
    """Coupled induction: each step consumes the coefficients of C_n.

    A_{n+1} = (n+1)/(n+2) * (X*A_n + sum_{k<=n} lam_n^k A_k) and
    C_{n+1} = (n+1)/(n+2) * ((X**2+1)*X**n + sum_{k<=n} lam_n^k C_k),
    where lam_n^k is the coefficient of X**k in C_n (the leading
    coefficient n/(n+1) of C_n sits at k = n+1 and is excluded).

    Each lambda-sum is read as integers, lam_n^k = c_k/D with c_k the
    numerators of C_n over its one denominator D, so each new row is one
    integer sum over (n+2)*D reduced once (``_linear_combination``), with
    no Fraction per lambda.
    """
    _require_n_max(n_max)
    a_list = [X]
    c_list = [Polynomial()]
    for n in range(n_max):
        lam, den = c_list[n]._re, c_list[n]._den
        scaled = [(k, (n + 1) * c) for k, c in enumerate(lam[:n + 1]) if c]
        head, divisor = (n + 1) * den, (n + 2) * den
        a_list.append(_linear_combination(
            [(head, X * a_list[n]), *((c, a_list[k]) for k, c in scaled)],
            divisor))
        tail = Polynomial.monomial(n + 2) + Polynomial.monomial(n)
        c_list.append(_linear_combination(
            [(head, tail), *((c, c_list[k]) for k, c in scaled)], divisor))
    return ACFamily(tuple(a_list), tuple(c_list), n_max, ROUTE_RECURRENCE)


def build_by_closed_form(n_max: int) -> ACFamily:
    """Bernoulli closed forms over Q(i), each result asserted real.

    A_n = (2i)**(n+1)/(n+1) * [B_{n+1}(X/(2i) + 1/2) - B_{n+1}(1/2)] and
    C_n = (2i)**(n+1)/(n+1) * [-B_{n+1}(X/(2i)) + B_{n+1}(1/2)] + X**n (X - i).

    Raises ValueError if any coefficient comes out with a nonzero
    imaginary part (which would indicate an implementation bug; the
    construction is real for every n).
    """
    _require_n_max(n_max)
    half = Fraction(1, 2)
    inv_2i = GaussianRational(0, Fraction(-1, 2))  # 1/(2i)
    a_list = []
    c_list = []
    for n in range(n_max + 1):
        b = bernoulli_poly(n + 1)
        b_at_half = Polynomial([b(half)])
        factor = TWO_I ** (n + 1) * Fraction(1, n + 1)
        a_gauss = (b.compose_affine(inv_2i, half) - b_at_half) * factor
        a_list.append(a_gauss.rational_coefficients())
        tail = Polynomial.monomial(n + 1) + Polynomial.monomial(n, -I)
        c_gauss = (b_at_half - b.compose_affine(inv_2i, 0)) * factor + tail
        c_list.append(c_gauss.rational_coefficients())
    return ACFamily(tuple(a_list), tuple(c_list), n_max, ROUTE_CLOSED_FORM)


def _over_one_denominator(values) -> tuple:
    """(numerators, den): the Fractions ``values`` as integers over their lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def build_by_coefficient_formula(n_max: int) -> ACFamily:
    """Assemble each polynomial directly from per-coefficient formulas.

    alpha_n^k = binom(n+1, k) * cs(n+1-k) / (n+1) for 1 <= k <= n+1;
    lam_n^k = (-1)**((n-k-1)/2) binom(n, k) 2**(n-k+1) beta_{n-k+1}/(n-k+1)
    when n-k is odd, with lam_n^0 = d_n, lam_n^n = 0 and
    lam_n^{n+1} = n/(n+1).  Parities where the Bernoulli index would be
    odd (>= 3) give exactly zero.  The cs(j), and the factors
    e_m = (-1)**(m/2-1) 2**m beta_m / m of lam (m = n-k+1, zero for odd m),
    are put over one denominator each, once per call; each row is then a
    vector of integer products, reduced once.
    """
    _require_n_max(n_max)
    beta = bernoulli_numbers(n_max)
    cs, cs_den = _over_one_denominator([cosecant_number(j) for j in range(n_max + 1)])
    e, e_den = _over_one_denominator([
        Fraction((-1) ** (m // 2 - 1) * 2**m) * beta[m] / m if m % 2 == 0 and m else Fraction(0)
        for m in range(n_max + 1)
    ])
    a_list = []
    c_list = []
    for n in range(n_max + 1):
        a_re = [0, *(comb(n + 1, k) * cs[n + 1 - k] for k in range(1, n + 2))]
        a_list.append(Polynomial._of(a_re, None, cs_den * (n + 1)))
        d_n = tangent_half_coeff(n)
        den = lcm(e_den, d_n.denominator, n + 1)
        scale = den // e_den
        c_re = [
            d_n.numerator * (den // d_n.denominator),
            *(comb(n, k) * e[n - k + 1] * scale for k in range(1, n + 1)),
            n * (den // (n + 1)),
        ]
        c_list.append(Polynomial._of(c_re, None, den))
    return ACFamily(tuple(a_list), tuple(c_list), n_max, ROUTE_COEFFICIENT)


def build_by_generating_function(n_max: int) -> ACFamily:
    """Expand the exact bivariate generating series and scale by n!.

    A_n is n! times the t**n coefficient of (e^(tx) - 1)/sin t; C_n is
    n! times the t**n coefficient of x e^(tx) + (1 - e^(tx) cos t)/sin t.
    The inputs are built at order n_max + 1 because dividing by sin t
    (valuation 1) costs one order.
    """
    _require_n_max(n_max)
    order = n_max + 1
    ext = exp_xt_series(order)
    one = TruncatedSeries([Polynomial([1])], order)
    sin_t = sin_series(order)
    f = (ext - one) / sin_t
    g = (X * ext).truncate(n_max) + (one - ext * cos_series(order)) / sin_t
    a_list = [f.coefficient(n) * Fraction(factorial(n)) for n in range(n_max + 1)]
    c_list = [g.coefficient(n) * Fraction(factorial(n)) for n in range(n_max + 1)]
    return ACFamily(tuple(a_list), tuple(c_list), n_max, ROUTE_GENERATING_FUNCTION)


def build_a_by_residue_recurrence(n_max: int) -> list:
    """The A family alone, via the binomial recurrence over Q(i).

    A_{n+1} = 1/(n+2) [ (X+i)**(n+2) - i**(n+2)
                        - sum_{k<=n} binom(n+2, k) (2i)**(n+1-k) A_k ],
    seeded with A_0 = X.  Each row is one integer sum over the divisor n+2
    reduced once (``_linear_combination``): its scalars are the integers
    binom(n+2, k) times the Gaussian-integer numerators of (2i)**(n+1-k),
    computed once per call.  Raises ValueError on any nonzero imaginary
    residue (the recurrence provably stays real).
    """
    _require_n_max(n_max)
    a_gauss = [X]
    one = Polynomial([1])
    x_plus_i = Polynomial([I, 1])
    power = x_plus_i * x_plus_i  # (X+i)**(n+2) for the current step
    # (2i)**m as (re, im, den), integers with (2i)**m == (re + im*i)/den.
    two_i_powers = [_gaussian_integer_over(TWO_I ** m) for m in range(n_max + 1)]
    for n in range(n_max):
        terms = [(1, power), (-(I ** (n + 2)), one)]
        for k in range(n + 1):
            c = -comb(n + 2, k)
            re, im, den = two_i_powers[n + 1 - k]
            terms.append(((c * re, c * im, den), a_gauss[k]))
        a_gauss.append(_linear_combination(terms, n + 2))
        power = power * x_plus_i
    return [p.rational_coefficients() for p in a_gauss]


def build_route(route: str, n_max: int) -> ACFamily:
    """Dispatch a full-family route name to its builder."""
    builders = {
        ROUTE_RECURRENCE: build_by_recurrence,
        ROUTE_CLOSED_FORM: build_by_closed_form,
        ROUTE_COEFFICIENT: build_by_coefficient_formula,
        ROUTE_GENERATING_FUNCTION: build_by_generating_function,
    }
    if route not in builders:
        raise ValueError(f"unknown family route: {route}")
    return builders[route](n_max)


# ---------------------------------------------------------------------------
# Exact identity checks.  All return lists of Check; nothing raises on a
# mathematical failure, so a bug surfaces as a failed report line.


def route_equivalence_checks(baseline: ACFamily) -> list:
    """All five routes agree exactly: pairwise identical A_n (five ways)
    and identical C_n (four ways), compared against ``baseline``, which
    must be the recurrence family.  The other four routes are built here
    to the same n_max."""
    if baseline.route != ROUTE_RECURRENCE:
        raise ValueError(
            f"route equivalence compares against the {ROUTE_RECURRENCE} "
            f"family, got {baseline.route}"
        )
    n_max = baseline.max_n
    checks = []
    for route in (ROUTE_CLOSED_FORM, ROUTE_COEFFICIENT, ROUTE_GENERATING_FUNCTION):
        other = build_route(route, n_max)
        for n in range(n_max + 1):
            checks.append(
                exact_check(
                    f"route/{route}/a/n={n}",
                    f"A_{n} via {route} equals recurrence",
                    other.a(n),
                    baseline.a(n),
                )
            )
            checks.append(
                exact_check(
                    f"route/{route}/c/n={n}",
                    f"C_{n} via {route} equals recurrence",
                    other.c(n),
                    baseline.c(n),
                )
            )
    residue = build_a_by_residue_recurrence(n_max)
    for n in range(n_max + 1):
        checks.append(
            exact_check(
                f"route/{ROUTE_RESIDUE}/a/n={n}",
                f"A_{n} via {ROUTE_RESIDUE} equals recurrence",
                residue[n],
                baseline.a(n),
            )
        )
    return checks


def check_difference_identities(family: ACFamily) -> list:
    """The four exact shift identities over Q(i), for every n in the family.

    A_n(X-i) + C_n(X) = (X-i) X**n
    A_n(X+i) + C_n(X) = (X+i) X**n
    A_n(X+i) - A_n(X-i) = 2i X**n
    C_n(X+i) - C_n(X-i) = X [(X+i)**n - (X-i)**n]
    """
    checks = []
    x_plus_i = Polynomial([I, 1])
    x_minus_i = Polynomial([-I, 1])
    pow_plus = Polynomial([1])  # (X+i)**n
    pow_minus = Polynomial([1])  # (X-i)**n
    for n in range(family.max_n + 1):
        a_n, c_n = family.a(n), family.c(n)
        a_shift_minus = a_n.compose_affine(1, -I)
        a_shift_plus = a_n.compose_affine(1, I)
        checks.append(
            exact_check(
                f"shift_minus_sum/n={n}",
                f"A_{n}(X-i) + C_{n}(X) = (X-i) X^{n}",
                a_shift_minus + c_n,
                Polynomial.monomial(n + 1)
                + Polynomial.monomial(n, -I),
            )
        )
        checks.append(
            exact_check(
                f"shift_plus_sum/n={n}",
                f"A_{n}(X+i) + C_{n}(X) = (X+i) X^{n}",
                a_shift_plus + c_n,
                Polynomial.monomial(n + 1)
                + Polynomial.monomial(n, I),
            )
        )
        checks.append(
            exact_check(
                f"a_central_difference/n={n}",
                f"A_{n}(X+i) - A_{n}(X-i) = 2i X^{n}",
                a_shift_plus - a_shift_minus,
                Polynomial.monomial(n, TWO_I),
            )
        )
        checks.append(
            exact_check(
                f"c_central_difference/n={n}",
                f"C_{n}(X+i) - C_{n}(X-i) = X[(X+i)^{n} - (X-i)^{n}]",
                c_n.compose_affine(1, I) - c_n.compose_affine(1, -I),
                (pow_plus - pow_minus) * X,
            )
        )
        pow_plus = pow_plus * x_plus_i
        pow_minus = pow_minus * x_minus_i
    return checks


def check_euler_identity(family: ACFamily) -> list:
    """E_n(X) = X**n - X**(n+1) + (-i)**(n+1) [A_n(iX) + C_n(iX)], exactly."""
    checks = []
    for n in range(family.max_n + 1):
        inner = (family.a(n) + family.c(n)).compose_affine(I, 0)
        rhs = (
            Polynomial.monomial(n)
            - Polynomial.monomial(n + 1)
            + inner * ((-I) ** (n + 1))
        )
        checks.append(
            exact_check(
                f"euler_link/n={n}",
                f"E_{n}(X) = X^{n} - X^{n + 1} + (-i)^{n + 1} [A_{n}(iX) + C_{n}(iX)]",
                euler_poly(n),
                rhs,
            )
        )
    return checks


def check_tangent_expansion(family: ACFamily) -> list:
    """A_n + C_n = X**(n+1) + sum_{k<n} binom(n,k) d_{n-k} X**k, exactly."""
    checks = []
    for n in range(family.max_n + 1):
        rhs_coeffs = [comb(n, k) * tangent_half_coeff(n - k) for k in range(n)]
        rhs_coeffs.extend([Fraction(0), Fraction(1)])  # X**(n+1); no X**n term
        checks.append(
            exact_check(
                f"tangent_expansion/n={n}",
                f"A_{n} + C_{n} = X^{n + 1} + sum binom({n},k) d_({n}-k) X^k",
                family.a(n) + family.c(n),
                Polynomial(rhs_coeffs),
            )
        )
    return checks


def structural_checks(family: ACFamily) -> list:
    """Degree, zero-value, leading-coefficient, and parity-support checks."""
    checks = []
    for n in range(family.max_n + 1):
        a_n, c_n = family.a(n), family.c(n)
        checks.append(
            exact_check(f"a_vanishes_at_0/n={n}", f"A_{n}(0) = 0", a_n(Fraction(0)), Fraction(0))
        )
        checks.append(
            exact_check(
                f"c_vanishes_at_i/n={n}",
                f"C_{n}(i) = 0",
                c_n(I),
                GaussianRational(0),
            )
        )
        checks.append(
            exact_check(f"a_degree/n={n}", f"deg A_{n} = {n + 1}", a_n.degree, n + 1)
        )
        if n == 0:
            checks.append(
                exact_check("c_zero/n=0", "C_0 = 0", c_n, Polynomial())
            )
        else:
            checks.append(
                exact_check(f"c_degree/n={n}", f"deg C_{n} = {n + 1}", c_n.degree, n + 1)
            )
            checks.append(
                exact_check(
                    f"c_leading/n={n}",
                    f"leading coefficient of C_{n} is {n}/{n + 1}",
                    c_n.leading(),
                    Fraction(n, n + 1),
                )
            )
        checks.append(_parity_check(a_n, n, "a", has_constant=False))
        if n >= 1:
            checks.append(_parity_check(c_n, n, "c", has_constant=True))
    return checks


def _parity_check(p: Polynomial, n: int, letter: str, has_constant: bool) -> Check:
    """Nonzero coefficients sit exactly at indices of parity (n+1) mod 2.

    For the A family the constant term is additionally always zero; the
    index n (parity mismatch) is zero for both families.  Every
    parity-allowed index must be genuinely nonzero.
    """
    bad = []
    for k in range(n + 2):
        allowed = (k % 2 == (n + 1) % 2) and not (k == 0 and not has_constant)
        present = bool(p.coefficient(k))
        if present != allowed:
            bad.append(k)
    if bad:
        return Check(
            f"parity/{letter}/n={n}",
            f"support of {letter.upper()}_{n} matches parity (n+1) mod 2",
            FAIL,
            str(p),
            f"offending powers: {bad}",
            "support mismatch",
        )
    return Check(
        f"parity/{letter}/n={n}",
        f"support of {letter.upper()}_{n} matches parity (n+1) mod 2",
        PASS,
        "",
        "",
        "0",
    )


def lambda_alpha_tables(family: ACFamily) -> CoeffTables:
    """Read the alpha (from A_n) and lambda (from C_n) triangles off the family.

    Also re-verifies the tangent expansion of A_n + C_n exactly for each n
    and raises ValueError if it fails, so a corrupted family cannot yield
    quietly wrong tables.
    """
    failures = [c for c in check_tangent_expansion(family) if c.status != PASS]
    if failures:
        raise ValueError(f"tangent expansion failed: {failures[0].id}")
    alpha = {}
    lam = {}
    for n in range(family.max_n + 1):
        for k in range(n + 2):
            alpha[(n, k)] = Fraction(family.a(n).coefficient(k))
            lam[(n, k)] = Fraction(family.c(n).coefficient(k))
    return CoeffTables(alpha, lam)


def _ref(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


#: Hand-checked low-order members of each family, used by the verification
#: report as fixed goldens independent of any construction route.
REFERENCE_A = (
    _ref(0, 1),
    _ref(0, 0, "1/2"),
    _ref(0, "1/3", 0, "1/3"),
    _ref(0, 0, "1/2", 0, "1/4"),
    _ref(0, "7/15", 0, "2/3", 0, "1/5"),
    _ref(0, 0, "7/6", 0, "5/6", 0, "1/6"),
    _ref(0, "31/21", 0, "7/3", 0, 1, 0, "1/7"),
    _ref(0, 0, "31/6", 0, "49/12", 0, "7/6", 0, "1/8"),
    _ref(0, "127/15", 0, "124/9", 0, "98/15", 0, "4/3", 0, "1/9"),
)

REFERENCE_C = (
    _ref(),
    _ref("1/2", 0, "1/2"),
    _ref(0, "2/3", 0, "2/3"),
    _ref("1/4", 0, 1, 0, "3/4"),
    _ref(0, "8/15", 0, "4/3", 0, "4/5"),
    _ref("1/2", 0, "4/3", 0, "5/3", 0, "5/6"),
    _ref(0, "32/21", 0, "8/3", 0, 2, 0, "6/7"),
    _ref("17/8", 0, "16/3", 0, "14/3", 0, "7/3", 0, "7/8"),
)


def golden_table_checks(family: ACFamily) -> list:
    """Compare the built families against the fixed low-order references."""
    checks = []
    for n in range(min(family.max_n, len(REFERENCE_A) - 1) + 1):
        checks.append(
            exact_check(
                f"golden/a/n={n}",
                f"A_{n} equals the reference table entry",
                family.a(n),
                REFERENCE_A[n],
            )
        )
    for n in range(min(family.max_n, len(REFERENCE_C) - 1) + 1):
        checks.append(
            exact_check(
                f"golden/c/n={n}",
                f"C_{n} equals the reference table entry",
                family.c(n),
                REFERENCE_C[n],
            )
        )
    return checks


def identities_report(family: ACFamily) -> VerificationReport:
    """Run every exact suite on the recurrence family: golden tables,
    pairwise route agreement, shifted-argument identities, the Euler link,
    the tangent expansion, and structural facts (degrees, roots, parity)."""
    report = VerificationReport(suite="identities")
    report.extend(golden_table_checks(family))
    report.extend(route_equivalence_checks(family))
    report.extend(check_difference_identities(family))
    report.extend(check_euler_identity(family))
    report.extend(check_tangent_expansion(family))
    report.extend(structural_checks(family))
    return report
