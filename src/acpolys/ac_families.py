"""The dual polynomial families A_n and C_n, built by five independent routes.

The families satisfy a*b**n = A_n(a) + C_n(b) whenever 2ab = a**2 + b**2 + 1,
with A_0 = X and C_0 = 0.  Every route below constructs the same polynomials
by a different mechanism, and the check functions verify the exact algebraic
identities tying the families to Bernoulli/Euler polynomials, to shifted
arguments X +/- i, and to the tangent-half coefficients:

* ``build_by_recurrence``: the coupled induction, reading each lambda
  coefficient off the previously built C_n.
* ``build_by_closed_form``: Bernoulli polynomials composed with affine
  Gaussian arguments, each result checked by route equivalence.
* ``build_by_coefficient_formula``: per-coefficient closed formulas in
  cosecant numbers (for A) and scaled Bernoulli numbers (for C).
* ``build_by_generating_function``: exact bivariate series expansion of
  (e^(tx) - 1)/sin t and x e^(tx) + (1 - e^(tx) cos t)/sin t.
* ``build_a_by_residue_recurrence``: a binomial recurrence over Q(i)
  producing the A family alone.

``ALL_ROUTES`` lists them and ``route_rows`` builds any of them: a new
route is one builder, one entry in ``ALL_ROUTES`` (through
``FAMILY_ROUTES`` when it builds C too) and one entry in ``route_rows``'
table.

All construction and checking is exact; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple

from .exact_core import (
    I,
    TWO_I,
    GaussianRational,
    Polynomial,
    Triangle,
    TruncatedSeries,
    X,
    _linear_combination,
    _over_one_denominator,
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
#: Every route: the recurrence, which the others are checked against, first.
ALL_ROUTES = FAMILY_ROUTES + (ROUTE_RESIDUE,)


def _require_n_max(n_max: int) -> None:
    """Every builder rejects a negative n_max rather than guess a family."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")


def _index(n: int) -> int:
    """n itself, or IndexError for n < 0 (a tuple would wrap around)."""
    if n < 0:
        raise IndexError(f"family index must be >= 0, got {n}")
    return n


class ACFamily(NamedTuple):
    """A_0..A_max_n and C_0..C_max_n with the route that produced them."""

    a_polys: tuple
    c_polys: tuple
    route: str

    @property
    def max_n(self) -> int:
        return len(self.a_polys) - 1

    def a(self, n: int) -> Polynomial:
        return self.a_polys[_index(n)]

    def c(self, n: int) -> Polynomial:
        return self.c_polys[_index(n)]


class CoeffTables(NamedTuple):
    """Triangles alpha_n^k (from A_n) and lam_n^k (from C_n), 0 <= k <= n+1:
    read-only (n, k) views over the family's polynomials (``Triangle``)."""

    alpha: Triangle
    lam: Triangle


def build_by_recurrence(n_max: int) -> ACFamily:
    """Coupled induction: each step consumes the coefficients of C_n.

    A_{n+1} = (n+1)/(n+2) * (X*A_n + sum_{k<=n} lam_n^k A_k) and
    C_{n+1} = (n+1)/(n+2) * ((X**2+1)*X**n + sum_{k<=n} lam_n^k C_k),
    where lam_n^k is the coefficient of X**k in C_n (the leading
    coefficient n/(n+1) of C_n sits at k = n+1 and is excluded).

    Each lambda-sum is read as integers, lam_n^k = c_k/D with c_k the
    numerators of C_n over its one denominator D, so each new row is one
    integer sum over (n+2)*D reduced once (``_linear_combination``), with
    no Fraction per lambda; X*A_n and X**n (X**2 + 1) are shifts, not
    products.
    """
    _require_n_max(n_max)
    a_list = [X]
    c_list = [Polynomial()]
    x2_plus_1 = Polynomial([1, 0, 1])
    for n in range(n_max):
        lam, den = c_list[n].integers()
        scaled = [(k, (n + 1) * c) for k, c in enumerate(lam[:n + 1]) if c]
        head, divisor = (n + 1) * den, (n + 2) * den
        a_list.append(_linear_combination(
            [(head, a_list[n].shifted(1)), *((c, a_list[k]) for k, c in scaled)],
            divisor))
        c_list.append(_linear_combination(
            [(head, x2_plus_1.shifted(n)), *((c, c_list[k]) for k, c in scaled)],
            divisor))
    return ACFamily(tuple(a_list), tuple(c_list), ROUTE_RECURRENCE)


def build_by_closed_form(n_max: int) -> ACFamily:
    """Bernoulli closed forms over Q(i), each result checked by route
    equivalence (the construction is real for every n).

    A_n = (2i)**(n+1)/(n+1) * [B_{n+1}(X/(2i) + 1/2) - B_{n+1}(1/2)] and
    C_n = (2i)**(n+1)/(n+1) * [-B_{n+1}(X/(2i)) + B_{n+1}(1/2)] + X**n (X - i).

    Each is one row (``_linear_combination``), reduced once: the scaled
    composed Bernoulli polynomial, the constant B_{n+1}(1/2) times the
    scale, and for C_n the tail X**n (X - i).
    """
    _require_n_max(n_max)
    half = Fraction(1, 2)
    inv_2i = GaussianRational(0, Fraction(-1, 2))  # 1/(2i)
    one = Polynomial([1])
    x_minus_i = Polynomial([-I, 1])
    a_list = []
    c_list = []
    for n in range(n_max + 1):
        b = bernoulli_poly(n + 1)
        factor = TWO_I ** (n + 1) * Fraction(1, n + 1)
        constant = b(half) * factor
        a_list.append(_linear_combination(
            [(factor, b.compose_affine(inv_2i, half)), (-constant, one)]))
        c_list.append(_linear_combination(
            [(constant, one), (-factor, b.compose_affine(inv_2i, 0)),
             (1, x_minus_i.shifted(n))]))
    return ACFamily(tuple(a_list), tuple(c_list), ROUTE_CLOSED_FORM)


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
    cs, _, cs_den = _over_one_denominator([cosecant_number(j) for j in range(n_max + 1)])
    e, _, e_den = _over_one_denominator([
        Fraction((-1) ** (m // 2 - 1) * 2**m) * beta[m] / m if m % 2 == 0 and m else Fraction(0)
        for m in range(n_max + 1)
    ])
    a_list = []
    c_list = []
    for n in range(n_max + 1):
        a_re = [0, *(comb(n + 1, k) * cs[n + 1 - k] for k in range(1, n + 2))]
        a_list.append(Polynomial.from_integers(a_re, cs_den * (n + 1)))
        d_n = tangent_half_coeff(n)
        den = lcm(e_den, d_n.denominator, n + 1)
        scale = den // e_den
        c_re = [
            d_n.numerator * (den // d_n.denominator),
            *(comb(n, k) * e[n - k + 1] * scale for k in range(1, n + 1)),
            n * (den // (n + 1)),
        ]
        c_list.append(Polynomial.from_integers(c_re, den))
    return ACFamily(tuple(a_list), tuple(c_list), ROUTE_COEFFICIENT)


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
    return ACFamily(tuple(a_list), tuple(c_list), ROUTE_GENERATING_FUNCTION)


def build_a_by_residue_recurrence(n_max: int) -> list:
    """The A family alone, via the binomial recurrence over Q(i).

    A_{n+1} = 1/(n+2) [ (X+i)**(n+2) - i**(n+2)
                        - sum_{k<=n} binom(n+2, k) (2i)**(n+1-k) A_k ],
    seeded with A_0 = X.  Each row is one integer sum over the divisor n+2
    reduced once (``_linear_combination``): its scalars are -binom(n+2, k)
    times (2i)**(n+1-k), each power of 2i computed once per call, and an
    even power (-4)**j kept an int, so half the terms take the integer path.
    (X+i)**(n+3) is the two-term row X (X+i)**(n+2) + i (X+i)**(n+2), a
    shift and a scaling, not a product.
    The recurrence stays real; each result is checked by route equivalence.
    """
    _require_n_max(n_max)
    a_gauss = [X]
    one = Polynomial([1])
    power = Polynomial([-1, TWO_I, 1])  # (X+i)**(n+2), from (X+i)**2
    two_i_powers = [(-4) ** (m // 2) * (TWO_I if m % 2 else 1) for m in range(n_max + 1)]
    for n in range(n_max):
        a_gauss.append(_linear_combination(
            [(1, power), (-(I ** (n + 2)), one),
             *((-comb(n + 2, k) * two_i_powers[n + 1 - k], a_gauss[k]) for k in range(n + 1))],
            n + 2))
        power = _linear_combination(((1, power.shifted(1)), (I, power)))
    return a_gauss


def route_rows(route: str, n_max: int) -> tuple:
    """``(A_0..A_n_max, C_0..C_n_max)`` by any route of ``ALL_ROUTES``, no
    C rows for the residue route."""
    # Built per call, so a builder rebound on this module (bench/tracing.py) runs.
    builders = {
        ROUTE_RECURRENCE: build_by_recurrence,
        ROUTE_CLOSED_FORM: build_by_closed_form,
        ROUTE_COEFFICIENT: build_by_coefficient_formula,
        ROUTE_GENERATING_FUNCTION: build_by_generating_function,
        ROUTE_RESIDUE: build_a_by_residue_recurrence,
    }
    if route not in builders:
        raise ValueError(f"unknown route: {route}")
    built = builders[route](n_max)
    if route not in FAMILY_ROUTES:
        return tuple(built), ()
    return built.a_polys, built.c_polys


# ---------------------------------------------------------------------------
# Exact identity checks.  All return lists of Check; nothing raises on a
# mathematical failure, so a bug surfaces as a failed report line.


def route_equivalence_checks(baseline: ACFamily) -> list:
    """Every other route of ``ALL_ROUTES``, built here to the same n_max,
    gives exactly the A_n and C_n (A_n alone for the residue route) of
    ``baseline``, which must be the recurrence family.  This is the only
    check of a route's output, and a failed check says why: a row that is
    not over Q names its first imaginary power, and a builder that raises
    fails every check of its route with the exception's repr, while the
    other routes still run."""
    if baseline.route != ROUTE_RECURRENCE:
        raise ValueError(
            f"route equivalence compares against the {ROUTE_RECURRENCE} "
            f"family, got {baseline.route}"
        )
    n_max = baseline.max_n
    checks = []
    for route in ALL_ROUTES[1:]:
        letters = "AC" if route in FAMILY_ROUTES else "A"
        try:
            rows, failure = route_rows(route, n_max), None
        except Exception as exc:  # a broken builder fails its own checks only
            rows, failure = None, repr(exc)
        for n in range(n_max + 1):
            for side, letter in enumerate(letters):
                check_id = f"route/{route}/{letter.lower()}/n={n}"
                description = f"{letter}_{n} via {route} equals recurrence"
                base = (baseline.a_polys, baseline.c_polys)[side][n]
                if failure:
                    checks.append(Check(check_id, description, FAIL, "", base, failure))
                else:
                    checks.append(_route_check(check_id, description, rows[side][n], base))
    return checks


def _route_check(check_id: str, description: str, row: Polynomial,
                 base: Polynomial) -> Check:
    """``exact_check`` of a route's ``row`` against the recurrence's
    ``base``; a failure on a row not over Q says so instead of "exact
    mismatch", in the text of ``integers()``, which raises for every such
    row."""
    check = exact_check(check_id, description, row, base)
    if check.status == PASS or row.is_real:
        return check
    try:
        row.integers()
    except ValueError as exc:
        return check._replace(error_metric=f"not over Q: {exc}")


def _shifts_by_i(p: Polynomial) -> tuple:
    """``(p(X+i), p(X-i))``.  The conjugate of p(X+i) is conj(p)(X-i), so
    for p over Q, which is its own conjugate, p(X-i) is the conjugate of
    p(X+i) and one Taylor shift gives both; any other p is shifted twice."""
    plus = p.compose_affine(1, I)
    if p.is_real:
        return plus, plus.conjugate()
    return plus, p.compose_affine(1, -I)


def check_difference_identities(family: ACFamily) -> list:
    """The four exact shift identities over Q(i), for every n in the family.

    A_n(X-i) + C_n(X) = (X-i) X**n
    A_n(X+i) + C_n(X) = (X+i) X**n
    A_n(X+i) - A_n(X-i) = 2i X**n
    C_n(X+i) - C_n(X-i) = X [(X+i)**n - (X-i)**n]

    For a polynomial p over Q, p(X-i) is the complex conjugate of p(X+i),
    and (X-i)**n that of (X+i)**n, so each real A_n and C_n is shifted by i
    once and conjugated.  The symmetry holds only over Q: a polynomial with
    a nonzero imaginary part (a corrupted family) is shifted both ways.
    """
    checks = []
    x_plus_i = Polynomial([I, 1])
    x_minus_i = x_plus_i.conjugate()
    pow_plus = Polynomial([1])  # (X+i)**n
    for n in range(family.max_n + 1):
        a_n, c_n = family.a(n), family.c(n)
        a_shift_plus, a_shift_minus = _shifts_by_i(a_n)
        c_shift_plus, c_shift_minus = _shifts_by_i(c_n)
        checks.append(
            exact_check(
                f"shift_minus_sum/n={n}",
                f"A_{n}(X-i) + C_{n}(X) = (X-i) X^{n}",
                a_shift_minus + c_n,
                x_minus_i.shifted(n),
            )
        )
        checks.append(
            exact_check(
                f"shift_plus_sum/n={n}",
                f"A_{n}(X+i) + C_{n}(X) = (X+i) X^{n}",
                a_shift_plus + c_n,
                x_plus_i.shifted(n),
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
                c_shift_plus - c_shift_minus,
                (pow_plus - pow_plus.conjugate()).shifted(1),
            )
        )
        pow_plus = _linear_combination(((1, pow_plus.shifted(1)), (I, pow_plus)))
    return checks


def check_euler_identity(family: ACFamily) -> list:
    """E_n(X) = X**n - X**(n+1) + (-i)**(n+1) [A_n(iX) + C_n(iX)], exactly;
    each right-hand side is one row."""
    checks = []
    one_minus_x = Polynomial([1, -1])
    for n in range(family.max_n + 1):
        inner = (family.a(n) + family.c(n)).compose_affine(I, 0)
        rhs = _linear_combination(
            ((1, one_minus_x.shifted(n)), ((-I) ** (n + 1), inner)))
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
    """A_n + C_n = X**(n+1) + sum_{k<n} binom(n,k) d_{n-k} X**k, exactly,
    for every n in the family."""
    return list(_tangent_checks(family))


def _tangent_checks(family: ACFamily):
    """The checks of ``check_tangent_expansion``, made one n at a time.

    d_0..d_max_n are read once, as numerators over one denominator (a
    power of two), so each right-hand side is a row of integer products.
    """
    d, _, den = _over_one_denominator(
        [tangent_half_coeff(j) for j in range(family.max_n + 1)])
    for n in range(family.max_n + 1):
        # ... + 0 X**n + 1 X**(n+1)
        rhs = [*(comb(n, k) * d[n - k] for k in range(n)), 0, den]
        yield exact_check(
            f"tangent_expansion/n={n}",
            f"A_{n} + C_{n} = X^{n + 1} + sum binom({n},k) d_({n}-k) X^k",
            family.a(n) + family.c(n),
            Polynomial.from_integers(rhs, den),
        )


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
    parity-allowed index must be genuinely nonzero.  The coefficients are
    read as integer numerators, or as scalars for a polynomial over Q(i).
    """
    coeffs = p.integers()[0] if p.is_real else p.coeffs
    bad = []
    for k in range(n + 2):
        allowed = (k % 2 == (n + 1) % 2) and not (k == 0 and not has_constant)
        present = k < len(coeffs) and bool(coeffs[k])
        if present != allowed:
            bad.append(k)
    if bad:
        status, lhs, rhs, metric = FAIL, str(p), f"offending powers: {bad}", "support mismatch"
    else:
        status, lhs, rhs, metric = PASS, "", "", "0"
    return Check(f"parity/{letter}/n={n}",
                 f"support of {letter.upper()}_{n} matches parity (n+1) mod 2",
                 status, lhs, rhs, metric)


def _triangle_columns(n: int) -> range:
    """The powers k of row n of the alpha and lambda triangles."""
    return range(n + 2)


def lambda_alpha_tables(family: ACFamily) -> CoeffTables:
    """The alpha (from A_n) and lambda (from C_n) triangles of the family,
    as views over its polynomials: each entry is read, and built, on lookup.

    Also re-verifies the tangent expansion of A_n + C_n exactly, making
    the checks of ``check_tangent_expansion`` one n at a time, and raises
    RuntimeError at the first that fails, so a corrupted family cannot
    yield quietly wrong tables: a broken computation, not a usage error.
    """
    failed = next((c for c in _tangent_checks(family) if c.status != PASS), None)
    if failed is not None:
        raise RuntimeError(f"tangent expansion failed: {failed.id}")
    ns = range(family.max_n + 1)
    return CoeffTables(Triangle(family.a_polys, ns, _triangle_columns),
                       Triangle(family.c_polys, ns, _triangle_columns))


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
    for letter, polys, reference in (("A", family.a_polys, REFERENCE_A),
                                     ("C", family.c_polys, REFERENCE_C)):
        for n in range(min(family.max_n + 1, len(reference))):
            checks.append(
                exact_check(
                    f"golden/{letter.lower()}/n={n}",
                    f"{letter}_{n} equals the reference table entry",
                    polys[n],
                    reference[n],
                )
            )
    return checks


def identities_report(family: ACFamily) -> VerificationReport:
    """The report of every exact suite on the recurrence family, built once
    from their checks in this order: golden tables, pairwise route
    agreement, shifted-argument identities, the Euler link, the tangent
    expansion, and structural facts (degrees, roots, parity)."""
    return VerificationReport("identities", (
        *golden_table_checks(family),
        *route_equivalence_checks(family),
        *check_difference_identities(family),
        *check_euler_identity(family),
        *check_tangent_expansion(family),
        *structural_checks(family),
    ))
