"""The row-summing routes against their per-term loops.

``build_by_recurrence``, ``build_a_by_residue_recurrence`` and the
``TruncatedSeries`` product and quotient sum each row with one
``exact_core._linear_combination``.  The functions below keep the loops
they replaced, one ``Polynomial`` ``+``/``-`` (and one reduction) per term,
as the reference for those rows, the way ``build_uv_fractions`` in
``test_generalized_uv.py`` keeps the Fraction recursion of ``build_uv``.
``build_by_coefficient_formula`` builds each row as integers over one
denominator; ``coefficient_formula_per_coefficient`` keeps its
per-coefficient ``Fraction`` products.

The shift identities shift each real polynomial by i once and conjugate;
``difference_identities_four_shifts`` keeps the two ``compose_affine``
calls per polynomial.  The closed-form route, the Euler polynomials and
the Bernoulli polynomials build each row as one sum;
``closed_form_by_operators``, ``euler_poly_by_operators`` and
``bernoulli_poly_from_fractions`` keep the ``-``, ``*`` and ``+`` chains
and the per-coefficient ``Fraction`` products they replaced.
"""

import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpolys import ac_families
from acpolys.ac_families import (
    ACFamily,
    ROUTE_CLOSED_FORM,
    build_a_by_residue_recurrence,
    build_by_closed_form,
    build_by_coefficient_formula,
    build_by_generating_function,
    build_by_recurrence,
    check_difference_identities,
    route_equivalence_checks,
)
from acpolys.cli import run
from acpolys.exact_core import (
    I,
    TWO_I,
    GaussianRational,
    Polynomial,
    TruncatedSeries,
    X,
)
from acpolys.report import exact_check
from acpolys.special_numbers import (
    bernoulli_numbers,
    bernoulli_numbers_series,
    bernoulli_poly,
    cos_series,
    cosecant_number,
    cosecant_numbers_series,
    euler_poly,
    exp_series,
    exp_xt_series,
    sin_series,
    t_series,
    tangent_half_coeff,
    tangent_half_coeffs_series,
)


def real(p):
    """``p``, asserted to be over Q: ``integers()`` raises ValueError if not."""
    p.integers()
    return p


#: Every N <= CHECKED_MAX_SMALL is compared, and N = CHECKED_MAX_LARGE.
CHECKED_MAX_SMALL = 64
CHECKED_MAX_LARGE = 120
CHECKED_N = [*range(CHECKED_MAX_SMALL + 1), CHECKED_MAX_LARGE]


def recurrence_per_term(n_max):
    """The coupled induction with one Fraction lambda and one ``+`` per term."""
    a_list = [X]
    c_list = [Polynomial()]
    for n in range(n_max):
        cn = c_list[n]
        scale = Fraction(n + 1, n + 2)
        acc_a = X * a_list[n]
        acc_c = Polynomial.monomial(n + 2) + Polynomial.monomial(n)
        for k in range(n + 1):
            lam = cn.coefficient(k)
            if lam:
                acc_a = acc_a + a_list[k] * lam
                acc_c = acc_c + c_list[k] * lam
        a_list.append(acc_a * scale)
        c_list.append(acc_c * scale)
    return a_list, c_list


def residue_per_term(n_max):
    """The binomial recurrence over Q(i) with one ``-`` per term."""
    a_gauss = [X]
    x_plus_i = Polynomial([I, 1])
    power = x_plus_i * x_plus_i
    for n in range(n_max):
        acc = power - Polynomial([I ** (n + 2)])
        for k in range(n + 1):
            coeff = comb(n + 2, k) * (TWO_I ** (n + 1 - k))
            acc = acc - a_gauss[k] * coeff
        a_gauss.append(acc * Fraction(1, n + 2))
        power = power * x_plus_i
    return [real(p) for p in a_gauss]


def series_mul_per_term(a, b):
    """a * b with one ``+`` per product term."""
    order = a.order
    out = [Polynomial() for _ in range(order + 1)]
    for j, cj in enumerate(a.coeffs):
        if cj.is_zero:
            continue
        for k in range(order + 1 - j):
            ck = b.coeffs[k]
            if not ck.is_zero:
                out[j + k] = out[j + k] + cj * ck
    return TruncatedSeries(out, order)


def series_div_per_term(a, b):
    """a / b with one ``-`` per term, for b of valuation <= a's whose
    constant term after cancellation is a nonzero scalar."""
    vu = b.valuation()
    num, den = a.coeffs[vu:], b.coeffs[vu:]
    inv = 1 / den[0].coefficient(0)
    quotient = []
    for n in range(a.order - vu + 1):
        acc = num[n]
        for j in range(1, min(n, len(den) - 1) + 1):
            if not den[j].is_zero:
                acc = acc - den[j] * quotient[n - j]
        quotient.append(acc * inv)
    return TruncatedSeries(quotient, a.order - vu)


def generating_function_per_term(n_max):
    """build_by_generating_function's series, multiplied and divided per term."""
    order = n_max + 1
    ext = exp_xt_series(order)
    one = TruncatedSeries([Polynomial([1])], order)
    sin_t = sin_series(order)
    f = series_div_per_term(ext - one, sin_t)
    g = (X * ext).truncate(n_max) + series_div_per_term(
        one - series_mul_per_term(ext, cos_series(order)), sin_t)
    a_list = [f.coefficient(n) * Fraction(factorial(n)) for n in range(n_max + 1)]
    c_list = [g.coefficient(n) * Fraction(factorial(n)) for n in range(n_max + 1)]
    return a_list, c_list


def coefficient_formula_per_coefficient(n_max):
    """build_by_coefficient_formula with one Fraction product per coefficient."""
    beta = bernoulli_numbers(n_max)
    a_list, c_list = [], []
    for n in range(n_max + 1):
        a_coeffs = [Fraction(0)] * (n + 2)
        for k in range(1, n + 2):
            cs = cosecant_number(n + 1 - k)
            if cs:
                a_coeffs[k] = Fraction(comb(n + 1, k), n + 1) * cs
        a_list.append(Polynomial(a_coeffs))
        c_coeffs = [Fraction(0)] * (n + 2)
        c_coeffs[0] = tangent_half_coeff(n)
        c_coeffs[n + 1] = Fraction(n, n + 1)
        for k in range(1, n + 1):
            m = n - k + 1
            if m % 2 == 0:
                sign = (-1) ** ((n - k - 1) // 2)
                c_coeffs[k] = sign * comb(n, k) * Fraction(2**m) * beta[m] / m
        c_list.append(Polynomial(c_coeffs))
    return a_list, c_list


def difference_identities_four_shifts(family):
    """check_difference_identities with A_n and C_n each shifted by +i and
    by -i, and (X-i)**n built alongside (X+i)**n."""
    checks = []
    x_plus_i = Polynomial([I, 1])
    x_minus_i = Polynomial([-I, 1])
    pow_plus = Polynomial([1])
    pow_minus = Polynomial([1])
    for n in range(family.max_n + 1):
        a_n, c_n = family.a(n), family.c(n)
        a_shift_minus = a_n.compose_affine(1, -I)
        a_shift_plus = a_n.compose_affine(1, I)
        checks.append(exact_check(
            f"shift_minus_sum/n={n}", f"A_{n}(X-i) + C_{n}(X) = (X-i) X^{n}",
            a_shift_minus + c_n, Polynomial.monomial(n + 1) + Polynomial.monomial(n, -I)))
        checks.append(exact_check(
            f"shift_plus_sum/n={n}", f"A_{n}(X+i) + C_{n}(X) = (X+i) X^{n}",
            a_shift_plus + c_n, Polynomial.monomial(n + 1) + Polynomial.monomial(n, I)))
        checks.append(exact_check(
            f"a_central_difference/n={n}", f"A_{n}(X+i) - A_{n}(X-i) = 2i X^{n}",
            a_shift_plus - a_shift_minus, Polynomial.monomial(n, TWO_I)))
        checks.append(exact_check(
            f"c_central_difference/n={n}",
            f"C_{n}(X+i) - C_{n}(X-i) = X[(X+i)^{n} - (X-i)^{n}]",
            c_n.compose_affine(1, I) - c_n.compose_affine(1, -I),
            (pow_plus - pow_minus) * X))
        pow_plus = pow_plus * x_plus_i
        pow_minus = pow_minus * x_minus_i
    return checks


def closed_form_by_operators(n_max):
    """build_by_closed_form with each row a chain of ``-``, ``*`` and ``+``."""
    half = Fraction(1, 2)
    inv_2i = GaussianRational(0, Fraction(-1, 2))
    a_list, c_list = [], []
    for n in range(n_max + 1):
        b = bernoulli_poly(n + 1)
        b_at_half = Polynomial([b(half)])
        factor = TWO_I ** (n + 1) * Fraction(1, n + 1)
        a_gauss = (b.compose_affine(inv_2i, half) - b_at_half) * factor
        a_list.append(real(a_gauss))
        tail = Polynomial.monomial(n + 1) + Polynomial.monomial(n, -I)
        c_gauss = (b_at_half - b.compose_affine(inv_2i, 0)) * factor + tail
        c_list.append(real(c_gauss))
    return ACFamily(tuple(a_list), tuple(c_list), ROUTE_CLOSED_FORM)


def euler_poly_by_operators(n):
    """E_n as two compose_affine calls, a ``-`` and a ``*``."""
    b = bernoulli_poly(n + 1)
    half = Fraction(1, 2)
    diff = b.compose_affine(half, half) - b.compose_affine(half, 0)
    return diff * Fraction(2 ** (n + 1), n + 1)


def bernoulli_poly_from_fractions(n):
    """B_n with one Fraction product per coefficient."""
    beta = bernoulli_numbers(n)
    return Polynomial([comb(n, k) * beta[n - k] for k in range(n + 1)])


def scaled_constants(quotient, n_max):
    return [factorial(n) * Fraction(quotient.coefficient(n).coefficient(0))
            for n in range(n_max + 1)]


@pytest.fixture(scope="module")
def recurrence_reference():
    return recurrence_per_term(CHECKED_MAX_LARGE)


@pytest.fixture(scope="module")
def residue_reference():
    return residue_per_term(CHECKED_MAX_LARGE)


@pytest.fixture(scope="module")
def generating_function_reference():
    return generating_function_per_term(CHECKED_MAX_LARGE)


# Each route builds row n from rows below it, and coefficient n of a series
# quotient does not depend on the truncation order, so row n of a family
# built to any N >= n equals row n of the reference built to 120.


def test_recurrence_rows_equal_per_term_loop(recurrence_reference):
    a_ref, c_ref = recurrence_reference
    for n_max in CHECKED_N:
        family = build_by_recurrence(n_max)
        assert family.a_polys == tuple(a_ref[:n_max + 1]), n_max
        assert family.c_polys == tuple(c_ref[:n_max + 1]), n_max


def test_residue_rows_equal_per_term_loop(residue_reference):
    for n_max in CHECKED_N:
        assert build_a_by_residue_recurrence(n_max) == residue_reference[:n_max + 1], n_max


def test_generating_function_rows_equal_per_term_loop(generating_function_reference):
    a_ref, c_ref = generating_function_reference
    for n_max in CHECKED_N:
        family = build_by_generating_function(n_max)
        assert family.a_polys == tuple(a_ref[:n_max + 1]), n_max
        assert family.c_polys == tuple(c_ref[:n_max + 1]), n_max


def test_coefficient_formula_rows_equal_per_coefficient_products():
    a_ref, c_ref = coefficient_formula_per_coefficient(CHECKED_MAX_LARGE)
    for n_max in CHECKED_N:
        family = build_by_coefficient_formula(n_max)
        assert family.a_polys == tuple(a_ref[:n_max + 1]), n_max
        assert family.c_polys == tuple(c_ref[:n_max + 1]), n_max
    assert all(type(c) is Fraction for p in family.c_polys for c in p.coeffs)


def test_difference_identities_equal_four_shift_checks():
    reference = difference_identities_four_shifts(build_by_recurrence(CHECKED_MAX_SMALL))
    for n_max in range(CHECKED_MAX_SMALL + 1):
        got = check_difference_identities(build_by_recurrence(n_max))
        assert got == reference[:4 * (n_max + 1)], n_max


def test_difference_identities_equal_four_shift_checks_over_q_i():
    # A family that is not real: conjugation must not stand in for -i.
    base = build_by_recurrence(10)
    a_polys, c_polys = list(base.a_polys), list(base.c_polys)
    for n in (2, 5, 9):
        a_polys[n] = a_polys[n] + Polynomial.monomial(n - 1, GaussianRational(1, 2))
        c_polys[n] = c_polys[n] * I
    family = ACFamily(tuple(a_polys), tuple(c_polys), base.route)
    assert check_difference_identities(family) == difference_identities_four_shifts(family)


def test_closed_form_rows_equal_operator_chains():
    reference = closed_form_by_operators(CHECKED_MAX_SMALL)
    for n_max in range(CHECKED_MAX_SMALL + 1):
        family = build_by_closed_form(n_max)
        assert family.a_polys == reference.a_polys[:n_max + 1], n_max
        assert family.c_polys == reference.c_polys[:n_max + 1], n_max
    assert family == reference


def test_euler_and_bernoulli_polys_equal_operator_chains():
    for n in range(CHECKED_MAX_SMALL + 1):
        assert euler_poly(n) == euler_poly_by_operators(n), n
        assert bernoulli_poly(n) == bernoulli_poly_from_fractions(n), n
        assert all(type(c) is Fraction for c in bernoulli_poly(n).coeffs)


def test_special_number_quotients_equal_per_term_loop():
    n_max = CHECKED_MAX_LARGE
    half = Fraction(1, 2)
    one = TruncatedSeries([Polynomial([1])], n_max + 1)
    cases = [
        (cosecant_numbers_series,
         series_div_per_term(t_series(n_max + 1), sin_series(n_max + 1))),
        (tangent_half_coeffs_series,
         series_div_per_term(sin_series(n_max, half), cos_series(n_max, half))),
        (bernoulli_numbers_series,
         series_div_per_term(t_series(n_max + 1), exp_series(n_max + 1) - one)),
    ]
    for build, reference in cases:
        assert build(n_max) == scaled_constants(reference, n_max), build.__name__


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
coefficients_st = st.one_of(
    fractions_st, st.builds(GaussianRational, fractions_st, fractions_st))
polys_st = st.lists(coefficients_st, max_size=4).map(Polynomial)
ORDER = 5
series_st = st.lists(polys_st, max_size=ORDER + 1).map(
    lambda coeffs: TruncatedSeries(coeffs, ORDER))


@given(series_st, series_st, st.integers(0, ORDER), coefficients_st)
@settings(max_examples=80, deadline=None)
def test_series_product_and_quotient_equal_per_term_loop(a, b, shift, lead):
    assert a * b == series_mul_per_term(a, b)
    # A divisor of valuation `shift` with a nonzero scalar constant term.
    if not lead:
        lead = Fraction(1)
    coeffs = [Polynomial()] * shift + [Polynomial([lead]), *b.coeffs[shift + 1:]]
    divisor = TruncatedSeries(coeffs, ORDER)
    dividend = TruncatedSeries(
        [Polynomial()] * shift + list(a.coeffs[shift:]), ORDER)
    assert dividend / divisor == series_div_per_term(dividend, divisor)


# ---------------------------------------------------------------------------
# The correctness guards still fire.


def test_an_imaginary_residue_fails_its_route_checks(monkeypatch, capsys):
    # With 3i in place of 2i the recurrence no longer stays real from n = 2
    # on: those rows fail route equivalence, and ``poly`` prints none of them.
    baseline = build_by_recurrence(6)
    monkeypatch.setattr(ac_families, "TWO_I", GaussianRational(0, 3))
    failing = {c.id for c in route_equivalence_checks(baseline)
               if c.status != "pass" and c.id.startswith("route/residue_recurrence/")}
    assert failing == {f"route/residue_recurrence/a/n={n}" for n in range(2, 7)}
    assert run(["poly", "--family", "a", "--n", "4", "--route", "residue_recurrence"]) == 4
    assert capsys.readouterr() == ("", "acpolys: internal error: RuntimeError('route "
                                   "residue_recurrence built a non-real A_4 of degree 5')\n")


@pytest.mark.parametrize("dividend, divisor, error, message", [
    ([1], [], ZeroDivisionError, "division by the zero series"),
    ([1], [0, 1], ValueError,
     "denominator valuation 1 exceeds numerator valuation 0;"
     " the quotient is not a power series"),
    ([1], [X], ValueError,
     "divisor constant term after cancellation must be a scalar, got degree 1"),
    ([0, X], [0, X * X, 1], ValueError,
     "divisor constant term after cancellation must be a scalar, got degree 2"),
])
def test_series_division_errors_keep_their_messages(dividend, divisor, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        TruncatedSeries(dividend, 3) / TruncatedSeries(divisor, 3)
