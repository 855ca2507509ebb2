"""The row-summing routes against their per-term loops.

``build_by_recurrence``, ``build_a_by_residue_recurrence`` and the
``TruncatedSeries`` product and quotient sum each row with one
``exact_core._linear_combination``.  The functions below keep the loops
they replaced, one ``Polynomial`` ``+``/``-`` (and one reduction) per term,
as the reference for those rows, the way ``build_uv_fractions`` in
``test_generalized_uv.py`` keeps the Fraction recursion of ``build_uv``.
"""

import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpolys import ac_families
from acpolys.ac_families import (
    build_a_by_residue_recurrence,
    build_by_generating_function,
    build_by_recurrence,
)
from acpolys.exact_core import (
    I,
    TWO_I,
    GaussianRational,
    Polynomial,
    TruncatedSeries,
    X,
)
from acpolys.special_numbers import (
    bernoulli_numbers_series,
    cos_series,
    cosecant_numbers_series,
    exp_series,
    exp_xt_series,
    sin_series,
    t_series,
    tangent_half_coeffs_series,
)

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
    return [p.rational_coefficients() for p in a_gauss]


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


def test_residue_route_rejects_an_imaginary_residue(monkeypatch):
    # With 3i in place of 2i the recurrence no longer stays real.
    monkeypatch.setattr(ac_families, "TWO_I", GaussianRational(0, 3))
    with pytest.raises(ValueError, match="nonzero imaginary part"):
        build_a_by_residue_recurrence(4)


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
