"""Unit and property tests for the exact scalar/polynomial/series tower."""

import ast
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acpolys
from acpolys.ac_families import build_by_recurrence, lambda_alpha_tables
from acpolys.generalized_uv import build_uv
from acpolys.report import FAIL, PASS, exact_check
from acpolys.exact_core import (
    _gaussian_integer_over,
    _linear_combination,
    GaussianRational,
    I,
    Polynomial,
    TruncatedSeries,
    TWO_I,
    Triangle,
    X,
    format_rational,
    poly_from_json,
    poly_to_json,
    scalar_from_json,
    scalar_to_json,
)

HALF = Fraction(1, 2)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians_st = st.builds(GaussianRational, fractions_st, fractions_st)
polys_st = st.lists(fractions_st, min_size=0, max_size=6).map(Polynomial)
scalars_st = st.one_of(st.integers(-3, 3), fractions_st, gaussians_st)
gaussian_polys_st = st.lists(
    st.one_of(fractions_st, gaussians_st), min_size=0, max_size=8
).map(Polynomial)


def horner_compose_affine(p, a, b):
    """Reference p(a*X + b): Horner steps in one scalar domain, Q(i) when
    a, b or any coefficient is Gaussian and Q otherwise."""
    lift = any(isinstance(v, GaussianRational) for v in (a, b, *p.coeffs))
    zero = GaussianRational(0) if lift else Fraction(0)
    if lift:
        a, b = GaussianRational(0) + a, GaussianRational(0) + b
    acc = []
    for c in reversed(p.coeffs):
        nxt = [zero] * (len(acc) + 1)
        for j, t in enumerate(acc):
            nxt[j] = nxt[j] + t * b
            nxt[j + 1] = nxt[j + 1] + t * a
        nxt[0] = nxt[0] + c
        acc = nxt
    return Polynomial(acc)


def horner_evaluate(p, x):
    """Reference p(x): Horner steps in Q(i) when x or any coefficient is
    Gaussian, and in Q otherwise."""
    lift = any(isinstance(v, GaussianRational) for v in (x, *p.coeffs))
    acc = GaussianRational(0) if lift else Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# Shifts b whose numerator beta is a Gaussian unit once its denominator d_b
# is cleared, and inputs over Q and Q(i) of degrees -1 (zero), 0, 1, 2, 40.
UNIT_SHIFTS = [1, -1, I, -I, GaussianRational(0, HALF), Fraction(-1, 3)]
UNIT_SHIFT_INPUTS = [Polynomial()] + [
    Polynomial(coeffs(k) for k in range(degree + 1))
    for degree in (0, 1, 2, 40)
    for coeffs in (
        lambda k: Fraction((-1) ** k * (k + 1), k + 2),
        lambda k: GaussianRational(Fraction(k, 3) - 1, Fraction(1, k + 1)),
    )
]


def repr_id(p):
    if p.is_zero:
        return "zero"
    return f"{'gauss' if p._im is not None else 'real'}-degree{p.degree}"


def reference_add(a, b, sign=1):
    """Per-coefficient a + sign*b on lists of Fraction/GaussianRational."""
    width = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (width - len(a))
    b = list(b) + [Fraction(0)] * (width - len(b))
    return [x + sign * y for x, y in zip(a, b)]


def reference_mul(a, b):
    """Per-coefficient schoolbook product of two coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return out


def stripped(values):
    values = list(values)
    while values and not values[-1]:
        values.pop()
    return values


def is_gaussian(p):
    return p._im is not None


def has_imaginary_part(values):
    """The value rule for coefficient types: some value is a
    GaussianRational with a nonzero imaginary part."""
    return any(isinstance(c, GaussianRational) and c.im for c in values)


def assert_canonical(p):
    """The integer layout invariant: int vectors of equal length, den > 0,
    im None exactly when every imaginary part is 0, no trailing zero
    coefficient, gcd(den, *re, *im) == 1 (den == 1 for the zero
    polynomial)."""
    re, im, den = p._re, p._im, p._den
    assert type(re) is tuple and all(type(x) is int for x in re)
    assert type(den) is int and den > 0
    if im is not None:
        assert type(im) is tuple and all(type(y) is int for y in im)
        assert len(im) == len(re)
        assert any(im)
    if re:
        assert re[-1] or (im is not None and im[-1])
    else:
        assert den == 1
    assert gcd(den, *re, *(im or ())) == 1


# ---------------------------------------------------------------------------
# GaussianRational


def conj(z):
    """The complex conjugate of a GaussianRational."""
    return GaussianRational(z.re, -z.im)


def norm(z):
    """The field norm re**2 + im**2 of a GaussianRational."""
    return z.re**2 + z.im**2


class TestGaussianRational:
    def test_constructor_coerces(self):
        z = GaussianRational(1, HALF)
        assert z.re == 1 and z.im == HALF
        assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)

    @pytest.mark.parametrize("part", [0.1, Decimal("0.1"), "1/2", None])
    def test_constructor_rejects_inexact_parts(self, part):
        with pytest.raises(TypeError, match="not an exact scalar"):
            GaussianRational(part)
        with pytest.raises(TypeError, match="not an exact scalar"):
            GaussianRational(1, part)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_are_not_exact_scalars(self, flag):
        # Fraction(True) is 1; like scalar_from_json, every entry point
        # rejects a bool rather than read it as 0 or 1.
        for build in (lambda: GaussianRational(flag), lambda: GaussianRational(1, flag),
                      lambda: Polynomial([flag]), lambda: Polynomial([HALF, flag]),
                      lambda: X * flag, lambda: flag * X,
                      lambda: Polynomial.monomial(2, flag),
                      lambda: Polynomial() * flag, lambda: flag * Polynomial(),
                      lambda: Polynomial().compose_affine(flag, 0),
                      lambda: TruncatedSeries([Polynomial()], 2) * flag):
            with pytest.raises(TypeError, match=f"^not an exact scalar: {flag}$"):
                build()
        assert GaussianRational(1) != flag
        with pytest.raises(TypeError):
            I + flag
        # Nor does the zero polynomial skip reading a scalar it multiplies by.
        with pytest.raises(TypeError, match="^not an exact scalar: 0.5$"):
            Polynomial().compose_affine(0.5, 0)

    @pytest.mark.parametrize("re, im", [(3, -2), (HALF, Fraction(-4, 6)), (0, HALF)])
    def test_constructor_accepts_int_and_fraction_parts(self, re, im):
        z = GaussianRational(re, im)
        assert (z.re, z.im) == (Fraction(re), Fraction(im))
        assert type(z.re) is Fraction and type(z.im) is Fraction

    def test_i_squares_to_minus_one(self):
        assert I * I == Fraction(-1)
        assert TWO_I == 2 * I

    def test_mixed_arithmetic_with_rationals(self):
        z = GaussianRational(1, 2)
        assert z + HALF == GaussianRational(Fraction(3, 2), 2)
        assert HALF + z == z + HALF
        assert 2 * z == GaussianRational(2, 4)
        assert z - 1 == GaussianRational(0, 2)
        assert 1 - z == GaussianRational(0, -2)

    def test_mixed_results_have_fraction_parts(self):
        z = GaussianRational(HALF, -3)
        results = (
            z * 2, 2 * z, z * HALF, z * GaussianRational(HALF), z * I, z * z,
            z + 1, 1 + z, z - HALF, HALF - z,
        )
        for w in results:
            assert type(w.re) is Fraction and type(w.im) is Fraction
        assert z * I == GaussianRational(3, HALF)
        assert z * GaussianRational(0, HALF) == GaussianRational(Fraction(3, 2), Fraction(1, 4))
        assert HALF - z == GaussianRational(0, 3)

    def test_division(self):
        z = GaussianRational(1, 1)
        assert z / z == GaussianRational(1, 0)
        assert 1 / I == -I
        assert (GaussianRational(5, 0) / GaussianRational(1, 2)) * GaussianRational(1, 2) == 5
        with pytest.raises(ZeroDivisionError):
            z / GaussianRational(0, 0)

    def test_powers(self):
        assert I**2 == -1
        assert I**3 == -I
        assert I**4 == 1
        assert TWO_I**3 == GaussianRational(0, -8)
        assert I**-1 == -I
        assert GaussianRational(1, 1) ** 0 == 1

    def test_equality_and_hash_against_fraction(self):
        assert GaussianRational(3, 0) == Fraction(3)
        assert GaussianRational(3, 0) == 3
        assert hash(GaussianRational(HALF, 0)) == hash(HALF)
        assert GaussianRational(3, 1) != 3

    def test_foreign_types_unsupported(self):
        with pytest.raises(TypeError):
            I + 0.25
        assert I != "i"

    def test_parts_are_read_only(self):
        for part in ("re", "im"):
            with pytest.raises(AttributeError):
                setattr(I, part, Fraction(5))
        assert (I.re, I.im) == (0, 1)
        assert str(Polynomial([I, 1])) == "X + i"

    @pytest.mark.parametrize("re, im, stored", [
        (0, 0, (0, 0, 1)), (3, -2, (3, -2, 1)), (HALF, Fraction(-4, 6), (3, -4, 6)),
        (Fraction(1, 4), HALF, (1, 2, 4)), (0, Fraction(-3, 9), (0, -1, 3)),
    ])
    def test_stores_integers_over_one_denominator(self, re, im, stored):
        z = GaussianRational(re, im)
        assert (z._x, z._y, z._d) == stored
        assert (z.re, z.im) == (Fraction(re), Fraction(im))

    @given(gaussians_st, scalars_st, st.integers(0, 4))
    def test_every_result_is_canonical(self, u, v, e):
        results = [u + v, v + u, u - v, v - u, u * v, v * u, -u, u**e]
        if v:
            results += [u / v]
        if u:
            results += [v / u]
        for w in results:
            assert type(w) is GaussianRational
            assert w._d > 0 and gcd(w._x, w._y, w._d) == 1
            assert w == GaussianRational(w.re, w.im)

    @given(gaussians_st, gaussians_st)
    def test_conjugation_is_multiplicative(self, u, v):
        assert conj(u * v) == conj(u) * conj(v)

    @given(gaussians_st, gaussians_st)
    def test_norm_is_multiplicative(self, u, v):
        assert norm(u * v) == norm(u) * norm(v)

    @given(gaussians_st, gaussians_st)
    def test_division_inverts_multiplication(self, u, v):
        if norm(v) == 0:
            return
        assert (u / v) * v == u

    @given(gaussians_st)
    def test_norm_is_conjugate_product(self, u):
        assert u * conj(u) == GaussianRational(norm(u), 0)


# ---------------------------------------------------------------------------
# Polynomial


class TestPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]) == Polynomial([])
        assert Polynomial([]).is_zero
        assert Polynomial([]).degree == -1

    def test_monomial(self):
        p = Polynomial.monomial(3, HALF)
        assert p.coeffs == (0, 0, 0, HALF)
        assert p.degree == 3
        assert p.leading() == HALF

    @pytest.mark.parametrize("coeff", [0, HALF, GaussianRational(0, HALF),
                                       GaussianRational(3, 0), HALF + I])
    def test_monomial_has_the_constructors_encoding(self, coeff):
        p, q = Polynomial.monomial(2, coeff), Polynomial([0, 0, coeff])
        assert p == q
        assert p.coeffs == q.coeffs
        assert [type(c) for c in p.coeffs] == [type(c) for c in q.coeffs]

    def test_coefficient_beyond_degree_is_zero(self):
        p = Polynomial([1, 2])
        assert p.coefficient(5) == 0
        assert isinstance(p.coefficient(5), Fraction)

    def test_evaluation_horner(self):
        p = Polynomial([1, 2, 3])
        assert p(HALF) == Fraction(11, 4)
        assert p(0) == 1
        assert Polynomial([])(7) == 0

    @given(gaussian_polys_st, scalars_st)
    @settings(max_examples=200)
    @example(Polynomial(), I)
    @example(Polynomial(), 3)
    @example(Polynomial([1, 2]), GaussianRational(3))
    @example(Polynomial([HALF, I]), 0)
    def test_evaluation_matches_horner(self, p, x):
        # The same value and the same type: GaussianRational exactly when
        # the polynomial or the point is one.
        got, want = p(x), horner_evaluate(p, x)
        assert type(got) is type(want)
        assert got == want

    def test_evaluation_at_gaussian(self):
        # X^2 + 1 vanishes at i
        p = Polynomial([1, 0, 1])
        assert p(I) == GaussianRational(0, 0)

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        q = Polynomial([-1, 1])
        assert p * q == Polynomial([-1, 0, 1])
        assert p + q == Polynomial([0, 2])
        assert p - p == Polynomial([])
        assert -p == Polynomial([-1, -1])
        assert HALF * p == Polynomial([HALF, HALF])
        assert p * HALF == HALF * p

    def test_leading_cancellation(self):
        assert Polynomial([0, 1, 1]) - Polynomial([1, 0, 1]) == Polynomial([-1, 1])

    def test_compose_affine_shift(self):
        # (X+1)^2 = X^2 + 2X + 1
        sq = Polynomial([0, 0, 1])
        assert sq.compose_affine(1, 1) == Polynomial([1, 2, 1])
        # p(2X) scales coefficients by powers of 2
        assert Polynomial([1, 1, 1]).compose_affine(2, 0) == Polynomial([1, 2, 4])

    def test_integers_asserts_realness(self):
        p = Polynomial([GaussianRational(1), GaussianRational(2)])
        assert all(isinstance(c, Fraction) for c in p.coeffs)
        assert p.integers() == ((1, 2), 1)
        assert Polynomial.from_integers(*p.integers()) == p == Polynomial([1, 2])
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            Polynomial([I]).integers()

    def test_integer_contract_round_trips(self):
        p = Polynomial.from_integers([4, -6, 0, 0], 12)
        assert p == Polynomial([Fraction(1, 3), Fraction(-1, 2)])
        assert p.integers() == ((2, -3), 6)
        assert Polynomial.from_integers([0, 0], 5).integers() == ((), 1)
        assert Polynomial([Fraction(1, 6), Fraction(-1, 4)]).integers() == ((2, -3), 12)
        assert Polynomial([GaussianRational(3, 0)]).integers() == ((3,), 1)

    def test_integers_names_the_first_imaginary_power(self):
        with pytest.raises(ValueError) as caught:
            Polynomial([1, HALF, 3 + I, I]).integers()
        assert str(caught.value) == "nonzero imaginary part at X^2 of a polynomial of degree 3"

    def test_integers_error_stays_short_for_a_long_polynomial(self):
        # Not the repr: one line of the CLI names the fault, whatever the degree.
        p = Polynomial([Fraction(k + 1, 10**30 + k) for k in range(200)] + [I])
        with pytest.raises(ValueError, match="nonzero imaginary part") as caught:
            p.integers()
        assert p.degree == 200
        assert len(str(caught.value)) < 120

    @pytest.mark.parametrize("p", [Polynomial([HALF, -3]), Polynomial([1, HALF + I]),
                                   Polynomial([I]), Polynomial()])
    def test_shifted_multiplies_by_a_power_of_x(self, p):
        for power in range(4):
            got = p.shifted(power)
            assert got == Polynomial.monomial(power) * p
            assert got.coeffs == (() if p.is_zero else (0,) * power + p.coeffs)
            assert_canonical(got)
        with pytest.raises(ValueError):
            p.shifted(-1)

    @given(gaussian_polys_st)
    @settings(max_examples=60)
    def test_conjugate_conjugates_every_coefficient(self, p):
        got = p.conjugate()
        assert got.coeffs == tuple(conj(c) if isinstance(c, GaussianRational) else c
                                   for c in p.coeffs)
        assert_canonical(got)
        assert got.conjugate() == p
        assert (got == p) == (not is_gaussian(p))

    @given(st.one_of(polys_st, gaussian_polys_st))
    @settings(max_examples=60)
    def test_is_real_is_being_its_own_conjugate_and_having_integers(self, p):
        assert p.is_real == (p.conjugate() == p)
        try:
            p.integers()
        except ValueError:
            assert not p.is_real
        else:
            assert p.is_real

    @pytest.mark.parametrize("p", [Polynomial(), Polynomial([I, 1]) * Polynomial([-I, 1])],
                             ids=["zero", "x_plus_i_times_x_minus_i"])
    def test_zero_and_a_product_of_conjugates_are_real(self, p):
        assert p.is_real
        assert not (p + Polynomial([I])).is_real

    @given(polys_st)
    @settings(max_examples=40)
    def test_conjugate_of_a_shift_by_i_is_the_shift_by_minus_i(self, p):
        # conj(p(X+i)) is conj(p)(X-i), which is p(X-i) for p over Q.
        assert p.compose_affine(1, I).conjugate() == p.compose_affine(1, -I)

    def test_x_constant(self):
        assert X == Polynomial([0, 1])
        assert X(5) == 5

    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys_st, fractions_st, fractions_st, fractions_st)
    @settings(max_examples=60)
    def test_compose_affine_matches_evaluation(self, p, a, b, x):
        assert p.compose_affine(a, b)(x) == p(a * x + b)

    @given(
        gaussian_polys_st,
        st.one_of(st.just(0), st.just(GaussianRational(0)), scalars_st),
        scalars_st,
    )
    @example(  # denominators well beyond those drawn above
        Polynomial([GaussianRational(Fraction(1, 3**k), Fraction(-k, 7)) for k in range(12)]),
        GaussianRational(Fraction(2, 9), Fraction(-5, 4)),
        GaussianRational(Fraction(7, 6), Fraction(3, 10)),
    )
    @settings(max_examples=100)
    def test_compose_affine_matches_horner(self, p, a, b):
        got = p.compose_affine(a, b)
        ref = horner_compose_affine(p, a, b)
        assert got == ref
        assert [type(c) for c in got.coeffs] == [type(c) for c in ref.coeffs]

    @pytest.mark.parametrize("p", UNIT_SHIFT_INPUTS, ids=repr_id)
    @pytest.mark.parametrize("b", UNIT_SHIFTS, ids=str)
    def test_compose_affine_unit_shift_matches_horner(self, p, b):
        beta_re, beta_im, _ = _gaussian_integer_over(b)
        assert beta_re * beta_re + beta_im * beta_im == 1
        for a in (1, I, Fraction(-2, 3)):
            got = p.compose_affine(a, b)
            ref = horner_compose_affine(p, a, b)
            assert got == ref
            assert [type(c) for c in got.coeffs] == [type(c) for c in ref.coeffs]
            assert_canonical(got)

    def test_compose_affine_coefficient_types_are_uniform(self):
        fam = build_by_recurrence(8)
        shifted = fam.a(7).compose_affine(1, I)
        euler = fam.c(6).compose_affine(I, 0)
        for p in (shifted, euler):
            assert p.degree > 0
            assert all(type(c) is GaussianRational for c in p.coeffs)
        rational = fam.a(7).compose_affine(Fraction(1, 2), Fraction(-1, 3))
        assert rational.degree == fam.a(7).degree
        assert all(type(c) is Fraction for c in rational.coeffs)

    def test_subtraction_matches_negated_addition(self):
        p = Polynomial([1, I, HALF])
        q = Polynomial([GaussianRational(2, 1), 3, HALF, -I])
        for x, y in ((p, q), (q, p), (p, p)):
            diff = x - y
            assert diff == x + (-y)
            assert [type(c) for c in diff.coeffs] == [type(c) for c in (x + (-y)).coeffs]

    @given(gaussian_polys_st, gaussian_polys_st, scalars_st)
    @settings(max_examples=150)
    def test_arithmetic_matches_per_coefficient_reference(self, p, q, s):
        a, b = list(p.coeffs), list(q.coeffs)
        cases = [
            (p + q, reference_add(a, b)),
            (p - q, reference_add(a, b, -1)),
            (-p, [-x for x in a]),
            (p * q, reference_mul(a, b)),
        ]
        for scalar in (s, Fraction(s.re) if isinstance(s, GaussianRational) else s):
            cases.append((p * scalar, [x * scalar for x in a]))
            cases.append((scalar * p, [scalar * x for x in a]))
        for got, ref in cases:
            assert list(got.coeffs) == stripped(ref)
            gaussian = has_imaginary_part(ref)
            assert is_gaussian(got) == gaussian
            kind = GaussianRational if gaussian else Fraction
            assert all(type(c) is kind for c in got.coeffs)

    @given(gaussian_polys_st, gaussian_polys_st, scalars_st, scalars_st)
    @settings(max_examples=100)
    def test_every_result_is_canonical(self, p, q, a, b):
        results = [
            p, q, p + q, p - q, p - p, -p, p * q, p * a, a * p,
            p * 0, p.compose_affine(a, b), p.compose_affine(1, I),
            p.compose_affine(1, I).compose_affine(1, -I),
            Polynomial(p.coeffs), (q - q) * p,
        ]
        if not has_imaginary_part(p.coeffs):
            results.append(Polynomial.from_integers(*p.integers()))
        for r in results:
            assert_canonical(r)

    def test_layout_reduces_to_one_denominator(self):
        p = Polynomial([Fraction(1, 6), Fraction(-1, 4), 0, 0])
        assert (p._re, p._im, p._den) == ((2, -3), None, 12)
        q = Polynomial([GaussianRational(Fraction(1, 2), 1), Fraction(3, 2)])
        assert (q._re, q._im, q._den) == ((1, 3), (2, 0), 2)
        zero = Polynomial([HALF]) - Polynomial([HALF])
        assert (zero._re, zero._im, zero._den) == ((), None, 1)

    @pytest.mark.parametrize("change", [1, I], ids=["real", "imaginary"])
    def test_equality_reads_every_coefficient(self, change):
        p = Polynomial([Fraction(k + 1, k + 2) for k in range(41)])
        q = p + Polynomial.monomial(35, change)
        assert q != p and p != q
        assert q != q.conjugate() if change == I else q == q.conjugate()

    def test_zero_imaginary_part_compares_equal_to_rational(self):
        p = Polynomial([HALF, 0, 3])
        lifted = Polynomial([GaussianRational(HALF), 0, GaussianRational(3)])
        assert lifted == p and p == lifted
        assert hash(lifted) == hash(p)
        assert all(type(c) is Fraction for c in lifted.coeffs)
        assert lifted.coefficient(7) == 0
        assert type(lifted.coefficient(7)) is Fraction
        assert str(lifted) == str(p) == "3*X^2 + 1/2"
        assert Polynomial([I]) != Polynomial([0])
        assert type(Polynomial([I]).coefficient(7)) is GaussianRational

    def test_one_encoding_per_value(self):
        # Real values reached through Q(i) arithmetic store no imaginary
        # vector, so their layout is that of the same polynomial over Q.
        p = Polynomial([HALF, -3, 0, Fraction(2, 7)])
        cases = [
            (Polynomial([I, 1]) * Polynomial([-I, 1]), Polynomial([1, 0, 1])),
            (Polynomial([GaussianRational(3, 0)]), Polynomial([3])),
            (p.compose_affine(1, I).compose_affine(1, -I), p),
        ]
        for got, rational in cases:
            assert got._im is None
            assert all(type(c) is Fraction for c in got.coeffs)
            assert (got._re, got._im, got._den) == (rational._re, rational._im, rational._den)

    def test_exact_check_keeps_values_and_renders_json(self):
        p = Polynomial([HALF, I])
        passed = exact_check("id", "p = p", p, p + Polynomial())
        assert passed.status == PASS and passed.lhs is p
        assert passed.to_json_dict()["lhs"] == str(p) == "i*X + 1/2"
        failed = exact_check("id", "p = 2p", p, 2 * p)
        assert failed.status == FAIL
        assert failed.to_json_dict()["rhs"] == "2*i*X + 1"

    @given(polys_st, fractions_st)
    @settings(max_examples=60)
    def test_evaluation_is_ring_homomorphism(self, p, x):
        q = Polynomial([1, -2, 1])
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


# ---------------------------------------------------------------------------
# _linear_combination: one row sum, reduced once


def folded(terms, divisor):
    """The reference: per-coefficient schoolbook products and sums, divided
    at the end.  It reads no Polynomial arithmetic, whose ``*``, ``+`` and
    unary ``-`` are themselves rows of the kernel under test."""
    acc = []
    for s, p in terms:
        factor = list(s.coeffs) if isinstance(s, Polynomial) else [s]
        acc = reference_add(acc, reference_mul(factor, list(p.coeffs)))
    return Polynomial([x / divisor for x in acc])


# Polynomial factors of every length, with zero coefficients: each nonzero
# coefficient is one shifted term, and the zeros are skipped.
factors_st = st.one_of(
    scalars_st, st.just(0), gaussian_polys_st,
    st.lists(st.one_of(st.just(0), st.just(GaussianRational(0)), fractions_st, gaussians_st),
             max_size=6).map(Polynomial),
)
terms_st = st.lists(st.tuples(factors_st, gaussian_polys_st), max_size=6)


class TestLinearCombination:
    @given(terms_st, st.integers(1, 12))
    @example([], 1)
    @example([(0, Polynomial([1, 2])), (Polynomial(), Polynomial([I]))], 5)
    @example([(1, Polynomial())], 1)
    @example([(Polynomial([0, I, 0, 2]), Polynomial([1, 0, HALF])),
              (Polynomial([HALF, 0, -1]), X), (3, Polynomial([I])),
              (Polynomial([GaussianRational(0, HALF)]), Polynomial([0, 0, 1]))], 4)
    @settings(max_examples=150)
    def test_matches_left_fold(self, terms, divisor):
        got = _linear_combination(terms, divisor)
        ref = folded(terms, divisor)
        assert_canonical(got)
        assert got == ref
        assert [type(c) for c in got.coeffs] == [type(c) for c in ref.coeffs]

    @given(terms_st, st.integers(1, 12))
    @settings(max_examples=60)
    def test_cancelling_terms_give_the_canonical_zero(self, terms, divisor):
        negated = [(s, -p) for s, p in terms]
        for order in (terms + negated, negated + terms,
                      [t for pair in zip(terms, negated) for t in pair]):
            got = _linear_combination(order, divisor)
            assert_canonical(got)
            assert (got._re, got._im, got._den) == ((), None, 1)

    def test_accepts_a_one_shot_iterator(self):
        terms = iter([(2, X), (Fraction(-1, 3), Polynomial([1, 1]))])
        assert _linear_combination(terms, 2) == Polynomial([Fraction(-1, 6), Fraction(5, 6)])

    def test_polynomial_factor_is_convolved(self):
        got = _linear_combination([(X, X), (Polynomial([I, 1]), Polynomial([-I, 1]))])
        assert got == Polynomial([1, 0, 2])
        assert got._im is None


def long_polys(coeffs_st):
    """Polynomials of 21 to 37 coefficients, zeros among them."""
    return st.tuples(
        st.lists(st.one_of(st.just(0), coeffs_st), min_size=20, max_size=36),
        coeffs_st.filter(bool),
    ).map(lambda body_lead: Polynomial([*body_lead[0], body_lead[1]]))


# No workload multiplies two polynomials this long: in every polynomial
# product the routes and suites form, the shorter factor has at most 2
# coefficients.  These tests are what sees a fault in a long product.
long_polys_st = st.one_of(long_polys(fractions_st),
                          long_polys(st.one_of(fractions_st, gaussians_st)))


def schoolbook_series_product(a, b):
    """Coefficient n of the series product a*b as a coefficient list,
    sum_j a_j * b_{n-j}, by per-coefficient schoolbook products."""
    out = []
    for n in range(a.order + 1):
        acc = []
        for j in range(n + 1):
            acc = reference_add(acc, reference_mul(list(a.coeffs[j].coeffs),
                                                   list(b.coeffs[n - j].coeffs)))
        out.append(stripped(acc))
    return out


class TestLongProducts:
    @given(long_polys_st, long_polys_st)
    @example(Polynomial(range(1, 24)), Polynomial(range(-21, 0)))
    @example(Polynomial([GaussianRational(k, 1 - k) for k in range(1, 22)]),
             Polynomial([Fraction(k, 3) for k in range(1, 26)]))
    @settings(max_examples=40)
    def test_product_matches_schoolbook(self, p, q):
        ref = stripped(reference_mul(list(p.coeffs), list(q.coeffs)))
        for got in (p * q, q * p):
            assert_canonical(got)
            assert list(got.coeffs) == ref
            assert is_gaussian(got) == has_imaginary_part(ref)

    @given(long_polys_st, long_polys_st, gaussian_polys_st, st.integers(1, 12))
    @settings(max_examples=40)
    def test_linear_combination_with_long_factors_matches_schoolbook(self, s, p, q, divisor):
        terms = [(s, p), (q, s), (HALF, p), (p, q)]
        got = _linear_combination(terms, divisor)
        assert_canonical(got)
        assert got == folded(terms, divisor)

    def test_series_product_of_order_32_matches_schoolbook(self):
        # Coefficient n of a has degree min(n, 24) and of b max(24 - n, 1),
        # so products of two factors longer than 20 coefficients occur;
        # zeros among the coefficients; a is over Q and b over Q(i).
        order = 32
        a = series([Polynomial([Fraction(k - n, n + 1) if (n + k) % 3 else 0
                                for k in range(min(n, 24) + 1)])
                    for n in range(order + 1)], order)
        b = series([Polynomial([GaussianRational(Fraction(1, k + 1), n - 2 * k) if (n * k) % 4 else 1
                                for k in range(max(24 - n, 1) + 1)])
                    for n in range(order + 1)], order)
        for x, y in ((a, b), (b, a), (a, a)):
            got = x * y
            assert got.order == order
            assert [list(c.coeffs) for c in got.coeffs] == schoolbook_series_product(x, y)


# ---------------------------------------------------------------------------
# TruncatedSeries


def series(coeffs, order):
    return TruncatedSeries(coeffs, order)


class TestTruncatedSeries:
    def test_construction_pads_and_coerces(self):
        s = series([1, HALF], 3)
        assert s.order == 3
        assert s.coefficient(2) == Polynomial([])
        assert s.coefficient(0) == Polynomial([1])
        with pytest.raises(IndexError):
            s.coefficient(4)

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ValueError):
            series([1, 2, 3], 1)

    def test_valuation(self):
        assert series([0, 1], 3).valuation() == 1
        assert series([1], 3).valuation() == 0
        assert series([], 3).valuation() is None

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="mixed truncation orders"):
            series([1], 3) + series([1], 4)

    def test_truncate_cannot_extend(self):
        s = series([1, 2, 3], 2)
        assert s.truncate(1) == series([1, 2], 1)
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_geometric_series_division(self):
        one = series([1], 6)
        one_minus_t = series([1, -1], 6)
        geo = one / one_minus_t
        assert geo == series([1] * 7, 6)

    def test_division_cancels_valuation_and_reduces_order(self):
        # t^2 * (1 + t) / t = t * (1 + t) at one lower order
        num = series([0, 0, 1, 1], 5)
        den = series([0, 1], 5)
        q = num / den
        assert q.order == 4
        assert q == series([0, 1, 1], 4)

    def test_division_valuation_violation(self):
        with pytest.raises(ValueError, match="valuation"):
            series([1], 4) / series([0, 1], 4)

    def test_division_by_zero_series(self):
        with pytest.raises(ZeroDivisionError):
            series([1], 4) / series([], 4)

    def test_polynomial_coefficients(self):
        # s(x, t) = x + (x^2) t ; s * s has x^2 at t^0 and 2 x^3 at t^1
        s = series([X, X * X], 2)
        sq = s * s
        assert sq.coefficient(0) == X * X
        assert sq.coefficient(1) == 2 * (X * X * X)

    def test_division_by_gaussian_constant(self):
        # 1/i = -i
        assert series([1], 3) / series([I], 3) == series([-I], 3)

    def test_scalar_and_polynomial_multiplication(self):
        s = series([1, 1], 2)
        assert (HALF * s).coefficient(0) == Polynomial([HALF])
        assert (X * s).coefficient(1) == X

    @given(
        st.lists(fractions_st, min_size=1, max_size=5),
        st.lists(fractions_st, min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_division_round_trip(self, a, b):
        if b[0] == 0:
            b = [Fraction(1)] + b[1:]
        order = 5
        s = series(a, order)
        t = series(b, order)
        assert (s / t) * t == s


# ---------------------------------------------------------------------------
# Serialization


class TestSerialization:
    def test_rational_strings(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(-7) == "-7"

    def test_scalar_json_shapes(self):
        assert scalar_to_json(Fraction(1, 3)) == "1/3"
        assert scalar_to_json(7) == "7"
        assert scalar_to_json(GaussianRational(1, -HALF)) == {"re": "1", "im": "-1/2"}
        assert scalar_from_json("1/3") == Fraction(1, 3)
        assert scalar_from_json({"re": "0", "im": "2"}) == TWO_I

    @pytest.mark.parametrize("value", [
        0.1, 1.0, True, False, {"re": 0.5, "im": "1"}, {"re": "1", "im": True},
        Decimal("0.5"), {"re": "1", "im": Decimal(2)},
    ])
    def test_floats_and_bools_are_not_exact_scalars(self, value):
        # Fraction(0.1) would be 3602879701896397/36028797018963968, and
        # Fraction(Decimal("0.5")) 1/2, as from json.loads(parse_float=Decimal).
        with pytest.raises(ValueError):
            scalar_from_json(value)
        with pytest.raises(ValueError):
            poly_from_json([value, "1/3"])

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False, Decimal("0.1"), Decimal(2)])
    def test_writers_refuse_inexact_scalars(self, value):
        # str(Fraction(value)) would print 0.1 as
        # 3602879701896397/36028797018963968, True as 1 and Decimal("0.1")
        # as 1/10: none of them is an exact scalar.
        for write in (format_rational, scalar_to_json):
            with pytest.raises(TypeError, match=f"^not an exact scalar: {re.escape(repr(value))}$"):
                write(value)

    def test_integer_scalars_still_parse(self):
        assert poly_from_json([3, "1/3", {"re": 0, "im": -2}]) == Polynomial(
            [3, Fraction(1, 3), GaussianRational(0, -2)])

    def test_poly_round_trip(self):
        p = Polynomial([Fraction(1, 4), 0, 1, 0, Fraction(3, 4)])
        assert poly_from_json(poly_to_json(p)) == p

    @given(polys_st)
    @settings(max_examples=60)
    def test_poly_round_trip_property(self, p):
        assert poly_from_json(poly_to_json(p)) == p

    @given(st.lists(gaussians_st, max_size=4).map(Polynomial))
    @settings(max_examples=60)
    def test_gaussian_poly_round_trip(self, p):
        assert poly_from_json(poly_to_json(p)) == p


    @pytest.mark.parametrize("coeffs, text", [
        ([], "0"),
        ([Fraction(-1, 2)], "-1/2"),
        ([0, -1], "-X"),
        ([1, 0, -3, Fraction(2, 5)], "2/5*X^3 - 3*X^2 + 1"),
        ([-I, 2, I], "i*X^2 + 2*X - i"),
        ([GaussianRational(1, 1), GaussianRational(-1, -2), GaussianRational(0, -3), 1],
         "X^3 - 3*i*X^2 + (-1-2*i)*X + 1+i"),
        ([-2, GaussianRational(1, -1)], "(1-i)*X - 2"),
        ([0, 0, GaussianRational(0, Fraction(-1, 3))], "-1/3*i*X^2"),
    ])
    def test_polynomial_strings(self, coeffs, text):
        # A minus sign is pulled out of a coefficient on either axis, and a
        # coefficient off both axes is parenthesized.
        assert str(Polynomial(coeffs)) == text


# ---------------------------------------------------------------------------
# Triangle: a read-only (n, k) view over rows of polynomials


class TestTriangle:
    ROWS = (Polynomial([Fraction(1, 2), 0, Fraction(-4, 6)]), Polynomial(),
            Polynomial([3, Fraction(5, 7)]), Polynomial([0, 1]))

    def triangle(self):
        """Rows 1..3 of ROWS, row n over the powers 0..n."""
        return Triangle(self.ROWS, range(1, 4), lambda n: range(n + 1))

    def as_dict(self):
        return {(n, k): self.ROWS[n].coefficient(k) for n in range(1, 4) for k in range(n + 1)}

    def test_reads_the_coefficients_in_row_order(self):
        t = self.triangle()
        assert list(t) == list(self.as_dict()) == [
            (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]
        assert len(t) == 9
        assert t[(2, 1)] == Fraction(5, 7) and t[(3, 3)] == 0
        assert all(type(x) is Fraction for x in t.values())

    def test_compares_equal_to_the_dict_of_its_items(self):
        t = self.triangle()
        assert t == self.as_dict() and self.as_dict() == t and dict(t) == self.as_dict()
        changed = {**self.as_dict(), (1, 0): Fraction(1)}
        assert t != changed and changed != t
        assert Triangle(self.ROWS, range(1, 1), lambda n: range(n + 1)) == {}

    @pytest.mark.parametrize("key", [(0, 0), (4, 0), (1, 2), (2, -1), (-1, 0), "x", (1,),
                                     (1, 0, 0), None])
    def test_a_key_outside_the_triangle_is_a_key_error(self, key):
        t = self.triangle()
        with pytest.raises(KeyError):
            t[key]
        assert key not in t and t.get(key) is None

    def test_is_read_only(self):
        t = self.triangle()
        with pytest.raises(TypeError):
            t[(1, 0)] = Fraction(1)
        with pytest.raises(AttributeError):
            t.extra = 1

    @pytest.mark.parametrize("table, n", [("alpha", -1), ("u", 0), ("alpha", 5), ("u", 4)])
    def test_a_formatted_row_outside_the_triangle_is_a_key_error(self, table, n):
        # Row -1 of a list is its last row, and the u/v rows start at 1.
        triangle = (lambda_alpha_tables(build_by_recurrence(4)).alpha if table == "alpha"
                    else build_uv(3).u)
        with pytest.raises(KeyError):
            triangle.formatted_row(n)

    @given(st.lists(st.fractions(max_denominator=10**6), max_size=6).map(Polynomial),
           st.integers(0, 8))
    @settings(max_examples=100)
    def test_formatted_row_is_format_rational_of_the_row(self, p, width):
        t = Triangle((p,), range(1), lambda n: range(width))
        assert t.formatted_row(0) == [format_rational(t[(0, k)]) for k in range(width)]


# ---------------------------------------------------------------------------
# The storage layout is private to exact_core


def test_no_other_module_reads_the_polynomial_layout():
    """Outside exact_core a polynomial is read and built through
    ``from_integers``, ``integers`` and ``shifted`` (or coefficients), never
    through its stored vectors or ``_of``."""
    found = []
    for path in sorted(Path(acpolys.__file__).parent.glob("*.py")):
        if path.name == "exact_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_re", "_im", "_den"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_of":
                found.append(f"{path.name}:{node.lineno} ._of(")
    assert found == []


def test_no_other_module_reads_the_scalar_layout():
    """Outside exact_core a Gaussian rational is read through ``re`` and
    ``im`` and built through its constructor and arithmetic, never through
    its stored integers (``_of`` is covered above)."""
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in sorted(Path(acpolys.__file__).parent.glob("*.py"))
        if path.name != "exact_core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_x", "_y", "_d")
    ]
    assert found == []
