"""Unit and property tests for the exact scalar/polynomial/series tower."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acpolys.ac_families import build_by_recurrence
from acpolys.report import FAIL, PASS, exact_check
from acpolys.exact_core import (
    GaussianRational,
    I,
    Polynomial,
    TruncatedSeries,
    TWO_I,
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


class TestGaussianRational:
    def test_constructor_coerces(self):
        z = GaussianRational(1, HALF)
        assert z.re == 1 and z.im == HALF
        assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)

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

    @given(gaussians_st, gaussians_st)
    def test_conjugation_is_multiplicative(self, u, v):
        assert conj(u * v) == conj(u) * conj(v)

    @given(gaussians_st, gaussians_st)
    def test_norm_is_multiplicative(self, u, v):
        assert (u * v).norm() == u.norm() * v.norm()

    @given(gaussians_st, gaussians_st)
    def test_division_inverts_multiplication(self, u, v):
        if v.norm() == 0:
            return
        assert (u / v) * v == u

    @given(gaussians_st)
    def test_norm_is_conjugate_product(self, u):
        assert u * conj(u) == GaussianRational(u.norm(), 0)


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

    def test_coefficient_beyond_degree_is_zero(self):
        p = Polynomial([1, 2])
        assert p.coefficient(5) == 0
        assert isinstance(p.coefficient(5), Fraction)

    def test_evaluation_horner(self):
        p = Polynomial([1, 2, 3])
        assert p(HALF) == Fraction(11, 4)
        assert p(0) == 1
        assert Polynomial([])(7) == 0

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

    def test_rational_coefficients_asserts_realness(self):
        p = Polynomial([GaussianRational(1), GaussianRational(2)])
        assert all(isinstance(c, Fraction) for c in p.coeffs)
        back = p.rational_coefficients()
        assert back is p
        assert back == Polynomial([1, 2])
        with pytest.raises(ValueError):
            Polynomial([I]).rational_coefficients()

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
            results.append(p.rational_coefficients())
        for r in results:
            assert_canonical(r)

    def test_layout_reduces_to_one_denominator(self):
        p = Polynomial([Fraction(1, 6), Fraction(-1, 4), 0, 0])
        assert (p._re, p._im, p._den) == ((2, -3), None, 12)
        q = Polynomial([GaussianRational(Fraction(1, 2), 1), Fraction(3, 2)])
        assert (q._re, q._im, q._den) == ((1, 3), (2, 0), 2)
        zero = Polynomial([HALF]) - Polynomial([HALF])
        assert (zero._re, zero._im, zero._den) == ((), None, 1)

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

    def test_scalar_json_shapes(self):
        assert scalar_to_json(Fraction(1, 3)) == "1/3"
        assert scalar_to_json(GaussianRational(1, -HALF)) == {"re": "1", "im": "-1/2"}
        assert scalar_from_json("1/3") == Fraction(1, 3)
        assert scalar_from_json({"re": "0", "im": "2"}) == TWO_I

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
