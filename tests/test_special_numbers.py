"""Oracle tests for Bernoulli/Euler polynomials and the two number sequences.

Every low-order value asserted here was computed by hand (defining
recurrences worked out with pencil) before the implementation existed; the
series-quotient constructors then cross-check the closed formulas to
n = 40 through a completely independent mechanism.
"""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from acpolys import special_numbers
from acpolys.exact_core import Polynomial
from acpolys.special_numbers import (
    bernoulli_numbers,
    bernoulli_numbers_series,
    bernoulli_poly,
    cos_series,
    cosecant_number,
    cosecant_numbers_series,
    euler_poly,
    exp_xt_series,
    sin_series,
    tangent_half_coeff,
    tangent_half_coeffs_series,
)

F = Fraction

# Frozen oracles (hand-computed from the defining recurrences).
BERNOULLI_ORACLE = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    3: F(0),
    4: F(-1, 30),
    5: F(0),
    6: F(1, 42),
    7: F(0),
    8: F(-1, 30),
    9: F(0),
    10: F(5, 66),
    11: F(0),
    12: F(-691, 2730),
}

COSECANT_ORACLE = {
    0: F(1),
    1: F(0),
    2: F(1, 3),
    3: F(0),
    4: F(7, 15),
    5: F(0),
    6: F(31, 21),
    8: F(127, 15),
}

TANGENT_ORACLE = {
    0: F(0),
    1: F(1, 2),
    2: F(0),
    3: F(1, 4),
    4: F(0),
    5: F(1, 2),
    7: F(17, 8),
    9: F(31, 2),
}

BERNOULLI_POLY_ORACLE = {
    0: Polynomial([1]),
    1: Polynomial([F(-1, 2), 1]),
    2: Polynomial([F(1, 6), -1, 1]),
    3: Polynomial([0, F(1, 2), F(-3, 2), 1]),
    4: Polynomial([F(-1, 30), 0, 1, -2, 1]),
}

EULER_POLY_ORACLE = {
    0: Polynomial([1]),
    1: Polynomial([F(-1, 2), 1]),
    2: Polynomial([0, -1, 1]),
    3: Polynomial([F(1, 4), 0, F(-3, 2), 1]),
    4: Polynomial([0, 1, 0, -2, 1]),
}


class TestBernoulliNumbers:
    def test_oracle_values(self):
        table = bernoulli_numbers(12)
        for n, expected in BERNOULLI_ORACLE.items():
            assert table[n] == expected, f"bernoulli[{n}]"

    def test_first_kind_convention(self):
        assert bernoulli_numbers(1)[1] == F(-1, 2)

    def test_odd_vanish_beyond_one(self):
        table = bernoulli_numbers(41)
        for n in range(3, 41, 2):
            assert table[n] == 0

    def test_defining_sum_vanishes(self):
        # sum_{k=0}^{n} C(n+1, k) beta_k = 0 for n >= 1
        from math import comb

        table = bernoulli_numbers(30)
        for n in range(1, 30):
            assert sum(comb(n + 1, k) * table[k] for k in range(n + 1)) == 0

    def test_series_cross_check(self):
        table = bernoulli_numbers(40)
        series_values = bernoulli_numbers_series(40)
        assert [table[n] for n in range(41)] == series_values


class TestBernoulliMemo:
    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(special_numbers, "_BETA", (F(1),))

    def test_values_are_reused(self):
        short, long = bernoulli_numbers(20), bernoulli_numbers(40)
        assert len(short) == 21 and len(long) == 41
        assert all(short[k] is long[k] for k in range(21))

    def test_independent_of_call_order(self, fresh_memo):
        series = bernoulli_numbers_series(48)
        for n_max in (40, 7, 0, 48):
            assert list(bernoulli_numbers(n_max)) == series[: n_max + 1]

    @pytest.mark.parametrize("steps", [(300,), (0, 5, 64, 300)])
    def test_integer_sums_match_series_to_300(self, fresh_memo, steps):
        series = bernoulli_numbers_series(300)
        for n_max in steps:
            values = bernoulli_numbers(n_max)
            assert list(values) == series[: n_max + 1]
        assert all(type(b) is F for b in values)

    def test_concurrent_callers_agree(self, fresh_memo):
        serial = bernoulli_numbers_series(60)
        sizes = [60, 13, 45, 2, 31, 60, 5, 52]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(bernoulli_numbers, sizes))
        for n_max, values in zip(sizes, results):
            assert list(values) == serial[: n_max + 1]


@pytest.mark.parametrize(
    "fn",
    [
        bernoulli_numbers,
        bernoulli_poly,
        euler_poly,
        cosecant_number,
        tangent_half_coeff,
    ],
)
@pytest.mark.parametrize("n", [-1, -2, -3])
def test_negative_index_raises(fn, n):
    with pytest.raises(ValueError, match="n must be >= 0"):
        fn(n)


class TestBernoulliPolynomials:
    def test_oracle_polys(self):
        for n, expected in BERNOULLI_POLY_ORACLE.items():
            assert bernoulli_poly(n) == expected, f"B_{n}"

    def test_constant_term_is_bernoulli_number(self):
        table = bernoulli_numbers(15)
        for n in range(16):
            assert bernoulli_poly(n).coefficient(0) == table[n]

    def test_forward_difference(self):
        # B_n(X+1) - B_n(X) = n X^(n-1)
        for n in range(1, 21):
            b = bernoulli_poly(n)
            diff = b.compose_affine(1, 1) - b
            assert diff == Polynomial.monomial(n - 1, n), f"n={n}"

    def test_monic(self):
        for n in range(10):
            assert bernoulli_poly(n).leading() == 1

    def test_built_once_and_shared_with_euler(self, monkeypatch):
        monkeypatch.setattr(special_numbers, "_B_POLY", {})
        with pytest.raises(ValueError):
            bernoulli_poly(-1)
        assert special_numbers._B_POLY == {}
        euler_poly(7)
        assert list(special_numbers._B_POLY) == [8]
        assert bernoulli_poly(8) is special_numbers._B_POLY[8] is bernoulli_poly(8)


class TestEulerPolynomials:
    def test_oracle_polys(self):
        for n, expected in EULER_POLY_ORACLE.items():
            assert euler_poly(n) == expected, f"E_{n}"

    def test_reflection_sum(self):
        # E_n(X) + E_n(X+1) = 2 X^n
        for n in range(18):
            e = euler_poly(n)
            assert e + e.compose_affine(1, 1) == Polynomial.monomial(n, 2), f"n={n}"

    def test_boundary_values(self):
        assert euler_poly(0)(0) + euler_poly(0)(1) == 2
        for n in range(1, 15):
            e = euler_poly(n)
            assert e(0) + e(1) == 0, f"n={n}"

    def test_monic(self):
        for n in range(10):
            assert euler_poly(n).leading() == 1


class TestCosecantNumbers:
    def test_oracle_values(self):
        for n, expected in COSECANT_ORACLE.items():
            assert cosecant_number(n) == expected, f"cs({n})"

    def test_odd_vanish(self):
        for n in range(1, 41, 2):
            assert cosecant_number(n) == 0

    def test_even_positive(self):
        for n in range(0, 41, 2):
            assert cosecant_number(n) > 0

    def test_series_cross_check_to_40(self):
        closed = [cosecant_number(n) for n in range(41)]
        assert closed == cosecant_numbers_series(40)


class TestTangentHalfCoeffs:
    def test_oracle_values(self):
        for n, expected in TANGENT_ORACLE.items():
            assert tangent_half_coeff(n) == expected, f"d_{n}"

    def test_even_vanish(self):
        for n in range(0, 41, 2):
            assert tangent_half_coeff(n) == 0

    def test_odd_positive(self):
        for n in range(1, 41, 2):
            assert tangent_half_coeff(n) > 0

    def test_series_cross_check_to_40(self):
        closed = [tangent_half_coeff(n) for n in range(41)]
        assert closed == tangent_half_coeffs_series(40)


class TestSeriesConstructors:
    def test_sin_series_coefficients(self):
        s = sin_series(5)
        expected = [0, 1, 0, F(-1, 6), 0, F(1, 120)]
        for n, c in enumerate(expected):
            assert s.coefficient(n) == Polynomial([c]), f"t^{n}"

    def test_cos_series_coefficients(self):
        s = cos_series(4)
        expected = [1, 0, F(-1, 2), 0, F(1, 24)]
        for n, c in enumerate(expected):
            assert s.coefficient(n) == Polynomial([c]), f"t^{n}"

    def test_exp_xt_coefficients_are_monomials(self):
        from math import factorial

        s = exp_xt_series(6)
        for n in range(7):
            assert s.coefficient(n) == Polynomial.monomial(n, F(1, factorial(n)))

    def test_pythagorean_identity_truncated(self):
        from acpolys.exact_core import TruncatedSeries

        order = 9
        s = sin_series(order)
        c = cos_series(order)
        one = TruncatedSeries([Polynomial([1])], order)
        assert s * s + c * c == one

    def test_sine_double_angle(self):
        order = 8
        assert sin_series(order, 1) == 2 * (
            sin_series(order, F(1, 2)) * cos_series(order, F(1, 2))
        )
