"""Exact arithmetic: Gaussian rationals, dense polynomials, truncated series.

Scalars are ``fractions.Fraction`` (arbitrary precision, always stored
reduced with a positive denominator) or :class:`GaussianRational`, a pair
of Fractions representing ``re + im*i``, i.e. an element of the field Q(i).

:class:`Polynomial` is a dense coefficient vector over either scalar kind,
lowest degree first, with the highest stored coefficient nonzero (the zero
polynomial stores no coefficients).  :class:`TruncatedSeries` is a vector
of polynomials in x indexed by the power of t, exact modulo t**(order+1).

No floating point enters this module.  All values are immutable after
construction and every operation is a pure function, so values are safe to
share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element of Q(i): ``re + im*i`` with exact rational parts.

    Arithmetic is exact; a value is real iff ``im == 0`` exactly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re**2 + im**2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def real_part(self) -> Fraction:
        """Downcast to Fraction; raises if the value is not real."""
        if self.im != 0:
            raise ValueError(f"nonzero imaginary part in {self!r}")
        return self.re

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            re, im = other.re, other.im
            if not im:
                return GaussianRational(self.re * re, self.im * re)
            if not re:
                return GaussianRational(-(self.im * im), self.re * im)
            return GaussianRational(
                self.re * re - self.im * im, self.re * im + self.im * re
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self):
        # Real values hash like their Fraction, keeping mixed-scalar
        # containers consistent with ==.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        return f"{self.re}{sign}{mag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


#: The imaginary unit i and the constant 2i.
I = GaussianRational(0, 1)
TWO_I = GaussianRational(0, 2)


def _gaussian_integer_over(value: Scalar) -> tuple:
    """``(re, im, d)``: integers with value == (re + im*i)/d and d > 0."""
    if isinstance(value, GaussianRational):
        x, y = value.re, value.im
    elif isinstance(value, (int, Fraction)):
        x, y = value, 0
    else:
        raise TypeError(f"not an exact scalar: {value!r}")
    d = lcm(x.denominator, y.denominator)
    return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d


def _as_coefficient(value) -> Scalar:
    """Coerce a constructor argument to an exact scalar."""
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Polynomial:
    """Dense polynomial over Fraction or GaussianRational coefficients.

    Coefficients are stored lowest degree first; trailing zeros are
    stripped so the highest stored coefficient is nonzero.  The zero
    polynomial stores an empty tuple and has degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        items = [_as_coefficient(c) for c in coeffs]
        while items and not items[-1]:
            items.pop()
        self._coeffs = tuple(items)

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """The polynomial coeff * X**power."""
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [coeff])

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Scalar:
        """The coefficient of X**power (zero beyond the degree)."""
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def leading(self) -> Scalar:
        """The highest nonzero coefficient; zero for the zero polynomial."""
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] = summed[k] + c
        return Polynomial(summed)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) >= len(b):
            diff = list(a)
            for k, c in enumerate(b):
                diff[k] = diff[k] - c
        else:
            diff = [-c for c in b]
            for k, c in enumerate(a):
                diff[k] = c - b[k]
        return Polynomial(diff)

    def __neg__(self):
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for j, cj in enumerate(self._coeffs):
                if not cj:
                    continue
                for k, ck in enumerate(other._coeffs):
                    out[j + k] = out[j + k] + cj * ck
            return Polynomial(out)
        try:
            scalar = _as_coefficient(other)
        except TypeError:
            return NotImplemented
        return Polynomial([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self._coeffs) != len(other._coeffs):
            return False
        return all(a == b for a, b in zip(self._coeffs, other._coeffs))

    def __hash__(self):
        return hash(self._coeffs)

    def __call__(self, x: Scalar) -> Scalar:
        """Exact evaluation at x (Horner)."""
        acc: Scalar = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """Return p(a*X + b), computed exactly by a Taylor shift over Z[i].

        With a common denominator D of the coefficients, b = beta/d_b and
        a = alpha/d_a (beta, alpha Gaussian integers, d_b, d_a positive
        integers), and N = degree,

            D * d_b**N * p(X + b) = s(d_b*X + beta)
                where s(Z) = sum_j D*c_j * d_b**(N-j) * Z**j,

        so the Gaussian-integer polynomial s is shifted by beta with the
        classical O(N**2) additions-only scheme (von zur Gathen & Gerhard,
        "Fast algorithms for Taylor shifts and certain difference
        equations", ISSAC 1997), and coefficient k of the result is
        s(Z + beta)_k * (d_b*alpha)**k / (D * d_b**N * d_a**k).  Each output
        coefficient is reduced once.  The coefficients are all
        GaussianRational when a, b or any coefficient of p is one, and all
        Fraction otherwise.
        """
        coeffs = self._coeffs
        if not coeffs:
            return Polynomial()
        gaussian = any(
            isinstance(v, GaussianRational) for v in (a, b, *coeffs)
        )
        parts = [
            (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
            for c in coeffs
        ]
        den = lcm(*(x.denominator for pair in parts for x in pair))
        beta_re, beta_im, d_b = _gaussian_integer_over(b)
        alpha_re, alpha_im, d_a = _gaussian_integer_over(a)

        # s_j = D*c_j * d_b**(N-j), as separate integer real/imaginary lists.
        n = len(coeffs) - 1
        re = [0] * (n + 1)
        im = [0] * (n + 1)
        scale = den
        for j in range(n, -1, -1):
            x, y = parts[j]
            re[j] = x.numerator * (scale // x.denominator)
            im[j] = y.numerator * (scale // y.denominator)
            scale *= d_b

        # s(Z) -> s(Z + beta); after pass i, coefficient i is final.
        if beta_im == 0 and not any(im):
            if beta_re:
                for i in range(n):
                    for j in range(n - 1, i - 1, -1):
                        re[j] += beta_re * re[j + 1]
        elif beta_re or beta_im:
            for i in range(n):
                for j in range(n - 1, i - 1, -1):
                    x, y = re[j + 1], im[j + 1]
                    re[j] += beta_re * x - beta_im * y
                    im[j] += beta_re * y + beta_im * x

        # Coefficient k: times (d_b*alpha)**k, over D * d_b**N * d_a**k.
        w_re, w_im = d_b * alpha_re, d_b * alpha_im
        p_re, p_im = 1, 0
        denom = den * d_b ** n
        out = []
        for k in range(n + 1):
            x = re[k] * p_re - im[k] * p_im
            y = re[k] * p_im + im[k] * p_re
            if gaussian:
                out.append(GaussianRational(Fraction(x, denom), Fraction(y, denom)))
            else:
                out.append(Fraction(x, denom))
            p_re, p_im = p_re * w_re - p_im * w_im, p_re * w_im + p_im * w_re
            denom *= d_a
        return Polynomial(out)

    def lift_gaussian(self) -> "Polynomial":
        """The same polynomial with every coefficient in Q(i)."""
        return Polynomial(
            [c if isinstance(c, GaussianRational) else GaussianRational(c)
             for c in self._coeffs]
        )

    def rational_coefficients(self) -> "Polynomial":
        """Downcast Q(i) coefficients to Fraction; raises if any im != 0."""
        out = []
        for c in self._coeffs:
            if isinstance(c, GaussianRational):
                out.append(c.real_part())
            else:
                out.append(c)
        return Polynomial(out)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if not c:
                continue
            # Pull a minus sign out of coefficients with a definite sign
            # (rationals, and Gaussian values on either axis) so the
            # rendering reads "- q*X^k" rather than "+ -q*X^k".
            if isinstance(c, GaussianRational):
                if c.im == 0:
                    negative = c.re < 0
                elif c.re == 0:
                    negative = c.im < 0
                else:
                    negative = False
            else:
                negative = c < 0
            mag = -c if negative else c
            if power == 0:
                body = f"{mag}"
            else:
                var = "X" if power == 1 else f"X^{power}"
                mag_str = str(mag)
                if mag == 1:
                    body = var
                elif isinstance(mag, GaussianRational) and mag.re != 0 and mag.im != 0:
                    body = f"({mag_str})*{var}"
                else:
                    body = f"{mag_str}*{var}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"


#: The indeterminate, as a rational polynomial.
X = Polynomial([0, 1])


class TruncatedSeries:
    """Power series in t with Polynomial (in x) coefficients, truncated.

    A ``TruncatedSeries`` of order N stores the coefficients of
    t**0 .. t**N and represents an expansion exact modulo t**(N+1).
    The order is fixed at construction; combining series of different
    orders is an error rather than a silent re-truncation.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Sequence, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        polys = []
        for c in coeffs:
            if isinstance(c, Polynomial):
                polys.append(c)
            else:
                polys.append(Polynomial([c]))
        if len(polys) > order + 1:
            raise ValueError(
                f"{len(polys)} coefficients exceed truncation order {order}"
            )
        polys.extend(Polynomial() for _ in range(order + 1 - len(polys)))
        self._coeffs = tuple(polys)
        self._order = order

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> Polynomial:
        """The polynomial coefficient of t**n."""
        if not 0 <= n <= self._order:
            raise IndexError(f"t-power {n} outside truncation order {self._order}")
        return self._coeffs[n]

    def valuation(self) -> "int | None":
        """Index of the first nonzero coefficient; None for the zero series."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero:
                return n
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        """Explicitly drop to a lower truncation order."""
        if order > self._order:
            raise ValueError(f"cannot extend order {self._order} to {order}")
        return TruncatedSeries(self._coeffs[: order + 1], order)

    def _check_order(self, other: "TruncatedSeries"):
        if self._order != other._order:
            raise ValueError(
                f"mixed truncation orders: {self._order} vs {other._order}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self._coeffs, other._coeffs)], self._order
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self._coeffs, other._coeffs)], self._order
        )

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs], self._order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            out = [Polynomial() for _ in range(self._order + 1)]
            for j, cj in enumerate(self._coeffs):
                if cj.is_zero:
                    continue
                for k in range(self._order + 1 - j):
                    ck = other._coeffs[k]
                    if not ck.is_zero:
                        out[j + k] = out[j + k] + cj * ck
            return TruncatedSeries(out, self._order)
        if isinstance(other, Polynomial):
            return TruncatedSeries(
                [c * other for c in self._coeffs], self._order
            )
        try:
            scalar = _as_coefficient(other)
        except TypeError:
            return NotImplemented
        return TruncatedSeries([c * scalar for c in self._coeffs], self._order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact series division with valuation cancellation.

        Requires valuation(other) <= valuation(self); cancels
        t**valuation(other) from both sides, so the quotient's order drops
        to ``order - valuation(other)``.  After cancellation the divisor
        must have an invertible (nonzero scalar) constant term.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        vu = other.valuation()
        if vu is None:
            raise ZeroDivisionError("division by the zero series")
        vs = self.valuation()
        if vs is not None and vs < vu:
            raise ValueError(
                f"denominator valuation {vu} exceeds numerator valuation {vs};"
                " the quotient is not a power series"
            )
        new_order = self._order - vu
        if new_order < 0:
            raise ValueError("valuation cancellation exhausts the truncation order")
        num = self._coeffs[vu:]
        den = other._coeffs[vu:]
        lead = den[0]
        if lead.degree != 0:
            raise ValueError(
                "divisor constant term after cancellation must be a scalar,"
                f" got degree {lead.degree}"
            )
        lead_scalar = lead.coefficient(0)
        if isinstance(lead_scalar, GaussianRational):
            inv = GaussianRational(1) / lead_scalar
        else:
            inv = Fraction(1) / lead_scalar
        quotient: list[Polynomial] = []
        for n in range(new_order + 1):
            acc = num[n]
            for j in range(1, min(n, len(den) - 1) + 1):
                dj = den[j]
                if not dj.is_zero:
                    acc = acc - dj * quotient[n - j]
            quotient.append(acc * inv)
        return TruncatedSeries(quotient, new_order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        parts = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedSeries([{parts}], order={self._order})"


# ---------------------------------------------------------------------------
# Exact-value serialization: the contract for all JSON output.
# Rationals render as "p/q" strings (bare "p" when q == 1), Gaussian
# rationals as {"re": "p/q", "im": "p/q"}, polynomials as ordered
# coefficient arrays, low degree first.  Never floats.


def format_rational(value: Rat) -> str:
    return str(Fraction(value))


def scalar_to_json(value: Scalar):
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    return str(Fraction(value))


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict):
        return GaussianRational(Fraction(obj["re"]), Fraction(obj["im"]))
    return Fraction(obj)


def poly_to_json(p: Polynomial) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def poly_from_json(items: Sequence) -> Polynomial:
    return Polynomial([scalar_from_json(c) for c in items])
