"""Exact arithmetic: Gaussian rationals, dense polynomials, truncated series.

Scalars are ``fractions.Fraction`` (arbitrary precision, always stored
reduced with a positive denominator) or :class:`GaussianRational`, a pair
of Fractions representing ``re + im*i``, i.e. an element of the field Q(i).

:class:`Polynomial` is a dense polynomial over Q or Q(i) stored as
integers: the numerators of its coefficients, lowest degree first, over one
positive common denominator, with the highest stored coefficient nonzero
and the whole reduced by its gcd (FLINT's ``fmpq_poly`` layout).  Its
arithmetic is integer vector arithmetic, reduced once per operation, and
Fraction/GaussianRational coefficients are built only when read or
printed.  Each value has one encoding: the imaginary vector is stored
only when it is nonzero, so every coefficient of a polynomial is a
GaussianRational exactly when some coefficient has a nonzero imaginary
part, and a Fraction otherwise, however the polynomial was built.
:class:`TruncatedSeries` is a vector of polynomials in x
indexed by the power of t, exact modulo t**(order+1).

No floating point enters this module.  All values are immutable after
construction and every operation is a pure function, so values are safe to
share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

    def norm(self) -> Fraction:
        """The field norm re**2 + im**2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

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
        # Square-and-multiply on the Gaussian integer x + y*i = self * d.
        x, y, d = _gaussian_integer_over(self)
        re, im = 1, 0
        e = exponent
        while e:
            if e & 1:
                re, im = re * x - im * y, re * y + im * x
            x, y = x * x - y * y, 2 * x * y
            e >>= 1
        d **= exponent
        return GaussianRational(Fraction(re, d), Fraction(im, d))

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


def _axpy(a: Sequence[int], ma: int, b: Sequence[int], mb: int) -> list:
    """[ma*a_k + mb*b_k] over the longer length, the shorter vector padded
    with zeros."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = [x * ma + y * mb for x, y in zip(a, b)]
    out.extend(x * ma for x in a[len(b):])
    return out


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """The integer convolution of a and b (the product of two polynomials'
    numerator vectors); zero entries of the shorter vector are skipped."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    width = len(b)
    out = [0] * (len(a) + width - 1)
    for j, x in enumerate(a):
        if x:
            out[j:j + width] = [o + x * y for o, y in zip(out[j:j + width], b)]
    return out


class Polynomial:
    """Dense polynomial over Q or Q(i), stored as integers over one denominator.

    ``_re`` holds the integer numerators of the real parts, lowest degree
    first; ``_im`` holds those of the imaginary parts, or is ``None`` when
    every imaginary part is zero; ``_den`` is the one positive common
    denominator.  So coefficient k is ``(_re[k] + _im[k]*i) / _den``.  Every
    instance is canonical, so ``(_re, _im, _den)`` is unique per value:
    trailing zero coefficients are stripped (the zero polynomial stores an
    empty ``_re`` and has degree -1), ``_im`` is ``None`` or has a nonzero
    entry, and ``gcd(_den, *_re, *_im)`` is 1, which makes ``_den == 1`` for
    the zero polynomial.  This is the content/primitive-part layout of
    FLINT's ``fmpq_poly``: each operation works on integer vectors and
    reduces once, at the end.

    The coefficient type follows the value: every coefficient, also the
    zero beyond the degree, is a GaussianRational when ``_im`` is stored
    and a Fraction otherwise.  Scalars are built only when a coefficient is
    read (``coeffs``, ``coefficient``, ``leading``, evaluation, printing).
    """

    __slots__ = ("_re", "_im", "_den")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        parts = [_gaussian_integer_over(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        return cls._of([x * (den // d) for x, _, d in parts],
                       [y * (den // d) for _, y, d in parts], den)

    @classmethod
    def _of(cls, re: Sequence[int], im, den: int) -> "Polynomial":
        """The polynomial (re + im*i)/den, for integer vectors re and im
        (im None for all zeros, and no longer than re) and den > 0, in its
        one encoding: im dropped when all zero, trailing zeros stripped,
        reduced once."""
        p = object.__new__(cls)
        n = len(re)
        if im is not None and not any(im):
            im = None
        if im is None:
            while n and not re[n - 1]:
                n -= 1
        else:
            if len(im) < n:
                im = [*im, *(0,) * (n - len(im))]
            while n and not (re[n - 1] or im[n - 1]):
                n -= 1
        if not n:
            p._re, p._im, p._den = (), None, 1
            return p
        re = re[:n]
        g = gcd(den, *re)
        if im is not None:
            im = im[:n]
            if g != 1:
                g = gcd(g, *im)
        if g != 1:
            re = [x // g for x in re]
            if im is not None:
                im = [y // g for y in im]
            den //= g
        p._re = tuple(re)
        p._im = None if im is None else tuple(im)
        p._den = den
        return p

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """The polynomial coeff * X**power."""
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [coeff])

    def _scalar(self, k: int) -> Scalar:
        re = Fraction(self._re[k], self._den)
        if self._im is None:
            return re
        return GaussianRational(re, Fraction(self._im[k], self._den))

    def _zero_scalar(self) -> Scalar:
        return Fraction(0) if self._im is None else GaussianRational(0)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._scalar(k) for k in range(len(self._re)))

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    @property
    def is_zero(self) -> bool:
        return not self._re

    def coefficient(self, power: int) -> Scalar:
        """The coefficient of X**power (zero beyond the degree)."""
        if 0 <= power < len(self._re):
            return self._scalar(power)
        return self._zero_scalar()

    def leading(self) -> Scalar:
        """The highest nonzero coefficient; zero for the zero polynomial."""
        return self._scalar(-1) if self._re else self._zero_scalar()

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other over the lcm of the two denominators."""
        g = gcd(self._den, other._den)
        ma, mb = other._den // g, sign * (self._den // g)
        re = _axpy(self._re, ma, other._re, mb)
        im = None
        if self._im is not None or other._im is not None:
            im = _axpy(self._im or (), ma, other._im or (), mb)
        return Polynomial._of(re, im, self._den * ma)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        im = None if self._im is None else [-y for y in self._im]
        return Polynomial._of([-x for x in self._re], im, self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            ar, ai, br, bi = self._re, self._im, other._re, other._im
            re = _convolve(ar, br)
            im = None
            if ai is not None and bi is not None:
                re = _axpy(re, 1, _convolve(ai, bi), -1)
            if bi is not None:
                im = _convolve(ar, bi)
            if ai is not None:
                im = _axpy(im or (), 1, _convolve(ai, br), 1)
            return Polynomial._of(re, im, self._den * other._den)
        try:
            sr, si, sd = _gaussian_integer_over(other)
        except TypeError:
            return NotImplemented
        re, im = self._re, self._im
        if im is None:
            new_re = [x * sr for x in re]
            new_im = [x * si for x in re] if si else None
        elif si:
            new_re = [x * sr - y * si for x, y in zip(re, im)]
            new_im = [x * si + y * sr for x, y in zip(re, im)]
        else:
            new_re = [x * sr for x in re]
            new_im = [y * sr for y in im]
        return Polynomial._of(new_re, new_im, self._den * sd)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self._re, self._im, self._den) == (other._re, other._im, other._den)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def __call__(self, x: Scalar) -> Scalar:
        """Exact evaluation at x, by Horner's rule on integers.

        With x = (u + v*i)/q, n = degree and numerators
        n_k = _re[k] + _im[k]*i, the value is
        sum_k n_k (u + v*i)**k q**(n-k) over _den * q**n.
        """
        u, v, q = _gaussian_integer_over(x)
        re, im = self._re, self._im
        gaussian = im is not None or isinstance(x, GaussianRational)
        if not re:
            return GaussianRational(0) if gaussian else Fraction(0)
        if im is None:
            im = (0,) * len(re)
        acc_re = acc_im = 0
        scale = 1  # q**(n-k) for the coefficient k being added
        for k in range(len(re) - 1, -1, -1):
            acc_re, acc_im = (
                acc_re * u - acc_im * v + re[k] * scale,
                acc_re * v + acc_im * u + im[k] * scale,
            )
            scale *= q
        den = self._den * (scale // q)
        if gaussian:
            return GaussianRational(Fraction(acc_re, den), Fraction(acc_im, den))
        return Fraction(acc_re, den)

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """Return p(a*X + b), computed exactly by a Taylor shift over Z[i].

        With p = sum_j c_j X**j where c_j = n_j / D (n_j Gaussian integers,
        D = _den), b = beta/d_b and a = alpha/d_a (beta, alpha Gaussian
        integers, d_b, d_a positive integers), and N = degree,

            D * d_b**N * p(X + b) = s(d_b*X + beta)
                where s(Z) = sum_j n_j * d_b**(N-j) * Z**j,

        so the Gaussian-integer polynomial s is shifted by beta with the
        classical O(N**2) additions-only scheme (von zur Gathen & Gerhard,
        "Fast algorithms for Taylor shifts and certain difference
        equations", ISSAC 1997), and coefficient k of the result is
        s(Z + beta)_k * (d_b*alpha)**k * d_a**(N-k) over the one
        denominator D * d_b**N * d_a**N, reduced once.  Like every result,
        it stores an imaginary vector only when that vector is nonzero.
        """
        if not self._re:
            return self
        beta_re, beta_im, d_b = _gaussian_integer_over(b)
        alpha_re, alpha_im, d_a = _gaussian_integer_over(a)

        # s_j = n_j * d_b**(N-j), as separate integer real/imaginary lists.
        n = len(self._re) - 1
        re = list(self._re)
        im = list(self._im) if self._im is not None else [0] * (n + 1)
        if d_b != 1:
            scale = 1
            for j in range(n, -1, -1):
                re[j] *= scale
                im[j] *= scale
                scale *= d_b

        # s(Z) -> s(Z + beta); after pass i, coefficient i is final.
        if beta_im == 0 and self._im is None:
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

        # Coefficient k: times (d_b*alpha)**k * d_a**(N-k).
        w_re, w_im = d_b * alpha_re, d_b * alpha_im
        p_re, p_im = 1, 0
        for k in range(n + 1):
            x, y = re[k], im[k]
            if d_a != 1:
                x, y = x * d_a ** (n - k), y * d_a ** (n - k)
            re[k] = x * p_re - y * p_im
            im[k] = x * p_im + y * p_re
            p_re, p_im = p_re * w_re - p_im * w_im, p_re * w_im + p_im * w_re
        return Polynomial._of(re, im, self._den * (d_b * d_a) ** n)

    def rational_coefficients(self) -> "Polynomial":
        """This polynomial, asserted to be over Q: raises ValueError if any
        coefficient has a nonzero imaginary part."""
        if self._im is not None:
            raise ValueError(f"nonzero imaginary part in {self!r}")
        return self

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        pieces = []
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
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
        return f"Polynomial({list(self.coeffs)!r})"


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
        if not isinstance(other, (Polynomial, int, Fraction, GaussianRational)):
            return NotImplemented
        return TruncatedSeries([c * other for c in self._coeffs], self._order)

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
        inv = 1 / lead.coefficient(0)
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
