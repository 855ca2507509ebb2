"""Exact arithmetic: Gaussian rationals, dense polynomials, truncated series.

Scalars are ``fractions.Fraction`` (always reduced, denominator > 0) or
:class:`GaussianRational`, an element of Q(i) stored like one polynomial
coefficient: Gaussian-integer numerators over one positive denominator.

:class:`Polynomial` is a dense polynomial over Q or Q(i) stored as integer
numerators over one common denominator (FLINT's ``fmpq_poly`` layout; see
the class).  Its arithmetic is integer vector arithmetic, and scalars are
built only when a coefficient is read or printed.  The layout belongs to
this module alone: other modules read and build polynomials over Q as
integers through ``Polynomial.from_integers``, ``integers`` and
``shifted``, or as scalars through the coefficients, ask which field a
polynomial is over through ``is_real``, and read a Gaussian rational
through ``re`` and ``im``.  :class:`Triangle` is a read-only (n, k) table
over rows of polynomials, and :class:`TruncatedSeries` a vector of
polynomials in x indexed by the power of t, exact modulo t**(order+1).

A sum of scaled polynomials, sum_k s_k * p_k, is one row of scalars times
shifted integer vectors, reduced once (``_linear_combination``): a
polynomial factor adds one shifted term per nonzero coefficient.  ``+``,
``-``, ``*`` and unary ``-`` are its cases, and the routes and checks of
``ac_families``, ``special_numbers`` and ``generalized_uv`` and the series
product and quotient sum each of their rows with it.

No floating point enters this module.  No public attribute of a value
can be set, and every operation is a pure function, so values are safe to
share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]
Scalar = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element ``re + im*i`` of Q(i), stored like a Polynomial coefficient:
    the value is ``(_x + _y*i) / _d`` with ``_d > 0`` and no factor common
    to all three, reduced once per operation.  ``re`` and ``im`` are
    read-only Fractions; a value is real iff ``im == 0``."""

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re: Rat = 0, im: Rat = 0):
        re, im = _exact_rational(re), _exact_rational(im)
        return cls._of(re.numerator * im.denominator, im.numerator * re.denominator,
                       re.denominator * im.denominator)

    @classmethod
    def _of(cls, x: int, y: int, d: int) -> "GaussianRational":
        """(x + y*i)/d for integers x, y and d > 0, reduced once."""
        z = object.__new__(cls)
        g = gcd(d, x, y)  # d first: gcd stops at a 1
        z._x, z._y, z._d = x // g, y // g, d // g
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __add__(self, other):
        if (parts := _exact_integers(other)) is None:
            return NotImplemented
        x, y, d = parts
        return GaussianRational._of(self._x * d + x * self._d, self._y * d + y * self._d,
                                    self._d * d)

    __radd__ = __add__

    def __sub__(self, other):
        return NotImplemented if _exact_integers(other) is None else self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if (parts := _exact_integers(other)) is None:
            return NotImplemented
        x, y, d = parts
        return GaussianRational._of(self._x * x - self._y * y, self._x * y + self._y * x,
                                    self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (parts := _exact_integers(other)) is None:
            return NotImplemented
        x, y, d = parts
        if not (x or y):
            raise ZeroDivisionError("division by zero Gaussian rational")
        # self times 1/other == d (x - y*i) / (x**2 + y**2)
        return self * GaussianRational._of(x * d, -y * d, x * x + y * y)

    def __rtruediv__(self, other):
        return GaussianRational(other) / self if _is_exact_rational(other) else NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return 1 / self ** -exponent
        # Square-and-multiply on the Gaussian integer x + y*i = self * d.
        x, y = self._x, self._y
        re, im = 1, 0
        e = exponent
        while e:
            if e & 1:
                re, im = re * x - im * y, re * y + im * x
            x, y = x * x - y * y, 2 * x * y
            e >>= 1
        return GaussianRational._of(re, im, self._d ** exponent)

    def __neg__(self):
        return GaussianRational._of(-self._x, -self._y, self._d)

    def __bool__(self) -> bool:
        return self._x != 0 or self._y != 0

    def __eq__(self, other) -> bool:
        parts = _exact_integers(other)
        return NotImplemented if parts is None else (self._x, self._y, self._d) == parts

    def __hash__(self):
        # Real values hash like their Fraction, keeping mixed-scalar
        # containers consistent with ==.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        # A nonzero real part, the imaginary part's sign, its magnitude.
        sign = "-" if self.im < 0 else "+" if self.re else ""
        mag = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        return f"{self.re or ''}{sign}{mag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _is_exact_rational(value) -> bool:
    """Whether value is an int or a Fraction; a float, Decimal or bool is
    not exact (``Fraction(True)`` would be 1)."""
    return isinstance(value, (int, Fraction)) and type(value) is not bool


def _exact_rational(value) -> Rat:
    """value itself, if it is an exact rational; else TypeError."""
    if _is_exact_rational(value):
        return value
    raise TypeError(f"not an exact scalar: {value!r}")


#: The imaginary unit i and the constant 2i.
I = GaussianRational(0, 1)
TWO_I = GaussianRational(0, 2)


def _exact_integers(value) -> "tuple | None":
    """``(x, y, d)``: integers with value == (x + y*i)/d, d > 0 and
    gcd(x, y, d) == 1 (a GaussianRational's stored integers), for an exact
    scalar ``value``; None for any other value."""
    if isinstance(value, GaussianRational):
        return value._x, value._y, value._d
    if _is_exact_rational(value):
        return value.numerator, 0, value.denominator
    return None


def _gaussian_integer_over(value: Scalar) -> tuple:
    """``_exact_integers(value)``; TypeError if value is not an exact scalar."""
    if (parts := _exact_integers(value)) is None:
        raise TypeError(f"not an exact scalar: {value!r}")
    return parts


def _over_one_denominator(values: Iterable[Scalar]) -> tuple:
    """``(re, im, den)``: the exact scalars ``values`` as Gaussian-integer
    numerators re[k] + im[k]*i over den, the lcm of their denominators."""
    parts = [_gaussian_integer_over(v) for v in values]
    den = lcm(*(d for _, _, d in parts))
    return ([x * (den // d) for x, _, d in parts],
            [y * (den // d) for _, y, d in parts], den)


def _accumulate(acc, v: Sequence[int], m: int, width: int, shift: int) -> list:
    """acc + m * X**shift * v, for shift + len(v) <= width: acc is None for
    zeros (a new list of length width is returned) or a list of length
    width, updated in place."""
    end = shift + len(v)
    if acc is None:
        acc = [0] * width
        acc[shift:end] = [m * x for x in v] if m != 1 else v
    elif m == 1:
        acc[shift:end] = map(add, acc[shift:end], v)
    else:
        acc[shift:end] = [x + m * y for x, y in zip(acc[shift:end], v)]
    return acc


def _twist(re: Sequence[int], im, w_re: int, w_im: int, v: int) -> tuple:
    """Coefficient k of the Gaussian-integer vector re + im*i (im None for
    zeros) times w**k * v**(N-k), N = len(re) - 1, for the Gaussian integer
    w = w_re + w_im*i and an integer v > 0: (re, im) lists, im None when
    the input and w are real."""
    n = len(re) - 1
    scale = v ** n  # v**(N-k)
    if im is None and not w_im:
        out, p = [], 1
        for x in re:
            out.append(x * p * scale)
            p *= w_re
            scale //= v
        return out, None
    if im is None:
        im = (0,) * (n + 1)
    out_re, out_im = [], []
    p_re, p_im = 1, 0  # w**k
    for x, y in zip(re, im):
        x, y = x * scale, y * scale
        scale //= v
        out_re.append(x * p_re - y * p_im)
        out_im.append(x * p_im + y * p_re)
        p_re, p_im = p_re * w_re - p_im * w_im, p_re * w_im + p_im * w_re
    return out_re, out_im


def _shift_by_one(t: Sequence[int]) -> list:
    """The integer coefficients of t(X + 1), lowest degree first.  Held
    highest degree first, pass i's suffix sums of t_i..t_N are prefix
    sums, one ``accumulate`` each.  A zero vector is its own shift: the
    frame vector of an odd or even polynomial shifted by +-i is all real or
    all imaginary."""
    if not any(t):
        return list(t)
    r = list(reversed(t))
    for end in range(len(r), 1, -1):
        r[:end] = accumulate(r[:end])
    r.reverse()
    return r


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
        return cls._of(*_over_one_denominator(coeffs))

    @classmethod
    def _of(cls, re: Sequence[int], im, den: int) -> "Polynomial":
        """The polynomial (re + im*i)/den, for integer vectors re and im
        (im None for all zeros, else exactly as long as re) and den > 0, in
        its one encoding: im dropped when all zero, trailing zero
        coefficients stripped in one pass, and one gcd over den and every
        kept numerator deciding the one reduction."""
        p = object.__new__(cls)
        if im is not None and not any(im):
            im = None
        n = len(re)
        while n and not (re[n - 1] or im is not None and im[n - 1]):
            n -= 1
        if not n:
            p._re, p._im, p._den = (), None, 1
            return p
        re = re[:n]
        if im is not None:
            im = im[:n]
        g = gcd(den, *re, *(im or ()))
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
    def from_integers(cls, numerators: Sequence[int], den: int) -> "Polynomial":
        """sum_k numerators[k]/den * X**k over Q, for integers numerators
        (lowest degree first) and den > 0, reduced once."""
        return cls._of(numerators, None, den)

    def integers(self) -> tuple:
        """``(numerators, den)`` of a polynomial over Q: the tuple of integer
        numerators, lowest degree first and without trailing zeros, over the
        one positive denominator.  Raises ValueError, naming the degree and
        the first power with a nonzero imaginary part, if there is one."""
        if self._im is not None:
            k = next(k for k, y in enumerate(self._im) if y)
            raise ValueError(f"nonzero imaginary part at X^{k} of a polynomial of degree "
                             f"{self.degree}")
        return self._re, self._den

    def shifted(self, power: int) -> "Polynomial":
        """X**power * self: the numerators after power zeros, already
        reduced."""
        if power < 0:
            raise ValueError("negative power")
        if not power or not self._re:
            return self
        zeros = (0,) * power
        p = object.__new__(Polynomial)
        p._re = zeros + self._re
        p._im = None if self._im is None else zeros + self._im
        p._den = self._den
        return p

    def conjugate(self) -> "Polynomial":
        """The polynomial with every coefficient complex-conjugated; a
        polynomial over Q is its own conjugate.  Negating the imaginary
        numerators keeps the encoding canonical, so nothing is reduced."""
        if self._im is None:
            return self
        p = object.__new__(Polynomial)
        p._re, p._im, p._den = self._re, tuple(-y for y in self._im), self._den
        return p

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """The polynomial coeff * X**power."""
        return cls((coeff,)).shifted(power)

    def _scalar(self, k: int) -> Scalar:
        if self._im is None:
            return Fraction(self._re[k], self._den)
        return GaussianRational._of(self._re[k], self._im[k], self._den)

    @property
    def coeffs(self) -> tuple:
        return tuple(self._scalar(k) for k in range(len(self._re)))

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    @property
    def is_zero(self) -> bool:
        return not self._re

    @property
    def is_real(self) -> bool:
        """Whether every coefficient is rational (the polynomial is over Q),
        as for the zero polynomial; then ``integers()`` does not raise and
        the polynomial is its own conjugate."""
        return self._im is None

    def coefficient(self, power: int) -> Scalar:
        """The coefficient of X**power (zero beyond the degree)."""
        if 0 <= power < len(self._re):
            return self._scalar(power)
        return Fraction(0) if self._im is None else GaussianRational(0)

    def leading(self) -> Scalar:
        """The highest nonzero coefficient; zero for the zero polynomial."""
        return self.coefficient(self.degree)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _linear_combination(((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _linear_combination(((1, self), (-1, other)))

    def __neg__(self):
        return _linear_combination(((-1, self),))

    def __mul__(self, other):
        # Checked here, not by catching _gaussian_integer_over's TypeError,
        # whose message renders the operand (a whole series, for X * series).
        if not isinstance(other, (Polynomial, int, Fraction, GaussianRational)):
            return NotImplemented
        return _linear_combination(((other, self),))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self._re, self._im, self._den) == (other._re, other._im, other._den)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def __call__(self, x: Scalar) -> Scalar:
        """Exact evaluation at x, as the sum of ``_twist``'s terms.

        With x = (u + v*i)/q, N = degree and numerators
        n_k = _re[k] + _im[k]*i, ``_twist`` gives each n_k (u + v*i)**k
        q**(N-k), and the value is their sum over _den * q**N.  It is a
        GaussianRational when the polynomial or x is one, else a Fraction.
        """
        u, v, q = _gaussian_integer_over(x)
        re, im = _twist(self._re, self._im, u, v, q)
        den = self._den * q ** max(self.degree, 0)
        if self._im is None and not isinstance(x, GaussianRational):
            return Fraction(sum(re), den)
        return GaussianRational._of(sum(re), sum(im or ()), den)

    def compose_affine(self, a: Scalar, b: Scalar) -> "Polynomial":
        """Return p(a*X + b), computed exactly by a Taylor shift by 1 over Z[i].

        With p = sum_j c_j X**j where c_j = n_j / D (n_j Gaussian integers,
        D = _den), b = beta/d_b and a = alpha/d_a (beta, alpha Gaussian
        integers, d_b, d_a positive integers), and N = degree,

            D * d_b**N * p(X + b) = s(d_b*X + beta)
                where s(Z) = sum_j n_j * d_b**(N-j) * Z**j.

        For beta != 0 the shift by beta becomes a shift by 1 in the frame
        t_j = beta**j * s_j: s(Z + beta) = t(Z/beta + 1).  The shift by 1
        is the classical additions-only scheme (von zur Gathen & Gerhard,
        "Fast algorithms for Taylor shifts and certain difference
        equations", ISSAC 1997), whose pass i replaces t_i..t_N by their
        suffix sums.  Coefficient k is then scaled back by beta**-k, which
        for a unit beta is a rotation and in general is
        conj(beta)**k * |beta|**(2(N-k)) over |beta|**(2N), and times
        (d_b*alpha)**k * d_a**(N-k).  The one denominator
        D * d_b**N * d_a**N * |beta|**(2N) is reduced once.  Like every
        result, it stores an imaginary vector only when that vector is
        nonzero.
        """
        beta_re, beta_im, d_b = _gaussian_integer_over(b)
        alpha_re, alpha_im, d_a = _gaussian_integer_over(a)
        if not self._re:
            return self
        n = len(self._re) - 1
        re, im = self._re, self._im
        if beta_re or beta_im:
            re, im = _twist(re, im, beta_re, beta_im, d_b)
            re = _shift_by_one(re)
            if im is not None:
                im = _shift_by_one(im)
            norm = beta_re * beta_re + beta_im * beta_im
            inv_re, inv_im = beta_re, -beta_im  # beta**-1 == conj(beta)/norm
        else:  # b == 0, so d_b == 1 and s == p's numerators
            norm, inv_re, inv_im = 1, 1, 0
        w_re = d_b * (inv_re * alpha_re - inv_im * alpha_im)
        w_im = d_b * (inv_re * alpha_im + inv_im * alpha_re)
        v = norm * d_a
        re, im = _twist(re, im, w_re, w_im, v)
        return Polynomial._of(re, im, self._den * (d_b * v) ** n)

    def __str__(self) -> str:
        pieces = []
        coeffs = self.coeffs
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
            if not c:
                continue
            # Pull a minus sign out of a coefficient with a definite sign (a
            # rational, or a Gaussian value on either axis), so the rendering
            # reads "- q*X^k" rather than "+ -q*X^k".
            re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
            negative = re < 0 if not im else not re and im < 0
            mag = -c if negative else c
            if power == 0:
                body = str(mag)
            else:
                var = "X" if power == 1 else f"X^{power}"
                if mag == 1:
                    body = var
                else:
                    body = f"({mag})*{var}" if re and im else f"{mag}*{var}"
            if pieces:
                body = ("- " if negative else "+ ") + body
            elif negative:
                body = "-" + body
            pieces.append(body)
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _linear_combination(terms: Iterable[tuple], divisor: int = 1) -> Polynomial:
    """sum_k s_k * p_k / divisor, reduced once.

    ``terms`` yields pairs (s_k, p_k): s_k an exact scalar (int, Fraction,
    GaussianRational), checked even when p_k is zero, or a Polynomial; p_k
    a Polynomial; ``divisor`` is a positive integer.  A scalar factor adds
    its Gaussian-integer numerators once, and a polynomial factor
    s = sum_j s_j X**j adds one term s_j * X**j * p_k per nonzero s_j:
    the numerators of p_k shifted by j.
    The term vectors are summed as integers over the lcm of the term
    denominators, and ``Polynomial._of`` reduces the sum once.  A row of n
    terms so costs one gcd reduction instead of one per term; ``+`` and
    ``-`` are its two-term case, ``*`` by a scalar and unary ``-`` its
    one-term case, and ``*`` by a polynomial one term per nonzero
    coefficient.
    """
    parts = []  # (s_re, s_im, denominator, shift, p_re, p_im) per nonzero term
    common, width = 1, 0
    for s, p in terms:
        re, im, den = p._re, p._im, p._den
        if type(s) is int:
            sr, si, sd = s, 0, 1
        elif isinstance(s, Polynomial):  # one term s_j * X**j * p per nonzero s_j
            if not re:
                continue
            s_re, s_im = s._re, s._im
            den *= s._den
            if common % den:
                common = lcm(common, den)
            n = len(s_re) + len(re) - 1  # the last term's width
            if n > width:
                width = n
            for j, x in enumerate(s_re):
                y = 0 if s_im is None else s_im[j]
                if x or y:
                    parts.append((x, y, den, j, re, im))
            continue
        else:
            sr, si, sd = _gaussian_integer_over(s)
        if re and (sr or si):
            den *= sd
            if common % den:
                common = lcm(common, den)
            width = max(width, len(re))
            parts.append((sr, si, den, 0, re, im))
    if not parts:
        return Polynomial._of((), None, 1)
    acc_re = acc_im = None
    for sr, si, d, j, re, im in parts:
        m = common // d
        # (sr + si*i) * X**j * (re + im*i), scaled by m to the common denominator.
        if sr:
            acc_re = _accumulate(acc_re, re, sr * m, width, j)
            if im is not None:
                acc_im = _accumulate(acc_im, im, sr * m, width, j)
        if si:
            acc_im = _accumulate(acc_im, re, si * m, width, j)
            if im is not None:
                acc_re = _accumulate(acc_re, im, -si * m, width, j)
    if acc_re is None:
        acc_re = [0] * width
    return Polynomial._of(acc_re, acc_im, common * divisor)


#: The indeterminate, as a rational polynomial.
X = Polynomial([0, 1])


class Triangle(Mapping):
    """A read-only view (n, k) -> the coefficient of X**k in ``rows[n]``,
    for n in the range ``ns`` and k in the range ``columns(n)``.  It holds
    no scalar: a lookup builds the coefficient (a Fraction for a row over
    Q), a key or a row outside the triangle is a KeyError, keys iterate
    n-major and k ascending, and the view equals the dict of its items."""

    __slots__ = ("_rows", "_ns", "_columns")

    def __init__(self, rows: Sequence[Polynomial], ns: range, columns):
        self._rows, self._ns, self._columns = rows, ns, columns

    def __getitem__(self, key) -> Scalar:
        try:
            n, k = key
            if n in self._ns and k in self._columns(n):
                return self._rows[n].coefficient(k)
        except (TypeError, ValueError):  # not a pair of integers
            pass
        raise KeyError(key)

    def __iter__(self):
        return ((n, k) for n in self._ns for k in self._columns(n))

    def __len__(self) -> int:
        return sum(len(self._columns(n)) for n in self._ns)

    def formatted_row(self, n: int) -> list:
        """``format_rational`` of each entry of row n over Q, in column
        order, from the row's integers: one gcd per entry, no Fraction."""
        if n not in self._ns:
            raise KeyError(n)
        numerators, den = self._rows[n].integers()
        out = []
        for k in self._columns(n):
            x = numerators[k] if k < len(numerators) else 0
            g = gcd(x, den)
            out.append(f"{x // g}" if g == den else f"{x // g}/{den // g}")
        return out


class TruncatedSeries:
    """Power series in t with Polynomial (in x) coefficients, truncated.

    A ``TruncatedSeries`` of order N stores the coefficients of
    t**0 .. t**N and represents an expansion exact modulo t**(N+1), so
    the order is their count less one.  It is fixed at construction;
    combining series of different orders is an error rather than a silent
    re-truncation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        polys = [c if isinstance(c, Polynomial) else Polynomial([c]) for c in coeffs]
        if len(polys) > order + 1:
            raise ValueError(f"{len(polys)} coefficients exceed truncation order {order}")
        polys.extend(Polynomial() for _ in range(order + 1 - len(polys)))
        self._coeffs = tuple(polys)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> Polynomial:
        """The polynomial coefficient of t**n."""
        if not 0 <= n <= self.order:
            raise IndexError(f"t-power {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def valuation(self) -> "int | None":
        """Index of the first nonzero coefficient; None for the zero series."""
        for n, c in enumerate(self._coeffs):
            if not c.is_zero:
                return n
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        """Explicitly drop to a lower truncation order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedSeries(self._coeffs[: order + 1], order)

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"mixed truncation orders: {self.order} vs {other.order}")

    def _termwise(self, other, op):
        """``op`` of the two series' coefficients, t-power by t-power."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(list(map(op, self._coeffs, other._coeffs)), self.order)

    def __add__(self, other):
        return self._termwise(other, add)

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __mul__(self, other):
        """Series product, each coefficient one row sum reduced once; or
        every coefficient times a Polynomial or exact scalar."""
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            a, b = self._coeffs, other._coeffs
            out = [_linear_combination((a[j], b[n - j]) for j in range(n + 1))
                   for n in range(self.order + 1)]
            return TruncatedSeries(out, self.order)
        if not isinstance(other, (Polynomial, int, Fraction, GaussianRational)):
            return NotImplemented
        return TruncatedSeries([c * other for c in self._coeffs], self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact series division with valuation cancellation.

        Requires valuation(other) <= valuation(self); cancels
        t**valuation(other) from both sides, so the quotient's order drops
        to ``order - valuation(other)``.  After cancellation the divisor
        must have an invertible (nonzero scalar) constant term.

        Quotient coefficient n is one row sum reduced once
        (``_linear_combination``): inv * num[n] minus (inv * den[j]) *
        quotient[n-j] over the nonzero den[j], j >= 1, with inv the inverse
        of the constant term and each inv * den[j] formed once per call.
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
        new_order = self.order - vu
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
        steps = [(j, dj * -inv) for j, dj in enumerate(den) if j and not dj.is_zero]
        quotient: list[Polynomial] = []
        for n in range(new_order + 1):
            quotient.append(_linear_combination(
                [(inv, num[n]),
                 *((dj, quotient[n - j]) for j, dj in steps if j <= n)]))
        return TruncatedSeries(quotient, new_order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # Equal coefficient tuples are equally long: the same order.
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        parts = ", ".join(str(c) for c in self._coeffs)
        return f"TruncatedSeries([{parts}], order={self.order})"


# ---------------------------------------------------------------------------
# Exact-value serialization: the contract for all JSON output.
# Rationals render as "p/q" strings (bare "p" when q == 1), Gaussian
# rationals as {"re": "p/q", "im": "p/q"}, polynomials as ordered
# coefficient arrays, low degree first.  Never floats.


def format_rational(value: Rat) -> str:
    """The exact rational value as "p/q", or "p" when q == 1; TypeError
    for a float, Decimal or bool."""
    return str(Fraction(_exact_rational(value)))


def scalar_to_json(value: Scalar):
    if isinstance(value, GaussianRational):
        return {"re": str(value.re), "im": str(value.im)}
    return format_rational(value)


def _rational_from_json(value) -> Fraction:
    # An exact scalar's JSON form is an integer or a "p/q" string.  A float
    # is already rounded, a Decimal (json.loads(parse_float=Decimal)) is a
    # JSON number with a fraction part all the same, and Fraction(True) is 1.
    if isinstance(value, (int, str)) and type(value) is not bool:
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r}")


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict):
        return GaussianRational(_rational_from_json(obj["re"]),
                                _rational_from_json(obj["im"]))
    return _rational_from_json(obj)


def poly_to_json(p: Polynomial) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


def poly_from_json(items: Sequence) -> Polynomial:
    return Polynomial([scalar_from_json(c) for c in items])
