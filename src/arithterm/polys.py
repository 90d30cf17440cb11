"""Dense univariate polynomials and rational functions over the rationals.

Everything in this module is exact: coefficients are ``fractions.Fraction``
and no floating point is used anywhere.  Polynomials are stored densely as a
tuple of coefficients in ascending order of the exponent, with trailing zeros
stripped, so the zero polynomial is the empty tuple and ``degree()`` returns
-1 for it.

A ``RationalFunction`` keeps a reduced numerator/denominator pair.  The
denominator is normalized so that its lowest-order nonzero coefficient is +1,
which makes equality structural and keeps power series extraction stable.

The same dense layout with plain ``int`` tuples is Z[z]: ``int_poly_gcd``
and ``reduce_int_fraction`` reduce a fraction of integer polynomials
without leaving the integers, to the pair ``clear_denominators`` gives for
the same quotient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Union

Coeff = Union[int, Fraction]


class AlgebraError(ValueError):
    """Raised for operations outside the domain (division by zero, gcd(0,0))."""


def _coerce(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _trim(p: Iterable[Coeff]) -> tuple:
    """The coefficients without trailing zeros."""
    cs = list(p)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        self._coeffs = _trim(_coerce(c) for c in coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __getitem__(self, k: int) -> Fraction:
        # coefficient of z^k; indices past the end are simply zero
        if k < 0:
            raise IndexError("negative exponent")
        if k >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[k]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "Polynomial | Coeff") -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(self[k] + other[k] for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: "Polynomial | Coeff") -> "Polynomial":
        return self + (-_as_poly(other))

    def __mul__(self, other: "Polynomial | Coeff") -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise AlgebraError("polynomial exponent must be a natural number")
        result = Polynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if other.is_zero():
            raise AlgebraError("polynomial division by zero")
        rem = list(self._coeffs)
        dlead = other._coeffs[-1]
        ddeg = other.degree()
        quot = [Fraction(0)] * max(len(rem) - ddeg, 0)
        for k in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q = c / dlead
            quot[k - ddeg] = q
            for j in range(ddeg + 1):
                rem[k - ddeg + j] -= q * other._coeffs[j]
        return Polynomial(quot), Polynomial(rem)

    def __call__(self, x: Coeff) -> Fraction:
        # Horner evaluation, exact
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def scaled(self, factor: Coeff) -> "Polynomial":
        return Polynomial(c * _coerce(factor) for c in self._coeffs)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise AlgebraError("the zero polynomial has no monic form")
        return self.scaled(1 / self._coeffs[-1])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise AlgebraError("polynomial has non-integer coefficients")
        return tuple(c.numerator for c in self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self._coeffs)


def format_poly(coeffs: Iterable[Coeff]) -> str:
    """Coefficients in ascending order written as a polynomial in z, such
    as ``1 - z - (1/2)z^2``; ints and Fractions of equal value print alike."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = _coeff_str(mag)
        elif mag == 1:
            body = _var_str(k)
        else:
            body = f"{_coeff_str(mag)}{_var_str(k)}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


def _coeff_str(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"({c.numerator}/{c.denominator})"


def _var_str(k: int) -> str:
    return "z" if k == 1 else f"z^{k}"


def _as_poly(value: "Polynomial | Coeff") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial([value])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = _as_poly(a), _as_poly(b)
    if a.is_zero() and b.is_zero():
        raise AlgebraError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


class RationalFunction:
    """Quotient of two polynomials, always kept reduced.

    The pair is normalized so that gcd(num, den) = 1 and the lowest-order
    nonzero coefficient of the denominator equals +1.  With that convention
    two rational functions are equal iff their components are equal, and a
    denominator with den(0) = 1 stays literally of that shape.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Polynomial | Iterable[Coeff], den: Polynomial | Iterable[Coeff] = (1,)):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero():
            raise AlgebraError("rational function with zero denominator")
        if num.is_zero():
            self._num = Polynomial()
            self._den = Polynomial([1])
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        low = next(c for c in den.coeffs if c != 0)
        self._num = num.scaled(1 / low)
        self._den = den.scaled(1 / low)

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(_as_poly(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other: "RationalFunction | Polynomial | Coeff") -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other: "RationalFunction | Polynomial | Coeff") -> "RationalFunction":
        return self + (-_as_rf(other))

    def __mul__(self, other: "RationalFunction | Polynomial | Coeff") -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __call__(self, x: Coeff) -> Fraction:
        d = self._den(x)
        if d == 0:
            raise AlgebraError("evaluation at a pole")
        return self._num(x) / d

    def __repr__(self) -> str:
        return f"RationalFunction({self._num!r}, {self._den!r})"

    def __str__(self) -> str:
        num, den = str(self._num), str(self._den)
        if self._den == Polynomial([1]):
            return num
        if self._num.degree() > 0 or self._num.is_zero():
            num = f"({num})" if " " in num else num
        den = f"({den})" if " " in den else den
        return f"{num} / {den}"


def _as_rf(value: "RationalFunction | Polynomial | Coeff") -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(_as_poly(value))


def series_coefficients(f: RationalFunction, count: int) -> list[Fraction]:
    """First ``count`` power series coefficients of f around 0.

    Requires den(0) != 0.  Plain long division: if f = N/D with D(0) = d0,
    then c_k = (N_k - sum_{j>=1} D_j c_{k-j}) / d0.
    """
    if count < 0:
        raise AlgebraError("count must be a natural number")
    d0 = f.den[0]
    if d0 == 0:
        raise AlgebraError("series at a pole: denominator vanishes at 0")
    out: list[Fraction] = []
    ddeg = f.den.degree()
    for k in range(count):
        acc = f.num[k]
        for j in range(1, min(k, ddeg) + 1):
            acc -= f.den[j] * out[k - j]
        out.append(acc / d0)
    return out


def clear_denominators(f: RationalFunction) -> tuple[Polynomial, Polynomial]:
    """Integer-coefficient representative (num, den) of f.

    Multiplies both components by the lcm of all coefficient denominators,
    divides out the common integer content, and fixes the sign so that the
    constant term of the denominator is positive.  The result is primitive:
    the gcd of all coefficients of both polynomials together is 1.
    """
    scale = lcm(
        *(c.denominator for c in f.num.coeffs),
        *(c.denominator for c in f.den.coeffs),
    ) if (f.num.coeffs or f.den.coeffs) else 1
    num = f.num.scaled(scale)
    den = f.den.scaled(scale)
    content = gcd(*(c.numerator for c in num.coeffs), *(c.numerator for c in den.coeffs))
    if content > 1:
        num = num.scaled(Fraction(1, content))
        den = den.scaled(Fraction(1, content))
    if den[0] < 0:
        num, den = num.scaled(-1), den.scaled(-1)
    return num, den


def _int_primitive(p: tuple[int, ...]) -> tuple[int, ...]:
    """p over its content, with a positive leading coefficient; p != ()."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def _int_prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A pseudo-remainder of a by b: lead(b)^k a - q b for some k >= 0 and
    q in Z[z], of degree below b's; deg a >= deg b."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        top, shift = r.pop(), len(r) - db
        r = [c * lead for c in r]
        for j in range(db):
            r[shift + j] -= top * b[j]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _int_divexact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for a b that divides a in Z[z]."""
    r, lead, db = list(a), b[-1], len(b) - 1
    quot = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        q, rem = divmod(r[k], lead)
        if rem:
            raise AlgebraError("inexact polynomial division")
        quot[k - db] = q
        if q:
            for j in range(db + 1):
                r[k - db + j] -= q * b[j]
    if any(r):
        raise AlgebraError("inexact polynomial division")
    return tuple(quot)


def int_poly_gcd(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    """Primitive greatest common divisor in Z[z], leading coefficient > 0.

    Euclid on primitive parts (Knuth, TAOCP vol. 2, 4.6.1): each step
    replaces (a, b) by (b, primitive part of the pseudo-remainder of a by
    b), so every number stays an integer and the coefficients stay small.
    The result is the monic poly_gcd of a and b scaled to a primitive
    integer polynomial; the integer content of the gcd is left out.
    """
    a, b = _trim(a), _trim(b)
    if not a and not b:
        raise AlgebraError("gcd(0, 0) is undefined")
    if len(a) < len(b):
        a, b = b, a
    a = _int_primitive(a)
    while b:
        b = _int_primitive(b)
        a, b = b, _int_prem(a, b)
    return a


def reduce_int_fraction(num: Iterable[int], den: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair clear_denominators(RationalFunction(num, den)) gives, as int
    tuples, computed in Z[z].

    Divides both by int_poly_gcd, then by the content of the two together,
    and fixes the sign so that the lowest-order nonzero coefficient of the
    denominator is positive.  Two integer pairs for one quotient differ by
    a rational factor, which these two steps fix, so the result is the
    unique such representative.  A zero numerator gives ((), (1,)).
    """
    num, den = _trim(num), _trim(den)
    if not den:
        raise AlgebraError("rational function with zero denominator")
    if not num:
        return (), (1,)
    g = int_poly_gcd(num, den)
    if len(g) > 1:
        num, den = _int_divexact(num, g), _int_divexact(den, g)
    content = gcd(*num, *den)
    if next(c for c in den if c) < 0:
        content = -content
    return tuple(c // content for c in num), tuple(c // content for c in den)
