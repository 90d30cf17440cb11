"""Dense univariate polynomials over the integers, Z[z].

A polynomial is a tuple of ``int`` coefficients in ascending order of the
exponent, with trailing zeros stripped, so the zero polynomial is the empty
tuple.  ``int_poly_gcd`` and ``reduce_int_fraction`` reduce a fraction of
such polynomials without leaving the integers, and ``format_poly`` writes
one out.  No floating point and no ``Fraction`` is used anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


class AlgebraError(ValueError):
    """Raised for operations outside the domain (division by zero, gcd(0,0))."""


def _trim(p: Iterable[int]) -> tuple[int, ...]:
    """The coefficients without trailing zeros."""
    cs = list(p)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def format_poly(coeffs: Iterable[int]) -> str:
    """Coefficients in ascending order written as a polynomial in z, such
    as ``1 - z - 2z^2``."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = _var_str(k)
        else:
            body = f"{mag}{_var_str(k)}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


def _var_str(k: int) -> str:
    return "z" if k == 1 else f"z^{k}"


def _int_primitive(p: tuple[int, ...]) -> tuple[int, ...]:
    """p over its content, with a positive leading coefficient; p != ()."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def _int_prem(a: Iterable[int], b: tuple[int, ...]) -> tuple[int, ...]:
    """A pseudo-remainder of a by b: lead(b)^k a - q b for some k >= 0 and
    q in Z[z], of degree below b's; for monic b, the remainder a mod b."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        top, shift = r.pop(), len(r) - db
        if lead != 1:
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
    The result is the monic gcd of a and b over the rationals scaled to a
    primitive integer polynomial; the integer content of the gcd is left
    out.
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
    """The primitive reduced integer pair for the quotient num/den.

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
