import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithterm.polys import (
    AlgebraError,
    _int_prem,
    _trim,
    format_poly,
    int_poly_gcd,
    reduce_int_fraction,
)


def _mul(p, q):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _divmod(a, b):
    """Quotient and remainder of lists of Fractions, b trimmed."""
    rem, quot = list(a), []
    while len(rem) >= len(b):
        q, shift = rem[-1] / b[-1], len(rem) - len(b)
        quot.append(q)
        rem = [x - q * b[k - shift] if k >= shift else x for k, x in enumerate(rem[:-1])]
    return quot[::-1], list(_trim(rem))


def poly_gcd(a, b):
    """Monic gcd over Q by Euclid on lists of Fractions, the reference."""
    a, b = ([Fraction(c) for c in _trim(p)] for p in (a, b))
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def clear_denominators(num, den):
    """Reference for reduce_int_fraction: cancel the gcd over Q, then scale
    to the primitive integer pair whose lowest denominator coefficient is
    positive."""
    g = poly_gcd(num, den)
    num, den = (_divmod([Fraction(c) for c in _trim(p)], g)[0] for p in (num, den))
    scale = math.lcm(*(c.denominator for c in num + den))
    num, den = ([int(c * scale) for c in p] for p in (num, den))
    content = math.gcd(*num, *den)
    if next(c for c in den if c) < 0:
        content = -content
    return tuple(c // content for c in num), tuple(c // content for c in den)


def test_trailing_zeros_are_stripped():
    assert _trim([1, 2, 0, 0]) == (1, 2)
    assert _trim([0, 0]) == ()
    assert int_poly_gcd((2, 4, 0), (0, 0, 1, 0)) == (1,)
    assert reduce_int_fraction((1, 0, 0), (1, -1, 0)) == ((1,), (1, -1))


def test_str_formatting():
    assert format_poly((1, -3, 1, 2)) == "1 - 3z + z^2 + 2z^3"
    assert format_poly((0, 1)) == "z"
    assert format_poly((-2, 0, 5, -1)) == "-2 + 5z^2 - z^3"
    assert format_poly(()) == "0"
    assert format_poly((0, 0)) == "0"
    assert format_poly((0, -1)) == "-z"


int_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5)


@given(int_polys.filter(any), int_polys.filter(any), int_polys.filter(any))
def test_gcd_divides_common_multiples(p, q, g):
    d = int_poly_gcd(_mul(p, g), _mul(q, g))
    # over Q, g divides the gcd, which divides both products
    assert _int_prem(d, _trim(g)) == ()
    assert _int_prem(_mul(p, g), d) == ()
    assert _int_prem(_mul(q, g), d) == ()


def test_gcd_of_zeros_raises():
    with pytest.raises(AlgebraError):
        int_poly_gcd((), (0, 0))


def test_rational_function_reduces():
    # (1 - z^2) / (1 - z) = 1 + z
    assert reduce_int_fraction((1, 0, -1), (1, -1)) == ((1, 1), (1,))


def test_rational_function_normalizes_denominator():
    assert reduce_int_fraction((0, -3), (-2, 2)) == ((0, 3), (2, -2))
    assert reduce_int_fraction((0, 6), (4, -4)) == ((0, 3), (2, -2))


def test_rational_function_zero_denominator_raises():
    with pytest.raises(AlgebraError):
        reduce_int_fraction((1,), ())


def test_clear_denominators_primitive_and_positive():
    # the reference on its own: (z/2) / (1 - 3z/2) is z / (2 - 3z)
    num, den = clear_denominators((0, Fraction(1, 2)), (1, Fraction(-3, 2)))
    assert (num, den) == ((0, 1), (2, -3))
    assert clear_denominators((0, 1), (-2, 3)) == ((0, -1), (2, -3))


def test_clear_denominators_strips_common_content():
    assert clear_denominators((4,), (2, -6)) == ((2,), (1, -3))
    # and common factors: (1 - z^2) / (2 - 2z) is (1 + z) / 2
    assert clear_denominators((1, 0, -1), (2, -2)) == ((1, 1), (2,))


@given(int_polys, int_polys, int_polys)
def test_int_poly_gcd_is_the_primitive_form_of_poly_gcd(a, b, g):
    # a common factor g makes nontrivial gcds common
    a, b = _mul(a, g), _mul(b, g)
    if not any(a) and not any(b):
        with pytest.raises(AlgebraError):
            int_poly_gcd(a, b)
        return
    got = int_poly_gcd(a, b)
    assert [Fraction(c, got[-1]) for c in got] == poly_gcd(a, b)
    assert got[-1] > 0 and math.gcd(*got) == 1


@given(int_polys, int_polys.filter(any), int_polys.filter(any))
def test_reduce_int_fraction_matches_clear_denominators(num, den, g):
    num, den = _mul(num, g), _mul(den, g)
    if not any(num):
        assert reduce_int_fraction(num, den) == ((), (1,))
        return
    assert reduce_int_fraction(num, den) == clear_denominators(num, den)


def test_reduce_int_fraction_edge_cases():
    assert reduce_int_fraction((0, 0), (-4, 6)) == ((), (1,))
    # lowest nonzero denominator coefficient made positive, trailing zeros cut
    assert reduce_int_fraction((2, 0), (0, -4, 0)) == ((-1,), (0, 2))
    with pytest.raises(AlgebraError):
        reduce_int_fraction((1,), (0,))
