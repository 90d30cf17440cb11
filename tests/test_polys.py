import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithterm.polys import (
    AlgebraError,
    Polynomial,
    RationalFunction,
    clear_denominators,
    format_poly,
    int_poly_gcd,
    poly_gcd,
    reduce_int_fraction,
    series_coefficients,
)

coeff = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
polys = st.lists(coeff, min_size=0, max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_trailing_zeros_are_stripped():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial().degree() == -1


def test_indexing_past_the_end_is_zero():
    p = Polynomial([1, 2])
    assert p[5] == 0
    with pytest.raises(IndexError):
        p[-1]


def test_equality_against_scalars():
    assert Polynomial([3]) == 3
    assert Polynomial([0]) == 0
    assert Polynomial([1, 1]) != 1


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, nonzero_polys)
def test_divmod_invariant(p, q):
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree() < q.degree()


def test_divmod_by_zero_raises():
    with pytest.raises(AlgebraError):
        divmod(Polynomial([1]), Polynomial())


@given(polys, st.fractions(min_value=-9, max_value=9, max_denominator=7))
def test_evaluation_matches_naive_sum(p, x):
    naive = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert p(x) == naive


def test_pow_matches_repeated_multiplication():
    p = Polynomial([1, -1, -1])
    assert p**3 == p * p * p
    assert p**0 == Polynomial([1])
    with pytest.raises(AlgebraError):
        p ** (-1)


def test_str_formatting():
    assert str(Polynomial([1, -3, 1, 2])) == "1 - 3z + z^2 + 2z^3"
    assert str(Polynomial([0, 1])) == "z"
    assert str(Polynomial([Fraction(1, 2), Fraction(-2, 3)])) == "(1/2) - (2/3)z"
    assert str(Polynomial()) == "0"
    assert str(Polynomial([0, -1])) == "-z"


def test_monic_and_scaled():
    p = Polynomial([2, 4])
    assert p.monic() == Polynomial([Fraction(1, 2), 1])
    assert p.scaled(Fraction(1, 2)) == Polynomial([1, 2])
    with pytest.raises(AlgebraError):
        Polynomial().monic()


def test_int_coeffs():
    assert Polynomial([1, -2]).int_coeffs() == (1, -2)
    with pytest.raises(AlgebraError):
        Polynomial([Fraction(1, 2)]).int_coeffs()


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_common_multiples(p, q, g):
    d = poly_gcd(p * g, q * g)
    assert divmod(d, g)[1].is_zero()  # g is a common factor, so it divides the gcd
    _, rem1 = divmod(p * g, d)
    _, rem2 = divmod(q * g, d)
    assert rem1.is_zero() and rem2.is_zero()


def test_gcd_of_zeros_raises():
    with pytest.raises(AlgebraError):
        poly_gcd(Polynomial(), Polynomial())


def test_rational_function_reduces():
    f = RationalFunction(Polynomial([1, 0, -1]), Polynomial([1, -1]))  # (1-z^2)/(1-z)
    assert f.num == Polynomial([1, 1])
    assert f.den == Polynomial([1])


def test_rational_function_normalizes_denominator():
    f = RationalFunction(Polynomial([0, 3]), Polynomial([2, -2]))
    assert f.den[0] == 1
    assert f == RationalFunction(Polynomial([0, Fraction(3, 2)]), Polynomial([1, -1]))


def test_rational_function_zero_denominator_raises():
    with pytest.raises(AlgebraError):
        RationalFunction(Polynomial([1]), Polynomial())


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_rational_arithmetic_matches_cross_multiplication(a, b, c, d):
    f = RationalFunction(a, b)
    g = RationalFunction(c, d)
    assert f + g == RationalFunction(a * d + c * b, b * d)
    assert f * g == RationalFunction(a * c, b * d)
    assert f - g == RationalFunction(a * d - c * b, b * d)


def test_rational_evaluation_at_pole_raises():
    f = RationalFunction(Polynomial([1]), Polynomial([1, -1]))
    with pytest.raises(AlgebraError):
        f(1)


def test_series_of_fibonacci_gf():
    f = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1, -1]))
    assert series_coefficients(f, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_series_of_geometric_gf():
    f = RationalFunction(Polynomial([1]), Polynomial([1, -2]))
    assert series_coefficients(f, 8) == [2**k for k in range(8)]


def test_series_at_pole_raises():
    f = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
    with pytest.raises(AlgebraError):
        series_coefficients(f, 3)


def test_clear_denominators_primitive_and_positive():
    f = RationalFunction(Polynomial([0, Fraction(1, 2)]), Polynomial([1, Fraction(-3, 2)]))
    num, den = clear_denominators(f)
    assert num == Polynomial([0, 1]) and den == Polynomial([2, -3])
    assert den[0] > 0


def test_clear_denominators_strips_common_content():
    f = RationalFunction(Polynomial([4]), Polynomial([2, -6]))
    num, den = clear_denominators(f)
    assert num == Polynomial([2]) and den == Polynomial([1, -3])


int_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5)


@given(int_polys, int_polys, int_polys)
def test_int_poly_gcd_is_the_primitive_form_of_poly_gcd(a, b, g):
    # a common factor g makes nontrivial gcds common
    a, b = Polynomial(a) * Polynomial(g), Polynomial(b) * Polynomial(g)
    if a.is_zero() and b.is_zero():
        with pytest.raises(AlgebraError):
            int_poly_gcd(a.int_coeffs(), b.int_coeffs())
        return
    got = int_poly_gcd(a.int_coeffs(), b.int_coeffs())
    assert Polynomial(got).monic() == poly_gcd(a, b)
    assert got[-1] > 0 and math.gcd(*got) == 1


@given(int_polys, int_polys.filter(any), int_polys.filter(any))
def test_reduce_int_fraction_matches_clear_denominators(num, den, g):
    num, den = Polynomial(num) * Polynomial(g), Polynomial(den) * Polynomial(g)
    ref_num, ref_den = clear_denominators(RationalFunction(num, den))
    assert reduce_int_fraction(num.int_coeffs(), den.int_coeffs()) == (ref_num.int_coeffs(), ref_den.int_coeffs())


def test_reduce_int_fraction_edge_cases():
    assert reduce_int_fraction((0, 0), (-4, 6)) == ((), (1,))
    # lowest nonzero denominator coefficient made positive, trailing zeros cut
    assert reduce_int_fraction((2, 0), (0, -4, 0)) == ((-1,), (0, 2))
    with pytest.raises(AlgebraError):
        reduce_int_fraction((1,), (0,))


@given(st.lists(coeff, min_size=0, max_size=6))
def test_format_poly_is_the_polynomial_string(cs):
    p = Polynomial(cs)
    assert format_poly(p.coeffs) == str(p)
    if p.is_integral():
        assert format_poly(p.int_coeffs()) == str(p)
