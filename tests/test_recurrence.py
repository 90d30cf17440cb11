from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithterm.polys import Polynomial, RationalFunction, clear_denominators, series_coefficients
from arithterm.recurrence import (
    NonIntegerTermError,
    Recurrence,
    eval_oracle,
    floor_root,
    generating_function,
    gf_shift,
    growth_constant,
    is_provably_nonnegative,
    recurrence_from_denominator,
    shifted_gf_int,
)

FIB = Recurrence(2, (-1, -1), (0, 1))


def small_recurrences(max_order=4, coeff_bound=5, init_bound=10):
    def build(data):
        d, coeffs, init = data
        return Recurrence(d, coeffs, init)

    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.integers(-coeff_bound, coeff_bound), min_size=d, max_size=d
            ).filter(lambda cs: cs[-1] != 0),
            st.lists(st.integers(-init_bound, init_bound), min_size=d, max_size=d),
        )
    ).map(build)


def test_validation():
    with pytest.raises(ValueError):
        Recurrence(0, (), ())
    with pytest.raises(ValueError):
        Recurrence(2, (-1,), (0, 1))
    with pytest.raises(ValueError):
        Recurrence(2, (-1, -1), (0,))
    with pytest.raises(ValueError):
        Recurrence(2, (-1, 0), (0, 1))


def test_fraction_coefficients_from_strings():
    rec = Recurrence(2, ("-1/2", "1"), (4, 1))
    assert rec.coeffs == (Fraction(-1, 2), Fraction(1))


def test_eval_oracle_fibonacci():
    assert eval_oracle(FIB, 11).values == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)


def test_eval_oracle_short_counts():
    assert eval_oracle(FIB, 0).values == ()
    assert eval_oracle(FIB, 1).values == (0,)


def test_eval_oracle_non_integer_term():
    rec = Recurrence(1, (Fraction(-1, 2),), (1,))  # s(n+1) = s(n)/2
    with pytest.raises(NonIntegerTermError) as err:
        eval_oracle(rec, 3)
    assert err.value.index == 1
    assert err.value.value == Fraction(1, 2)


def fraction_steps(rec, count):
    """Reference expansion in Fraction arithmetic, step by step."""
    vals = [Fraction(v) for v in rec.init[:count]]
    for n in range(len(vals), count):
        nxt = -sum(rec.coeffs[i] * vals[n - 1 - i] for i in range(rec.order))
        if nxt.denominator != 1:
            return n, nxt
        vals.append(nxt)
    return tuple(vals)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.fractions(-4, 4, max_denominator=4), min_size=d, max_size=d).filter(lambda cs: cs[-1] != 0),
            st.lists(st.integers(-8, 8), min_size=d, max_size=d),
        )
    )
)
def test_eval_oracle_matches_fraction_steps(data):
    coeffs, init = data
    rec = Recurrence(len(coeffs), coeffs, init)
    expected = fraction_steps(rec, 25)
    try:
        got = eval_oracle(rec, 25).values
    except NonIntegerTermError as err:
        got = (err.index, err.value)
    assert got == expected


def test_json_round_trip():
    rec = Recurrence(2, ("-1/2", "-1"), (0, 1))
    data = rec.to_json_dict()
    assert data == {"order": 2, "coeffs": ["-1/2", "-1"], "init": ["0", "1"]}
    assert Recurrence.from_json_dict(data) == rec
    with pytest.raises(ValueError):
        Recurrence.from_json_dict({"order": 2})
    with pytest.raises(ValueError):
        Recurrence.from_json("[1, 2]")
    for bad in ([], {"order": [2], "coeffs": [-1, -1], "init": [0, 1]}, {"order": 1, "coeffs": [0.5], "init": [1]}):
        with pytest.raises(ValueError):
            Recurrence.from_json_dict(bad)


def test_generating_function_fibonacci():
    f = generating_function(FIB)
    assert f == RationalFunction(Polynomial([0, 1]), Polynomial([1, -1, -1]))


def test_generating_function_lucas_numbers():
    rec = Recurrence(2, (-1, -1), (2, 1))
    f = generating_function(rec)
    assert f == RationalFunction(Polynomial([2, -1]), Polynomial([1, -1, -1]))


def test_generating_function_tribonacci():
    rec = Recurrence(3, (-1, -1, -1), (0, 0, 1))
    f = generating_function(rec)
    assert f == RationalFunction(Polynomial([0, 0, 1]), Polynomial([1, -1, -1, -1]))


def test_generating_function_reduces():
    # constant sequence written with a redundant order-2 recurrence
    rec = Recurrence(2, (-2, 1), (2, 2))
    f = generating_function(rec)
    assert f == RationalFunction(Polynomial([2]), Polynomial([1, -1]))


@given(small_recurrences())
def test_series_of_gf_matches_oracle(rec):
    window = eval_oracle(rec, 20).values
    series = series_coefficients(generating_function(rec), 20)
    assert [Fraction(v) for v in window] == series


def test_gf_shift_fibonacci_by_two():
    # series check: t(n) = F(n) + 2^(n+1) starts 2, 5, 9, 18, 35
    f = gf_shift(generating_function(FIB), 2)
    assert series_coefficients(f, 5) == [2, 5, 9, 18, 35]
    from arithterm.polys import clear_denominators

    num, den = clear_denominators(f)
    assert num == Polynomial([2, -1, -4])
    assert den == Polynomial([1, -3, 1, 2])


def test_gf_shift_zero_is_identity():
    f = generating_function(FIB)
    assert gf_shift(f, 0) == f
    with pytest.raises(ValueError):
        gf_shift(f, -1)


@given(small_recurrences(), st.integers(min_value=0, max_value=4))
def test_gf_shift_series(rec, c):
    base = eval_oracle(rec, 12).values
    shifted = series_coefficients(gf_shift(generating_function(rec), c), 12)
    assert shifted == [v + c ** (n + 1) for n, v in enumerate(base)]


def _fraction_reference(rec, c):
    num, den = clear_denominators(gf_shift(generating_function(rec), c))
    return num.int_coeffs(), den.int_coeffs()


@st.composite
def _rational_recurrences(draw):
    order = draw(st.integers(1, 4))
    coeffs = draw(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=order, max_size=order)
    )
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 6)))
    init = draw(st.lists(st.integers(-10, 10), min_size=order, max_size=order))
    return Recurrence(order, tuple(coeffs), tuple(init))


@given(st.one_of(small_recurrences(), _rational_recurrences()), st.sampled_from((0, 1, 2, 3, 7)))
def test_shifted_gf_int_is_the_cleared_fraction_reference(rec, c):
    num, den = shifted_gf_int(rec, c)
    assert (num, den) == _fraction_reference(rec, c)
    assert all(type(x) is int for x in num + den)


@pytest.mark.parametrize(
    "rec, c, expected",
    [
        # s(n) = 1 for all n: (1 - 3z + 2z^2) = (1 - z)(1 - 2z) loses 1 - 2z
        (Recurrence(2, (-3, 2), (1, 1)), 0, ((1,), (1, -1))),
        # t(n) = 2: the shift adds the same pole 1 - z
        (Recurrence(2, (-3, 2), (1, 1)), 1, ((2,), (1, -1))),
        # t(n) = 1 + 2^(n+1): keeps 1 - z and 1 - 2z, the pole of the shift
        (Recurrence(2, (-3, 2), (1, 1)), 2, ((3, -4), (1, -3, 2))),
        # s(n) = -2^(n+1), so t = 0
        (Recurrence(1, (-2,), (-2,)), 2, ((), (1,))),
        # rational coefficients with a common factor in the numerator
        (Recurrence(2, ("-1/2", "1/3"), (3, 6)), 3, ((36, -36, -75), (6, -21, 11, -6))),
    ],
)
def test_shifted_gf_int_reduces_common_factors(rec, c, expected):
    assert shifted_gf_int(rec, c) == expected == _fraction_reference(rec, c)


def test_shifted_gf_int_rejects_a_negative_shift():
    with pytest.raises(ValueError, match="natural"):
        shifted_gf_int(FIB, -1)


def test_growth_constant_known_values():
    assert growth_constant(FIB) == 5
    assert growth_constant(Recurrence(2, (-1, 2), (2, 1))) == 7
    assert growth_constant(Recurrence(2, (-2, 3), (0, 1))) == 11


def test_growth_constant_bumps_for_large_initial_terms():
    rec = Recurrence(1, (-1,), (1000,))
    c = growth_constant(rec)
    assert c == 1001  # need c^1 > 1000 at index 0


@given(small_recurrences())
def test_growth_constant_bounds_the_sequence(rec):
    c = growth_constant(rec)
    for n, v in enumerate(eval_oracle(rec, 40).values):
        assert abs(v) < c ** (n + 1)


def test_provably_nonnegative_easy_cases():
    assert is_provably_nonnegative(FIB)
    assert is_provably_nonnegative(Recurrence(2, (-1, -1), (2, 1)))
    assert is_provably_nonnegative(Recurrence(2, (-2, 1), (0, 1)))  # order-2 route
    assert is_provably_nonnegative(Recurrence(2, (-3, 2), (0, 1)))
    assert is_provably_nonnegative(Recurrence(2, (-16, 1), (1, 8)))


def test_provably_nonnegative_rejects_signed_sequences():
    assert not is_provably_nonnegative(Recurrence(2, (-2, 3), (0, 1)))
    assert not is_provably_nonnegative(Recurrence(2, (-1, 2), (2, 1)))


@given(small_recurrences())
def test_provably_nonnegative_never_lies(rec):
    if is_provably_nonnegative(rec):
        assert all(v >= 0 for v in eval_oracle(rec, 60).values)


def test_recurrence_from_denominator():
    den = Polynomial([1, -1, -1])
    assert recurrence_from_denominator(den, (0, 1)) == FIB
    scaled = Polynomial([2, -2, -2])
    assert recurrence_from_denominator(scaled, (0, 1)) == FIB
    with pytest.raises(ValueError):
        recurrence_from_denominator(Polynomial([0, 1]), (1,))
    with pytest.raises(ValueError):
        recurrence_from_denominator(Polynomial([2]), ())


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_floor_root_is_exact(x, k):
    r = floor_root(x, k)
    assert r**k <= x < (r + 1) ** k
