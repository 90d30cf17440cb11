import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arithterm.polys import int_poly_gcd
from arithterm.recurrence import (
    NonIntegerTermError,
    Recurrence,
    _extend,
    _int_den,
    eval_oracle,
    floor_root,
    generating_function,
)
from arithterm.synthesis import _NONNEG_PROBE, _growth_constant, _nonnegative, _Prefix

FIB = Recurrence(2, (-1, -1), (0, 1))


def growth_constant(rec):
    # the growth constant of s that synthesize searches the shift below
    return _growth_constant(_int_den(rec), rec.init)


def provably_nonnegative(rec):
    # _nonnegative on the prefix synthesize forms first
    return _nonnegative(_int_den(rec), eval_oracle(rec, _NONNEG_PROBE + rec.order).values)


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
    for coeffs, init in ((("1/0",), (1,)), ((-1,), ("1/0",))):
        with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
            Recurrence(1, coeffs, init)


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
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            # interior coefficients are often 0, so the oracle skips those lags
            st.lists(
                st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=4)), min_size=d, max_size=d
            ).filter(lambda cs: cs[-1] != 0),
            st.lists(st.integers(-8, 8), min_size=d, max_size=d),
        )
    ),
    # counts below the order return a slice of init
    st.integers(0, 40),
)
def test_eval_oracle_matches_fraction_steps(data, count):
    coeffs, init = data
    rec = Recurrence(len(coeffs), coeffs, init)
    expected = fraction_steps(rec, count)
    try:
        got = eval_oracle(rec, count).values
    except NonIntegerTermError as err:
        got = (err.index, err.value)
    assert got == expected


def _reference_extend(den, vals, count):
    # the per-value loop _extend replaced, kept as the reference for its
    # iterator pipeline: one multiply-add per nonzero lag, then an exact
    # division by the scale
    if len(vals) >= count:
        return
    scale, *coeffs = den
    (w1, k1), *lags = [(-a, -i) for i, a in enumerate(coeffs, 1) if a]
    for n in range(len(vals), count):
        acc = w1 * vals[k1]
        for w, k in lags:
            acc += w * vals[k]
        if scale > 1:
            q, rem = divmod(acc, scale)
            if rem:
                raise NonIntegerTermError(n, Fraction(acc, scale))
            acc = q
        vals.append(acc)


def _grown(extend, den, vals, count):
    """(values, (index, value) of the NonIntegerTermError or None) after
    extend grows vals to count."""
    try:
        extend(den, vals, count)
    except NonIntegerTermError as err:
        return list(vals), (err.index, err.value)
    return list(vals), None


# orders 1 to 6 with scales 1 to 6; coefficients are often 0 (a skipped
# lag) or -1 and 1 (w = 1, the lag streamed as is, and w = -1)
_dens = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.integers(1, 6),
        st.lists(st.one_of(st.sampled_from((0, -1, 1)), st.integers(-9, 9)), min_size=d, max_size=d).filter(lambda cs: cs[-1] != 0),
        st.lists(st.integers(-8, 8), min_size=d, max_size=d),
    )
)


@given(_dens, st.integers(0, 40))
@example((1, [-1, -1], [0, 1]), 30)
@example((2, [-3], [4]), 6)  # 4, 6, 9, then 27/2 at index 3
@example((3, [0, 0, -1], [3, 6, 9]), 20)
def test_extend_matches_the_reference_loop(data, count):
    scale, coeffs, init = data
    den = (scale, *coeffs)
    # the same values appended, and where the reference stops at a
    # non-integer, the same error after the same prefix
    assert _grown(_extend, den, list(init), count) == _grown(_reference_extend, den, list(init), count)


@given(_dens, st.lists(st.integers(0, 40), max_size=5))
def test_a_prefix_grown_in_steps_equals_one_grown_at_once(data, steps):
    scale, coeffs, init = data
    den = (scale, *coeffs)
    at_once = _grown(_extend, den, list(init), max(steps, default=0))
    stepped, error = _Prefix(init, den), None
    try:
        for count in steps:
            stepped.need(count)
    except NonIntegerTermError as err:
        error = (err.index, err.value)
    # the furthest step forms exactly what one step to it forms
    assert (list(stepped), error) == at_once


def test_extend_leaves_a_prefix_that_holds_count_values_alone():
    for den, vals in (((1, -1, -1), [0, 1, 1, 2, 3]), ((2, -3), [4, 6, 9]), ((1, -1, -1), [0])):
        for count in range(len(vals) + 1):
            grown = list(vals)
            _extend(den, grown, count)
            assert grown == vals


def test_extend_sums_a_hundred_thousand_lags_without_a_crash():
    # v(n) = v(n-1) + ... + v(n-10^5): one map per lag chained would be
    # 10^5 C frames deep per value
    d = 100_000
    den, vals = (1, *[-1] * d), [0] * (d - 1) + [1]
    expected = list(vals)
    _reference_extend(den, expected, d + 3)
    _extend(den, vals, d + 3)
    assert vals[d:] == expected[d:] == [1, 2, 4]


def test_json_round_trip():
    rec = Recurrence(2, ("-1/2", "-1"), (0, 1))
    data = rec.to_json_dict()
    assert data == {"order": 2, "coeffs": ["-1/2", "-1"], "init": ["0", "1"]}
    assert Recurrence.from_json_dict(data) == rec
    with pytest.raises(ValueError):
        Recurrence.from_json_dict({"order": 2})
    with pytest.raises(ValueError):
        Recurrence.from_json("[1, 2]")
    for bad in (
        [],
        {"order": [2], "coeffs": [-1, -1], "init": [0, 1]},
        {"order": 1, "coeffs": [0.5], "init": [1]},
        # floats and bools are refused, not truncated to 2, 1 or 0
        {"order": 2.7, "coeffs": [-1, -1], "init": [0, 1]},
        {"order": 2.0, "coeffs": [-1, -1], "init": [0, 1]},
        {"order": True, "coeffs": [-1], "init": [1]},
        {"order": 2, "coeffs": [-1, -1], "init": [0, 1.9]},
        {"order": 1, "coeffs": [-1], "init": [False]},
        {"order": 1, "coeffs": [True], "init": [1]},
        {"order": 1, "coeffs": [-1], "init": ["1/2"]},
        {"order": "3/2", "coeffs": [-1], "init": [1]},
        {"order": 1, "coeffs": ["1/0"], "init": [1]},
        {"order": 1, "coeffs": [-1], "init": ["1/0"]},
    ):
        with pytest.raises(ValueError):
            Recurrence.from_json_dict(bad)
    # decimal strings and integral Fractions stay accepted
    assert Recurrence.from_json_dict({"order": "2", "coeffs": [-1, -1], "init": ["0", "1"]}) == FIB
    assert Recurrence(2, (-1, -1), (Fraction(0), Fraction(2, 2))) == FIB
    with pytest.raises(ValueError):
        Recurrence(1, (-1,), (Fraction(1, 2),))
    with pytest.raises(ValueError):
        Recurrence(Fraction(3, 2), (-1,), (1,))


def test_generating_function_fibonacci():
    assert generating_function(FIB) == ((0, 1), (1, -1, -1))


def test_generating_function_lucas_numbers():
    rec = Recurrence(2, (-1, -1), (2, 1))
    assert generating_function(rec) == ((2, -1), (1, -1, -1))


def test_generating_function_tribonacci():
    rec = Recurrence(3, (-1, -1, -1), (0, 0, 1))
    assert generating_function(rec) == ((0, 0, 1), (1, -1, -1, -1))


def test_generating_function_reduces():
    # constant sequence written with a redundant order-2 recurrence
    rec = Recurrence(2, (-2, 1), (2, 2))
    assert generating_function(rec) == ((2,), (1, -1))
    # the identity sequence, U(2, 1) of the degenerate Lucas pair
    assert generating_function(Recurrence(2, (-2, 1), (0, 1))) == ((0, 1), (1, -2, 1))


def _check_gf(rec, c, terms):
    """generating_function(rec, c) against the first terms of s: den * T
    agrees with num up to z^K, T(k) = s(k) + c^(k+1), which pins num/den
    for this K; the pair is reduced, primitive, and den[0] > 0."""
    num, den = generating_function(rec, c)
    k_max = len(num) + len(den) + rec.order + 2
    t = [v + c ** (k + 1) for k, v in enumerate(terms(rec, k_max))]
    product = [sum(den[i] * t[k - i] for i in range(min(k, len(den) - 1) + 1)) for k in range(k_max)]
    assert product == [*num, *[0] * (k_max - len(num))]
    assert all(type(x) is int for x in num + den)
    assert den[0] > 0 and math.gcd(*num, *den) == 1
    if num:
        assert int_poly_gcd(num, den) == (1,)
    else:
        assert den == (1,)


@given(small_recurrences())
def test_series_of_gf_matches_oracle(rec):
    _check_gf(rec, 0, lambda r, k: eval_oracle(r, k).values)


def test_gf_shift_fibonacci_by_two():
    # t(n) = F(n) + 2^(n+1) starts 2, 5, 9, 18, 35
    assert generating_function(FIB, 2) == ((2, -1, -4), (1, -3, 1, 2))
    _check_gf(FIB, 2, lambda r, k: eval_oracle(r, k).values)


def test_gf_shift_zero_is_identity():
    assert generating_function(FIB, 0) == generating_function(FIB)


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


def _rational_terms(rec, count):
    # fraction_steps stops at the first non-integer; these need all terms
    vals = [Fraction(v) for v in rec.init[:count]]
    for n in range(len(vals), count):
        vals.append(-sum(rec.coeffs[i] * vals[n - 1 - i] for i in range(rec.order)))
    return vals


@given(st.one_of(small_recurrences(), _rational_recurrences()), st.integers(min_value=0, max_value=4))
def test_gf_shift_series(rec, c):
    _check_gf(rec, c, _rational_terms)


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
def test_generating_function_reduces_common_factors(rec, c, expected):
    assert generating_function(rec, c) == expected


def test_generating_function_rejects_a_negative_shift():
    with pytest.raises(ValueError, match="natural"):
        generating_function(FIB, -1)


def test_growth_constant_known_values():
    assert growth_constant(FIB) == 5
    assert growth_constant(Recurrence(2, (-1, 2), (2, 1))) == 7
    assert growth_constant(Recurrence(2, (-2, 3), (0, 1))) == 11


def test_growth_constant_bumps_for_large_initial_terms():
    rec = Recurrence(1, (-1,), (1000,))
    c = growth_constant(rec)
    assert c == 1001  # need c^1 > 1000 at index 0


@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.integers(1, 50),
            st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d),
            st.lists(st.integers(-10**40, 10**40), min_size=d, max_size=d),
        )
    )
)
def test_growth_constant_is_the_least_c_past_the_start_bound(data):
    den0, rest, init = data
    d = len(rest)

    def holds(c):
        # the start bound, then |s(k)| < c^(k+1) on the initial terms
        start = d * sum(abs(a) for a in rest) // den0 + 1
        return c >= start and all(abs(v) < c ** (k + 1) for k, v in enumerate(init))

    c = _growth_constant((den0, *rest), init)
    assert holds(c) and not holds(c - 1)


@given(small_recurrences())
def test_growth_constant_bounds_the_sequence(rec):
    c = growth_constant(rec)
    for n, v in enumerate(eval_oracle(rec, 40).values):
        assert abs(v) < c ** (n + 1)


def test_provably_nonnegative_easy_cases():
    assert provably_nonnegative(FIB)
    assert provably_nonnegative(Recurrence(2, (-1, -1), (2, 1)))
    assert provably_nonnegative(Recurrence(2, (-2, 1), (0, 1)))  # order-2 route
    assert provably_nonnegative(Recurrence(2, (-3, 2), (0, 1)))
    assert provably_nonnegative(Recurrence(2, (-16, 1), (1, 8)))


def test_provably_nonnegative_rejects_signed_sequences():
    assert not provably_nonnegative(Recurrence(2, (-2, 3), (0, 1)))
    assert not provably_nonnegative(Recurrence(2, (-1, 2), (2, 1)))


@given(small_recurrences())
def test_provably_nonnegative_never_lies(rec):
    if provably_nonnegative(rec):
        assert all(v >= 0 for v in eval_oracle(rec, 60).values)


@given(st.integers(min_value=0, max_value=2**400 - 1), st.integers(min_value=1, max_value=12))
@example(2**399 - 1, 12)
@example(3**5 - 1, 5)
@example(3**5, 5)
@example(3**5 + 1, 5)
@example((2**33 + 1) ** 12 - 1, 12)
@example((2**33 + 1) ** 12, 12)
@example((2**33 + 1) ** 12 + 1, 12)
def test_floor_root_is_exact(x, k):
    r = floor_root(x, k)
    assert r**k <= x < (r + 1) ** k
