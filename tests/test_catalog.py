import math

import pytest

from arithterm.catalog import (
    Fixture,
    LucasParameterError,
    LucasParams,
    fibonacci_binomial_oracle,
    fibonacci_convolution,
    fixtures,
    get_fixture,
    lucas_closed_form_oracle,
    lucas_U,
    lucas_V,
    pell_fundamental,
    pell_recurrences,
)
from arithterm.recurrence import Recurrence, eval_oracle, generating_function
from arithterm.terms import evaluate

# parameter pairs exercised by the catalog families
LUCAS_PAIRS = [(1, -1), (2, -1), (1, -2), (3, 2), (2, 3), (1, 2)]


def test_lucas_params_degeneracy():
    assert LucasParams(2, 1).is_degenerate
    assert LucasParams(4, 4).is_degenerate
    assert LucasParams(3, 0).is_degenerate
    assert not LucasParams(1, -1).is_degenerate
    assert LucasParams(1, -1).discriminant == 5


def test_lucas_recurrence_builders():
    assert lucas_U(LucasParams(1, -1)) == Recurrence(2, (-1, -1), (0, 1))
    assert lucas_V(LucasParams(1, -1)) == Recurrence(2, (-1, -1), (2, 1))
    assert lucas_U(LucasParams(2, 3)) == Recurrence(2, (-2, 3), (0, 1))
    with pytest.raises(LucasParameterError):
        lucas_U(LucasParams(2, 1))
    with pytest.raises(LucasParameterError):
        lucas_V(LucasParams(2, 1))


def test_lucas_gf_accepts_degenerate_parameters():
    # the builders refuse (2, 1), the generating function does not:
    # U(2, 1) is the identity sequence, z / (1 - z)^2
    assert generating_function(Recurrence(2, (-2, 1), (0, 1))) == ((0, 1), (1, -2, 1))
    # V(2, 1) is constant 2, and (2 - 2z) / (1 - z)^2 reduces
    assert generating_function(Recurrence(2, (-2, 1), (2, 2))) == ((2,), (1, -1))


def test_lucas_gf_matches_recurrence():
    # U has z / (1 - Pz + Qz^2), V has (2 - Pz) / (1 - Pz + Qz^2)
    for p, q in LUCAS_PAIRS:
        params = LucasParams(p, q)
        assert generating_function(lucas_U(params)) == ((0, 1), (1, -p, q)), (p, q)
        assert generating_function(lucas_V(params)) == ((2, -p), (1, -p, q)), (p, q)


def test_lucas_closed_form_oracle_against_recurrence():
    for p, q in LUCAS_PAIRS:
        params = LucasParams(p, q)
        u = eval_oracle(lucas_U(params), 65).values
        v = eval_oracle(lucas_V(params), 65).values
        for n in range(65):
            assert lucas_closed_form_oracle(params, "U", n) == u[n], (p, q, n)
            assert lucas_closed_form_oracle(params, "V", n) == v[n], (p, q, n)
        # far out, where far_replay checks (2, 3), A088137's recurrence
        for kind, build in (("U", lucas_U), ("V", lucas_V)):
            far = eval_oracle(build(params), 2001).values[2000]
            assert far == lucas_closed_form_oracle(params, kind, 2000), (p, q, kind)


def test_lucas_closed_form_oracle_degenerate_total():
    params = LucasParams(2, 1)
    for n in range(40):
        assert lucas_closed_form_oracle(params, "U", n) == n
        assert lucas_closed_form_oracle(params, "V", n) == 2


def test_lucas_closed_form_oracle_validation():
    with pytest.raises(ValueError):
        lucas_closed_form_oracle(LucasParams(1, -1), "U", -1)
    with pytest.raises(ValueError):
        lucas_closed_form_oracle(LucasParams(1, -1), "X", 3)


def test_fibonacci_binomial_oracle():
    fib = eval_oracle(lucas_U(LucasParams(1, -1)), 65).values
    for n in range(65):
        assert fibonacci_binomial_oracle(n) == fib[n]
    assert eval_oracle(lucas_U(LucasParams(1, -1)), 2001).values[2000] == fibonacci_binomial_oracle(2000)
    with pytest.raises(ValueError):
        fibonacci_binomial_oracle(-1)


def test_pell_fundamental_known_values():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(3) == (2, 1)
    assert pell_fundamental(7) == (8, 3)
    assert pell_fundamental(61) == (1766319049, 226153980)


def test_pell_fundamental_validation():
    with pytest.raises(ValueError):
        pell_fundamental(1)
    with pytest.raises(ValueError):
        pell_fundamental(16)


def brute_pell(k, y_cap=10**5):
    for y in range(1, y_cap):
        x2 = 1 + k * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            return x, y
    raise AssertionError(f"no solution below cap for k={k}")


def test_pell_fundamental_is_minimal_for_small_k():
    for k in range(2, 51):
        if math.isqrt(k) ** 2 == k:
            continue
        assert pell_fundamental(k) == brute_pell(k), k


def test_pell_recurrences_solve_the_equation():
    for k in (2, 3, 7):
        x_rec, y_rec = pell_recurrences(k)
        xs = eval_oracle(x_rec, 31).values
        ys = eval_oracle(y_rec, 31).values
        for n in range(31):
            assert xs[n] ** 2 - k * ys[n] ** 2 == 1, (k, n)
        # strictly increasing solution list starting at the trivial one
        assert xs[0] == 1 and ys[0] == 0
        assert all(xs[i] < xs[i + 1] for i in range(30))


def test_fibonacci_convolution_r0_is_fibonacci():
    assert fibonacci_convolution(0) == lucas_U(LucasParams(1, -1))
    with pytest.raises(ValueError):
        fibonacci_convolution(-1)


def test_fibonacci_convolution_matches_direct_convolution():
    fib = eval_oracle(lucas_U(LucasParams(1, -1)), 25).values
    conv = list(fib)
    for r in range(1, 7):
        conv = [
            sum(conv[i] * fib[n - i] for i in range(n + 1)) for n in range(25)
        ]
        window = eval_oracle(fibonacci_convolution(r), 25).values
        assert list(window) == conv, r


def test_fixture_table_shape():
    fixes = fixtures()
    assert len(fixes) == 23
    ids = [f.id for f in fixes]
    assert len(set(ids)) == 23
    for f in fixes:
        assert isinstance(f, Fixture)
        assert f.base >= 2
        assert f.shift >= 0
        assert f.valid_from >= 0


def test_get_fixture():
    assert get_fixture("A000045").base == 3
    with pytest.raises(ValueError):
        get_fixture("A999999")


def test_fixture_spot_values():
    # independent hand-computed checks, one per structural family
    assert evaluate(get_fixture("A000045").term, {"n": 10}) == 55
    assert evaluate(get_fixture("A000032").term, {"n": 0}) == 2
    assert evaluate(get_fixture("A002203").term, {"n": 2}) == 6
    assert evaluate(get_fixture("A001080").term, {"n": 1}) == 3
    assert evaluate(get_fixture("A001081").term, {"n": 3}) == 2024
    assert evaluate(get_fixture("A001629").term, {"n": 2}) == 1
    assert evaluate(get_fixture("A103469").term, {"n": 3}) == 2
    assert evaluate(get_fixture("A088137").term, {"n": 4}) - 3**5 == -4
    assert evaluate(get_fixture("A002249").term, {"n": 3}) - 2**4 == -5
