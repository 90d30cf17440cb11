import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from arithterm import recurrence, synthesis, terms
from arithterm.catalog import get_fixture
from arithterm.recurrence import (
    NonIntegerTermError,
    Recurrence,
    _int_den,
    eval_oracle,
    floor_root,
    generating_function,
)
from arithterm.synthesis import (
    _NONNEG_PROBE,
    AllZeroSequenceError,
    BoundsCertificate,
    SynthesisError,
    _WINDOW_CAP,
    _bound_data,
    _carry,
    _carry_floor,
    _checked,
    _coefficient_slack,
    _digit_floor,
    _dominated_from,
    _first_mismatch,
    _growth_constant,
    _least,
    _nonnegative,
    _prefix,
    _prepare,
    _shift_certified,
    _shift_stage,
    _window_cutoff,
    find_b1_m,
    find_b2,
    pow_lt,
    radius_lower_bound,
    synthesize,
)
from arithterm.terms import evaluate, extraction_value, read_extraction, render
from arithterm.verify import verify_term

FIB = Recurrence(2, (-1, -1), (0, 1))
SIGNED_U = Recurrence(2, (-2, 3), (0, 1))  # 0, 1, 2, 1, -4, -11, ...
SIGNED_V = Recurrence(2, (-1, 2), (2, 1))  # 2, 1, -3, -7, -1, 13, ...


def find_shift(rec):
    # the least proven shift, as synthesize's shift stage searches it
    return _shift_stage(rec, None)[0]


def test_radius_lower_bound_values():
    assert radius_lower_bound((1, -1, -1)) == Fraction(1, 2)
    assert radius_lower_bound((1, -3, 2)) == Fraction(1, 4)
    assert radius_lower_bound((5,)) == 1
    assert radius_lower_bound((2, -16, 2)) == Fraction(1, 9)
    with pytest.raises(ValueError):
        radius_lower_bound((0, 1))


def test_find_shift_nonnegative_sequences_get_zero():
    assert find_shift(FIB) == 0
    assert find_shift(Recurrence(2, (-2, 1), (0, 1))) == 0
    assert find_shift(Recurrence(2, (-3, 2), (0, 1))) == 0


def test_find_shift_signed_sequences():
    assert find_shift(SIGNED_U) == 3
    assert find_shift(SIGNED_V) == 2


def test_find_shift_result_really_clears_the_sequence():
    for rec in (SIGNED_U, SIGNED_V):
        c = find_shift(rec)
        assert all(v + c ** (n + 1) > 0 for n, v in enumerate(eval_oracle(rec, 200).values))


@pytest.mark.parametrize("init", [2**12, 2**100], ids=["2^12", "2^100"])
def test_find_shift_refuses_what_synthesize_refuses(init):
    # s(n) = 2^(k - n) is an integer on the prefix up to k, but its reduced
    # denominator 2 - z makes it no integer sequence
    rec = Recurrence(1, ("-1/2",), (init,))
    for call in (find_shift, synthesize):
        with pytest.raises(SynthesisError, match="not an integer sequence"):
            call(rec)


def test_find_shift_refuses_the_zero_sequence():
    with pytest.raises(AllZeroSequenceError):
        find_shift(Recurrence(2, (-1, -1), (0, 0)))


def test_find_shift_is_logarithmic_in_the_shift():
    # s(n) = (-10^6)^n needs c = 10^6, which one certificate check per c
    # below it would take about 11 s to reach
    started = time.perf_counter()
    assert find_shift(Recurrence(1, (10**6,), (1,))) == 10**6
    assert time.perf_counter() - started < 1


@st.composite
def _thresholds(draw):
    lo = draw(st.integers(-(10**6), 10**6))
    hi = lo + draw(st.integers(-2, 2**70))
    return lo, hi, lo + draw(st.integers(0, 2**71))


@given(_thresholds())
@example((5, 5, 5))
@example((5, 5, 6))
@example((5, 4, 5))
@example((0, 2**70, 2**70))
def test_least_finds_a_threshold_in_logarithmic_calls(case):
    lo, hi, threshold = case
    calls = []

    def pred(x):
        assert lo <= x <= hi
        calls.append(x)
        return x >= threshold

    got = _least(pred, lo, hi)
    assert got == (threshold if threshold <= hi else None)
    last = threshold if got is not None else hi
    assert len(calls) <= 2 * math.log2(max(last - lo, 0) + 2) + 2


def _witness_holds(c_t, rho):
    # find_b1_m's witness by the definition, with exact powers
    b1, m = find_b1_m(c_t, rho)
    assert b1 == c_t + 1 and m >= 3
    return c_t ** (m + 1) < b1 ** (m - 2) and rho.numerator * b1**m > rho.denominator


def test_find_b1_m_fibonacci_data():
    assert find_b1_m(5, Fraction(1, 2)) == (6, 37)
    assert _witness_holds(5, Fraction(1, 2))


def test_find_b1_m_respects_rho():
    # a tiny radius forces the cutoff up even when sizes are fine early:
    # 3^20 has 32 bits, so m = 33
    assert find_b1_m(2, Fraction(1, 3**20)) == (3, 33)
    assert _witness_holds(2, Fraction(1, 3**20))
    # a radius bound of 100,000 bits
    assert find_b1_m(2, Fraction(1, 2**100000)) == (3, 100002)


def test_find_b1_m_brackets_a_huge_radius_bound_without_building_powers():
    # floor(1/rho) has 4,000,001 bits; validate never builds 3^m in full
    rho = Fraction(1, 2**4000000)
    started = time.perf_counter()
    b1, m = find_b1_m(2, rho)
    BoundsCertificate(c=0, c_t=2, rho=rho, b1=b1, m=m, b2=find_b2(2, rho)).validate()
    assert time.perf_counter() - started < 0.5
    assert (b1, m) == (3, 4000002)


@given(st.integers(1, 2**246), st.integers(1, 10**12), st.integers(1, 10**12))
@example(1, 1, 1)
@example(5, 1, 2)
@example(2**246, 1, 3)
@example(2**246 * 16 // 10, 1, 10**12)
@example(2**40, 10**12, 10**12)
def test_find_b1_m_witness_passes_validate(c_t, p, q):
    assume(p <= q)
    rho = Fraction(p, q)
    b1, m = find_b1_m(c_t, rho)
    BoundsCertificate(c=0, c_t=c_t, rho=rho, b1=b1, m=m, b2=find_b2(c_t, rho)).validate()


def test_find_b1_m_witness_grid():
    for rho in (Fraction(1), Fraction(1, 2), Fraction(7, 10), Fraction(1, 1000), Fraction(1, 3**20)):
        for c_t in range(1, 201):
            assert _witness_holds(c_t, rho), (c_t, rho)


@given(st.integers(0, 300), st.integers(0, 80), st.integers(0, 300), st.integers(0, 80))
@example(0, 0, 0, 0)
@example(0, 1, 0, 0)
@example(0, 0, 0, 1)
@example(1, 0, 1, 1)
@example(7, 1, 7, 1)
@example(7, 1, 8, 1)  # bit lengths decide: 7 < 2^3 <= 8
@example(8, 1, 7, 1)
@example(2, 6, 4, 3)  # equal powers
@example(2, 6, 8, 2)
def test_pow_lt_matches_exact_powers(a, p, b, q):
    assert pow_lt(a, p, b, q) == (a**p < b**q)


@given(st.integers(1, 400), st.integers(3, 3000))
@example(6480, 170629)
@example(6480, 170630)
@example(1, 3)
def test_pow_lt_near_ties(c, m):
    # the find_b1_m inequality, whose two sides differ by a factor near 1
    assert pow_lt(c, m + 1, c + 1, m - 2) == (c ** (m + 1) < (c + 1) ** (m - 2))
    assert pow_lt(c + 1, m - 2, c, m + 1) == ((c + 1) ** (m - 2) < c ** (m + 1))


@given(st.integers(3, 10**6), st.integers(1, 40), st.integers(1, 40))
def test_pow_lt_equal_large_powers(x, j, k):
    # (x^j)^k == (x^k)^j: bit lengths cannot decide a tie, the powers do
    assert not pow_lt(x**j, k, x**k, j)
    assert pow_lt(x**j, k, x**k + 1, j)
    assert not pow_lt(x**k + 1, j, x**j, k)


@given(st.integers(2, 10**6), st.integers(1, 40), st.integers(1, 40))
@example(3, 1, 2)
def test_pow_lt_builds_powers_only_within_the_bit_budget(x, j, k):
    # a tie is decided at a budget that holds both powers, refused one below
    bits = max(k * (x**j).bit_length(), j * (x**k).bit_length())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(terms, "DEFAULT_BIT_BUDGET", bits)
        assert not pow_lt(x**j, k, x**k, j)
        mp.setattr(terms, "DEFAULT_BIT_BUDGET", bits - 1)
        with pytest.raises(terms.BudgetExceededError):
            pow_lt(x**j, k, x**k, j)
        # bit lengths decide 2^k < (2x)^k without a budget
        mp.setattr(terms, "DEFAULT_BIT_BUDGET", 0)
        assert pow_lt(2, k, 2 * x, k) and not pow_lt(2 * x, k, 2, k)
    # 1^k is 1 for every k, however long k is
    assert not pow_lt(1, 10**30, 1, 10**30) and pow_lt(1, 10**30, 2, 1)


def test_pow_lt_rejects_negative_operands():
    with pytest.raises(ValueError):
        pow_lt(-2, 3, 2, 3)
    with pytest.raises(ValueError):
        pow_lt(2, -1, 2, 3)


def test_find_b1_m_validation():
    with pytest.raises(ValueError):
        find_b1_m(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        find_b1_m(3, Fraction(0))


def test_find_b1_m_work_bound(monkeypatch):
    # the refusal is decided from the bit length of m, before any power
    calls = []
    monkeypatch.setattr(synthesis, "pow_lt", lambda *args: calls.append(args) or pow_lt(*args))
    started = time.perf_counter()
    with pytest.raises(SynthesisError, match="more than 256 bits"):
        find_b1_m(2**4000 + 1, Fraction(1, 3))
    assert time.perf_counter() - started < 5
    # 247 bits: m has 256 bits, the most accepted
    b1, m = find_b1_m(2**246 * 16 // 10, Fraction(1, 3))
    assert m.bit_length() == 256
    assert m == 2 + -(-21 * 247 * (2 * (b1 - 1) + 1) // 20)
    # 248 bits: m would have 257
    with pytest.raises(SynthesisError, match="more than 256 bits"):
        find_b1_m(2**247, Fraction(1, 3))
    assert calls == []


def test_find_b2_values():
    assert find_b2(1, Fraction(1, 2)) == 8
    assert find_b2(2, Fraction(1, 2)) == 65
    assert find_b2(5, Fraction(1, 2)) == 15626
    assert find_b2(1, Fraction(1, 1000)) == 1001


def test_certificate_validate():
    cert = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=29, b2=15626)
    cert.validate()
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=2, b2=15626)
    with pytest.raises(ValueError, match="m >= 3"):
        bad.validate()
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=5, m=29, b2=15626)
    with pytest.raises(ValueError, match="b1 > c_t"):
        bad.validate()
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=29, b2=100)
    with pytest.raises(ValueError, match="b2 >="):
        bad.validate()


def test_certificate_validate_checks_the_power_inequalities():
    # m = 28 is one below the least cutoff for c_t = 5
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=28, b2=15626)
    with pytest.raises(ValueError, match=r"c_t\^\(m\+1\)"):
        bad.validate()
    # b1^(-m) == rho exactly: the strict inequality fails on a tie
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 6**29), b1=6, m=29, b2=6**29 + 1)
    with pytest.raises(ValueError, match=r"b1\^\(-m\) < rho"):
        bad.validate()
    bad = BoundsCertificate(c=0, c_t=5, rho=Fraction(0), b1=6, m=29, b2=15626)
    with pytest.raises(ValueError, match="rho > 0"):
        bad.validate()


def test_certificate_validate_decides_an_exact_tie():
    # (3^400)^1203 == (3^401)^1200: bit lengths cannot tell, the powers can
    bad = BoundsCertificate(c=0, c_t=3**400, rho=Fraction(1, 2), b1=3**401, m=1202, b2=3**2400 + 1)
    with pytest.raises(ValueError, match=r"^certificate violates c_t\^\(m\+1\) < b1\^\(m-2\)$"):
        bad.validate()


def test_certificate_validate_refuses_a_tie_past_the_bit_budget():
    # (3^10000)^30003 == (3^10001)^30000 needs powers of about 475M bits
    big = BoundsCertificate(c=0, c_t=3**10000, rho=Fraction(1, 2), b1=3**10001, m=30002, b2=3**60000 + 1)
    started = time.perf_counter()
    with pytest.raises(terms.BudgetExceededError):
        big.validate()
    assert time.perf_counter() - started < 1


def test_certificate_validate_refuses_a_small_b2_by_bit_lengths():
    # c_t of 2^22 bits passes the clauses before b2 from bit lengths;
    # c_t^6 would have about 25M bits, and b2 = 8 has 4
    c_t = 2 ** (2**22) - 1
    cert = BoundsCertificate(c=0, c_t=c_t, rho=Fraction(1, 2), b1=2 ** (2**23), m=6, b2=8)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^certificate violates b2 >= max\(8, c_t\^6 \+ 1\)$"):
        cert.validate()
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("sixth_plus", [0, 1])
def test_certificate_validate_refuses_b2_past_the_bit_budget(monkeypatch, sixth_plus):
    # the clauses before b2 hold from bit lengths; c_t^6 has about 1,795
    # bits, which bit lengths cannot tell from b2 and the budget refuses
    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", 1000)
    c_t = 2**299 + 1
    cert = BoundsCertificate(c=0, c_t=c_t, rho=Fraction(1, 2), b1=2**600, m=10, b2=c_t**6 + sixth_plus)
    with pytest.raises(terms.BudgetExceededError):
        cert.validate()


def test_find_b2_refuses_c_t_to_the_sixth_past_the_bit_budget(monkeypatch):
    monkeypatch.setattr(terms, "DEFAULT_BIT_BUDGET", 600)
    assert find_b2(2**100 - 1, Fraction(1, 2)) == (2**100 - 1) ** 6 + 1
    with pytest.raises(terms.BudgetExceededError):
        find_b2(2**100, Fraction(1, 2))


@pytest.mark.parametrize("c_t", [1, 2, 5, 255, 256, 3**40])
def test_certificate_validate_decides_b2_as_exact_powers_do(c_t):
    # b2 around c_t^6 + 1 and around the bit-length bound 2^(6 (bits(c_t) - 1))
    # with the written-down witness, so every clause before it holds
    b1, m = find_b1_m(c_t, Fraction(1, 2))
    low = 2 ** (6 * (c_t.bit_length() - 1))
    for b2 in (7, 8, 9, low - 1, low, low + 1, c_t**6, c_t**6 + 1, c_t**6 + 2):
        cert = BoundsCertificate(c=0, c_t=c_t, rho=Fraction(1, 2), b1=b1, m=m, b2=b2)
        if b2 >= max(8, c_t**6 + 1):
            cert.validate()
        else:
            with pytest.raises(ValueError, match=r"^certificate violates b2 >= max\(8, c_t\^6 \+ 1\)$"):
                cert.validate()


def _reference_violation(cert):
    # validate's clauses by their definitions, with both powers built exactly
    c_t, rho, b1, m, b2 = cert.c_t, cert.rho, cert.b1, cert.m, cert.b2
    checks = [
        ("m >= 3", lambda: m >= 3),
        ("c_t >= 1", lambda: c_t >= 1),
        ("b1 > c_t", lambda: b1 > c_t),
        ("rho > 0", lambda: rho > 0),
        ("c_t^(m+1) < b1^(m-2)", lambda: c_t ** (m + 1) < b1 ** (m - 2)),
        ("b1^(-m) < rho", lambda: Fraction(1, b1**m) < rho),
        ("b2 >= max(8, c_t^6 + 1)", lambda: b2 >= max(8, c_t**6 + 1)),
        ("b2^(-1) < rho", lambda: Fraction(1, b2) < rho),
    ]
    return next((label for label, ok in checks if not ok()), None)


@given(st.integers(1, 60), st.integers(1, 4), st.integers(3, 90), st.integers(1, 10**4), st.integers(1, 10**4))
# m at the written size cutoff and one below it (c_t = 5: 37; c_t = 2: 13)
@example(5, 1, 37, 1, 2)
@example(5, 1, 36, 1, 2)
@example(2, 1, 13, 1, 2)
@example(2, 1, 12, 1, 2)
@example(2, 1, 7, 1, 2)  # below the cutoff and false: 2^8 > 3^5
# floor(1/rho) of m - 1 and of m bits, m = 13 >= the cutoff 6 for c_t = 1,
# and of m + 1 bits at a tie: 2^13 = 1/rho is refused
@example(1, 1, 13, 1, 4095)
@example(1, 1, 13, 1, 4096)
@example(1, 1, 13, 1, 8192)
@example(1, 2, 8, 1, 6560)
@example(1, 2, 8, 1, 6561)  # 3^8 = 1/rho: the tie is refused
def test_certificate_validate_agrees_with_exact_powers(c_t, db1, m, p, q):
    assume(p <= q)
    rho = Fraction(p, q)
    cert = BoundsCertificate(c=0, c_t=c_t, rho=rho, b1=c_t + db1, m=m, b2=find_b2(c_t, rho))
    label = _reference_violation(cert)
    if label is None:
        cert.validate()
    else:
        with pytest.raises(ValueError) as err:
            cert.validate()
        assert str(err.value) == f"certificate violates {label}"


def test_written_down_witness_validates_without_pow_lt(monkeypatch):
    # a written-down witness decides both inequalities in b1^m without
    # pow_lt; the b2 clause calls pow_lt(c_t, 6, b2, 1) for every
    # certificate, so calls with (p, q) = (6, 1) are not recorded
    calls = []

    def recorded(a, p, b, q):
        if (p, q) != (6, 1):
            calls.append((a, p, b, q))
        return pow_lt(a, p, b, q)

    monkeypatch.setattr(synthesis, "pow_lt", recorded)
    certs = []
    for rho in (Fraction(1), Fraction(1, 2), Fraction(7, 10), Fraction(1, 1000), Fraction(1, 3**20)):
        for c_t in range(1, 201):
            b1, m = find_b1_m(c_t, rho)
            certs.append(BoundsCertificate(c=0, c_t=c_t, rho=rho, b1=b1, m=m, b2=find_b2(c_t, rho)))
    # floor(1/rho) of 4,000,001 bits
    rho = Fraction(1, 2**4000000)
    b1, m = find_b1_m(2, rho)
    certs.append(BoundsCertificate(c=0, c_t=2, rho=rho, b1=b1, m=m, b2=find_b2(2, rho)))
    for cert in certs:
        cert.validate()
    # synthesize validates its own certificate: FibConv4 (m = 176920), and
    # a c_t of 182 bits
    assert synthesize(get_fixture("FibConv4").recurrence).certificate.m == 176920
    rec = Recurrence(2, (-1, -1), (2**181, 2**181 + 7))
    c = find_shift(rec)
    assert _bound_data(c, _prepare(rec, c, _prefix(rec))[1]).c_t.bit_length() == 182
    assert calls == []
    # hand-made m below the written-down 37 still reach pow_lt, with the
    # same outcomes: m = 29 holds, m = 28 does not, the 6^29 tie is refused
    BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=29, b2=15626).validate()
    assert calls == [(5, 30, 6, 27)]
    with pytest.raises(ValueError, match=r"c_t\^\(m\+1\)"):
        BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 2), b1=6, m=28, b2=15626).validate()
    assert calls[1:] == [(5, 29, 6, 26)]
    with pytest.raises(ValueError, match=r"b1\^\(-m\) < rho"):
        BoundsCertificate(c=0, c_t=5, rho=Fraction(1, 6**29), b1=6, m=29, b2=6**29 + 1).validate()
    assert calls[2:] == [(5, 30, 6, 27), (6**29, 1, 6, 29)]


def test_fibconv4_certificate_unchanged():
    cert = synthesize(get_fixture("FibConv4").recurrence).certificate
    assert (cert.c_t, cert.b1, cert.m) == (6480, 6481, 176920)


def test_bound_data_for_huge_initial_values_is_fast():
    # c_t has 182 bits here; building c_t^(m+1) exactly never finishes
    rec = Recurrence(2, (-1, -1), (2**181, 2**181 + 7))
    started = time.perf_counter()
    c = find_shift(rec)
    cert = _bound_data(c, _prepare(rec, c, _prefix(rec))[1])
    cert.validate()
    assert time.perf_counter() - started < 10
    assert cert.c_t.bit_length() == 182
    assert cert.b1 == cert.c_t + 1
    assert cert.m.bit_length() == 190


def test_synthesize_huge_initial_values():
    # the carry at n = 1 jumps the search from the digit floor near 2^181
    # to 2^182 + 9; one base at a time it never finished
    rec = Recurrence(2, (-1, -1), (2**181, 2**181 + 7))
    started = time.perf_counter()
    r = synthesize(rec)
    assert time.perf_counter() - started < 10
    assert r.b == 2**182 + 9
    assert (r.report["strategy"], r.report["evidence"]) == ("scan", "certified")
    assert verify_term(eval_oracle(rec, 41).values, r.term, r.c, 1, 40).ok


@pytest.mark.parametrize("k", [30, 50, 70])
def test_window_jump_ends_large_coefficient_searches(k):
    # every base near the answer passes n = 1 but has no window within
    # _WINDOW_CAP terms; one base at a time, k = 30 did not end in 10 s
    rec = Recurrence(2, (-(10**k), 1), (1, 2))
    started = time.perf_counter()
    r = synthesize(rec)
    assert time.perf_counter() - started < 1
    assert (r.report["evidence"], r.report["minimal_proven"], r.certified_from) == ("certified", True, 65)
    assert verify_term(eval_oracle(rec, 41).values, r.term, r.c, 1, 40).ok
    # the jump lands on the first base with a window, and so skips no base
    # that a probe could accept
    _, t = _prepare(rec, r.c, _prefix(rec))
    assert _window_cutoff(t, r.b - 1) is None


def test_window_jump_landing_base_gets_one_window_check(monkeypatch):
    # the jump's _least already finds the window of the base it lands on,
    # and the probe of that base reuses it
    calls = []
    cutoff = synthesis._window_cutoff
    monkeypatch.setattr(synthesis, "_window_cutoff", lambda t, b: calls.append(b) or cutoff(t, b))
    r = synthesize(Recurrence(2, (-(10**50), 1), (1, 2)))
    assert r.certified_from == 65 and r.b in calls
    assert max(calls.count(b) for b in calls) == 1


def test_base_search_goes_below_b1():
    assert synthesize(FIB).b == 3
    assert synthesize(Recurrence(2, (-2, 1), (2, 2))).b == 4
    assert synthesize(Recurrence(2, (-2, -1), (0, 1))).b == 3


def test_synthesize_fibonacci():
    r = synthesize(FIB)
    assert (r.b, r.c) == (3, 0)
    assert r.valid_at_zero
    assert render(r.term) == "fl(3^(n^2 + n) / (3^(2*n) -. (3^n + 1))) % 3^n"
    assert r.certificate.c_t == 5
    assert r.certificate.rho == Fraction(1, 2)
    assert (r.certificate.b1, r.certificate.m, r.certificate.b2) == (6, 37, 15626)
    assert r.certified_from is not None and r.certified_from >= 2
    assert r.report["strategy"] == "scan"
    assert r.report["minimal_proven"] is True


def test_synthesize_signed_sequences_use_shifts():
    r = synthesize(SIGNED_U)
    assert (r.b, r.c) == (32, 3)
    r = synthesize(SIGNED_V)
    assert (r.b, r.c) == (8, 2)


def test_synthesize_rejects_zero_sequence():
    with pytest.raises(AllZeroSequenceError):
        synthesize(Recurrence(1, (2,), (0,)))
    with pytest.raises(AllZeroSequenceError):
        synthesize(Recurrence(2, (-1, -1), (0, 0)))


def test_synthesize_rejects_a_shift_that_cancels_the_sequence():
    # s(n) = -2^(n+1): the forced shift 2 leaves t = 0
    with pytest.raises(SynthesisError, match="^shifted sequence is identically zero$"):
        synthesize(Recurrence(1, (-2,), (-2,)), force_c=2)


def test_synthesize_force_b_invalid_base_reports_first_failure():
    with pytest.raises(SynthesisError, match="n=1"):
        synthesize(FIB, force_b=2)


def test_synthesize_force_b_fails_anywhere_in_its_checked_range():
    # s(n) = 1: base 4 passes n = 1 but not n = 2, below its cutoff, so a
    # horizon of 1 does not let it through
    with pytest.raises(SynthesisError, match="^base 4 fails at n=2: "):
        synthesize(Recurrence(1, (1,), (1,)), horizon=1, force_b=4)


@pytest.mark.parametrize("fid", ["A001081", "A001045", "A000045"])
def test_probes_count_the_bases_direct_checked(monkeypatch, fid):
    bases = []
    first_mismatch = synthesis._first_mismatch

    def counted(num, t, b, ns):
        bases.append(b)
        return first_mismatch(num, t, b, ns)

    monkeypatch.setattr(synthesis, "_first_mismatch", counted)
    r = synthesize(get_fixture(fid).recurrence)
    assert r.report["probes"] == len(bases) == len(set(bases))
    assert bases[-1] == r.b
    if fid == "A001081":
        # its first base with a window is 143, the result
        assert bases == [143]


def test_synthesize_refuses_a_recurrence_integral_only_on_its_prefix():
    # s(n) = 2^(100 - n): integers on every index the prefix holds, but
    # s(101) = 1/2; the reduced denominator 2 - z says so for every n
    rec = Recurrence(1, ("-1/2",), (2**100,))
    assert all(isinstance(v, int) for v in _prefix(rec))
    with pytest.raises(SynthesisError, match="^not an integer sequence: "):
        synthesize(rec)
    # rational coefficients whose reduced denominator starts 1 still synthesize
    r = synthesize(Recurrence(2, ("-1/2", "-1/2"), (2**90, 2**90)))  # s(n) = 2^90, den 1 - z
    assert (r.report["evidence"], r.certified_from) == ("certified", 3)
    r = synthesize(Recurrence(2, ("3/2", -1), (1, -2)))  # s(n) = (-2)^n
    assert (r.b, r.c) == (4, 2)


def test_synthesize_force_b_valid_base():
    r = synthesize(FIB, force_b=4)
    assert r.b == 4
    assert r.report["strategy"] == "forced"
    oracle = eval_oracle(FIB, 41).values
    assert verify_term(oracle, r.term, r.c, 1, 40).ok


def test_synthesize_force_c():
    r = synthesize(FIB, force_c=1)
    assert r.c == 1
    assert r.report["evidence"] == "certified" and r.certified_from is not None
    oracle = eval_oracle(FIB, 41).values
    assert verify_term(oracle, r.term, 1, 1, 40).ok


def test_synthesize_forced_shift_without_proof_is_horizon_only():
    # 23*100^n - 101^n: nonnegative up to n = 315, negative from n = 316 on
    rec = Recurrence(2, (-201, 10100), (22, 2199))
    r = synthesize(rec, force_c=0)
    assert r.report["evidence"] == "horizon-only"
    assert r.certified_from is None
    # the carry walk runs without a proof of monotone carries, so the base
    # is not proven least
    assert (r.b, r.report["strategy"]) == (219899, "scan")
    assert r.report["minimal_proven"] is False
    oracle = eval_oracle(rec, 321).values
    assert verify_term(oracle, r.term, 0, 1, 40).ok
    report = verify_term(oracle, r.term, 0, 1, 320)
    assert report.first_failure is not None and report.first_failure.n == 315


def test_forced_shift_past_the_dominance_window_is_horizon_only():
    # 2*100^n - 101^n is first negative at n = 70, beyond the t(0..66) that
    # base search reads, so the unproven shift 0 is not refused but labelled
    rec = Recurrence(2, (-201, 10100), (1, 99))
    assert min(n for n, v in enumerate(eval_oracle(rec, 80).values) if v < 0) == 70
    r = synthesize(rec, force_c=0)
    assert r.report["evidence"] == "horizon-only"
    assert r.certified_from is None
    assert r.report["checked_to"] == 40
    assert verify_term(eval_oracle(rec, 41).values, r.term, 0, 1, 40).ok


def test_proven_shift_walks_past_a_long_carry_run():
    # c = 0 is proven, and F(b) >= b on all of [100001, 161803]: 61,803
    # bases the walk passes over by steps with k = F // b >= 1
    rec = Recurrence(2, (-(10**5), 1), (1, 10**5))
    r = synthesize(rec)
    b = 10000099999
    assert (r.b, r.c) == (b, 0)
    assert (r.report["strategy"], r.report["evidence"]) == ("scan", "certified")
    assert verify_term(eval_oracle(rec, 41).values, r.term, 0, 1, 40).ok
    # b is the least valid base: with t(1) below every base here, n = 1
    # passes iff the carry F(x) is a multiple of x
    s = _prefix(rec)
    num, t = _prepare(rec, 0, s)
    floor, b_c = _digit_floor(t), 161804
    assert t[1] < floor
    assert all(_carry(num, t, x) % x != 0 for x in range(floor, b_c))
    # from b_c on the carry lemma holds, so F does not increase and
    # 1 <= F(b - 1) <= F(x) <= F(b_c) < b_c <= x on [b_c, b)
    assert _nonnegative(s.den, s) and _coefficient_slack(t.den, b_c) > 0
    assert _carry(num, t, b_c - 1) >= b_c - 1 and _carry(num, t, b_c) < b_c
    assert _carry(num, t, b - 1) >= 1 and _carry(num, t, b) == 0


def test_unproven_shift_base_is_not_proven_least():
    # the carry lemma needs t(k) >= 0 for every k, which a forced shift
    # without a proof does not give: the same walk runs, but its base is
    # not proven least
    rec = Recurrence(2, (-201, 10100), (1, 99))
    r = synthesize(rec, force_c=0)
    assert r.report["evidence"] == "horizon-only"
    assert r.b == 9898
    assert r.report["minimal_proven"] is False
    assert r.report["probes"] <= 2


@pytest.mark.parametrize(
    ("rec", "force_c", "b"),
    [
        (Recurrence(2, (-(10**5), 1), (1, 10**5)), None, 10000099999),
        (Recurrence(2, (-(10**6), 1), (1, 10**6)), None, 1000000999999),
        (Recurrence(2, (-(10**6), 1), (0, 1)), None, 2000000),
        (Recurrence(1, (-(10**6),), (1,)), None, 1000001000001),
        (Recurrence(2, (-201, 10100), (22, 2199)), 0, 219899),
    ],
)
def test_long_carry_runs_cost_at_most_two_probes(rec, force_c, b):
    # runs of carries F >= b more than 20,000 bases long, the last
    # under an unproven forced shift: carry steps pass over them unprobed
    started = time.perf_counter()
    r = synthesize(rec, force_c=force_c)
    assert time.perf_counter() - started < 1
    assert r.b == b
    assert r.report["probes"] <= 2


def test_synthesize_force_c_too_small_is_rejected():
    with pytest.raises(SynthesisError, match="negative term"):
        synthesize(SIGNED_U, force_c=1)


@pytest.mark.parametrize(
    "rec, force_c, horizon, message",
    [
        # s(n) = 66 - n: the prefix reaches n = 65 + d for every shift, so a
        # forced c = 0 is refused at n = 67 even though h = 2
        (Recurrence(2, (-2, 1), (66, 65)), 0, 40, "^shift 0 leaves a negative term at n=67$"),
        # s(n) = 30 - n with c = 1: t(n) = 31 - n first goes negative at
        # n = 32, past the horizon; an unproven shift scans t to
        # max(_WINDOW_CAP + d + 2, horizon + 1), every index base search reads
        (Recurrence(2, (-2, 1), (30, 29)), 1, 30, "^shift 1 leaves a negative term at n=32$"),
    ],
    ids=["past-the-window", "past-the-horizon"],
)
def test_forced_shift_checks_the_whole_prefix_for_negative_terms(rec, force_c, horizon, message):
    with pytest.raises(SynthesisError, match=message):
        synthesize(rec, force_c=force_c, horizon=horizon)


def test_synthesize_raises_a_non_integer_term_past_the_initial_values():
    # s(n) = 2^(12 - n) first leaves the integers at n = 13, past the values
    # synthesize forms; the reduced denominator 2 - z refuses it at every
    # horizon, for every n
    for horizon in (20, 40):
        with pytest.raises(SynthesisError, match="^not an integer sequence: "):
            synthesize(Recurrence(1, ("-1/2",), (2**12,)), horizon=horizon)
    # a value synthesize forms is still named when it is not an integer:
    # s = 3, -1, 1/3
    with pytest.raises(NonIntegerTermError) as err:
        synthesize(Recurrence(1, ("1/3",), (3,)))
    assert err.value.index == 2


def test_prepare_names_the_read_back_cap(monkeypatch):
    # past the cap read_extraction reads no term, so the read-back would
    # fail; _prepare refuses the denominator degree first
    monkeypatch.setattr(synthesis, "_MAX_MATCHED_H", 1)
    with pytest.raises(SynthesisError, match="^the term's denominator would have degree 2, past the cap of 1$"):
        _prepare(FIB, 0, _prefix(FIB))
    with pytest.raises(SynthesisError, match="past the cap of 1"):
        synthesize(FIB)


BIG_COEFF = Recurrence(2, (-(10**30), 1), (1, 2))  # no base has a window before n = 65
MINUS_TWO_POW = Recurrence(2, ("3/2", -1), (1, -2))  # s(n) = (-2)^n, scale 2


@pytest.mark.parametrize(
    "rec, kwargs, evidence",
    [
        (SIGNED_U, {}, "certified"),
        (SIGNED_U, {"force_c": 3}, "certified"),
        (SIGNED_U, {"force_c": 2}, "horizon-only"),
        (FIB, {"force_b": 4}, "certified"),
        (FIB, {}, "certified"),
        (BIG_COEFF, {}, "certified"),
        (MINUS_TWO_POW, {"horizon": 10**6}, "certified"),
    ],
    ids=["searched", "force_c-proven", "force_c-unproven", "force_b", "fibonacci", "window-at-65", "rational-far-horizon"],
)
def test_synthesize_expands_the_sequence_once_and_builds_no_recurrence(monkeypatch, rec, kwargs, evidence):
    # every value of s and of t comes from _extend, appended to its one
    # prefix, so none is formed twice, and only as far as the stages read it
    formed, seen = {}, {}
    extend, prepare = recurrence._extend, synthesis._prepare

    def counted(den, vals, count):
        formed.setdefault(id(vals), []).extend(range(len(vals), count))
        extend(den, vals, count)

    def kept(rec, c, s):
        num, t = prepare(rec, c, s)
        seen.update(s=s, t=t)
        return num, t

    def no_call(*args, **kwargs):
        raise AssertionError("synthesize built a Recurrence or called eval_oracle")

    monkeypatch.setattr(synthesis, "_extend", counted)
    monkeypatch.setattr(synthesis, "_prepare", kept)
    monkeypatch.setattr(synthesis, "eval_oracle", no_call)
    monkeypatch.setattr(Recurrence, "__init__", no_call)
    started = time.perf_counter()
    r = synthesize(rec, **kwargs)
    elapsed = time.perf_counter() - started
    assert r.report["evidence"] == evidence
    s, t = seen["s"], seen["t"]
    assert set(formed) <= {id(s), id(t)}
    # s is formed past its d initial values, and t past the values of s it
    # starts from, which are all of s: only the shift stage grows s
    assert formed.get(id(s), []) == list(range(rec.order, len(s)))
    assert formed.get(id(t), []) == list(range(len(s), len(t)))
    scanned = _WINDOW_CAP + rec.order + 2
    if rec == FIB:
        # s(0..9), the _NONNEG_PROBE + d values _prefix forms first, is all
        # the shift stage reads; the window at base 3 starts at n = 3, so no
        # scan runs out of values
        assert len(s) == _NONNEG_PROBE + rec.order == 10
        assert len(t) < _WINDOW_CAP
    if kwargs == {"force_c": 2}:
        # an unproven shift grows t to every index base search reads, to
        # look for a negative t(n) anywhere there, and leaves s alone
        assert len(t) == scanned and len(s) == _NONNEG_PROBE + rec.order
    if rec == BIG_COEFF:
        # the window scans run out of values and grow t to all the window
        # reads, t(0.._WINDOW_CAP + h) for h = 2, where t(65) and t(66) make
        # the window
        assert r.certified_from == 65 and len(t) == _WINDOW_CAP + 3 == 67
    if rec == MINUS_TWO_POW:
        # Fatou's lemma, not the formed prefix, decides integrality, so a
        # far horizon forms no more of s than the shift stage reads
        assert (r.b, r.c) == (4, 2) and elapsed < 1
        assert len(s) == _NONNEG_PROBE + rec.order


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize(FIB, horizon=0)
    with pytest.raises(ValueError):
        synthesize(FIB, force_b=1)
    with pytest.raises(ValueError):
        synthesize(FIB, force_c=-1)
    # checked before any work: no bound data for a coefficient of 10^80,
    # and no value of s = 3, -1, 1/3 is formed
    with pytest.raises(ValueError, match="^force_b must be at least 2$"):
        synthesize(Recurrence(1, (-(10**80),), (1,)), force_b=1)
    with pytest.raises(ValueError, match="^force_c must be a natural number$"):
        synthesize(Recurrence(1, ("1/3",), (3,)), force_c=-1)


def test_valid_at_zero_flag():
    assert synthesize(Recurrence(2, (-2, 1), (0, 1))).valid_at_zero  # starts at 0
    assert not synthesize(Recurrence(2, (-2, -1), (2, 2))).valid_at_zero  # starts at 2


def test_result_json_shape():
    data = synthesize(FIB).to_json_dict()
    for key in ("recurrence", "term", "term_json", "b", "c", "valid_at_zero", "certificate", "certified_from", "horizon", "report"):
        assert key in data
    assert data["certificate"]["rho"] == "1/2"


def test_synthesize_first_order():
    r = synthesize(Recurrence(1, (-2,), (1,)))  # powers of two
    oracle = eval_oracle(r.recurrence, 41).values
    assert verify_term(oracle, r.term, r.c, 1, 40).ok


def test_synthesize_non_integer_recurrence_coefficients():
    # s(n+2) = s(n+1)/2 + s(n)/2 stays integral from (2, 4): 2, 4, 3, ...
    rec = Recurrence(2, ("-1/2", "-1/2"), (2, 4))
    with pytest.raises(Exception):
        eval_oracle(rec, 5)  # 7/2 shows up at index 2, so synthesis must refuse

    # constant 2, and 2^n, whose generating function loses the factor 1 - z/2
    for rec in (Recurrence(2, ("-1/2", "-1/2"), (2, 2)), Recurrence(2, ("-5/2", 1), (1, 2))):
        r = synthesize(rec)
        oracle = eval_oracle(rec, 41).values
        assert verify_term(oracle, r.term, r.c, 1, 40).ok


def test_synthesize_random_small_batch():
    rng = random.Random(99)
    done = 0
    while done < 25:
        d = rng.randint(1, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(d)]
        if coeffs[-1] == 0:
            continue
        init = [rng.randint(-6, 6) for _ in range(d)]
        rec = Recurrence(d, coeffs, init)
        try:
            r = synthesize(rec, horizon=25)
        except AllZeroSequenceError:
            continue
        oracle = eval_oracle(rec, 26).values
        report = verify_term(oracle, r.term, r.c, 1, 25)
        assert report.ok, (rec, report.first_failure)
        r.certificate.validate()
        assert evaluate(r.term, {"n": 5}) - r.c**6 == oracle[5]
        done += 1


def _window_start(t, b):
    # the scan grows t as far as it reads
    return _dominated_from(t.den, b, t, -2, _WINDOW_CAP + len(t.den))


@st.composite
def _recurrences(draw):
    order = draw(st.integers(1, 3))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    assume(coeffs[-1] != 0)
    init = draw(st.lists(st.integers(-10, 10), min_size=order, max_size=order))
    assume(any(init))
    return Recurrence(order, tuple(coeffs), tuple(init))


@given(_recurrences())
def test_dominance_window_proves_every_base_it_certifies(rec):
    # every base the window certifies, whether or not the scan accepts it,
    # equals t(n) from max(start, 2) on; t comes from the oracle because
    # _prepare's t holds only the prefix base search reads
    c = find_shift(rec)
    num, t = _prepare(rec, c, _prefix(rec))
    oracle = [v + c ** (n + 1) for n, v in enumerate(eval_oracle(rec, 81).values)]
    floor = _digit_floor(t)
    for b in range(floor, floor + 21):
        start = _window_start(t, b)
        if start is None:
            continue
        for n in range(max(start, 2), 81):
            assert extraction_value(num, t.den, b, n) == oracle[n], (b, start, n)


@given(_recurrences())
@example(SIGNED_U)
@example(SIGNED_V)
def test_find_shift_is_the_shift_synthesize_takes(rec):
    assert find_shift(rec) == synthesize(rec).c


@given(_recurrences())
# s = 8, -8, 8, ... with c = 3: t(1) = 1 and t(2) = 35, so the digit floor
# over n <= 8 is 6, at horizon 1 as well
@example(Recurrence(1, (1,), (8,)))
def test_a_searched_result_does_not_depend_on_the_horizon(rec):
    # the shift stage reads the recurrence and base search reads t alone;
    # under a proven shift the horizon replays nothing
    def outcome(horizon):
        try:
            data = synthesize(rec, horizon=horizon).to_json_dict()
        except (SynthesisError, terms.BudgetExceededError) as err:
            return type(err), str(err)
        del data["horizon"]
        return data

    assert outcome(1) == outcome(3) == outcome(30)


def _reference_slack(den, b):
    h = len(den) - 1
    return den[0] * b**h - sum(abs(d) * b ** (h - i) for i, d in enumerate(den[1:], start=1))


@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8), st.integers(0, 10**6))
@example([3], 0)
@example([1, -2, 5], 0)
@example([1, -2, 5], 1)
@example([-4, 7, 0, -1], 1)
def test_coefficient_slack_is_the_power_sum(den, b):
    assert _coefficient_slack(tuple(den), b) == _reference_slack(den, b)


@st.composite
def _digit_prefixes(draw):
    """Nonnegative prefixes whose t(n) are often an n-th power or next to
    one, where the digit floor moves or just stays."""
    t = [draw(st.integers(0, 10))]
    for n in range(1, draw(st.integers(9, 12))):
        near_power = draw(st.integers(2, 40)) ** n + draw(st.integers(-1, 1))
        t.append(near_power if draw(st.booleans()) else draw(st.integers(0, 10**40)))
    return t


@given(_digit_prefixes())
@example([0, 1, 3, 7, 15, 31, 63, 127, 255])
@example([0, 2, 9, 63, 256, 0, 0, 0, 0])  # each of 2, 9, 256 raises the floor by one
@example([5, 2**64, 0, 0, 0, 0, 0, 0, 3**200])
def test_digit_floor_is_the_largest_root_plus_one(t):
    # over n <= 8, the indices every prefix holds, whatever the horizon
    want = max(2, *(floor_root(t[n], n) + 1 for n in range(1, 9)))
    assert _digit_floor(t) == want


@given(_recurrences(), st.integers(0, 30))
@example(FIB, 0)
@example(SIGNED_U, 3)
def test_prepare_shifts_every_formed_value_by_c_to_the_n_plus_1(rec, c):
    s = _prefix(rec)
    try:
        num, t = _prepare(rec, c, s)
    except SynthesisError:
        assume(False)
    assert list(t) == [v + c ** (n + 1) for n, v in enumerate(s)]
    gf_num, gf_den = generating_function(rec, c)
    assert t.den == gf_den
    # num comes zero-padded to len(den), the length read_extraction reads
    assert len(num) == len(t.den) and num == (*gf_num, *(0,) * (len(num) - len(gf_num)))


def _data(prepared, b):
    num, t = prepared
    return num, t.den, b


@given(_recurrences())
@example(FIB)
@example(SIGNED_U)
def test_synthesized_term_matches_the_oracle_and_reads_back_as_its_data(rec):
    # synthesize never evaluates its term past n = 0: evaluate it at every n
    # up to 40 here, and read back the data base search direct-checked
    r = synthesize(rec)
    oracle = eval_oracle(rec, 41).values
    for n in range(1, 41):
        assert evaluate(r.term, {"n": n}) - r.c ** (n + 1) == oracle[n], n
    # the term is 0 at n = 0, which valid_at_zero relies on
    assert evaluate(r.term, {"n": 0}) == 0
    assert r.valid_at_zero == (r.c == -oracle[0])
    assert read_extraction(r.term) == _data(_prepare(rec, r.c, _prefix(rec)), r.b)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda num, den, b: (num, den, b + 1),
        # drops the summand 3^n of FIB's 3^(2*n) -. (3^n + 1)
        lambda num, den, b: (num, (den[0], 0, *den[2:]), b),
    ],
    ids=["base+1", "drop-summand"],
)
def test_a_term_built_from_other_data_is_an_internal_error(monkeypatch, mutate):
    build = synthesis.build_extraction_term
    monkeypatch.setattr(synthesis, "build_extraction_term", lambda *data: build(*mutate(*data)))
    with pytest.raises(SynthesisError, match="internal"):
        synthesize(FIB)


def test_synthesize_evaluates_its_term_only_at_zero(monkeypatch):
    # not even at zero: every extraction term is 0 there, so valid_at_zero
    # is read off s(0) + c
    assert not hasattr(synthesis, "evaluate")
    calls = []
    evaluate_ = terms.evaluate
    monkeypatch.setattr(terms, "evaluate", lambda *args, **kwargs: calls.append(args) or evaluate_(*args, **kwargs))
    r = synthesize(FIB)
    assert calls == [] and r.valid_at_zero


def test_synthesize_reads_back_a_term_too_deep_to_compare():
    # s(n) = s(n - 520): comparing this term with its rebuild can recurse
    # past the interpreter's limit; the read-back synthesize runs walks
    # each sum in a loop
    order = 520
    rec = Recurrence(order, (0,) * (order - 1) + (-1,), tuple(range(1, order + 1)))
    r = synthesize(rec, horizon=3)
    assert read_extraction(r.term) == _data(_prepare(rec, r.c, _prefix(rec)), r.b)
    assert r.valid_at_zero is False and r.report["evidence"] == "certified"


def _count_checks(mp):
    # (b, n) of every value extraction_values gives base search
    checks = []
    values = synthesis.extraction_values

    def counted(num, den, b, ns):
        for n, value in zip(ns, values(num, den, b, ns)):
            checks.append((b, n))
            yield value

    mp.setattr(synthesis, "extraction_values", counted)
    return checks


@given(_recurrences())
@example(FIB)
@example(SIGNED_U)
@example(SIGNED_V)
# b = 226 proven from n = 3; the probe of base 16 before it has the window
# start m_16 = 7 and fails at n = 3, past certified_from
@example(Recurrence(1, (5,), (4,)))
def test_proven_shift_direct_checks_only_below_certified_from(rec):
    # each base's window proves every n >= its cutoff m_x, so a probe of x
    # replays a prefix of [1, m_x - 1] only, and the accepted base all of it
    with pytest.MonkeyPatch.context() as mp:
        checks = _count_checks(mp)
        r = synthesize(rec)
    assert r.report["minimal_proven"] is True and r.report["evidence"] == "certified"
    assert r.report["checked_to"] == r.certified_from - 1
    _, t = _prepare(rec, r.c, _prefix(rec))
    by_base = {}
    for b, n in checks:
        by_base.setdefault(b, []).append(n)
    for b, ns in by_base.items():
        assert ns == list(range(1, len(ns) + 1))
        assert len(ns) <= _window_cutoff(t, b) - 1
    assert by_base[r.b] == list(range(1, r.certified_from))


def test_unproven_shift_replays_every_probe_to_the_horizon(monkeypatch):
    # without a proof that t(n) >= 0 the window proves nothing past the
    # prefix, so the base returned was replayed on all of [1, horizon]
    rec = Recurrence(2, (-201, 10100), (1, 99))
    checks = _count_checks(monkeypatch)
    r = synthesize(rec, force_c=0)
    assert r.certified_from is None and r.report["checked_to"] == 40
    assert sorted(n for b, n in checks if b == r.b) == list(range(1, 41))


def test_forced_base_replays_to_the_horizon(monkeypatch):
    checks = _count_checks(monkeypatch)
    r = synthesize(FIB, force_b=4)
    assert (r.certified_from, r.report["evidence"], r.report["checked_to"]) == (3, "certified", 40)
    assert sorted(n for _, n in checks) == list(range(1, 41))


def test_certified_from_is_the_window_start():
    r = synthesize(FIB)
    start = _window_start(_prepare(FIB, r.c, _prefix(FIB))[1], r.b)
    assert start is not None and r.certified_from == max(start, 2)


@given(_recurrences())
@example(SIGNED_U)
@example(SIGNED_V)
def test_find_shift_is_the_least_certified_shift(rec):
    # reference: the least c from 0 that either Fraction proof covers, by a
    # linear scan
    s = eval_oracle(rec, _WINDOW_CAP + rec.order).values
    nonneg = _fraction_nonnegative(rec, s)
    expected = next(c for c in range(_growth_constant(_int_den(rec), rec.init) + 1) if nonneg or _fraction_shift_certified(rec, c, s))
    assert find_shift(rec) == expected


@pytest.mark.parametrize(
    "rec",
    [
        FIB,
        SIGNED_U,
        Recurrence(2, ("3/2", -1), (1, -2)),
        # both proved nonnegative by the order-2 minorant, which runs in
        # integers, on a scale of 1 and of 2
        Recurrence(2, (-2, 1), (0, 1)),
        Recurrence(2, ("-5/2", 1), (1, 2)),
    ],
    ids=["FIB", "SIGNED_U", "rational", "minorant", "minorant-rational"],
)
def test_synthesis_builds_fractions_only_for_rho(monkeypatch, rec):
    # the recurrence's coefficients are Fractions built before the call;
    # synthesize builds none but rho, order-2 minorant included.  Python
    # 3.12 and later build the results of Fraction arithmetic without
    # __new__, so there only explicit constructions are seen
    outside = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "radius_lower_bound":
            frame = frame.f_back
        if frame is None:
            outside.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    synthesize(rec)
    assert outside == []


@st.composite
def _rational_recurrences(draw):
    # the characteristic polynomial of an integer recurrence times
    # x - p/q: the same integer sequence, with rational coefficients
    rec = draw(_recurrences())
    r = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(2, 5)))
    c = (*rec.coeffs, 0)
    coeffs = [c[0] - r] + [c[k] - r * c[k - 1] for k in range(1, len(c))]
    return Recurrence(rec.order + 1, coeffs, eval_oracle(rec, rec.order + 1).values)


def _fraction_nonnegative(rec, s):
    # the two nonnegativity routes on the recurrence's own Fraction
    # coefficients, the reference for _nonnegative's integer form
    window = s[: _NONNEG_PROBE + rec.order]
    if any(v < 0 for v in window):
        return False
    if all(c <= 0 for c in rec.coeffs):
        return True
    if rec.order == 2:
        p, q = -rec.coeffs[0], -rec.coeffs[1]
        if p > 0 > q:
            for lam in (Fraction(1), p / 2, 2 * (-q) / p):
                if not (0 <= lam <= p and lam * (p - lam) >= -q):
                    continue
                for k in range(len(window) - 1):
                    if window[k + 1] >= lam * window[k] >= 0:
                        return True
    return False


@given(st.one_of(_recurrences(), _rational_recurrences()))
@example(Recurrence(2, (-2, 1), (0, 1)))
@example(Recurrence(2, ("-5/2", 1), (1, 2)))
def test_integer_nonnegativity_routes_match_their_fraction_forms(rec):
    s = eval_oracle(rec, _NONNEG_PROBE + rec.order).values
    assert _nonnegative(_int_den(rec), s) == _fraction_nonnegative(rec, s)


@given(
    st.fractions(-8, 8, max_denominator=6),
    st.fractions(-8, 8, max_denominator=6).filter(bool),
    st.lists(st.integers(0, 50), min_size=_NONNEG_PROBE + 2, max_size=_NONNEG_PROBE + 2),
)
@example(Fraction(-5, 2), Fraction(1), [1, 2] + [2**k for k in range(2, _NONNEG_PROBE + 2)])
@example(Fraction(-4), Fraction(4), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])  # L = p/2 = 2: L (p - L) = -q and s(1) = L s(0) are ties
def test_order_two_minorant_matches_its_fraction_form_on_any_window(c1, c2, window):
    # the routes read only den and the window, so any nonnegative window
    # exercises every lambda, whether or not it obeys the recurrence
    rec = Recurrence(2, (c1, c2), window[:2])
    assert _nonnegative(_int_den(rec), window) == _fraction_nonnegative(rec, window)


def _fraction_shift_certified(rec, c, s):
    # the shift certificate on the recurrence's own Fraction coefficients
    start = _dominated_from((1, *rec.coeffs), c, s, 1, _WINDOW_CAP + rec.order)
    return start is not None and all(s[n] + c ** (n + 1) > 0 for n in range(start + rec.order))


def _fraction_growth_constant(rec):
    total = sum(abs(a) for a in rec.coeffs) * rec.order
    c = total.numerator // total.denominator + 1
    while not all(abs(v) < c ** (k + 1) for k, v in enumerate(rec.init)):
        c = max(floor_root(abs(v), k + 1) + 1 for k, v in enumerate(rec.init))
    return c


@given(_rational_recurrences())
@example(Recurrence(2, ("3/2", -1), (1, -2)))
def test_integer_shift_and_growth_data_match_their_fraction_forms(rec):
    s = _prefix(rec)
    den = _int_den(rec)
    assert den[0] > 0 and all(Fraction(a, den[0]) == b for a, b in zip(den[1:], rec.coeffs))
    c_s = _growth_constant(den, rec.init)
    assert c_s == _fraction_growth_constant(rec)
    # the shift predicate is nonneg or _shift_certified: both parts match
    # their Fraction forms, from c = 0
    assert _nonnegative(den, s) == _fraction_nonnegative(rec, s)
    for c in range(c_s + 1):
        assert _shift_certified(den, c, s) == _fraction_shift_certified(rec, c, s), c
    # the bound data's growth constant, against the shifted recurrence
    # with Fraction coefficients that _bound_data used to build
    _, t = _prepare(rec, find_shift(rec), s)
    h, d0 = len(t.den) - 1, t.den[0]
    rec_t = Recurrence(h, [Fraction(a, d0) for a in t.den[1:]], t[:h])
    assert _growth_constant(t.den, t) == _fraction_growth_constant(rec_t)


@given(st.one_of(_recurrences(), _rational_recurrences()))
@example(SIGNED_U)
@example(Recurrence(2, ("3/2", -1), (1, -2)))
def test_growth_constant_is_always_a_certified_shift(rec):
    # so the shift search, which ends at the growth constant, always finds
    # a shift; and c = 0 fails the certificate, so only _nonnegative can
    # prove it
    den, s = _int_den(rec), eval_oracle(rec, _WINDOW_CAP + rec.order).values
    assert _shift_certified(den, _growth_constant(den, rec.init), s)
    assert not _shift_certified(den, 0, s)


@pytest.mark.parametrize("force_c", [None, 1])
@pytest.mark.parametrize("rec", [SIGNED_U, Recurrence(2, ("-5/2", 1), (1, 2))], ids=["SIGNED_U", "minorant-rational"])
def test_synthesize_decides_nonnegative_once(monkeypatch, rec, force_c):
    # searched or forced, every shift c is proven by nonneg or
    # _shift_certified at c, with nonneg decided once
    calls = []
    nonnegative = synthesis._nonnegative
    monkeypatch.setattr(synthesis, "_nonnegative", lambda den, s: calls.append(den) or nonnegative(den, s))
    try:
        synthesize(rec, force_c=force_c)
    except SynthesisError:  # a forced shift too small for the sequence
        pass
    assert calls == [_int_den(rec)]


@pytest.mark.parametrize("force_c", [None, 1])
@pytest.mark.parametrize("rec", [FIB, SIGNED_U, MINUS_TWO_POW], ids=["FIB", "SIGNED_U", "rational"])
def test_synthesize_forms_the_integer_denominator_once(monkeypatch, rec, force_c):
    # _prefix forms it, and the prefix's den serves the shift proofs and
    # t's generating function
    calls = []
    int_den = recurrence._int_den

    def counted(rec):
        calls.append(rec)
        return int_den(rec)

    monkeypatch.setattr(recurrence, "_int_den", counted)
    monkeypatch.setattr(synthesis, "_int_den", counted)
    try:
        synthesize(rec, force_c=force_c)
    except SynthesisError:  # a forced shift too small for the sequence
        pass
    assert calls == [rec]


@given(st.one_of(_recurrences(), _rational_recurrences()))
@example(SIGNED_U)
@example(Recurrence(2, ("3/2", -1), (1, -2)))
def test_shifted_sequence_grows_from_its_own_denominator(rec):
    # t starts from the first _NONNEG_PROBE + d values of s, shifted, and
    # _extend grows it past them on its reduced denominator alone; the
    # oracle forms s(n) + c^(n+1) directly, on every index base search
    # reads at horizon 40 (h <= d + 1, window start <= _WINDOW_CAP + 1)
    count = _WINDOW_CAP + rec.order + 2
    oracle = eval_oracle(rec, count).values
    c = find_shift(rec)
    # below the least certified shift, c - 1 is a forced shift without a proof
    for shift in (c, c - 1) if c else (c,):
        s = synthesis._Prefix(oracle[: _NONNEG_PROBE + rec.order], _int_den(rec))
        try:
            _, t = _prepare(rec, shift, s)
        except SynthesisError as err:
            # only an unproven shift can leave t identically zero
            assert shift < c and "identically zero" in str(err)
            continue
        t.need(count)
        assert t == [v + shift ** (n + 1) for n, v in enumerate(oracle)], shift
        assert len(s) == _NONNEG_PROBE + rec.order


PELL = Recurrence(2, (-2, -1), (0, 1))  # passes n = 1 at b = 3 with carry 3


@given(_recurrences())
@example(PELL)
@example(FIB)
@example(Recurrence(1, (2,), (2,)))  # carries >= b that are not multiples of b
@example(Recurrence(2, (-5, 5), (0, 1)))  # the criterion fails at the digit floor 4 and at 5
def test_carry_jumps_skip_only_bases_that_fail_at_n1(rec):
    # make the first 20 direct checks fail, so the search walks on past
    # them; each base it passes over without a direct check has no window
    # (every base below the coefficient criterion) or fails n = 1
    c = find_shift(rec)
    num, t = _prepare(rec, c, _prefix(rec))
    b2 = _bound_data(c, t).b2
    checked = []
    first_mismatch = synthesis._first_mismatch

    def failing(num, t, b, ns):
        checked.append(b)
        return (1, -1) if len(checked) <= 20 else first_mismatch(num, t, b, ns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_first_mismatch", failing)
        try:
            b = synthesis._search_minimal_base(num, t, b2, 0)[0]
            assert b == checked[-1]
        except SynthesisError:  # the walk ran past b2
            pass
    assert checked == sorted(set(checked))
    for x in range(_digit_floor(t), checked[-1]):
        if x not in checked:
            assert _window_cutoff(t, x) is None or extraction_value(num, t.den, x, 1) != t[1], x


def _reference_walk(num, t, b2, replay):
    # _search_minimal_base as it was before the t(2) bound and the carry
    # memo: each carry jump gallops from b + 1, and every carry is computed
    # afresh; also the quotient k of each carry jump, None for a window jump
    lo = b = min(_digit_floor(t), b2)
    probes, jumps = 0, []
    while b is not None and b <= b2:
        if _coefficient_slack(t.den, b) > 0 and (f := _carry(num, t, b)) is not None and f % b:
            k = f // b
            jumps.append(k)
            b = _least(lambda x: (g := _carry(num, t, x)) is None or g <= k * x, b + 1, b2)
        elif (m_b := _window_cutoff(t, b)) is None:
            jumps.append(None)
            b = _least(lambda x: _window_cutoff(t, x) is not None, b + 1, b2)
        else:
            probes += 1
            if synthesis._first_mismatch(num, t, b, _checked(replay, m_b)) is None:
                report = {"strategy": "scan", "probes": probes, "scanned_from": lo, "minimal_proven": not replay}
                return (b, m_b, report), jumps
            b += 1
    return None, jumps


@given(_recurrences())
@example(PELL)
@example(FIB)
@example(Recurrence(1, (2,), (2,)))
@example(Recurrence(2, (-5, 5), (0, 1)))
def test_carry_walk_starts_past_t2_and_computes_each_carry_once(rec):
    # the first 8 direct checks fail, so both walks go on past them; each
    # counts its own checks
    c = find_shift(rec)
    num, t = _prepare(rec, c, _prefix(rec))
    b2, t2 = _bound_data(c, t).b2, t[2]
    first_mismatch = synthesis._first_mismatch
    checked = []

    def failing(num, t, b, ns):
        checked.append(b)
        return (1, -1) if len(checked) <= 8 else first_mismatch(num, t, b, ns)

    def walk():
        try:
            return synthesis._search_minimal_base(num, t, b2, 0)
        except SynthesisError:  # the walk ran past b2
            return None

    # carries computed inside each _least call, and outside any
    jumps, outside, current = [], [], None
    least = synthesis._least

    def recorded_least(pred, lo, hi):
        nonlocal current
        current = []
        jumps.append(current)
        try:
            return least(pred, lo, hi)
        finally:
            current = None

    def recorded_carry(num, t, x):
        (outside if current is None else current).append(x)
        return _carry(num, t, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_first_mismatch", failing)
        expected, ks = _reference_walk(num, t, b2, 0)
        checked.clear()
        mp.setattr(synthesis, "_least", recorded_least)
        mp.setattr(synthesis, "_carry", recorded_carry)
        assert walk() == expected
    # the same jumps in the same order: a carry jump with quotient k computes
    # no carry at a base x with k x^2 + x <= t(2), where F(x) > k x
    assert len(jumps) == len(ks)
    for k, xs in zip(ks, jumps):
        assert all(k * x * x + x > t2 for x in xs) if k is not None else xs == []
    carries = outside + [x for xs in jumps for x in xs]
    assert len(carries) == len(set(carries))


@given(st.integers(0, 10**6), st.integers(0, 10**40))
@example(0, 0)
@example(1, 0)
@example(1, 2)  # 1 + 1 = 2 is not past t(2): x = 2
@example(3, 14)  # 3*4 + 2 = 14: x = 3
def test_carry_floor_is_the_least_x_past_t2(k, t2):
    x = _carry_floor(k, t2)
    assert x >= 1 and k * x * x + x > t2
    assert x == 1 or k * (x - 1) ** 2 + (x - 1) <= t2


def test_carry_walk_computes_at_most_half_the_carries_of_the_gallop_from_b_plus_1(monkeypatch, random_specs):
    # galloping from b + 1 with no memo, the first 200 seed-1 specs of the
    # benchmark's random_batch computed 3,198 carries
    calls = []
    carry = synthesis._carry
    monkeypatch.setattr(synthesis, "_carry", lambda num, t, x: calls.append(x) or carry(num, t, x))
    for rec in random_specs(1, 200):
        synthesize(rec, horizon=30)
    assert len(calls) <= 3198 // 2


def _validated_cutoff(num, t, b, horizon):
    # a base by the definition: it has a window cutoff m_b and direct-checks
    # on [1, max(horizon, m_b - 1)]
    m_b = _window_cutoff(t, b)
    if m_b is None or _first_mismatch(num, t, b, range(1, max(horizon, m_b - 1) + 1)) is not None:
        return None
    return m_b


@given(_recurrences())
@example(PELL)
def test_search_finds_the_least_base_a_full_scan_finds(rec):
    r = synthesize(rec)
    num, t = _prepare(rec, r.c, _prefix(rec))
    assert all(_validated_cutoff(num, t, b, r.horizon) is None for b in range(_digit_floor(t), r.b))
    assert _validated_cutoff(num, t, r.b, r.horizon) == r.certified_from
