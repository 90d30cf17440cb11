"""Synthesis of closed-form extraction terms for C-recursive sequences.

Given a recurrence for an integer sequence s, this module produces a term
E(n) and a pair (b, c) such that

    s(n) = E(n) - c^(n+1)   for every n >= 1,

where E encodes base-b digit extraction from the power series of the
generating function of t(n) = s(n) + c^(n+1).  The pipeline is:

1. pick a shift c making t provably nonnegative (c = 0 when s itself is);
2. form the generating function of t as a reduced fraction of integer
   polynomials (generating_function, which never leaves Z[z]);
3. derive bound data (growth constant of t, a lower bound for the radius
   of convergence) giving a base b2 that is always valid from n = 1 on,
   plus a witness (b1, m): find_b1_m writes m down from bit lengths with
   margin to spare and proves it, and validate checks such an m through
   that proof's premises, in bit lengths; for any other m pow_lt decides
   the inequalities in powers of b1 exactly, from bit lengths where they
   tell and otherwise from the powers themselves, within the evaluator's
   bit budget;
4. walk upward from a digit floor (no smaller base can fit t(n) into n
   digits) for the least base that validates: the dominance lemma gives a
   cutoff m_b past which the term provably equals t(n), and the indices
   below m_b direct-check.  That proof needs t(n) >= 0 for every n, so
   under a forced shift without a proof each base direct-checks on
   [1, horizon] as well, and so does a forced base (_checked).  One loop
   direct-checks only bases with a window that the n = 1 carry F(b) keeps;
   for a proven shift F does not increase once the criterion holds, so
   _least jumps from a base the carry leaves to the next, and from a base
   with no window (none has one below the criterion) to the first base
   with one.  A carry jump with quotient k starts past every base x with
   k x^2 + x <= t(2), where F(x) >= floor(t(2)/x) > k x already rules x
   out, and no carry or window is computed twice in one search.  _least
   also finds the shift c.
   The term is then built from the signed (num, den, b) the direct checks
   ran on, and read_extraction must read exactly that data back off it.
   It reads every node, so such a term equals extraction_value of that
   data at every n, and the direct checks cover the term without it being
   evaluated.  Only build_extraction_term splits num and den into the
   positive and negative parts the term's truncated subtractions need.

synthesize expands s once, into a prefix that the shift stage reads and
alone grows (_prefix).  t starts from the values of s formed by then and
grows from its own denominator (_prepare), by the same expander.  Each
grows in place only as far as its readers ask, so most specs form a dozen
values rather than the whole capped prefix, with rational coefficients or
not: _prepare decides integrality for every n by Fatou's lemma.  The shift
proofs (_nonnegative, _shift_certified, _growth_constant) live here, beside
the search that reads them.  Everything is exact integer
arithmetic, apart from the radius bound rho, a Fraction of two integers.
Certificates are only ever sufficient: a reported base is backed by a
proof sketch (coefficient dominance + a window of digit-size checks), and
nearly every base rejected during the search passes that certificate but
fails the direct check, mostly at n = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul

from . import terms
from .recurrence import Recurrence, _extend, _generating_function, _int_den, floor_root
from .recurrence import eval_oracle  # noqa: F401  unused here; perfbench/selftest.py checks its tracer wraps it here
from .terms import _MAX_MATCHED_H, BudgetExceededError, Term, build_extraction_term, extraction_fraction, extraction_values, read_extraction

_WINDOW_CAP = 64  # how far to look for the digit-size window of a shift or base
_M_BITS_CAP = 256  # longest cutoff m find_b1_m returns, in bits
_NONNEG_PROBE = 8  # terms past the initial ones that _nonnegative inspects


class AllZeroSequenceError(ValueError):
    """The input recurrence generates the zero sequence."""


class SynthesisError(RuntimeError):
    """Synthesis could not produce or validate a representation."""


def radius_lower_bound(den: Sequence[int]) -> Fraction:
    """Positive lower bound for the distance from 0 to the nearest root.

    den is the coefficient sequence of a polynomial in ascending order,
    such as the int tuple generating_function returns.  Uses the
    Cauchy-type estimate |z| >= |d0| / (|d0| + max_{i>=1} |di|) for any
    root z of the polynomial.  A constant denominator has no roots and
    gets the bound 1, which is all the later inequalities need.
    """
    coeffs = tuple(den)
    if not coeffs or coeffs[0] == 0:
        raise ValueError("denominator must not vanish at 0")
    if len(coeffs) < 2:
        return Fraction(1)
    d0, top = abs(coeffs[0]), max(abs(d) for d in coeffs[1:])
    return Fraction(d0, d0 + top)


def _coefficient_slack(den: tuple[int, ...], base: int) -> int:
    """den_0 base^h - sum_{i>=1} |den_i| base^(h-i), for h = len(den) - 1,
    by Horner's rule on (den_0, -|den_1|, ..., -|den_h|).

    The coefficient criterion holds at ``base`` when this is >= 0, and
    strictly when it is > 0; strictly, den has no root in |z| <= 1/base.
    Both only get easier as the base grows.
    """
    acc = den[0]
    for d in den[1:]:
        acc = acc * base - abs(d)
    return acc


def _dominated_from(den: tuple[int, ...], base: int, values: Sequence[int], offset: int, count: int) -> int | None:
    """First index of h = len(den) - 1 consecutive |v(k)| < base^(k+offset)
    in values[:count].

    ``values`` obey sum_i den_i v(k-i) = 0, den_0 > 0.  The coefficient
    criterion (_coefficient_slack >= 0) carries the bound from k-h..k-1 to
    k, so such a window proves it for every later index; it also keeps a
    term denominator D(base^n) positive and puts every root of den at
    modulus >= 1/base.  The shift
    uses it for |s(k)| < c^(k+1), base search for t(k) < b^(k-2).  None
    when the criterion fails or values[:count] hold no window.

    ``values`` is a whole prefix of at least count values, or a _Prefix
    whose cap is at least count: a scan that runs out of formed values
    grows it to count and goes on.  Most windows start within the first
    few values, and a window past them mostly needs the whole count.
    """
    h = len(den) - 1
    if _coefficient_slack(den, base) < 0:
        return None
    # |v| < base^(k+offset), decided in integers
    scale, pw = base ** max(-offset, 0), base ** max(offset, 0)
    run = 0
    for k in range(count):
        if k == len(values):
            values.need(count)
        run = run + 1 if abs(values[k]) * scale < pw else 0
        if run == h:
            return k - h + 1
        pw *= base
    return None


class _Prefix(list):
    """The first len(self) values of a sequence that obeys the integer
    recurrence den (as _extend takes it), grown in place on demand.

    need(count) makes it hold min(count, cap) values, by _extend; readers
    index and slice it as the list it is.
    """

    __slots__ = ("den", "cap")

    def __init__(self, values: Sequence[int], den: tuple[int, ...], cap: int):
        super().__init__(values)
        self.den, self.cap = den, cap

    def need(self, count: int) -> None:
        _extend(self.den, self, min(count, self.cap))


def _shift_certified(den: tuple[int, ...], c: int, s: Sequence[int]) -> bool:
    """Proof that s(n) + c^(n+1) > 0 for every n, for den = _int_den(rec).

    den is a positive multiple of (1, *coeffs), so _coefficient_slack keeps
    its sign.  _dominated_from proves |s(n)| < c^(n+1) from a window in
    s[:_WINDOW_CAP + d] on, growing a _Prefix s that far if it must, and
    the indices before its end, formed by then, are checked.  c = 0 fails
    at once, as its slack is -|den_d| < 0.  The growth constant of s always
    passes: its slack is positive and its window starts at 0.
    """
    d = len(den) - 1
    start = _dominated_from(den, c, s, 1, _WINDOW_CAP + d)
    if start is None:
        return False
    # c^(n+1) as a running product
    return all(v + pw > 0 for v, pw in zip(s[: start + d], accumulate(repeat(c, start + d), mul)))


def _nonnegative(den: Sequence[int], s: Sequence[int]) -> bool:
    """Conservative check that s(n) >= 0 for every n, from den = _int_den(rec)
    and a prefix s.

    True is only returned with a proof in hand; False just means no proof
    was found, not that the sequence goes negative.  Both routes read
    exactly s[:_NONNEG_PROBE + d] (more would let route 2 find more base
    pairs), which must be nonnegative.  Both run in integers on den, a
    positive multiple of (1, *coeffs):

    1. all den_i, i >= 1, are <= 0, so every new term is a nonnegative
       combination of earlier ones;
    2. order 2 with den = (S, -P, -Q), P > 0 > Q: a linear minorant
       s(n+1) >= L s(n) survives the step when 0 <= L <= P/S and
       L (P/S - L) >= -Q/S, so one valid base pair settles everything
       after it.  L = a/e > 0 is 1, P/2S or -2Q/P, and in integers that
       is a S <= P e, a (P e - a S) >= -Q e^2 and e s(k+1) >= a s(k).
    """
    window = s[: _NONNEG_PROBE + len(den) - 1]
    if any(v < 0 for v in window):
        return False
    if all(a <= 0 for a in den[1:]):
        return True
    if len(den) == 3 and (P := -den[1]) > 0 > (Q := -den[2]):
        S = den[0]
        return any(
            a * S <= P * e and a * (P * e - a * S) >= -Q * e * e and any(e * y >= a * x for x, y in zip(window, window[1:]))
            for a, e in ((1, 1), (P, 2 * S), (-2 * Q, P))
        )
    return False


def _growth_constant(den: Sequence[int], init: Sequence[int]) -> int:
    """Small integer c >= 1 with |v(n)| < c^(n+1) for all n, for the sequence
    v of sum_i den_i v(n-i) = 0, den_0 > 0, with v = init on the first
    d = len(den) - 1 indices: the least c at or past the start bound
    d * sum_{i>=1} |den_i| // den_0 + 1, which dominates the step
    inductively once the initial terms comply, with |v(k)| < c^(k+1) for
    k < d, which floor_root(|v(k)|, k + 1) + 1 is the least c to meet."""
    d = len(den) - 1
    start = d * sum(abs(a) for a in den[1:]) // den[0] + 1
    return max(start, *(floor_root(abs(v), k + 1) + 1 for k, v in enumerate(init[:d])))


def _least(pred: Callable[[int], bool], lo: int, hi: int) -> int | None:
    """Least x in [lo, hi] with pred(x), or None when pred(hi) is false.

    pred must be false-then-true on [lo, hi].  Gallops lo, lo + 1, lo + 3,
    lo + 7, ... (clamped at hi) to the first x with pred(x), then bisects
    the gap behind it: at most 2 log2(x - lo + 1) + 2 calls of pred.  Even
    for a pred of any other shape, pred(x) was true for the x returned.
    An empty range gives None without a call.
    """
    if lo > hi:
        return None
    below, step, x = lo - 1, 1, lo
    while not pred(x):
        if x == hi:
            return None
        below, step = x, 2 * step
        x = min(lo + step - 1, hi)
    # pred(below) is false (or below = lo - 1), pred(x) is true
    while x - below > 1:
        mid = (below + x) // 2
        if pred(mid):
            x = mid
        else:
            below = mid
    return x


def find_shift(rec: Recurrence) -> int:
    """Least proven shift c; 0 exactly when s is provably nonnegative.

    c is proven when _nonnegative or _shift_certified holds.  _least
    searches that from 0, as it is monotone in c: at c = 0 only
    _nonnegative can hold, the certificate's coefficient criterion gets
    easier as c grows, a window for c is one for every larger c, and
    s(n) + c^(n+1) grows with c.  The growth constant is always proven.
    This is synthesize's own shift stage, _prepare included, so it raises
    what synthesize raises before base search (AllZeroSequenceError, and
    SynthesisError for a spec that is not an integer sequence).
    """
    return _shift_stage(rec, 1, None)[0]


def pow_lt(a: int, p: int, b: int, q: int) -> bool:
    """Exactly whether a^p < b^q, for naturals a, b, p, q.

    For x >= 1 of bit length L, x^k lies in [2^(k(L-1)), 2^(kL)), so bit
    lengths decide every pair whose ranges are disjoint.  Any other pair
    is decided on the powers built exactly, when both fit in
    DEFAULT_BIT_BUDGET bits, read at call time as evaluate reads it;
    past it BudgetExceededError is raised instead.
    """
    if min(a, p, b, q) < 0:
        raise ValueError("pow_lt needs natural numbers")
    # x^0 = 1 (also for x = 0) and 1^k = 1; 0^k = 0 for k >= 1
    a, p = (a, p) if p and a != 1 else (1, 1)
    b, q = (b, q) if q and b != 1 else (1, 1)
    if a == 0 or b == 0:
        return a < b
    la, lb = a.bit_length(), b.bit_length()
    if p * la <= q * (lb - 1):
        return True
    if q * lb <= p * (la - 1):
        return False
    bits, budget = max(p * la, q * lb), terms.DEFAULT_BIT_BUDGET
    if bits > budget:
        raise BudgetExceededError(f"comparing powers of about {bits} bits exceeds the budget of {budget} bits")
    return a**p < b**q


def _size_cutoff(c_t: int) -> int:
    """2 + ceil(21 L (2c + 1)/20) for c = c_t and L its bit length: from
    this index on c^(m+1) < (c + 1)^(m-2), by find_b1_m's proof."""
    return 2 + -(-21 * c_t.bit_length() * (2 * c_t + 1) // 20)


def find_b1_m(c_t: int, rho: Fraction) -> tuple[int, int]:
    """Base b1 = c_t + 1 just above the growth constant, and a cutoff m for it.

    m is an index from which both c_t^(m+1) < b1^(m-2) and b1^(-m) < rho
    hold; past it the digit-size and radius requirements are met at base
    b1.  It need not be the least such index, so it is written down:
    m = max(_size_cutoff(c), k + 1) = max(2 + ceil(21 L (2c + 1)/20), k + 1)
    for c = c_t, L the bit length of c and k that of floor(1/rho).

    Proof.  The size condition is (m - 2) ln(1 + 1/c) > 3 ln c.  As
    c < 2^L, ln c < L ln 2 < 7L/10, and ln(1 + 1/c) > 2/(2c + 1), so
    (m - 2) ln(1 + 1/c) > 21L/10 > 3 ln c.  The radius condition is
    floor(1/rho) < b1^m in integers, and b1^m >= 2^m > 2^k > floor(1/rho).
    Both steps hold for every m at or past their bound and every b1 > c,
    so BoundsCertificate.validate checks those two premises, in bit
    lengths, and leaves pow_lt only the certificates they do not cover.

    The work stays bounded: a cutoff of more than _M_BITS_CAP bits raises
    SynthesisError before any power is compared, which ends order-1 specs
    with huge coefficients at once.  For c_t = 5 and rho = 1/2, m is 37.
    """
    if c_t < 1 or rho <= 0:
        raise ValueError("need c_t >= 1 and rho > 0")
    m = max(_size_cutoff(c_t), (rho.denominator // rho.numerator).bit_length() + 1)
    if m.bit_length() > _M_BITS_CAP:
        raise SynthesisError(f"bound data needs a cutoff m of more than {_M_BITS_CAP} bits")
    return c_t + 1, m


def find_b2(c_t: int, rho: Fraction) -> int:
    """A base that is valid from n = 1 on, with no cutoff needed; past
    DEFAULT_BIT_BUDGET bits of c_t^6 it raises BudgetExceededError."""
    if c_t < 1 or rho <= 0:
        raise ValueError("need c_t >= 1 and rho > 0")
    bits, budget = 6 * c_t.bit_length(), terms.DEFAULT_BIT_BUDGET
    if bits > budget:
        raise BudgetExceededError(f"c_t^6 of about {bits} bits exceeds the budget of {budget} bits")
    return max(8, c_t**6 + 1, rho.denominator // rho.numerator + 1)


@dataclass(frozen=True, slots=True)
class BoundsCertificate:
    """Bound data backing a synthesized representation.

    c is the shift, c_t the growth constant of the shifted sequence, rho a
    positive lower bound for the radius of convergence of its generating
    function; (b1, m) witness validity of base b1 from index m on, and b2
    is valid from 1 on.
    """

    c: int
    c_t: int
    rho: Fraction
    b1: int
    m: int
    b2: int

    def validate(self) -> None:
        """Raise ValueError naming the first inequality the data violates.

        Checks run in order, so the two inequalities in b1^m are only reached
        with m >= 3, b1 > c_t >= 1 and rho > 0, the radius one as
        floor(1/rho) < b1^m.  Each first checks the premise find_b1_m's
        proof rests on, in bit lengths: m >= _size_cutoff(c_t), which gives
        c_t^(m+1) < (c_t + 1)^(m-2) <= b1^(m-2), and floor(1/rho) of fewer
        than m bits, which gives floor(1/rho) < 2^m <= b1^m.  So an m that
        find_b1_m wrote down builds no power; for any other m pow_lt decides
        the inequality exactly.  A hand-made certificate whose powers go
        past DEFAULT_BIT_BUDGET bits, and that bit lengths cannot decide,
        raises BudgetExceededError instead.  b2 fails when it has at most
        6 (bits(c_t) - 1) bits; else c_t^6 has at most bits(b2) + 6 bits.
        """
        c_t, b1, m, rho, b2 = self.c_t, self.b1, self.m, self.rho, self.b2
        checks = [
            ("m >= 3", lambda: m >= 3),
            ("c_t >= 1", lambda: c_t >= 1),
            ("b1 > c_t", lambda: b1 > c_t),
            ("rho > 0", lambda: rho > 0),
            ("c_t^(m+1) < b1^(m-2)", lambda: m >= _size_cutoff(c_t) or pow_lt(c_t, m + 1, b1, m - 2)),
            ("b1^(-m) < rho", lambda: (k := rho.denominator // rho.numerator).bit_length() < m or pow_lt(k, 1, b1, m)),
            ("b2 >= max(8, c_t^6 + 1)", lambda: b2 >= 8 and b2.bit_length() > 6 * c_t.bit_length() - 6 and b2 > c_t**6),
            ("b2^(-1) < rho", lambda: rho.numerator * b2 > rho.denominator),
        ]
        for label, ok in checks:
            if not ok():
                raise ValueError(f"certificate violates {label}")

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "c_t": self.c_t,
            "rho": str(self.rho),
            "b1": self.b1,
            "m": self.m,
            "b2": self.b2,
        }


def _prefix(rec: Recurrence, horizon: int) -> _Prefix:
    """The prefix of s, on den = _int_den(rec), that synthesize expands
    once, capped at max(_WINDOW_CAP + d + 2, horizon + 1) values, which is
    also the cap of t: the shift proofs read at most
    s(0.._WINDOW_CAP + d - 1), and base search at most t(0.._WINDOW_CAP + h),
    h <= d + 1, in the dominance window, whose start is at most
    _WINDOW_CAP + 1, and t(1..horizon) in the direct checks.

    It holds s(0.._NONNEG_PROBE + d - 1) at first, all that
    _nonnegative, the growth constant, the digit floor and the
    carry read, and _shift_certified, which lives in this module with the
    other shift proofs, grows it by _extend, so no value is formed twice.
    Rational coefficients form no more than integer ones: _prepare decides
    integrality for every n, so NonIntegerTermError only comes from a value
    formed here.
    """
    den = _int_den(rec)
    s = _Prefix(rec.init, den, max(_WINDOW_CAP + rec.order + 2, horizon + 1))
    s.need(_NONNEG_PROBE + rec.order)
    return s


def _prepare(rec: Recurrence, c: int, s: _Prefix) -> tuple[tuple[int, ...], _Prefix]:
    """(num, t) for shift c: num of t's generating function num/den, and
    t(n) = s(n) + c^(n+1) formed on the prefix s of _prefix as far as it is
    formed, at least _NONNEG_PROBE + d values, and grown past it from t's
    own denominator t.den: deg num < h, so sum_i den_i t(n-i) = 0 from
    n = h on, and den[0] = 1, so _extend never divides.  Raises
    SynthesisError when t is eventually zero, when its denominator's
    degree h is past _MAX_MATCHED_H, the largest h read_extraction reads
    back, or when den[0] != 1: by Fatou's lemma the series has integer
    coefficients exactly when its reduced primitive denominator has
    den[0] = 1, so this is the one place integrality is decided, for
    every n.  The shift proofs that pick c (_nonnegative, _shift_certified)
    live in this module too.  Nothing here looks at the sign of t; synthesize does, where no proof
    covers it."""
    num, den = _generating_function(s.den, rec.init, c)
    if not num:
        raise SynthesisError("shifted sequence is identically zero")
    if den[0] != 1:
        raise SynthesisError(f"not an integer sequence: its generating function's reduced denominator has constant term {den[0]}")
    h = len(den) - 1
    if h < 1:
        raise SynthesisError("shifted sequence is eventually zero; no proper pole")
    if h > _MAX_MATCHED_H:
        raise SynthesisError(f"the term's denominator would have degree {h}, past the cap of {_MAX_MATCHED_H}")
    # c^(n+1) as a running product
    return num, _Prefix(map(add, s, accumulate(repeat(c, len(s)), mul)), den, s.cap)


def _shift_stage(rec: Recurrence, horizon: int, force_c: int | None) -> tuple[int, bool, tuple[int, ...], _Prefix]:
    """(c, shift_proven, num, t): the least proven shift, or force_c and
    whether it is proven, then _prepare's (num, t) for it.  _nonnegative
    is decided once, on the prefix of _prefix(rec, horizon)."""
    # a homogeneous recurrence is zero exactly when its d initial values are
    if not any(rec.init):
        raise AllZeroSequenceError("the sequence is identically zero")
    s = _prefix(rec, horizon)
    nonneg = _nonnegative(s.den, s)

    def proven(c: int) -> bool:
        return nonneg or _shift_certified(s.den, c, s)

    c = _least(proven, 0, _growth_constant(s.den, rec.init)) if force_c is None else force_c
    return (c, force_c is None or proven(c), *_prepare(rec, c, s))


def _bound_data(c: int, t: _Prefix) -> BoundsCertificate:
    """Validated bound data for shift c and the shifted sequence t of _prepare."""
    c_t = _growth_constant(t.den, t)
    rho = radius_lower_bound(t.den)
    b1, m = find_b1_m(c_t, rho)
    cert = BoundsCertificate(c=c, c_t=c_t, rho=rho, b1=b1, m=m, b2=find_b2(c_t, rho))
    cert.validate()
    return cert


def _first_mismatch(num: tuple[int, ...], t: _Prefix, b: int, ns: range) -> tuple[int, int] | None:
    """(n, value) at the least n in ns where the term with base b misses
    t(n), or None; the values come from extraction_values over ns, and t
    is grown to the last index of ns first."""
    t.need(ns.stop)
    for n, got in zip(ns, extraction_values(num, t.den, b, ns)):
        if got != t[n]:
            return n, got
    return None


def _window_cutoff(t: _Prefix, b: int) -> int | None:
    """Cutoff m_b >= 2 from which the term with base b provably equals t(n),
    or None when _dominated_from finds no window in t(0.._WINDOW_CAP + h).

    The term reads t(n) off the base-b^n digits of the generating function
    at b^(-n), which needs the series to converge there and each t(k) to
    fit its digit block.  _dominated_from on the term's denominator gives
    both from m_b = max(start, 2) on: the coefficient criterion puts every
    pole at modulus >= 1/b > b^(-n), and the window proves t(k) < b^(k-2).
    A window for b is a window for every larger base.
    """
    start = _dominated_from(t.den, b, t, -2, _WINDOW_CAP + len(t.den))
    return None if start is None else max(start, 2)


def _digit_floor(t: _Prefix, horizon: int) -> int:
    """No base below this can represent the sequence: t(n) must fit n digits.
    max(2, floor_root(t(n), n) + 1) over n <= min(horizon, 8), taking a root
    only when t(n) >= lo^n, exactly when it raises the floor lo so far."""
    lo = 2
    for n in range(1, min(horizon, 8) + 1):
        if t[n] >= lo**n:
            lo = floor_root(t[n], n) + 1
    return lo


def _carry(num: tuple[int, ...], t: _Prefix, b: int) -> int | None:
    """F(b) = floor(b A(b) / D(b)) - t(0) b - t(1), or None when A(b) <= 0 or
    D(b) <= 0; the term with base b gives (t(1) + F(b)) mod b at n = 1."""
    a, d = extraction_fraction(num, t.den, b)
    if a <= 0 or d <= 0:
        return None
    return b * a // d - t[0] * b - t[1]


def _carry_floor(k: int, t2: int) -> int:
    """Least x >= 1 with k x^2 + x > t2, for k, t2 >= 0.  With every t(n) >= 0,
    F(x) >= floor(t(2)/x) > k x below it, so no smaller base has F(x) <= k x.

    For k >= 1 the condition is (2kx + 1)^2 > 4k t2 + 1, that is
    2kx + 1 > r for r = isqrt(4k t2 + 1), so x = ceil(r / 2k).
    """
    if k == 0:
        return t2 + 1
    return -(-math.isqrt(4 * k * t2 + 1) // (2 * k))


def _checked(replay: int, m_b: int | None) -> range:
    """The indices a base direct-checks: [1, m_b - 1] below its cutoff, and
    [1, replay]; replay is 0 where the window proves every n >= m_b."""
    return range(1, max(replay, (m_b or 1) - 1) + 1)


def _search_minimal_base(num: tuple[int, ...], t: _Prefix, b2: int, horizon: int, replay: int) -> tuple[int, int, dict]:
    """Least base in [digit floor, b2] with a _window_cutoff m_b that
    direct-checks on _checked(replay, m_b), with m_b and a report;
    report["probes"] counts the bases direct-checked.  replay is 0 under a
    proven shift, whose dominance window covers every n >= m_b, and the
    horizon otherwise, where the window proves nothing past the checked
    prefix.

    With A(b) and D(b) as in extraction_value at x = b, the term at n = 1 is
    floor(b A(b) / D(b)) mod b = (t(1) + F(b)) mod b for the carry F(b) of
    _carry, so b passes n = 1 iff b divides F(b), as t(1) < b above the
    digit floor.  Suppose the shift is proven (t(k) >= 0 for every k)
    and _coefficient_slack(den, b) > 0, so D(b') > 0 and den has no root in
    |z| <= 1/b' for every b' >= b.  Then F(b') is
    floor(sum_{k>=2} t(k) b'^(1-k)) >= 0 and does not increase in b', so
    g_k(x) = F(x) - k x strictly decreases for every k >= 1 and does not
    increase for k = 0.  Lemma, for every k >= 0: if k = F(b) // b and F(b)
    is no multiple of b, each b' > b with g_k(b') > 0 fails at n = 1, since
    k b' < F(b') <= F(b) < (k + 1) b < (k + 1) b'; these are exactly the
    bases before the least b* with g_k(b*) <= 0, where b* passes or k
    drops.  So at such a base the loop goes on at b*, found by _least, and
    this carry walk skips only bases that fail at n = 1.  A base with
    slack 0 or no carry is not stepped past.  Every other base below the
    result is direct-checked and fails, so it is invalid, or has no window
    in t(0.._WINDOW_CAP + h), as every base below the coefficient
    criterion, so it is unproven.  A window for a base is one for every
    larger base, so from a base without one the loop goes on at the least
    base with a window (_least), skipping only bases it would reject the
    same way.  So the result is the least base the lemma certifies within
    _WINDOW_CAP terms, and the least valid base only among the bases
    whose window starts that early.

    A carry jump with quotient k starts at max(b + 1, x0), x0 the least x
    with k x^2 + x > t(2) (_carry_floor): below x0, t(n) >= 0 for every n
    gives F(x) >= floor(t(2)/x) > k x, so each such x fails n = 1 and the
    gallop from b + 1 would only step over it.  Carries and cutoffs are
    memoised per call, since a jump's _least has mostly computed the one
    of the base it lands on.

    A forced shift without a proof runs the same walk, but t may turn
    negative past the checked prefix, so F need not be monotone and a
    skipped base might validate: report["minimal_proven"] is False.
    """
    lo = b = min(_digit_floor(t, horizon), b2)
    probes, t2 = 0, t[2]
    carries: dict[int, int | None] = {}
    cutoffs: dict[int, int | None] = {}

    def carry(x: int) -> int | None:
        return carries[x] if x in carries else carries.setdefault(x, _carry(num, t, x))

    def cutoff(x: int) -> int | None:
        return cutoffs[x] if x in cutoffs else cutoffs.setdefault(x, _window_cutoff(t, x))

    while b is not None and b <= b2:
        if _coefficient_slack(t.den, b) > 0 and (f := carry(b)) is not None and f % b:
            k = f // b
            b = _least(lambda x: (g := carry(x)) is None or g <= k * x, max(b + 1, _carry_floor(k, t2)), b2)
        elif (m_b := cutoff(b)) is None:
            b = _least(lambda x: cutoff(x) is not None, b + 1, b2)
        else:
            probes += 1
            if _first_mismatch(num, t, b, _checked(replay, m_b)) is None:
                # replay is 0 exactly under a proven shift
                return b, m_b, {"strategy": "scan", "probes": probes, "scanned_from": lo, "minimal_proven": not replay}
            b += 1
    raise SynthesisError("no base up to b2 validated; bound data is inconsistent")


@dataclass(frozen=True, slots=True)
class SynthesisResult:
    """A synthesized representation together with its supporting data."""

    recurrence: Recurrence
    term: Term
    b: int
    c: int
    valid_at_zero: bool
    certificate: BoundsCertificate
    certified_from: int | None
    horizon: int
    report: dict

    def to_json_dict(self) -> dict:
        return {
            "recurrence": self.recurrence.to_json_dict(),
            "term": terms.render(self.term),
            "term_json": terms.term_to_json(self.term),
            "b": self.b,
            "c": self.c,
            "valid_at_zero": self.valid_at_zero,
            "certificate": self.certificate.to_json_dict(),
            "certified_from": self.certified_from,
            "horizon": self.horizon,
            "report": self.report,
        }


def synthesize(
    rec: Recurrence,
    horizon: int = 40,
    force_c: int | None = None,
    force_b: int | None = None,
) -> SynthesisResult:
    """Produce a validated representation s(n) = E(n) - c^(n+1) for n >= 1.

    A shift c is proven when _nonnegative, decided once, or
    _shift_certified(c) holds; a searched c is the least proven one, the c
    of find_shift, by the same _shift_stage.  A spec that is not an integer
    sequence raises SynthesisError from _prepare, or NonIntegerTermError at
    the first non-integer value formed before that.  horizon is how far
    the direct checks replay where no proof covers every n: under a forced
    shift without one, and for a forced base.  A searched base under a
    proven shift is direct-checked only below certified_from, from where
    the dominance window proves it; report["checked_to"] is always the last
    index that was direct-checked, certified_from - 1 there.
    force_c / force_b pin the shift or base instead of searching.  A forced
    base direct-checks on [1, max(horizon, m_b - 1)] (_checked) and is
    rejected at the first failure anywhere in that range; one without a
    window m_b is accepted, horizon-only, on [1, horizon].  A forced shift
    without a proof leaves the result horizon-only, with certified_from
    None, and a searched base with report["minimal_proven"] False.

    The direct checks run extraction_values over each checked range on the
    signed (num, den, b) the term is built from, by the route rule of
    extraction_values; most of these checks are a few small indices, on
    which that rule takes a modular power.  synthesize never evaluates
    the term: it reads that data back off it with read_extraction, which
    proves the term equals extraction_value of it at every n; a mismatch
    raises SynthesisError "internal: ...".  The term is 0 at n = 0, so
    valid_at_zero is s(0) + c == 0.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if force_c is not None and force_c < 0:
        raise ValueError("force_c must be a natural number")
    if force_b is not None and force_b < 2:
        raise ValueError("force_b must be at least 2")
    c, shift_proven, num, t = _shift_stage(rec, horizon, force_c)
    if not shift_proven:
        # t may turn negative anywhere in the capped prefix; a proof of the
        # shift is a proof that it does not
        t.need(t.cap)
        for n, v in enumerate(t):
            if v < 0:
                raise SynthesisError(f"shift {c} leaves a negative term at n={n}")
    cert = _bound_data(c, t)

    # a forced base has no other evidence, and the base certificate assumes
    # t(n) >= 0 for every n, which only the checked prefix backs under an
    # unproven shift
    replay = 0 if shift_proven and force_b is None else horizon
    if force_b is not None:
        b, m_b = force_b, _window_cutoff(t, force_b)
        mismatch = _first_mismatch(num, t, b, _checked(replay, m_b))
        if mismatch is not None:
            n, got = mismatch
            raise SynthesisError(f"base {b} fails at n={n}: term gives {got}, sequence needs {t[n]}")
        report = {"strategy": "forced"}
    else:
        b, m_b, report = _search_minimal_base(num, t, cert.b2, horizon, replay)
    certified_from = m_b if shift_proven else None
    report["evidence"] = "horizon-only" if certified_from is None else "certified"
    report["checked_to"] = _checked(replay, m_b)[-1]

    term = build_extraction_term(num, t.den, b)
    padded = num + (0,) * (len(t.den) - len(num))
    if read_extraction(term) != (padded, t.den, b):
        raise SynthesisError("internal: built term does not read back as the data base search checked")

    return SynthesisResult(
        recurrence=rec,
        term=term,
        b=b,
        c=c,
        # every extraction term is 0 at n = 0, where it reduces mod b^0 = 1
        valid_at_zero=rec.init[0] + c == 0,
        certificate=cert,
        certified_from=certified_from,
        horizon=horizon,
        report=report,
    )
